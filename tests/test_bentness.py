"""Derivative sums, verdicts, and spectra against brute-force oracles."""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import pytest

from bentgroups import (
    BENT,
    NOT_BENT,
    NOT_UNIMODULAR,
    SequenceKind,
    SequenceSpec,
    character_table,
    derivative_sum,
    derivative_sums,
    from_coefficients,
    from_values,
    group_from_label,
    is_bent,
    is_bent_spectral,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    oracle_verdicts,
    quadratic_chirp,
    report_to_json,
    spectrum,
    zadoff_chu,
)
from bentgroups.bentness import _row_max
from bentgroups.characters import _FFT_ORDER

from conftest import (
    BLOCK_LABELS,
    brute_derivative_sums,
    brute_right_sums,
    brute_spectrum,
    class_constant_samples,
    relabelled,
    unit_phases,
)

W3 = cmath.exp(2j * math.pi / 3)


def test_single_character_derivative(z3_table):
    chi2 = from_coefficients(z3_table, [0.0, 1.0, 0.0])
    assert abs(derivative_sum(chi2, 1) - 3.0 * W3) < 1e-12
    assert abs(derivative_sum(chi2, 2) - 3.0 * W3**2) < 1e-12


def test_identity_derivative_is_energy(z4_table):
    f = from_coefficients(z4_table, np.array([0.5, 0.5, 0.5, 0.5]))
    assert abs(derivative_sum(f, 0) - 4.0 * 0.25 * 4) < 1e-12  # n * sum |a_i|^2


def test_direction_out_of_range(z3_table):
    f = from_coefficients(z3_table, np.ones(3) / math.sqrt(3))
    with pytest.raises(IndexError):
        derivative_sum(f, 3)
    with pytest.raises(IndexError):
        derivative_sum(f, -1)


def test_derivative_sums_match_brute_force():
    rng = np.random.default_rng(11)
    for label in ("Z5", "Z2xZ3"):
        table = character_table(group_from_label(label))
        f = from_values(table, unit_phases(rng, table.group.order))
        fast = derivative_sums(f)
        slow = brute_derivative_sums(table.group.cayley.tolist(), f.values)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_derivative_sums_match_brute_force_nonabelian(s3_table, q8_table):
    for table in (s3_table, q8_table):
        a = np.arange(1, table.n_irreps + 1).astype(complex)
        a /= np.linalg.norm(a)
        f = from_coefficients(table, a)
        np.testing.assert_allclose(
            derivative_sums(f),
            brute_derivative_sums(table.group.cayley.tolist(), f.values),
            atol=1e-12,
        )


def test_hermitian_symmetry(z4_table):
    rng = np.random.default_rng(3)
    f = from_values(z4_table, unit_phases(rng, 4))
    d = derivative_sums(f)
    g = z4_table.group
    for sigma in range(4):
        assert abs(d[g.inverses[sigma]] - d[sigma].conjugate()) < 1e-12


def test_bent_witness_z3(z3_table):
    a = np.array([1.0, W3, W3]) / math.sqrt(3.0)
    report = is_bent(from_coefficients(z3_table, a))
    assert report.verdict == BENT
    assert report.max_residual < 1e-12
    assert report.unimodular_deviation < 1e-12
    assert len(report.residuals) == 2


def test_single_character_not_bent(z3_table):
    report = is_bent(from_coefficients(z3_table, [0.0, 1.0, 0.0]))
    assert report.verdict == NOT_BENT
    assert report.max_residual == pytest.approx(3.0, abs=1e-12)


def test_constant_not_bent(z4_table):
    report = is_bent(from_coefficients(z4_table, [1.0, 0, 0, 0]))
    assert report.verdict == NOT_BENT
    assert report.max_residual == pytest.approx(4.0, abs=1e-12)


def test_flat_magnitudes_but_not_unimodular(z3_table):
    report = is_bent(from_coefficients(z3_table, np.ones(3) / math.sqrt(3)))
    assert report.verdict == NOT_UNIMODULAR


def test_order_one_group_vacuously_bent():
    table = character_table(make_cyclic(1))
    f = from_coefficients(table, [1.0])
    report = is_bent(f)
    assert report.verdict == BENT
    assert report.max_residual == 0.0
    assert is_bent_spectral(f)


def test_spectrum_examples(z3_table, z4_table):
    bent = make_bent_cyclic(SequenceSpec(SequenceKind.QUADRATIC_CHIRP, 3)).function
    np.testing.assert_allclose(spectrum(bent), [3.0, 3.0, 3.0], atol=1e-12)
    chi2 = from_coefficients(z4_table, [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(spectrum(chi2), [0.0, 16.0, 0.0, 0.0], atol=1e-12)
    const = from_coefficients(z4_table, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(spectrum(const), [16.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_spectrum_matches_brute_force():
    rng = np.random.default_rng(17)
    table = character_table(make_cyclic(7))
    f = from_values(table, unit_phases(rng, 7))
    np.testing.assert_allclose(spectrum(f), brute_spectrum(f.values), atol=1e-9)


def test_spectrum_is_n_squared_coefficient_magnitudes(z4_table):
    a = np.array([0.5, 0.5j, -0.5, 0.5])
    f = from_coefficients(z4_table, a)
    np.testing.assert_allclose(spectrum(f), 16.0 * np.abs(a) ** 2, atol=1e-12)


def test_spectral_and_derivative_verdicts_agree():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 6, 8):
        table = character_table(make_cyclic(n))
        for _ in range(40):
            f = from_values(table, unit_phases(rng, n))
            assert (is_bent(f).verdict == BENT) == is_bent_spectral(f)
        bent = make_bent_cyclic(SequenceSpec(SequenceKind.ZADOFF_CHU, n, 1)).function
        assert is_bent(bent).verdict == BENT
        assert is_bent_spectral(bent)


def test_spectral_check_on_the_s3_trivial_character(s3_table):
    f = from_coefficients(s3_table, np.array([1.0, 0, 0]))
    np.testing.assert_allclose(spectrum(f), [36.0, 0.0, 0.0], atol=1e-12)
    assert not is_bent_spectral(f)


def nonabelian_batch(table, rng: np.random.Generator) -> list:
    """Unimodular class functions with random class values, non-unimodular ones
    carrying the forced magnitudes d_i/sqrt(n), and every irreducible character."""
    group = table.group
    n, r = group.order, table.n_irreps
    forced = np.asarray(table.degrees) / math.sqrt(n)
    functions = [from_values(table, unit_phases(rng, group.n_classes)[group.class_of])
                 for _ in range(100)]
    functions += [from_coefficients(table, forced * unit_phases(rng, r)) for _ in range(100)]
    functions += [from_coefficients(table, row) for row in np.eye(r)]
    return functions


@pytest.mark.parametrize("label", ["S3", "Q8", "D4"])
def test_spectral_verdict_matches_is_bent_on_nonabelian_groups(label):
    table = character_table(group_from_label(label))
    n, d = table.group.order, np.asarray(table.degrees)
    for f in nonabelian_batch(table, np.random.default_rng(len(label) + n)):
        # fhat(rho_i) is the scalar n * a_i / d_i
        np.testing.assert_allclose(
            spectrum(f), n**2 * np.abs(f.coefficients) ** 2 / d**2, rtol=0, atol=1e-12
        )
        assert is_bent_spectral(f) == (is_bent(f).verdict == BENT)


@pytest.mark.parametrize("label", [*(f"Z{n}" for n in range(2, 13)), "V4", "Z2xZ4"])
def test_abelian_spectrum_matches_the_undivided_transform(label):
    """On abelian groups every degree is 1, so the spectrum is |conj(phi.T) @ v|^2,
    up to the rounding of the class-sum projection."""
    table = character_table(group_from_label(label))
    functions = verdict_batch(table, np.random.default_rng(table.group.order))
    values = np.array([f.values for f in functions])
    for f in functions:
        old = np.abs(np.conj(table.phi.T) @ f.values) ** 2
        np.testing.assert_allclose(spectrum(f), old, rtol=1e-13, atol=1e-13)
    n, deviation = table.group.order, np.max(np.abs(np.abs(values) - 1.0), axis=1)
    old_spectra = np.abs(values @ np.conj(table.phi)) ** 2
    for tol in (1e-8, 1e-12, 1e-30):
        old_flat = (deviation <= tol) & (np.max(np.abs(old_spectra - n), axis=1) <= n * tol)
        assert oracle_verdicts(table, values, tol)[1].tolist() == old_flat.tolist()


@pytest.mark.parametrize("label", ["S3", "Q8", "D4", "V4", "Z6"])
def test_right_sums_equal_left_sums_and_closed_form(label):
    """f(x sigma) = f(sigma x) for a class function, so right sums need no check."""
    table = character_table(group_from_label(label))
    rng = np.random.default_rng(31)
    a = rng.standard_normal(table.n_irreps) + 1j * rng.standard_normal(table.n_irreps)
    f = from_coefficients(table, a / np.linalg.norm(a))
    cayley = table.group.cayley.tolist()
    right = brute_right_sums(cayley, f.values)
    left = brute_derivative_sums(cayley, f.values)
    closed = table.group.order * table.phi @ (
        np.abs(f.coefficients) ** 2 / np.asarray(table.degrees)
    )
    np.testing.assert_allclose(right, left, rtol=0, atol=1e-12)
    np.testing.assert_allclose(right, closed, rtol=0, atol=1e-12)


def verdict_batch(table, rng: np.random.Generator) -> list:
    """Class functions of every verdict kind: random values and coefficients,
    the (unimodular, not bent) characters, and on Z_n every Zadoff-Chu witness."""
    group = table.group
    n, r = group.order, table.n_irreps
    functions = [from_coefficients(table, rng.standard_normal(r) + 1j * rng.standard_normal(r))
                 for _ in range(15)]
    functions += [from_coefficients(table, row) for row in np.eye(r)]
    if group.is_abelian:
        functions += [from_values(table, unit_phases(rng, n)) for _ in range(15)]
    if group.abelian_factors is not None and len(group.abelian_factors) == 1:
        functions += [
            make_bent_cyclic(SequenceSpec(SequenceKind.ZADOFF_CHU, n, u)).function
            for u in range(1, n + 1)
            if math.gcd(u, n) == 1
        ]
    return functions


@pytest.mark.parametrize(
    "label", [*(f"Z{n}" for n in range(2, 13)), "V4", "Z2xZ4", "S3", "Q8", "D4"]
)
def test_oracle_verdicts_match_per_function_checks(label):
    table = character_table(group_from_label(label))
    functions = verdict_batch(table, np.random.default_rng(len(label) * 97 + table.group.order))
    values = np.array([f.values for f in functions])
    # batched sums round differently in the last bits, so a tolerance below
    # rounding (say 1e-30) can split verdicts; realistic ones must not
    for tol in (1e-8, 1e-12):
        bent, spectral = oracle_verdicts(table, values, tol)
        assert bent.tolist() == [is_bent(f, tol).verdict == BENT for f in functions]
        assert spectral.tolist() == [is_bent_spectral(f, tol) for f in functions]
    assert {NOT_BENT, NOT_UNIMODULAR} <= {is_bent(f).verdict for f in functions}
    cyclic = table.group.abelian_factors == (table.group.order,)
    assert oracle_verdicts(table, values)[0].any() == cyclic


def oracle_rows(table, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three arrays ``oracle_verdicts`` takes row maxima of: unimodular
    deviations, residual magnitudes and spectral gaps."""
    group = table.group
    n = group.order
    sums = (values[:, group.cayley] @ np.conj(values)[:, :, None])[:, :, 0]
    spectra = np.abs(values @ np.conj(table.phi)) ** 2 / np.square(table.degrees)
    return (
        np.abs(np.abs(values) - 1.0),
        np.abs(sums[:, np.arange(n) != group.identity]),
        np.abs(spectra - n),
    )


def axis_max_oracle_verdicts(table, values: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """``oracle_verdicts`` with its row maxima as ``np.max(..., axis=1)``,
    the form the column folds replaced."""
    n = table.group.order
    deviations, residuals, gaps = oracle_rows(table, values)
    deviation = np.max(deviations, axis=1)
    bent = (deviation <= tol) & (np.max(residuals, axis=1, initial=0.0) <= n * tol)
    flat = (deviation <= tol) & (np.max(gaps, axis=1) <= n * tol)
    return bent, flat


@pytest.mark.parametrize("label", ["Z1", "Z2", "Z6", "Z12", "Z2xZ4", "V4", "S3", "Q8", "D4"])
def test_oracle_verdicts_bit_identical_to_axis_max_form(label):
    table = character_table(group_from_label(label))
    functions = verdict_batch(table, np.random.default_rng(table.group.order + 5))
    values = np.array([f.values for f in functions] + [functions[0].values])
    values[-1, -1] = complex(math.nan, 0.0)
    deviations, residuals, gaps = oracle_rows(table, values)
    assert _row_max(deviations).tobytes() == np.max(deviations, axis=1).tobytes()
    assert _row_max(residuals, initial=0.0).tobytes() == (
        np.max(residuals, axis=1, initial=0.0).tobytes()
    )
    assert _row_max(gaps).tobytes() == np.max(gaps, axis=1).tobytes()
    # a tolerance equal to a row's deviation flips that row on a last-bit change
    for tol in (0.0, 1e-12, 1e-8, *np.max(deviations, axis=1)[:8].tolist()):
        bent, flat = oracle_verdicts(table, values, tol)
        reference_bent, reference_flat = axis_max_oracle_verdicts(table, values, tol)
        assert bent.tobytes() == reference_bent.tobytes()
        assert flat.tobytes() == reference_flat.tobytes()


def scalar_verdict(deviation, max_residual, n: int, tol: float) -> str:
    """The verdict rule on one row's deviation and residual as floats, written
    out apart from the code under test: a NaN deviation is not unimodular."""
    if not deviation <= tol:
        return NOT_UNIMODULAR
    return BENT if max_residual <= n * tol else NOT_BENT


@pytest.mark.parametrize("label", ["Z2", "Z5", "Z12", "V4", "S3", "Q8"])
def test_oracle_verdicts_select_what_the_scalar_rule_gives(label):
    """Row by row, the array comparisons give whether ``scalar_verdict`` on the
    row's deviation and residual as floats is BENT, on batches with any mix of the
    three verdicts and NaN rows."""
    table = character_table(group_from_label(label))
    n = table.group.order
    functions = verdict_batch(table, np.random.default_rng(n + 11))
    values = np.array([f.values for f in functions] + [functions[-1].values] * 2)
    values[-2, 0] = complex(math.nan, 0.0)
    values[-1] = math.nan
    deviations, residuals, _ = oracle_rows(table, values)
    deviation = np.max(deviations, axis=1)
    max_residual = np.max(residuals, axis=1, initial=0.0)
    kinds = {
        verdict: np.flatnonzero(
            [scalar_verdict(d, m, n, 1e-8) == verdict for d, m in zip(deviation, max_residual)]
        )
        for verdict in (BENT, NOT_BENT, NOT_UNIMODULAR)
    }
    nan_rows = [len(values) - 2, len(values) - 1]
    batches = [np.arange(len(values)), nan_rows, kinds[NOT_BENT], kinds[NOT_UNIMODULAR],
               np.concatenate((kinds[NOT_BENT][:2], kinds[NOT_UNIMODULAR][:2]))]
    if len(kinds[BENT]):
        batches += [kinds[BENT], np.concatenate((kinds[BENT], kinds[NOT_BENT][:1]))]
    for rows in batches:
        deviations, residuals, _ = oracle_rows(table, values[rows])
        pairs = list(zip(np.max(deviations, axis=1), np.max(residuals, axis=1, initial=0.0)))
        for tol in (0.0, 1e-8, 0.5):
            bent, _ = oracle_verdicts(table, values[rows], tol)
            assert bent.tolist() == [scalar_verdict(d, m, n, tol) == BENT for d, m in pairs]


@pytest.mark.parametrize("label", ["Z1", "Z3"])
def test_a_nan_valued_function_is_not_unimodular_to_every_check(label):
    """A NaN deviation fails the unimodular half of the one verdict rule."""
    table = character_table(group_from_label(label))
    values = np.full(table.group.order, complex(math.nan, 0.0))
    f = from_values(table, values)
    assert is_bent(f).verdict == NOT_UNIMODULAR
    assert is_bent_spectral(f) is False
    bent, flat = oracle_verdicts(table, values[None, :])
    assert (bent.tolist(), flat.tolist()) == ([False], [False])


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_every_verdict_entry_rejects_a_tolerance_that_decides_nothing(z4_table, tol):
    """At ``tol=inf`` is_bent called the constant 2 on Z4 BENT."""
    f = from_values(z4_table, np.full(4, 2.0))
    message = f"tol must be a finite non-negative number, got {tol}"
    for check in (is_bent, is_bent_spectral,
                  lambda f, tol: oracle_verdicts(f.table, f.values[None, :], tol)):
        with pytest.raises(ValueError) as info:
            check(f, tol)
        assert str(info.value) == message


def test_oracle_verdicts_share_the_rule_on_non_finite_values(z3_table):
    """A NaN row takes the same branch of the verdict rule as in is_bent."""
    values = np.array([[1.0, np.nan, 1.0], [1.0, 1.0, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        functions = [from_values(z3_table, row) for row in values]
        bent, spectral = oracle_verdicts(z3_table, values)
        assert bent.tolist() == [is_bent(f).verdict == BENT for f in functions]
        assert spectral.tolist() == [is_bent_spectral(f) for f in functions]


def test_oracle_verdicts_order_one_and_shape_errors():
    table = character_table(make_cyclic(1))
    bent, spectral = oracle_verdicts(table, np.ones((2, 1)))
    assert bent.tolist() == [True, True] and spectral.tolist() == [True, True]
    # no direction has a residual, so only the NaN deviation keeps this row from BENT
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert is_bent(from_values(table, [math.nan])).verdict != BENT
    bent, spectral = oracle_verdicts(table, np.array([[math.nan]]))
    assert bent.tolist() == [False] and spectral.tolist() == [False]
    with pytest.raises(ValueError):
        oracle_verdicts(table, np.ones(1))
    with pytest.raises(ValueError):
        oracle_verdicts(character_table(make_cyclic(3)), np.ones((2, 4)))


def test_report_json_layout(z3_table, s3_table):
    rep = is_bent(from_coefficients(z3_table, [0.0, 1.0, 0.0]))
    obj = report_to_json(rep)
    assert obj["group"] == "Z3"
    assert obj["verdict"] == NOT_BENT
    assert len(obj["residuals"]) == 2
    obj2 = report_to_json(is_bent(from_coefficients(s3_table, np.array([1.0, 0, 0]))))
    assert set(obj2) == set(obj)


def test_derivative_sums_are_the_full_gather_product_bit_for_bit():
    """The oracle is one n x n gather and one product."""
    rng = np.random.default_rng(15)
    for label in BLOCK_LABELS:
        group = group_from_label(label)
        table = character_table(group)
        for values in class_constant_samples(rng, group):
            f = from_values(table, values)
            full = f.values[group.cayley] @ np.conj(f.values)
            assert derivative_sums(f).tobytes() == full.tobytes(), label


# ---------------------------------------------------------------------------
# is_bent's closed form against the brute-force oracle


def assert_closed_form_matches_oracle(f, tol: float = 1e-8) -> None:
    """``is_bent``'s residuals are within ``n^2 eps max|v|^2`` plus its slack
    of the brute-force sums, and its verdict is the oracle's."""
    group = f.group
    n = group.order
    report = is_bent(f, tol)
    oracle = derivative_sums(f)[np.arange(n) != group.identity]
    peak = float(np.max(np.abs(f.values)))
    s = f.sync_residual
    slack = n * s * (2.0 * peak + 3.0 * s)
    bound = n * n * np.finfo(float).eps * peak**2 + slack
    assert np.max(np.abs(report.residuals - oracle), initial=0.0) <= bound, group.name
    oracle_max = float(np.max(np.abs(oracle), initial=0.0))
    if report.unimodular_deviation > tol:
        expected = NOT_UNIMODULAR
    else:
        expected = BENT if oracle_max <= n * tol else NOT_BENT
    assert report.verdict == expected, group.name


def zadoff_chu_functions(n: int, roots) -> list:
    """Zadoff-Chu coefficients on Z_n, and the same functions as pointwise input."""
    table = character_table(make_cyclic(n))
    out = []
    for u in roots:
        f = from_coefficients(table, zadoff_chu(n, u) / math.sqrt(n))
        out += [f, from_values(table, f.values)]
    return out


def test_closed_form_matches_the_oracle_on_every_zadoff_chu_up_to_64():
    for n in range(1, 65):
        for f in zadoff_chu_functions(n, [u for u in range(1, n + 1) if math.gcd(u, n) == 1]):
            assert f.sync_residual < 1e-12
            assert_closed_form_matches_oracle(f)
            assert is_bent(f).verdict == BENT


@pytest.mark.parametrize("n", [469, 509, 512])
def test_closed_form_matches_the_oracle_on_large_zadoff_chu(n):
    for f in zadoff_chu_functions(n, [1, 3, n - 1]):
        assert_closed_form_matches_oracle(f)
        assert is_bent(f).verdict == BENT


@pytest.mark.parametrize("n", [469, 509])
def test_closed_form_matches_the_oracle_on_large_chirps(n):
    table = character_table(make_cyclic(n))
    f = from_coefficients(table, quadratic_chirp(n) / math.sqrt(n))
    for g in (f, from_values(table, f.values)):
        assert_closed_form_matches_oracle(g)
        assert is_bent(g).verdict == BENT


def assert_closed_form_matches_oracle_on_random_input(table, seed: int) -> None:
    """Unit phases as values and as coefficients, unit phases 5e-10 off the
    circle, and complex Gaussian values."""
    rng = np.random.default_rng(seed)
    n, r = table.group.order, table.n_irreps
    for _ in range(3):
        assert_closed_form_matches_oracle(from_values(table, unit_phases(rng, n)))
        assert_closed_form_matches_oracle(from_coefficients(table, unit_phases(rng, r)))
        noise = 5e-10 * rng.random(n) * unit_phases(rng, n)
        assert_closed_form_matches_oracle(from_values(table, unit_phases(rng, n) + noise))
        gaussian = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_closed_form_matches_oracle(from_values(table, gaussian))


@pytest.mark.parametrize("order", [_FFT_ORDER - 1, _FFT_ORDER])
def test_closed_form_matches_the_oracle_on_both_sides_of_the_fft_cutoff(order):
    """Zadoff-Chu and, at odd orders, chirp witnesses, 5e-10 off the circle too,
    and random input, through ``phi @ a`` below the cutoff and FFTs from it on."""
    table = character_table(make_cyclic(order))
    rng = np.random.default_rng(order)
    witnesses = zadoff_chu_functions(order, [1, 5, order - 1])
    if order % 2:
        witnesses.append(from_coefficients(table, quadratic_chirp(order) / math.sqrt(order)))
    for f in witnesses:
        assert_closed_form_matches_oracle(f)
        assert is_bent(f).verdict == BENT
        noise = 5e-10 * rng.random(order) * unit_phases(rng, order)
        assert_closed_form_matches_oracle(from_values(table, f.values + noise))
    assert_closed_form_matches_oracle_on_random_input(table, order)


@pytest.mark.parametrize("label", ["Z469", "Z509", "Z512", "Z2xZ4xZ64", "Z5xZ97"])
def test_closed_form_matches_the_oracle_on_random_input_above_the_fft_cutoff(label):
    table = character_table(group_from_label(label))
    assert_closed_form_matches_oracle_on_random_input(table, table.group.order)


@pytest.mark.parametrize("label", ["Z2", "Z7", "Z12", "Z64", "Z125", "V4", "Z2xZ4xZ8"])
def test_closed_form_matches_the_oracle_on_random_unit_phases(label):
    table = character_table(group_from_label(label))
    rng = np.random.default_rng(table.group.order)
    n, r = table.group.order, table.n_irreps
    for _ in range(10):
        assert_closed_form_matches_oracle(from_values(table, unit_phases(rng, n)))
        assert_closed_form_matches_oracle(from_coefficients(table, unit_phases(rng, r)))
    for tol in (1e-8, 1e-12):
        assert_closed_form_matches_oracle(from_values(table, unit_phases(rng, n)), tol)


def test_closed_form_matches_the_oracle_on_relabelled_groups():
    rng = np.random.default_rng(41)
    relabellings = [
        (make_cyclic(4), np.array([2, 0, 1, 3])),
        (make_cyclic(6), np.array([5, 3, 0, 4, 1, 2])),
        (make_named("S3"), np.array([3, 1, 4, 0, 5, 2])),
        (make_named("Q8"), rng.permutation(8)),
        (make_named("D4"), rng.permutation(8)),
    ]
    for base, perm in relabellings:
        group = relabelled(base, perm)
        table = character_table(group)
        for v in class_constant_samples(rng, group):
            assert_closed_form_matches_oracle(from_values(table, v))
        if base.abelian_factors is not None:  # the Zadoff-Chu witness, relabelled
            witness = np.empty(group.order, dtype=complex)
            witness[perm] = zadoff_chu(base.order, 1)
            f = from_values(table, witness)
            assert_closed_form_matches_oracle(f)
            assert is_bent(f).verdict == BENT


@pytest.mark.parametrize("label", ["S3", "Q8", "D4"])
def test_closed_form_matches_the_oracle_on_perturbed_pointwise_input(label):
    """Values off their class means by up to 5e-10: the slack covers the gap
    between the sums of v and of its projection."""
    table = character_table(group_from_label(label))
    group = table.group
    rng = np.random.default_rng(group.order + len(label))
    for _ in range(50):
        for v in class_constant_samples(rng, group):
            noise = 5e-10 * rng.random(group.order) * unit_phases(rng, group.order)
            f = from_values(table, v + noise)
            assert f.sync_residual <= 1e-9
            assert_closed_form_matches_oracle(f)
