"""Coefficient criteria vs the derivative-sum oracle, the Q8 system and the L1 certificate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bentgroups import (
    BENT,
    NOT_UNIMODULAR,
    SequenceKind,
    abelian_magnitude_necessary,
    character_table,
    cyclic_criterion,
    cyclic_lag_sums,
    cyclic_satisfied,
    derivative_sums,
    from_coefficients,
    from_values,
    group_from_label,
    impossibility_certificate,
    is_bent,
    is_unimodular,
    klein_criterion,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    q8_equation_residuals,
    solve_magnitude_system,
    solve_q8_system,
)

from bentgroups import criteria
from conftest import brute_lag_sums, flat_random_coefficients, relabelled

BENT_V4 = np.array([1.0, -1j, -1j, -1.0]) / 2.0  # tensor square of (1, -i)/sqrt(2)


# ---------------------------------------------------------------------------
# abelian necessary condition and the Phi system


def test_flat_magnitudes_pass():
    a = np.ones(6) / math.sqrt(6)
    outcome = abelian_magnitude_necessary(a)
    assert outcome.satisfied
    assert outcome.violations == ()


def test_magnitude_violation_is_labeled():
    a = np.ones(4) / 2.0
    a[2] = 0.9
    outcome = abelian_magnitude_necessary(a)
    assert not outcome.satisfied
    labels = [label for label, _ in outcome.violations]
    assert labels == ["|a_3|^2"]
    assert outcome.violations[0][1] == pytest.approx(0.81 - 0.25, abs=1e-12)


def test_magnitude_system_flat_solution():
    for n in (2, 3, 4, 8):
        table = character_table(make_cyclic(n))
        w, residual = solve_magnitude_system(table)
        np.testing.assert_allclose(w, np.full(n, 1.0 / n), atol=1e-12)
        assert residual < 1e-12


def test_magnitude_system_custom_rhs(z4_table):
    y = np.array([1.0, 0.5, 0.0, 0.5])
    w, residual = solve_magnitude_system(z4_table, y)
    assert residual < 1e-12
    np.testing.assert_allclose(z4_table.phi @ w, y, atol=1e-12)


def abelian_inverse_solve(table, y=None):
    """The abelian-only solver m = conj(Phi)^T y / n that the general one extends."""
    n = table.group.order
    if y is None:
        y = np.zeros(n, dtype=complex)
        y[0] = 1.0
    w = np.conj(table.phi.T) @ y / n
    return w, float(np.max(np.abs(table.phi @ w - y)))


@pytest.mark.parametrize("label", [*(f"Z{n}" for n in range(1, 65)), "Z2xZ4", "V4"])
def test_magnitude_system_matches_the_abelian_inverse(label):
    """Within the rounding of a length-n sum: the solver projects by class sums."""
    table = character_table(group_from_label(label))
    n = table.group.order
    atol = n * np.finfo(float).eps
    rng = np.random.default_rng(n)
    for y in (None, rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        w, residual = solve_magnitude_system(table, y)
        w_ref, residual_ref = abelian_inverse_solve(table, y)
        scale = 1.0 if y is None else float(np.max(np.abs(y)))
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=atol * scale)
        assert residual <= atol * scale and residual_ref <= atol * scale


@pytest.mark.parametrize("label", ["S3", "Q8", "D4", "V4", "Z6", "Z2xZ4"])
def test_forced_magnitudes_on_every_group(label):
    """The solver gives d_i^2/n, at which every non-identity derivative sum
    vanishes for any phases; on Q8 and D4 these magnitudes put f(e) and f(z)
    (z the central involution) 2*sqrt(2) apart, which unit values cannot be."""
    table = character_table(group_from_label(label))
    group = table.group
    n = group.order
    d = np.asarray(table.degrees, dtype=float)
    m, residual = solve_magnitude_system(table)
    np.testing.assert_allclose(m, d**2 / n, atol=1e-12)
    assert residual < 1e-12
    off_identity = np.arange(n) != group.identity
    rng = np.random.default_rng(53)
    for _ in range(20):
        a = np.sqrt(d**2 / n) * np.exp(2j * np.pi * rng.random(len(d)))
        f = from_coefficients(table, a)
        np.testing.assert_allclose(derivative_sums(f)[off_identity], 0.0, atol=1e-12)
        if label in ("Q8", "D4"):
            z = group.class_reps[group.class_sizes.index(1, 1)]  # second central class
            gap = abs(f.values[group.identity] - f.values[z])
            assert gap == pytest.approx(4.0 * abs(a[4]), abs=1e-12)
            assert gap == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
            assert gap > 2.0


def test_magnitude_system_default_rhs_sits_at_the_identity():
    group = relabelled(make_cyclic(4), [2, 0, 1, 3])
    assert group.identity == 2
    w, residual = solve_magnitude_system(character_table(group))
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-12)
    assert residual < 1e-12


# ---------------------------------------------------------------------------
# cyclic criterion


def test_lag_sums_match_brute_force():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 8, 11):
        a = flat_random_coefficients(rng, n)
        np.testing.assert_allclose(cyclic_lag_sums(a), brute_lag_sums(a), atol=1e-12)
        assert len(cyclic_lag_sums(a)) == n // 2


def roll_lag_sums(a: np.ndarray) -> np.ndarray:
    """The per-lag np.roll reference that cyclic_lag_sums must reproduce bit for bit."""
    return np.array([np.sum(np.conj(a) * np.roll(a, -k)) for k in range(1, len(a) // 2 + 1)])


def loop_cyclic_violations(a: np.ndarray, tol: float) -> list[tuple[str, float]]:
    """cyclic_criterion's violations built one check per element and per lag."""
    n = len(a)
    checks = [(f"|a_{i + 1}|", abs(abs(a[i]) - 1.0 / math.sqrt(n))) for i in range(n)]
    checks.extend((f"lag-{k} sum", abs(complex(s))) for k, s in enumerate(roll_lag_sums(a), 1))
    return [(label, float(res)) for label, res in checks if res > tol]


@pytest.mark.parametrize("n", [*range(2, 65), 509, 512])
def test_lag_sums_bit_identical_to_roll_loop(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(cyclic_lag_sums(a), roll_lag_sums(a))


def test_cyclic_criterion_matches_loop_reference():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 7, 12, 64, 509):
        bent = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, 1).function
        for a in (flat_random_coefficients(rng, n), rng.standard_normal(n), bent.coefficients):
            outcome = cyclic_criterion(a)
            expected = loop_cyclic_violations(np.asarray(a, dtype=complex), outcome.tol)
            assert list(outcome.violations) == expected
            assert outcome.satisfied == (not expected)


@pytest.mark.parametrize("n", [*range(2, 65), 509])
def test_batched_lag_sums_bit_identical_to_per_vector_calls(n):
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    per_vector = np.array([cyclic_lag_sums(row) for row in a])
    assert cyclic_lag_sums(a).tobytes() == per_vector.tobytes()


def coefficient_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian and flat random-phase rows plus every Zadoff-Chu witness on Z_n."""
    rows = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(20)]
    rows += [flat_random_coefficients(rng, n) for _ in range(20)]
    rows += [
        make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, u).function.coefficients
        for u in range(1, n + 1)
        if math.gcd(u, n) == 1
    ]
    return np.array(rows)


@pytest.mark.parametrize("n", range(2, 13))
def test_cyclic_satisfied_matches_criterion_row_by_row(n):
    a = coefficient_batch(np.random.default_rng(2000 + n), n)
    for tol in (1e-8, 1e-30):
        expected = [cyclic_criterion(row, tol).satisfied for row in a]
        assert cyclic_satisfied(a, tol).tolist() == expected
    assert cyclic_satisfied(a).any() and not cyclic_satisfied(a).all()


def test_z3_closed_form_condition():
    rng = np.random.default_rng(31)
    a = flat_random_coefficients(rng, 3)
    (lag,) = cyclic_lag_sums(a)
    direct = (
        a[0].conjugate() * a[1] + a[1].conjugate() * a[2] + a[2].conjugate() * a[0]
    )
    assert abs(lag - direct) < 1e-12


def test_z4_closed_form_conditions():
    rng = np.random.default_rng(37)
    a = flat_random_coefficients(rng, 4)
    lags = cyclic_lag_sums(a)
    s1 = (
        a[0].conjugate() * a[1]
        + a[1].conjugate() * a[2]
        + a[2].conjugate() * a[3]
        + a[3].conjugate() * a[0]
    )
    s2 = (
        a[0].conjugate() * a[2]
        + a[1].conjugate() * a[3]
        + a[2].conjugate() * a[0]
        + a[3].conjugate() * a[1]
    )
    np.testing.assert_allclose(lags, [s1, s2], atol=1e-12)


def test_constructed_vectors_satisfy_cyclic_criterion():
    for n in range(2, 13):
        bent = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, 1).function
        outcome = cyclic_criterion(bent.coefficients)
        assert outcome.satisfied, outcome.violations


def test_cyclic_criterion_matches_oracle():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        table = character_table(make_cyclic(n))
        for _ in range(100):
            a = flat_random_coefficients(rng, n)
            criterion = cyclic_criterion(a).satisfied
            oracle = is_bent(from_coefficients(table, a)).verdict == BENT
            assert criterion == oracle


def test_cyclic_criterion_labels():
    a = np.ones(4) / 2.0  # flat but correlated: lag sums are 1
    outcome = cyclic_criterion(a)
    assert not outcome.satisfied
    labels = {label for label, _ in outcome.violations}
    assert labels == {"lag-1 sum", "lag-2 sum"}


def test_cyclic_criterion_shape_errors():
    with pytest.raises(ValueError):
        cyclic_criterion(np.array([1.0]))
    with pytest.raises(ValueError):
        cyclic_criterion(np.ones((2, 2)))  # a batch is for cyclic_satisfied
    with pytest.raises(ValueError):
        cyclic_lag_sums(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        cyclic_lag_sums(np.ones((3, 1)))
    assert cyclic_lag_sums(np.ones((3, 2))).shape == (3, 1)  # a batch of three


# ---------------------------------------------------------------------------
# Klein four-group


def test_klein_bent_vector_passes(v4_table):
    assert is_bent(from_coefficients(v4_table, BENT_V4)).verdict == BENT
    outcome = klein_criterion(BENT_V4)
    assert outcome.satisfied, outcome.violations


def test_klein_magnitude_violation():
    outcome = klein_criterion(np.array([0.9, 0.5, 0.5, 0.5]))
    assert not outcome.satisfied
    assert outcome.violations[0][0] == "|a_1|"


def test_klein_sum_violation():
    outcome = klein_criterion(np.ones(4) / 2.0)
    labels = {label for label, _ in outcome.violations}
    assert labels == {"R1 sum", "R2 sum", "R3 sum"}


def test_klein_criterion_is_necessary_but_not_sufficient(v4_table):
    """(1, i, i, 1)/2 passes every listed check yet is not unimodular: the
    second and third sums repeat the same pairings and the conj(a1)a4 +
    conj(a2)a3 combination is never constrained."""
    probe = np.array([1.0, 1j, 1j, 1.0]) / 2.0
    outcome = klein_criterion(probe)
    assert outcome.satisfied
    report = is_bent(from_coefficients(v4_table, probe))
    assert report.verdict == NOT_UNIMODULAR


def scalar_klein_checks(a: np.ndarray) -> list[tuple[str, float]]:
    """Every printed V4 check of one vector in numpy scalar arithmetic: the
    reference for ``klein_criterion``'s array residuals."""
    a1, a2, a3, a4 = (complex(z) for z in a)
    checks = [(f"|a_{i + 1}|", abs(abs(a[i]) - 0.5)) for i in range(4)]
    sums = {
        "R1 sum": np.conj(a1) * a2 + np.conj(a3) * a4 + np.conj(a2) * a1 + np.conj(a4) * a3,
        "R2 sum": np.conj(a1) * a3 + np.conj(a2) * a4 + np.conj(a3) * a1 + np.conj(a4) * a2,
        "R3 sum": np.conj(a1) * a3 + np.conj(a3) * a1 + np.conj(a2) * a4 + np.conj(a4) * a2,
    }
    return checks + [(label, abs(value)) for label, value in sums.items()]


def test_klein_criterion_and_satisfied_match_scalar_arithmetic():
    """Residuals bit for bit, row by row, on vectors near and far from bent."""
    rng = np.random.default_rng(44)
    bent = BENT_V4 * np.exp(2j * np.pi * rng.random((100, 1)))
    a = np.vstack((
        bent,
        bent * (1.0 + 1e-9 * rng.standard_normal((100, 4))),
        (rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))) / 2.0,
    ))
    for tol in (0.0, 1e-16, 1e-12, 1e-8, 0.5):
        for row in a:
            violations = [(label, res) for label, res in scalar_klein_checks(row) if res > tol]
            outcome = klein_criterion(row, tol)
            assert [(label, np.float64(res).hex()) for label, res in outcome.violations] == [
                (label, np.float64(res).hex()) for label, res in violations
            ]
            assert outcome.satisfied == (not violations)
        # the batch residuals the ledger's Klein claim decides on
        satisfied = ~np.any(criteria._klein_residuals(a) > tol, axis=-1)
        assert satisfied.tolist() == [klein_criterion(row, tol).satisfied for row in a]
    satisfied = ~np.any(criteria._klein_residuals(a) > 1e-8, axis=-1)
    assert satisfied.any() and not satisfied.all()


def test_klein_r2_r3_same_terms():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a1, a2, a3, a4 = a
        r2 = a1.conjugate() * a3 + a2.conjugate() * a4 + a3.conjugate() * a1 + a4.conjugate() * a2
        r3 = a1.conjugate() * a3 + a3.conjugate() * a1 + a2.conjugate() * a4 + a4.conjugate() * a2
        assert abs(r2 - r3) < 1e-12


# ---------------------------------------------------------------------------
# Q8 magnitude system


def test_q8_system_solution():
    m, residual = solve_q8_system()
    np.testing.assert_allclose(m, [2 / 9, 2 / 9, 2 / 9, 2 / 9, 1 / 9], atol=1e-12)
    assert residual < 1e-12


def test_q8_equation_residuals_vanish_at_solution():
    m, _ = solve_q8_system()
    for residual in q8_equation_residuals(m):
        assert residual < 1e-12


def test_q8_equation_residuals_nonzero_off_solution():
    flat = np.full(5, 0.2)
    residuals = q8_equation_residuals(flat)
    assert residuals[0] == pytest.approx(0.8, abs=1e-12)  # 4*0.2 - 8*0.2


def test_q8_shapes():
    with pytest.raises(ValueError):
        q8_equation_residuals(np.ones(4))


# ---------------------------------------------------------------------------
# L1 impossibility certificate


def test_s3_certificate_values(s3_table):
    cert = impossibility_certificate(s3_table)
    assert cert.l1_norms == (6.0, 6.0, 4.0)
    np.testing.assert_allclose(
        cert.required, [math.sqrt(6), math.sqrt(6), 2 * math.sqrt(6)], rtol=0, atol=1e-12
    )
    assert cert.violated == (2,)
    assert cert.margin == pytest.approx(2 * math.sqrt(6) - 4, abs=1e-12)
    assert 0 < cert.residual < 1e-12  # nonzero, so a ledger at tol 1e-30 must fail


@pytest.mark.parametrize(
    "label, bound",
    [("S3", 2 * math.sqrt(6)), ("Q8", 4 * math.sqrt(2)), ("D4", 4 * math.sqrt(2))],
    ids=["S3", "Q8", "D4"],
)
def test_certificate_fires_exactly_on_the_two_dimensional_character(label, bound):
    table = character_table(group_from_label(label))
    cert = impossibility_certificate(table)
    n, degrees = table.group.order, np.asarray(table.degrees)
    assert cert.violated == tuple(np.flatnonzero(degrees == 2).tolist())
    for i in cert.violated:
        assert cert.l1_norms[i] == pytest.approx(4.0, abs=1e-12)
        assert cert.required[i] == pytest.approx(bound, abs=1e-12)
    np.testing.assert_allclose(cert.required, degrees * math.sqrt(n), rtol=0, atol=1e-12)
    # brute force: ||chi_i||_1 = sum over elements of |chi_i(x)|
    np.testing.assert_allclose(cert.l1_norms, np.abs(table.phi).sum(axis=0), rtol=0, atol=1e-12)
    assert cert.margin > cert.residual


@pytest.mark.parametrize(
    "label", ["Z1", *(f"Z{n}" for n in range(2, 13)), "Z64", "Z509", "Z512", "V4", "Z2xZ4"]
)
def test_certificate_never_fires_on_abelian_groups(label):
    """Every abelian character has ||chi||_1 = n >= sqrt(n) = n * sqrt(1/n)."""
    table = character_table(group_from_label(label))
    cert = impossibility_certificate(table)
    n = table.group.order
    assert cert.violated == ()
    np.testing.assert_allclose(cert.l1_norms, n, rtol=1e-12)
    assert cert.margin <= 0.0
    np.testing.assert_allclose(cert.required, math.sqrt(n), rtol=1e-12)


@pytest.mark.parametrize("label", ["S3", "Q8", "D4"])
def test_certificate_bound_holds_on_unimodular_class_functions(label):
    """The inequality behind the certificate: n|a_i| <= ||chi_i||_1 whenever |f| = 1."""
    table = character_table(group_from_label(label))
    group = table.group
    cert = impossibility_certificate(table)
    rng = np.random.default_rng(53)
    for _ in range(200):
        f = from_values(table, np.exp(2j * np.pi * rng.random(group.n_classes))[group.class_of])
        assert np.all(group.order * np.abs(f.coefficients) <= np.asarray(cert.l1_norms) + 1e-12)


def test_s3_has_no_bent_function_among_character_sums(s3_table):
    """Spot check: flat coefficient vectors on S3 are never bent."""
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = flat_random_coefficients(rng, 3)
        assert is_bent(from_coefficients(s3_table, a)).verdict != BENT


TOL_CHECKS = {
    "is_unimodular": lambda a, tol: is_unimodular(
        from_values(character_table(make_cyclic(4)), a), tol),
    "cyclic_criterion": cyclic_criterion,
    "klein_criterion": klein_criterion,
    "abelian_magnitude_necessary": abelian_magnitude_necessary,
    "cyclic_satisfied": lambda a, tol: cyclic_satisfied([a], tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
@pytest.mark.parametrize("name", TOL_CHECKS)
def test_every_criterion_rejects_a_tolerance_that_decides_nothing(name, tol):
    """At ``tol=inf`` the constant 2 on Z4 was unimodular and passed the
    cyclic criterion; a NaN or negative tol failed every check."""
    with pytest.raises(ValueError) as info:
        TOL_CHECKS[name]([2.0, 2.0, 2.0, 2.0], tol)
    assert str(info.value) == f"tol must be a finite non-negative number, got {tol}"
