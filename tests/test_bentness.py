"""Derivative sums, verdicts, and abelian spectra against brute-force oracles."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from bentgroups import (
    BENT,
    NOT_BENT,
    NOT_UNIMODULAR,
    CapabilityError,
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
    report_to_json,
    spectrum,
)

from conftest import brute_derivative_sums, brute_right_sums, brute_spectrum, unit_phases

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


def test_spectrum_rejects_nonabelian(s3_table):
    f = from_coefficients(s3_table, np.array([1.0, 0, 0]))
    with pytest.raises(CapabilityError):
        spectrum(f)


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


def test_report_json_layout(z3_table, s3_table):
    rep = is_bent(from_coefficients(z3_table, [0.0, 1.0, 0.0]))
    obj = report_to_json(rep)
    assert obj["group"] == "Z3"
    assert obj["verdict"] == NOT_BENT
    assert len(obj["residuals"]) == 2
    obj2 = report_to_json(is_bent(from_coefficients(s3_table, np.array([1.0, 0, 0]))))
    assert set(obj2) == set(obj)
