"""Coefficient criteria vs the derivative-sum oracle, plus the S3/Q8 systems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bentgroups import (
    BENT,
    NOT_UNIMODULAR,
    CapabilityError,
    SequenceKind,
    SequenceSpec,
    abelian_magnitude_necessary,
    certificate_to_json,
    character_table,
    cyclic_criterion,
    cyclic_lag_sums,
    from_coefficients,
    is_bent,
    klein_criterion,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    outcome_to_json,
    q8_equation_residuals,
    q8_necessary,
    s3_certificate,
    solve_magnitude_system,
    solve_q8_system,
)

from conftest import brute_lag_sums, flat_random_coefficients

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


def test_magnitude_system_rejects_nonabelian(s3_table):
    with pytest.raises(CapabilityError):
        solve_magnitude_system(s3_table)


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
        bent = make_bent_cyclic(SequenceSpec(SequenceKind.ZADOFF_CHU, n, 1)).function
        for a in (flat_random_coefficients(rng, n), rng.standard_normal(n), bent.coefficients):
            outcome = cyclic_criterion(a)
            expected = loop_cyclic_violations(np.asarray(a, dtype=complex), outcome.tol)
            assert list(outcome.violations) == expected
            assert outcome.satisfied == (not expected)


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
        bent = make_bent_cyclic(SequenceSpec(SequenceKind.ZADOFF_CHU, n, 1)).function
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
        cyclic_lag_sums(np.ones((2, 2)))


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


def test_q8_necessary_at_solution_magnitudes():
    m, _ = solve_q8_system()
    a = np.sqrt(m).astype(complex)
    outcome = q8_necessary(a)
    assert outcome.satisfied
    bad = a.copy()
    bad[4] = 0.5
    outcome = q8_necessary(bad)
    assert [label for label, _ in outcome.violations] == ["|a_5|^2"]


def test_q8_shapes():
    with pytest.raises(ValueError):
        q8_necessary(np.ones(4))
    with pytest.raises(ValueError):
        q8_equation_residuals(np.ones(4))


# ---------------------------------------------------------------------------
# S3 impossibility certificate


def test_s3_certificate_values():
    cert = s3_certificate()
    np.testing.assert_allclose(cert.magnitudes, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)
    assert cert.cross_term == pytest.approx(-2 / 3, abs=1e-12)
    assert cert.cs_lhs == pytest.approx(2 / 3, abs=1e-12)
    assert cert.cs_rhs == pytest.approx(1 / 3, abs=1e-12)
    assert cert.contradiction
    assert cert.solve_residual < 1e-12


def test_s3_certificate_rejects_absurd_tolerance():
    with pytest.raises(RuntimeError):
        s3_certificate(tol=1e-20)


def test_s3_has_no_bent_function_among_character_sums(s3_table):
    """Spot check: flat coefficient vectors on S3 are never bent."""
    rng = np.random.default_rng(47)
    for _ in range(50):
        a = flat_random_coefficients(rng, 3)
        assert is_bent(from_coefficients(s3_table, a)).verdict != BENT


# ---------------------------------------------------------------------------
# serialization


def test_outcome_json():
    outcome = cyclic_criterion(np.ones(4) / 2.0)
    obj = outcome_to_json(outcome)
    assert obj["name"] == "cyclic-bent"
    assert obj["satisfied"] is False
    assert obj["violations"][0][0] == "lag-1 sum"
    assert obj["tol"] == outcome.tol


def test_certificate_json():
    obj = certificate_to_json(s3_certificate())
    assert obj["contradiction"] is True
    assert obj["cs_lhs"] > obj["cs_rhs"]
    assert len(obj["magnitudes"]) == 3
