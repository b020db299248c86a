"""Coefficient-space bentness criteria for specific small groups.

Each criterion checks a set of explicit equations in the character
coefficients ``a`` exactly as displayed in the reference derivations this
package implements, and reports the violated equations with their residual
magnitudes.  Ground truth is always the brute-force derivative-sum oracle in
:mod:`bentgroups.bentness`; the test suite cross-validates every criterion
against it, and any systematic discrepancy is documented rather than patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import CharacterTable, character_table
from .errors import CapabilityError
from .groups import make_named

__all__ = [
    "CriterionOutcome",
    "S3Certificate",
    "abelian_magnitude_necessary",
    "certificate_to_json",
    "cyclic_criterion",
    "cyclic_lag_sums",
    "klein_criterion",
    "outcome_to_json",
    "q8_equation_residuals",
    "q8_necessary",
    "s3_certificate",
    "solve_magnitude_system",
    "solve_q8_system",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CriterionOutcome:
    """Result of evaluating one coefficient criterion.

    ``violations`` holds ``(equation label, residual magnitude)`` pairs for
    every checked equation whose residual exceeds ``tol``; the criterion is
    satisfied exactly when the list is empty.
    """

    name: str
    satisfied: bool
    violations: tuple[tuple[str, float], ...]
    tol: float


@dataclass(frozen=True)
class S3Certificate:
    """Impossibility certificate for bent class functions on S3.

    The forced magnitudes and cross term are obtained by solving the
    magnitude system assembled from the derivative-sum expansions along a
    transposition and a 3-cycle plus the unit-energy row; ``contradiction``
    records that the forced cross term exceeds its Cauchy-Schwarz bound
    (cs_lhs > cs_rhs), so no coefficient vector satisfies all constraints.
    ``solve_residual`` bounds every numeric step (cross-term cancellation in
    the expansions, linear-system residual, imaginary leakage).
    """

    magnitudes: tuple[float, float, float]
    cross_term: float
    cs_lhs: float
    cs_rhs: float
    contradiction: bool
    solve_residual: float


def _finalize(name: str, checks: list[tuple[str, float]], tol: float) -> CriterionOutcome:
    violations = tuple((label, float(res)) for label, res in checks if res > tol)
    return CriterionOutcome(
        name=name, satisfied=not violations, violations=violations, tol=tol
    )


# ---------------------------------------------------------------------------
# abelian necessary condition and the Phi w = y path


def abelian_magnitude_necessary(
    a: Sequence[complex], tol: float = DEFAULT_TOL
) -> CriterionOutcome:
    """Necessary condition on any abelian group: every |a_i|^2 equals 1/n."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < 1:
        raise ValueError(f"expected a nonempty coefficient vector, got shape {a.shape}")
    n = len(a)
    checks = [
        (f"|a_{i + 1}|^2", abs(abs(a[i]) ** 2 - 1.0 / n)) for i in range(n)
    ]
    return _finalize("abelian-magnitude-necessary", checks, tol)


def solve_magnitude_system(
    table: CharacterTable, y: Sequence[complex] | None = None
) -> tuple[np.ndarray, float]:
    """Solve Phi w = y for abelian groups via the exact inverse conj(Phi)^T / n.

    ``y`` defaults to the autocorrelation profile of a bent function,
    (1, 0, ..., 0), for which the solution is the flat vector w_i = 1/n.
    Returns (w, max residual of Phi w - y).
    """
    group = table.group
    if not group.is_abelian:
        raise CapabilityError(
            f"the Phi system is square only for abelian groups, not {group.name!r}"
        )
    n = group.order
    if y is None:
        y = np.zeros(n, dtype=complex)
        y[0] = 1.0
    y = np.asarray(y, dtype=complex)
    if y.shape != (n,):
        raise ValueError(f"expected a length-{n} right-hand side, got shape {y.shape}")
    w = np.conj(table.phi.T) @ y / n
    residual = float(np.max(np.abs(table.phi @ w - y)))
    return w, residual


# ---------------------------------------------------------------------------
# cyclic groups


def cyclic_lag_sums(a: Sequence[complex]) -> np.ndarray:
    """Cyclic autocorrelation sums sum_i conj(a_i) a_{i+k} for k = 1..floor(n/2)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError(f"expected a coefficient vector of length >= 2, got shape {a.shape}")
    n = len(a)
    lags = np.arange(1, n // 2 + 1)
    return (np.conj(a) * a[(np.arange(n) + lags[:, None]) % n]).sum(axis=-1)


def cyclic_criterion(a: Sequence[complex], tol: float = DEFAULT_TOL) -> CriterionOutcome:
    """Bentness criterion on Z_n: flat magnitudes and vanishing lag sums.

    Satisfied iff every |a_i| equals 1/sqrt(n) within ``tol`` and the cyclic
    lag sums sum_i conj(a_i) a_{i+k} vanish for k = 1..floor(n/2) (indices
    mod n).  Lags k and n-k give conjugate sums, so half the lags suffice.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError(f"expected a coefficient vector of length >= 2, got shape {a.shape}")
    n = len(a)
    values = np.concatenate((a, cyclic_lag_sums(a)))
    # n magnitude checks, then the lag sums; hypot rounds exactly like abs()
    residuals = np.hypot(values.real, values.imag)
    residuals[:n] = np.abs(residuals[:n] - 1.0 / math.sqrt(n))
    checks = [
        (f"|a_{j + 1}|" if j < n else f"lag-{j - n + 1} sum", residuals[j])
        for j in np.flatnonzero(residuals > tol)
    ]
    return _finalize("cyclic-bent", checks, tol)


# ---------------------------------------------------------------------------
# Klein four-group


def klein_criterion(a: Sequence[complex], tol: float = DEFAULT_TOL) -> CriterionOutcome:
    """The displayed V4 conditions, checked exactly as printed.

    Checks |a_i| = 1/2 and three bilinear sums R1, R2, R3.  Note that R3
    repeats R2's four terms in a different order, and no check involves the
    conj(a_1)a_4 + conj(a_2)a_3 pairing, so passing this criterion is
    necessary for bentness on V4 but not sufficient; the derivative-sum
    oracle remains the ground truth.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (4,):
        raise ValueError(f"expected exactly 4 coefficients, got shape {a.shape}")
    a1, a2, a3, a4 = (complex(z) for z in a)
    checks = [(f"|a_{i + 1}|", abs(abs(a[i]) - 0.5)) for i in range(4)]
    sums = {
        "R1 sum": np.conj(a1) * a2 + np.conj(a3) * a4 + np.conj(a2) * a1 + np.conj(a4) * a3,
        "R2 sum": np.conj(a1) * a3 + np.conj(a2) * a4 + np.conj(a3) * a1 + np.conj(a4) * a2,
        "R3 sum": np.conj(a1) * a3 + np.conj(a3) * a1 + np.conj(a2) * a4 + np.conj(a4) * a2,
    }
    checks.extend((label, abs(value)) for label, value in sums.items())
    return _finalize("klein-four-printed", checks, tol)


# ---------------------------------------------------------------------------
# quaternion group


#: The five displayed magnitude equations on Q8, as printed: four homogeneous
#: rows (directions -1, i, j, k) and the unit-energy normalization.  The -8
#: coefficient in the first row is kept exactly as displayed.
_Q8_ROWS = np.array(
    [
        [1.0, 1.0, 1.0, 1.0, -8.0],
        [1.0, 1.0, -1.0, -1.0, 0.0],
        [1.0, -1.0, -1.0, 1.0, 0.0],
        [1.0, -1.0, 1.0, -1.0, 0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
    ]
)
_Q8_RHS = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
_Q8_EQUATION_LABELS = (
    "direction -1 equation",
    "direction i equation",
    "direction j equation",
    "direction k equation",
    "unit-energy equation",
)


def solve_q8_system() -> tuple[np.ndarray, float]:
    """Solve the five printed Q8 magnitude equations.

    Returns the unique magnitude-squared vector and the max linear-system
    residual; the solution is (2/9, 2/9, 2/9, 2/9, 1/9).
    """
    m = np.linalg.solve(_Q8_ROWS, _Q8_RHS)
    residual = float(np.max(np.abs(_Q8_ROWS @ m - _Q8_RHS)))
    return m, residual


def q8_equation_residuals(m: Sequence[float]) -> tuple[float, ...]:
    """Absolute values of the four homogeneous printed equations at ``m``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (5,):
        raise ValueError(f"expected 5 squared magnitudes, got shape {m.shape}")
    return tuple(float(abs(v)) for v in _Q8_ROWS[:4] @ m)


def q8_necessary(a: Sequence[complex], tol: float = DEFAULT_TOL) -> CriterionOutcome:
    """Necessary magnitudes on Q8: |a_i|^2 = 2/9 for i <= 4 and |a_5|^2 = 1/9."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (5,):
        raise ValueError(f"expected exactly 5 coefficients, got shape {a.shape}")
    targets, _ = solve_q8_system()
    checks = [
        (f"|a_{i + 1}|^2", abs(abs(a[i]) ** 2 - targets[i])) for i in range(5)
    ]
    return _finalize("q8-necessary-magnitudes", checks, tol)


# ---------------------------------------------------------------------------
# S3 impossibility certificate


#: Term lists for the two derivative-sum expansions on S3, as displayed:
#: each entry is (multiplicity, p, q) contributing mult * conj(t_p) * t_q,
#: where t_c is the function value on conjugacy class c (identity,
#: transpositions, 3-cycles).
_S3_TRANSPOSITION_TERMS = ((1, 0, 1), (1, 1, 0), (2, 1, 2), (2, 2, 1))
_S3_THREE_CYCLE_TERMS = ((1, 0, 2), (1, 2, 0), (3, 1, 1), (1, 2, 2))


def _expansion_matrix(table: CharacterTable, terms) -> np.ndarray:
    """Hermitian form M with a^H M a = sum of mult * conj(t_p) t_q.

    The class-value rows l_c (t_c = l_c . a) come from the implemented
    character table, so the resulting magnitude rows are derived, not typed
    in.
    """
    rows = [table.class_values[:, c] for c in range(table.group.n_classes)]
    m = np.zeros((table.n_irreps, table.n_irreps), dtype=complex)
    for mult, p, q in terms:
        m += mult * np.outer(np.conj(rows[p]), rows[q])
    return m


def s3_certificate(tol: float = DEFAULT_TOL) -> S3Certificate:
    """Derive the S3 impossibility certificate from the implemented expansions.

    Both quadratic forms must reduce to pure magnitude combinations (their
    cross terms cancel); the resulting 3x3 system plus unit energy forces the
    magnitudes, the unimodularity of the value on transpositions forces the
    cross term, and the Cauchy-Schwarz bound is then violated.
    """
    table = character_table(make_named("S3"))
    worst = 0.0
    rows = []
    for terms in (_S3_TRANSPOSITION_TERMS, _S3_THREE_CYCLE_TERMS):
        m = _expansion_matrix(table, terms)
        off_diag = m - np.diag(np.diag(m))
        worst = max(worst, float(np.max(np.abs(off_diag))))
        worst = max(worst, float(np.max(np.abs(np.diag(m).imag))))
        rows.append(np.diag(m).real)
    system = np.vstack([rows[0], rows[1], np.ones(3)])
    rhs = np.array([0.0, 0.0, 1.0])
    magnitudes = np.linalg.solve(system, rhs)
    worst = max(worst, float(np.max(np.abs(system @ magnitudes - rhs))))
    if worst > tol:
        raise RuntimeError(
            f"magnitude derivation residual {worst:.3e} exceeds tolerance {tol:.0e}"
        )
    # |f| = 1 on the transposition class forces the cross term:
    # |a_1 - a_2|^2 = m_1 + m_2 - cross = 1.
    cross = float(magnitudes[0] + magnitudes[1] - 1.0)
    cs_lhs = abs(cross)
    cs_rhs = 2.0 * math.sqrt(magnitudes[0] * magnitudes[1])
    return S3Certificate(
        magnitudes=tuple(float(v) for v in magnitudes),
        cross_term=cross,
        cs_lhs=cs_lhs,
        cs_rhs=cs_rhs,
        contradiction=cs_lhs > cs_rhs,
        solve_residual=worst,
    )


# ---------------------------------------------------------------------------
# serialization


def outcome_to_json(outcome: CriterionOutcome) -> dict:
    return {
        "name": outcome.name,
        "satisfied": outcome.satisfied,
        "violations": [[label, res] for label, res in outcome.violations],
        "tol": outcome.tol,
    }


def certificate_to_json(cert: S3Certificate) -> dict:
    return {
        "magnitudes": list(cert.magnitudes),
        "cross_term": cert.cross_term,
        "cs_lhs": cert.cs_lhs,
        "cs_rhs": cert.cs_rhs,
        "contradiction": cert.contradiction,
        "solve_residual": cert.solve_residual,
    }
