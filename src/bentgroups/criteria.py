"""Coefficient-space bentness criteria for specific small groups.

Each criterion checks a set of explicit equations in the character
coefficients ``a`` exactly as displayed in the reference derivations this
package implements, and reports the violated equations with their residual
magnitudes.  Ground truth is always the brute-force derivative-sum oracle in
:mod:`bentgroups.bentness`; the test suite cross-validates every criterion
against it, and any systematic discrepancy is documented rather than patched.
:func:`impossibility_certificate` rules bent class functions out on any group
whose character table violates the L1 bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import CharacterTable, expand, project
from .class_functions import DEFAULT_TOL, _check_tol

__all__ = [
    "CriterionOutcome",
    "ImpossibilityCertificate",
    "abelian_magnitude_necessary",
    "cyclic_criterion",
    "cyclic_lag_sums",
    "cyclic_satisfied",
    "impossibility_certificate",
    "klein_criterion",
    "q8_equation_residuals",
    "solve_magnitude_system",
    "solve_q8_system",
]


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
class ImpossibilityCertificate:
    """The L1 bound on every irreducible character of one group.

    Inversion gives n * a_i = sum_x f(x) conj(chi_i(x)), so a unimodular f has
    n |a_i| <= ||chi_i||_1 = sum_x |chi_i(x)|.  Bentness forces |a_i|^2 = m_i,
    the solution of the magnitude system, so a bent class function exists
    only if ``l1_norms[i] >= required[i] = n * sqrt(m_i)`` for every i.
    ``violated`` lists the characters where that fails; any one of them rules
    bent class functions out.  ``residual`` bounds the numeric steps (the
    solver residual plus the imaginary leakage of m).
    """

    l1_norms: tuple[float, ...]
    required: tuple[float, ...]
    violated: tuple[int, ...]
    residual: float

    @property
    def margin(self) -> float:
        """Largest ``required[i] - l1_norms[i]``; positive iff a character is violated."""
        return max(r - l1 for r, l1 in zip(self.required, self.l1_norms))


def _finalize(name: str, checks: list[tuple[str, float]], tol: float) -> CriterionOutcome:
    """The outcome of ``checks``; a NaN, infinite or negative ``tol`` raises ValueError."""
    _check_tol(tol)
    violations = tuple((label, float(res)) for label, res in checks if res > tol)
    return CriterionOutcome(
        name=name, satisfied=not violations, violations=violations, tol=tol
    )


def _printed_sums(a: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """One sum of terms conj(a_i) a_j per row of ``terms``, a (sums, terms, 2)
    array of (i, j), for each coefficient row of ``a``.

    Each product is formed from real parts, unfused, and the terms are added
    left to right as printed, so every sum rounds like scalar complex
    arithmetic on its row alone; numpy's vectorized complex multiply may fuse.
    """
    x, y = a[..., terms[..., 0]], a[..., terms[..., 1]]
    products = np.empty(x.shape, dtype=complex)
    products.real = x.real * y.real + x.imag * y.imag
    products.imag = x.real * y.imag - x.imag * y.real
    sums = products[..., 0]
    for k in range(1, terms.shape[1]):
        sums = sums + products[..., k]
    return sums


# ---------------------------------------------------------------------------
# abelian necessary condition and the magnitude system


def abelian_magnitude_necessary(
    a: Sequence[complex], tol: float = DEFAULT_TOL
) -> CriterionOutcome:
    """Necessary condition on any abelian group: every |a_i|^2 equals 1/n."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < 1:
        raise ValueError(f"expected a nonempty coefficient vector, got shape {a.shape}")
    n = len(a)
    # in array form, as the ledger computes it: numpy's scalar abs can round an
    # |a_i| one ulp apart from its array abs (a Z13 Zadoff-Chu coefficient does)
    residuals = np.abs(np.abs(a) ** 2 - 1.0 / n)
    checks = [(f"|a_{i + 1}|^2", res) for i, res in enumerate(residuals)]
    return _finalize("abelian-magnitude-necessary", checks, tol)


def solve_magnitude_system(
    table: CharacterTable, y: Sequence[complex] | None = None
) -> tuple[np.ndarray, float]:
    """Solve sum_i m_i chi_i(x) / d_i = y(x) for the magnitudes m, on any group.

    By generalized orthogonality the derivative sums of f = sum_i a_i chi_i
    are D(x) = n * sum_i |a_i|^2 chi_i(x) / d_i, so with m_i = |a_i|^2 this is
    the system D / n = y.  Row orthogonality inverts it exactly:
    m = d * conj(Phi)^T y / n, one :func:`project`.  ``y`` defaults to the
    profile of a bent function, 1 at the identity and 0 elsewhere, whose
    solution is the forced magnitudes m_i = d_i^2 / n (1/n on abelian groups).
    Returns (m, max residual of Phi (m / d) - y).
    """
    group = table.group
    n = group.order
    if y is None:
        y = np.zeros(n, dtype=complex)
        y[group.identity] = 1.0
    y = np.asarray(y, dtype=complex)
    if y.shape != (n,):
        raise ValueError(f"expected a length-{n} right-hand side, got shape {y.shape}")
    d = np.asarray(table.degrees, dtype=float)
    m = d * project(table, y)
    residual = float(np.max(np.abs(expand(table, m / d) - y)))
    return m, residual


def impossibility_certificate(table: CharacterTable) -> ImpossibilityCertificate:
    """Check the L1 bound n * sqrt(m_i) <= ||chi_i||_1 on every character of ``table``.

    ``m`` comes from :func:`solve_magnitude_system`; ``||chi_i||_1`` is
    sum_c |C_c| |chi_i(C_c)| over the conjugacy classes.
    """
    group = table.group
    m, residual = solve_magnitude_system(table)
    l1 = np.asarray(group.class_sizes, dtype=float) @ np.abs(table.class_values.T)
    required = group.order * np.sqrt(m.real)
    return ImpossibilityCertificate(
        l1_norms=tuple(l1.tolist()),
        required=tuple(required.tolist()),
        violated=tuple(np.flatnonzero(l1 < required).tolist()),
        residual=residual + float(np.max(np.abs(m.imag))),
    )


# ---------------------------------------------------------------------------
# cyclic groups


def cyclic_lag_sums(a: Sequence[complex]) -> np.ndarray:
    """Cyclic autocorrelation sums sum_i conj(a_i) a_{i+k} for k = 1..floor(n/2).

    ``a`` is one coefficient vector or a (B, n) batch of them; a batch gives
    one row of sums per vector, each bit-identical to the single-vector call.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (1, 2) or a.shape[-1] < 2:
        raise ValueError(f"expected a coefficient vector of length >= 2, got shape {a.shape}")
    n = a.shape[-1]
    lags = np.arange(1, n // 2 + 1)
    return (np.conj(a)[..., None, :] * a[..., (np.arange(n) + lags[:, None]) % n]).sum(axis=-1)


def _cyclic_residuals(a: np.ndarray) -> np.ndarray:
    """Residuals of the Z_n equations, per row: n magnitude checks, then the lag sums."""
    values = np.concatenate((a, cyclic_lag_sums(a)), axis=-1)
    n = a.shape[-1]
    # hypot rounds exactly like abs()
    residuals = np.hypot(values.real, values.imag)
    residuals[..., :n] = np.abs(residuals[..., :n] - 1.0 / math.sqrt(n))
    return residuals


def cyclic_criterion(a: Sequence[complex], tol: float = DEFAULT_TOL) -> CriterionOutcome:
    """Bentness criterion on Z_n: flat magnitudes and vanishing lag sums.

    Satisfied iff every |a_i| equals 1/sqrt(n) within ``tol`` and the cyclic
    lag sums sum_i conj(a_i) a_{i+k} vanish for k = 1..floor(n/2) (indices
    mod n).  Lags k and n-k give conjugate sums, so half the lags suffice.
    """
    _check_tol(tol)  # before ``residuals > tol`` can compare with a non-number
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) < 2:
        raise ValueError(f"expected a coefficient vector of length >= 2, got shape {a.shape}")
    n = len(a)
    residuals = _cyclic_residuals(a)
    checks = [
        (f"|a_{j + 1}|" if j < n else f"lag-{j - n + 1} sum", residuals[j])
        for j in np.flatnonzero(residuals > tol)
    ]
    return _finalize("cyclic-bent", checks, tol)


def cyclic_satisfied(a: Sequence[complex], tol: float = DEFAULT_TOL) -> np.ndarray:
    """``cyclic_criterion(row, tol).satisfied`` for every row of a (B, n) batch."""
    _check_tol(tol)
    return ~(_cyclic_residuals(np.asarray(a, dtype=complex)) > tol).any(axis=-1)


# ---------------------------------------------------------------------------
# Klein four-group


_KLEIN_LABELS = ("|a_1|", "|a_2|", "|a_3|", "|a_4|", "R1 sum", "R2 sum", "R3 sum")
#: The (i, j) of each term conj(a_i) a_j of R1, R2 and R3, in printed order.
_KLEIN_TERMS = np.array([
    [(0, 1), (2, 3), (1, 0), (3, 2)],
    [(0, 2), (1, 3), (2, 0), (3, 1)],
    [(0, 2), (2, 0), (1, 3), (3, 1)],
])
#: The (i, j) of each term conj(a_i) a_j of the displayed Z3 sum and Z4 sums.
_Z3_Z4_TERMS = {
    3: np.array([[(0, 1), (1, 2), (2, 0)]]),
    4: np.array([[(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 2), (1, 3), (2, 0), (3, 1)]]),
}


def _klein_residuals(a: np.ndarray) -> np.ndarray:
    """Residuals of the printed V4 equations, per row: |a_i| - 1/2, then R1, R2, R3."""
    values = np.concatenate((a, _printed_sums(a, _KLEIN_TERMS)), axis=-1)
    # hypot rounds exactly like abs()
    residuals = np.hypot(values.real, values.imag)
    residuals[..., :4] = np.abs(residuals[..., :4] - 0.5)
    return residuals


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
    checks = list(zip(_KLEIN_LABELS, _klein_residuals(a).tolist()))
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
