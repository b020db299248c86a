"""Bentness checks via derivative sums and via spectra.

The derivative of ``f`` along a direction ``sigma`` is
``x -> conj(f(x)) * f(sigma x)``; ``f`` is bent when it is unimodular and the
sum of this derivative over the group vanishes for every ``sigma`` other than
the identity.  An equivalent route checks that the spectrum is flat: the
Fourier transform of a class function at the irreducible representation
``rho_i`` is the scalar matrix ``n * a_i / d_i``, and ``f`` is bent iff it is
unimodular and ``|n * a_i / d_i|^2 = n`` for every i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import CharacterTable, expand, project
from .class_functions import DEFAULT_TOL, ClassFunction, _check_tol, _pairs, is_unimodular
from .groups import _check_element

__all__ = [
    "BENT",
    "BentReport",
    "NOT_BENT",
    "NOT_UNIMODULAR",
    "derivative_sum",
    "derivative_sums",
    "is_bent",
    "is_bent_spectral",
    "oracle_verdicts",
    "report_to_json",
    "spectrum",
]

BENT = "BENT"
NOT_BENT = "NOT_BENT"
NOT_UNIMODULAR = "NOT_UNIMODULAR"

#: Checks on a function that went through the character transform and back
#: run at no tolerance below n^2 times this.  The round trip moves a value by
#: up to about n^2 ulps (2.6e-14 on a Z12 Zadoff-Chu witness), so below this
#: floor last-bit rounding, not bentness, decides a verdict.
_ROUNDING = 1e-15


def _passes(deviation, worst, n: int, tol: float) -> tuple:
    """The verdict rule on floats or row arrays: ``(unimodular, passed)``.  A NaN
    ``deviation`` is not unimodular; ``worst`` is the largest derivative sum off
    the identity, or the largest deviation of the spectrum from n."""
    unimodular = deviation <= tol
    return unimodular, unimodular & (worst <= n * tol)


def _rounding_tol(tol: float, n: int) -> float:
    """``tol`` raised to the rounding floor ``n^2 * _ROUNDING`` of order ``n``."""
    return max(tol, n * n * _ROUNDING)


def _row_max(x: np.ndarray, initial: float | None = None) -> np.ndarray:
    """``np.max(x, axis=1, initial=initial)`` of a 2-D array, as a fold over its columns.

    On short rows the per-row reduction overhead of ``np.max`` dominates; the
    fold makes one ``np.maximum`` call per column instead.  A maximum returns
    one of its inputs and ``np.maximum`` propagates NaN as ``np.max`` does, so
    the bits are the same.
    """
    if initial is None:
        out, columns = x[:, 0].copy(), x.T[1:]
    else:
        out, columns = np.full(len(x), initial), x.T
    for column in columns:
        np.maximum(out, column, out=out)
    return out


@dataclass(frozen=True, eq=False)
class BentReport:
    """Outcome of a bentness check.

    ``residuals[t]`` is the derivative sum along the t-th non-identity
    direction, in ascending element index (exactly ``order - 1`` entries),
    from the closed form ``D(sigma) = n * sum_i |a_i|^2 chi_i(sigma) / d_i``,
    one :func:`characters.expand` of ``|a|^2 / d``.  That form is exact for
    the values ``p = phi @ a`` of the coefficients (which ``expand`` computes
    as an FFT on large abelian groups).  Pointwise values ``v`` lie within
    ``s = sync_residual`` of p, which moves each sum by at most
    ``slack = n * s * (2 * max|v| + 3 * s)`` (0.0 on coefficient input).  The
    verdict is BENT when the function is unimodular within ``tol`` and
    ``max_residual + slack <= order * tol``; the residuals carry no slack, and
    ``slack`` is reported beside them so the verdict can be re-derived.  The
    derivative sum at the identity always equals the total energy and never
    enters the verdict.  Right translates need no separate check: a class
    function has ``f(x sigma) = f(sigma x)``, so they give the same sums.
    """

    group: str
    verdict: str
    residuals: np.ndarray
    max_residual: float
    slack: float
    unimodular_deviation: float
    tol: float

    def __repr__(self) -> str:
        return (
            f"BentReport(group={self.group!r}, verdict={self.verdict!r}, "
            f"max_residual={self.max_residual:.3e}, "
            f"unimodular_deviation={self.unimodular_deviation:.3e})"
        )


def derivative_sum(f: ClassFunction, sigma: int) -> complex:
    """Sum of conj(f(x)) * f(sigma x) over all x, in ascending element order."""
    shifted = f.values[f.group.cayley[_check_element(f.group, sigma)]]
    return complex(np.sum(np.conj(f.values) * shifted))


def derivative_sums(f: ClassFunction) -> np.ndarray:
    """Derivative sums along every direction, identity included: the brute-force
    oracle of :func:`is_bent`, one gather of the Cayley table."""
    return f.values[f.group.cayley] @ np.conj(f.values)


def is_bent(f: ClassFunction, tol: float = DEFAULT_TOL) -> BentReport:
    """Full bentness check; see :class:`BentReport` for the verdict rule."""
    group, table = f.group, f.table
    n, e = group.order, group.identity
    _, deviation = is_unimodular(f, tol)  # rejects a NaN, infinite or negative tol
    sums = n * expand(table, np.abs(f.coefficients) ** 2 / np.asarray(table.degrees))
    residuals = np.concatenate((sums[:e], sums[e + 1:]))
    max_residual = float(np.abs(residuals).max()) if n > 1 else 0.0
    residuals.setflags(write=False)
    s = f.sync_residual
    slack = n * s * (2.0 * float(np.abs(f.values).max()) + 3.0 * s)
    unimodular, bent = _passes(deviation, max_residual + slack, n, tol)
    return BentReport(
        group=group.name,
        verdict=BENT if bent else NOT_BENT if unimodular else NOT_UNIMODULAR,
        residuals=residuals,
        max_residual=max_residual,
        slack=slack,
        unimodular_deviation=deviation,
        tol=tol,
    )


def spectrum(f: ClassFunction) -> np.ndarray:
    """Squared moduli |fhat(rho_i)|^2 = |n * a_i / d_i|^2, one per irreducible.

    fhat(rho_i) = sum_x f(x) conj(rho_i(x)) is the scalar matrix with entry
    sum_x f(x) conj(chi_i(x)) / d_i = n * a_i / d_i.  On abelian groups every
    d_i is 1 and this is the character-basis transform.
    """
    fhat = f.group.order * project(f.table, f.values)
    return np.abs(fhat) ** 2 / np.square(f.table.degrees)


def is_bent_spectral(f: ClassFunction, tol: float = DEFAULT_TOL) -> bool:
    """Equivalent check on any group: unimodular values and a flat spectrum."""
    n = f.group.order
    ok, deviation = is_unimodular(f, tol)  # rejects a NaN, infinite or negative tol
    return ok and _passes(deviation, float(np.abs(spectrum(f) - n).max()), n, tol)[1]


def oracle_verdicts(
    table: CharacterTable, values: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Both bentness oracles on a batch: row b of ``values`` is f_b in element order.

    Returns boolean arrays ``(bent, flat)``: whether each row's :func:`is_bent`
    verdict is BENT, and its :func:`is_bent_spectral` outcome.  The sums are
    batched matrix products, which may round differently from the
    per-function calls in the last bits; the rules are theirs.  A row with a
    NaN value is neither bent nor flat.
    """
    _check_tol(tol)
    n = table.group.order
    v = np.asarray(values, dtype=complex)
    if v.ndim != 2 or v.shape[1] != n:
        raise ValueError(f"expected a (B, {n}) batch of values, got shape {v.shape}")
    bent, deviation = _sum_verdicts(table, v, tol)
    spectra = np.abs(v @ np.conj(table.phi)) ** 2 / np.square(table.degrees)
    return bent, _passes(deviation, _row_max(np.abs(spectra - n)), n, tol)[1]


def _sum_verdicts(table: CharacterTable, v: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The derivative-sum half of :func:`oracle_verdicts` on a complex (B, n) batch:
    whether each row is bent, and each row's largest deviation of ``|f|`` from 1."""
    group, n, e = table.group, table.group.order, table.group.identity
    deviation = _row_max(np.abs(np.abs(v) - 1.0))
    sums = (v[:, group.cayley] @ np.conj(v)[:, :, None])[:, :, 0]
    residuals = np.abs(np.concatenate((sums[:, :e], sums[:, e + 1:]), axis=1))
    return _passes(deviation, _row_max(residuals, initial=0.0), n, tol)[1], deviation


def report_to_json(report: BentReport) -> dict:
    return {
        "group": report.group,
        "verdict": report.verdict,
        "max_residual": report.max_residual,
        "slack": report.slack,
        "unimodular_deviation": report.unimodular_deviation,
        "tol": report.tol,
        "residuals": _pairs(report.residuals),
    }
