"""Bentness checks via derivative sums and, for abelian groups, spectra.

The derivative of ``f`` along a direction ``sigma`` is
``x -> conj(f(x)) * f(sigma x)``; ``f`` is bent when it is unimodular and the
sum of this derivative over the group vanishes for every ``sigma`` other than
the identity.  For abelian groups an equivalent route checks that the
character-basis spectrum is flat: ``|fhat(chi)|^2 = n`` for every character.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .class_functions import ClassFunction, is_unimodular
from .errors import CapabilityError

__all__ = [
    "BENT",
    "BentReport",
    "NOT_BENT",
    "NOT_UNIMODULAR",
    "derivative_sum",
    "derivative_sums",
    "is_bent",
    "is_bent_spectral",
    "report_to_json",
    "spectrum",
]

BENT = "BENT"
NOT_BENT = "NOT_BENT"
NOT_UNIMODULAR = "NOT_UNIMODULAR"


@dataclass(frozen=True, eq=False)
class BentReport:
    """Outcome of a bentness check.

    ``residuals[t]`` is the derivative sum along the t-th non-identity
    direction, in ascending element index (exactly ``order - 1`` entries).
    The verdict is BENT when the function is unimodular within ``tol`` and
    ``max_residual <= order * tol``; the derivative sum at the identity always
    equals the total energy and never enters the verdict.  Right translates
    need no separate check: a class function has ``f(x sigma) = f(sigma x)``,
    so they give the same sums.
    """

    group: str
    verdict: str
    residuals: np.ndarray
    max_residual: float
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
    group = f.group
    sigma = int(sigma)
    if not 0 <= sigma < group.order:
        raise IndexError(
            f"direction index {sigma} out of range for group of order {group.order}"
        )
    shifted = f.values[group.cayley[sigma]]
    return complex(np.sum(np.conj(f.values) * shifted))


def derivative_sums(f: ClassFunction) -> np.ndarray:
    """Derivative sums along every direction, identity included."""
    return f.values[f.group.cayley] @ np.conj(f.values)


def is_bent(f: ClassFunction, tol: float = 1e-8) -> BentReport:
    """Full bentness check; see :class:`BentReport` for the verdict rule."""
    group = f.group
    n = group.order
    _, deviation = is_unimodular(f, tol)
    mask = np.arange(n) != group.identity
    residuals = derivative_sums(f)[mask]
    max_residual = float(np.max(np.abs(residuals))) if n > 1 else 0.0
    if deviation > tol:
        verdict = NOT_UNIMODULAR
    elif max_residual <= n * tol:
        verdict = BENT
    else:
        verdict = NOT_BENT
    residuals.setflags(write=False)
    return BentReport(
        group=group.name,
        verdict=verdict,
        residuals=residuals,
        max_residual=max_residual,
        unimodular_deviation=deviation,
        tol=tol,
    )


def spectrum(f: ClassFunction) -> np.ndarray:
    """Squared magnitudes |fhat(chi_i)|^2 of the character-basis transform.

    Only defined for abelian groups, where fhat(chi) = sum_x f(x) conj(chi(x))
    and fhat(chi_i) = n * a_i.
    """
    if not f.group.is_abelian:
        raise CapabilityError(
            f"spectrum is only defined for abelian groups, not {f.group.name!r}"
        )
    fhat = np.conj(f.table.phi.T) @ f.values
    return np.abs(fhat) ** 2


def is_bent_spectral(f: ClassFunction, tol: float = 1e-8) -> bool:
    """Abelian-only equivalent check: unimodular values and a flat spectrum."""
    n = f.group.order
    ok, _ = is_unimodular(f, tol)
    if not ok:
        return False
    return float(np.max(np.abs(spectrum(f) - n))) <= n * tol


def report_to_json(report: BentReport) -> dict:
    return {
        "group": report.group,
        "verdict": report.verdict,
        "max_residual": report.max_residual,
        "unimodular_deviation": report.unimodular_deviation,
        "tol": report.tol,
        "residuals": [[float(z.real), float(z.imag)] for z in report.residuals],
    }
