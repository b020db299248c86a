"""Certified bent class functions on Z_n from CAZAC sequences.

A unimodular sequence with zero cyclic autocorrelation at every nonzero lag
(constant amplitude, zero autocorrelation) scaled by 1/sqrt(n) is exactly a
coefficient vector passing the cyclic bentness criterion.  Zadoff-Chu chirps
provide such a sequence for every length n and every root coprime to n, and
plain quadratic chirps do for odd n.  Every constructor re-verifies its
output with the derivative-sum check and refuses to return anything that
does not certify.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bentness import BENT, NOT_UNIMODULAR, BentReport, _rounding_tol, is_bent
from .characters import character_table
from .class_functions import DEFAULT_TOL, ClassFunction, _check_tol, from_coefficients, from_values
from .errors import CapabilityError, ConstructionError
from .groups import _check_element, _check_integer, make_cyclic

__all__ = [
    "CertifiedFunction",
    "SequenceKind",
    "character_twist",
    "global_phase",
    "make_bent_cyclic",
    "quadratic_chirp",
    "translate",
    "zadoff_chu",
]


class SequenceKind(str, enum.Enum):
    ZADOFF_CHU = "zadoff-chu"
    QUADRATIC_CHIRP = "chirp"


def _check_sequence(length: int, root: int = 1) -> None:
    """The length and root rule that zadoff_chu and quadratic_chirp share."""
    _check_integer("sequence length", length)
    _check_integer("sequence root", root)
    if length < 1:
        raise ValueError(f"sequence length must be positive, got {length}")


@dataclass(frozen=True, eq=False)
class CertifiedFunction:
    """A class function bundled with the BentReport that certified it."""

    function: ClassFunction
    report: BentReport


def zadoff_chu(n: int, u: int) -> np.ndarray:
    """Zadoff-Chu sequence g_k = exp(-i*pi*u*k(k+1)/n) (odd n) or
    exp(-i*pi*u*k^2/n) (even n), for gcd(u, n) = 1.

    The parity split keeps the sequence n-periodic and drives every nonzero
    cyclic autocorrelation lag to zero.
    """
    _check_sequence(n, u)
    if (gcd := math.gcd(u, n)) != 1:
        raise ValueError(f"Zadoff-Chu root must be coprime to the length; gcd({u}, {n}) = {gcd}")
    k = np.arange(n)
    if n % 2:
        phase = -np.pi * u * k * (k + 1) / n
    else:
        phase = -np.pi * u * k * k / n
    return np.exp(1j * phase)


def quadratic_chirp(n: int) -> np.ndarray:
    """Quadratic chirp g_k = omega^(k^2), omega = exp(2*pi*i/n), odd n only."""
    _check_sequence(n)
    if n % 2 == 0:
        raise ValueError(f"quadratic chirps require odd length, got {n}")
    k = np.arange(n)
    return np.exp(2j * np.pi * ((k * k) % n) / n)


def make_bent_cyclic(
    kind: SequenceKind | str, length: int, root: int | None = None, *, tol: float = DEFAULT_TOL
) -> CertifiedFunction:
    """Build the class function on Z_n with coefficients g/sqrt(n) and certify it.

    ``g`` is ``zadoff_chu(n, root)``, root 1 by default, or ``quadratic_chirp(n)``,
    which takes no root, with n = ``length``; ``kind`` may be a string.
    The self-check runs at ``max(tol, n^2 * 1e-15)``, and the report records
    that tolerance: the checked values are recomputed from the coefficients
    through the character matrix, which moves them by up to about n^2 ulps,
    so a tighter check would measure that rounding, not the sequence.
    The result's arrays are read-only.  Raises ValueError on a bad sequence
    argument, then on a bad ``tol``, before any table is built, and
    ConstructionError if the self-check does not come back BENT.
    """
    if kind not in list(SequenceKind):
        raise ValueError(f"unknown sequence kind {kind!r}")
    kind = SequenceKind(kind)
    if kind is SequenceKind.ZADOFF_CHU:
        root = 1 if root is None else root
        sequence = zadoff_chu(length, root)
    elif root is not None:
        raise ValueError(f"construct {kind.value} takes no root, got {root}")
    else:
        sequence = quadratic_chirp(length)
    _check_tol(tol)
    table = character_table(make_cyclic(length))
    coefficients = sequence / math.sqrt(length)
    f = from_coefficients(table, coefficients)
    report = is_bent(f, _rounding_tol(tol, length))
    if report.verdict != BENT:
        if report.verdict == NOT_UNIMODULAR:
            failure = f"unimodular deviation {report.unimodular_deviation:.3e}"
        else:
            failure = f"max residual {report.max_residual:.3e}"
        named = f"{kind.value} of length {length}" + ("" if root is None else f" and root {root}")
        raise ConstructionError(
            f"construction {named} failed its bentness self-check at tol "
            f"{report.tol:g}: verdict {report.verdict}, {failure}"
        )
    return CertifiedFunction(function=f, report=report)


# ---------------------------------------------------------------------------
# bentness-preserving transforms


def global_phase(f: ClassFunction, c: complex) -> ClassFunction:
    """Multiply every value by a fixed unit-modulus constant."""
    if not abs(abs(c) - 1.0) <= 1e-9:  # a NaN modulus fails too
        raise ValueError(f"phase factor must be unimodular, got |c| = {abs(c):.6g}")
    return from_coefficients(f.table, f.coefficients * c)


def translate(f: ClassFunction, tau: int) -> ClassFunction:
    """Left-translate the argument: x -> f(tau x)."""
    return from_values(f.table, f.values[f.group.cayley[_check_element(f.group, tau)]])


def character_twist(f: ClassFunction, i: int) -> ClassFunction:
    """Multiply pointwise by the i-th character (0-based, one-dimensional only)."""
    table = f.table
    i = _check_integer("character index", i)
    if not 0 <= i < table.n_irreps:
        raise IndexError(f"character index {i} out of range for {table.n_irreps} irreps")
    if table.degrees[i] != 1:
        raise CapabilityError(
            f"character twist requires a one-dimensional character; "
            f"chi_{i + 1} has degree {table.degrees[i]}"
        )
    return from_values(table, f.values * table.phi[:, i])
