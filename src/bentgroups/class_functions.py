"""Class functions in the irreducible-character basis.

A class function is stored with both representations kept in sync: the
coefficient vector ``a`` with ``f = sum_i a_i chi_i`` and the pointwise value
vector ``f(x)`` over all elements.  Coefficients become values through
:func:`characters.expand`, ``phi @ a``, and values become coefficients through
:func:`characters.project`; from ``characters._FFT_ORDER`` on, both are FFTs on
a group built from cyclic factors.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import CharacterTable, character_table, expand, project
from .groups import Group, _freeze, group_from_label

__all__ = [
    "ClassFunction",
    "class_function_from_json",
    "class_function_to_json",
    "from_coefficients",
    "from_values",
    "is_unimodular",
    "load_class_function",
    "save_class_function",
]

#: The tolerance of every check that takes a ``tol`` and is given none.
DEFAULT_TOL = 1e-8

#: Maximum per-element deviation from its class mean allowed in pointwise
#: input, relative to ``max(1, max|v|)``.
SYNC_TOL = 1e-9


def _check_tol(tol: float, name: str = "tol") -> None:
    """Reject a tolerance that is a bool or a complex number (numpy's too), no
    number, NaN, infinite or negative, called ``name`` in the message."""
    real = hasattr(type(tol), "__float__") and not isinstance(
        tol, (bool, np.bool_, np.complexfloating))
    if not (real and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {tol}")


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """A function constant on conjugacy classes, in two synced representations.

    ``basis`` records which representation the function was built from
    ("coefficients" or "pointwise"); ``sync_residual`` is the maximum
    per-element deviation between the stored values and the values
    reconstructed from the stored coefficients.
    """

    table: CharacterTable
    coefficients: np.ndarray
    values: np.ndarray
    basis: str
    sync_residual: float

    @property
    def group(self) -> Group:
        return self.table.group

    def __repr__(self) -> str:
        return (
            f"ClassFunction(group={self.group.name!r}, "
            f"n_coefficients={len(self.coefficients)}, basis={self.basis!r})"
        )


def _check_length(group: Group, data: np.ndarray, basis: str) -> None:
    """Raise ValueError unless ``data`` holds one entry per class (basis
    "coefficients") or one per element (basis "pointwise")."""
    size, noun = ((group.n_classes, "coefficients") if basis == "coefficients"
                  else (group.order, "values"))
    if data.shape != (size,):
        raise ValueError(f"expected {size} {noun} for {group.name}, got shape {data.shape}")


def from_coefficients(table: CharacterTable, coefficients: Sequence[complex]) -> ClassFunction:
    """Build a class function from its character coefficients."""
    a = np.asarray(coefficients, dtype=complex)
    _check_length(table.group, a, "coefficients")
    values = expand(table, a)
    return ClassFunction(
        table=table,
        coefficients=_freeze(a.copy()),
        values=_freeze(values),
        basis="coefficients",
        sync_residual=0.0,
    )


def from_values(table: CharacterTable, values: Sequence[complex]) -> ClassFunction:
    """Build a class function from pointwise values (one per element).

    The input must be constant on conjugacy classes: no value may lie more
    than ``SYNC_TOL * max(1, max|v|)`` from its class mean, which is
    ``phi @ a`` there.  Otherwise a ValueError names the first offending class.
    """
    group = table.group
    v = np.asarray(values, dtype=complex)
    _check_length(group, v, "pointwise")
    a = project(table, v)
    dev = np.abs(expand(table, a) - v)
    if not group.is_abelian:  # else every class is a singleton
        bound = SYNC_TOL * max(1.0, float(np.abs(v).max()))
        if (dev > bound).any():
            c = int(np.min(group.class_of[dev > bound]))
            raise ValueError(
                f"values are not constant on conjugacy class {c} (max deviation "
                f"{np.max(dev[group.class_of == c]):.3e} exceeds {bound:.3e})"
            )
    return ClassFunction(
        table=table,
        coefficients=_freeze(a),
        values=_freeze(v.copy()),
        basis="pointwise",
        sync_residual=float(dev.max()),
    )


def is_unimodular(f: ClassFunction, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether every value lies on the unit circle, plus the max deviation."""
    _check_tol(tol)
    deviation = float(np.abs(np.abs(f.values) - 1.0).max())
    return deviation <= tol, deviation


# ---------------------------------------------------------------------------
# serialization


def _pairs(arr: np.ndarray) -> list[list[float]]:
    """``[re, im]`` float pairs of a complex vector, read from its float view."""
    return np.ascontiguousarray(arr, dtype=complex).view(float).reshape(-1, 2).tolist()


def class_function_to_json(f: ClassFunction) -> dict:
    """JSON dict carrying both representations plus their sync residual.

    ``data`` is the same list object as the entry of the representation named
    by ``basis``, so a writer can render it once.
    """
    coefficients, values = _pairs(f.coefficients), _pairs(f.values)
    return {
        "group": f.group.name,
        "basis": f.basis,
        "data": coefficients if f.basis == "coefficients" else values,
        "coefficients": coefficients,
        "values": values,
        "sync_residual": f.sync_residual,
    }


def _from_pairs(data: object) -> np.ndarray:
    """Complex array from a list of ``[re, im]`` pairs of finite numbers."""
    message = "class-function data must be a list of [re, im] pairs of numbers"
    try:
        pairs = np.array(data)
    except ValueError as exc:  # ragged nesting
        raise ValueError(message) from exc
    if pairs.shape == (0,):  # no pairs: a length error, which the caller reports
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
        raise ValueError(message)
    # numpy reads a boolean among numbers as 0 or 1
    if not {bool, np.bool_}.isdisjoint(map(type, itertools.chain.from_iterable(data))):
        raise ValueError(message)
    pairs = pairs.astype(float)
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if len(bad):
        raise ValueError(f"class-function data[{bad[0]}] is not finite")
    return pairs.view(complex)[:, 0]


def class_function_from_json(obj: dict) -> ClassFunction:
    """Rebuild a class function from :func:`class_function_to_json` output.

    The group is resolved from its label.  Only the primary representation
    named by ``basis`` is trusted; the other is recomputed.  Data must be
    finite ``[re, im]`` pairs, one per class or one per element as ``basis``
    says, whose function has a finite energy sum ``|f(x)|^2``, which bounds
    every derivative sum; anything else raises ValueError, before the
    character table is looked up unless only the energy sum fails.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"class-function JSON must be an object, got {type(obj).__name__}")
    for key in ("group", "basis", "data"):
        if key not in obj:
            raise ValueError(f"malformed class-function JSON: missing key {key!r}")
    label, basis, data = str(obj["group"]), str(obj["basis"]), obj["data"]
    if basis not in ("coefficients", "pointwise"):
        raise ValueError(f"unknown basis {basis!r}; expected 'coefficients' or 'pointwise'")
    group = group_from_label(label)
    payload = _from_pairs(data)
    _check_length(group, payload, basis)
    build = from_coefficients if basis == "coefficients" else from_values
    with np.errstate(over="ignore", invalid="ignore"):
        # the table is built last, so that a malformed file costs no table
        f = build(character_table(group), payload)
        energy = float(np.sum(np.abs(f.values) ** 2))
    if not math.isfinite(energy):
        raise ValueError("class-function data overflows: its energy sum |f(x)|^2 is not finite")
    return f


def load_class_function(path: str) -> ClassFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return class_function_from_json(json.load(fh))


def save_class_function(f: ClassFunction, path: str) -> None:
    """Write ``f`` as JSON; a non-finite number raises ValueError and writes no file."""
    text = json.dumps(class_function_to_json(f), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
