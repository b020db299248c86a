"""Class functions in the irreducible-character basis.

A class function is stored with both representations kept in sync: the
coefficient vector ``a`` with ``f = sum_i a_i chi_i`` and the pointwise value
vector ``f(x)`` over all elements.  Conversions go through the character
value matrix ``phi`` and its adjoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import CharacterTable, character_table
from .groups import Group, group_from_label

__all__ = [
    "ClassFunction",
    "class_function_from_json",
    "class_function_to_json",
    "from_coefficients",
    "from_values",
    "is_unimodular",
    "load_class_function",
    "save_class_function",
    "to_coefficients",
]

#: Maximum per-element deviation allowed between the two representations and
#: within a conjugacy class for pointwise input.
SYNC_TOL = 1e-9


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def from_coefficients(table: CharacterTable, coefficients: Sequence[complex]) -> ClassFunction:
    """Build a class function from its character coefficients."""
    a = np.asarray(coefficients, dtype=complex)
    if a.shape != (table.n_irreps,):
        raise ValueError(
            f"expected {table.n_irreps} coefficients for {table.group.name}, "
            f"got shape {a.shape}"
        )
    values = table.phi @ a
    return ClassFunction(
        table=table,
        coefficients=_freeze(a.copy()),
        values=_freeze(values),
        basis="coefficients",
        sync_residual=0.0,
    )


def to_coefficients(table: CharacterTable, values: Sequence[complex]) -> np.ndarray:
    """Project pointwise values onto the character basis.

    The input must be constant on conjugacy classes to within ``SYNC_TOL``;
    otherwise a ValueError names the first offending class.
    """
    group = table.group
    v = np.asarray(values, dtype=complex)
    if v.shape != (group.order,):
        raise ValueError(
            f"expected {group.order} values for {group.name}, got shape {v.shape}"
        )
    if not group.is_abelian:  # otherwise every class is a singleton
        for c in range(group.n_classes):
            members = v[group.class_of == c]
            dev = float(np.max(np.abs(members - members.mean())))
            if dev > SYNC_TOL:
                raise ValueError(
                    f"values are not constant on conjugacy class {c} "
                    f"(max deviation {dev:.3e} exceeds {SYNC_TOL:.0e})"
                )
    return np.conj(table.phi.T) @ v / group.order


def from_values(table: CharacterTable, values: Sequence[complex]) -> ClassFunction:
    """Build a class function from pointwise values (one per element)."""
    v = np.asarray(values, dtype=complex)
    a = to_coefficients(table, v)
    residual = float(np.max(np.abs(table.phi @ a - v)))
    return ClassFunction(
        table=table,
        coefficients=_freeze(a),
        values=_freeze(v.copy()),
        basis="pointwise",
        sync_residual=residual,
    )


def is_unimodular(f: ClassFunction, tol: float = 1e-8) -> tuple[bool, float]:
    """Whether every value lies on the unit circle, plus the max deviation."""
    deviation = float(np.max(np.abs(np.abs(f.values) - 1.0)))
    return deviation <= tol, deviation


# ---------------------------------------------------------------------------
# serialization


def _pairs(arr: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in arr]


def class_function_to_json(f: ClassFunction) -> dict:
    """JSON dict carrying both representations plus their sync residual."""
    primary = f.coefficients if f.basis == "coefficients" else f.values
    return {
        "group": f.group.name,
        "basis": f.basis,
        "data": _pairs(primary),
        "coefficients": _pairs(f.coefficients),
        "values": _pairs(f.values),
        "sync_residual": f.sync_residual,
    }


def _from_pairs(data: object) -> np.ndarray:
    """Complex array from a list of ``[re, im]`` pairs of finite numbers."""
    message = "class-function data must be a list of [re, im] pairs of numbers"
    try:
        pairs = np.array(data)
    except ValueError as exc:  # ragged nesting
        raise ValueError(message) from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
        raise ValueError(message)
    pairs = pairs.astype(float)
    bad = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
    if len(bad):
        raise ValueError(f"class-function data[{bad[0]}] is not finite")
    return pairs.view(complex)[:, 0]


def class_function_from_json(obj: dict, table: CharacterTable | None = None) -> ClassFunction:
    """Rebuild a class function from :func:`class_function_to_json` output.

    The group is resolved from its label unless a matching ``table`` is
    supplied.  Only the primary representation named by ``basis`` is trusted;
    the other is recomputed.  Data must be finite ``[re, im]`` pairs whose
    function has a finite energy sum ``|f(x)|^2``, which bounds every
    derivative sum; anything else raises ValueError.
    """
    try:
        label = str(obj["group"])
        basis = str(obj["basis"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed class-function JSON: {exc}") from exc
    if table is None:
        table = character_table(group_from_label(label))
    elif table.group.name != label:
        raise ValueError(
            f"class-function JSON is for group {label!r}, not {table.group.name!r}"
        )
    payload = _from_pairs(data)
    if basis not in ("coefficients", "pointwise"):
        raise ValueError(f"unknown basis {basis!r}; expected 'coefficients' or 'pointwise'")
    build = from_coefficients if basis == "coefficients" else from_values
    with np.errstate(over="ignore", invalid="ignore"):
        f = build(table, payload)
        energy = float(np.sum(np.abs(f.values) ** 2))
    if not math.isfinite(energy):
        raise ValueError("class-function data overflows: its energy sum |f(x)|^2 is not finite")
    return f


def load_class_function(path: str) -> ClassFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return class_function_from_json(json.load(fh))


def save_class_function(f: ClassFunction, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(class_function_to_json(f), fh, indent=2)
        fh.write("\n")
