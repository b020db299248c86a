"""Irreducible character tables for the supported groups.

Two construction paths feed the same :class:`CharacterTable` record:

* abelian groups built from cyclic factors get their characters analytically,
  as products of root-of-unity characters indexed by exponent tuples in
  row-major order;
* the named nonabelian groups (and abelian groups loaded without factor
  structure) are handled by the class-sum eigenvalue method: the class-sum
  multiplication matrices commute, their common eigenvectors are the columns
  of the table up to scale, and degrees are recovered from the second
  orthogonality relation.

Tables computed by the second path are validated entrywise against built-in
reference tables and emitted in the reference row order.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError, NumericDegeneracyError
from .groups import Group

__all__ = [
    "CharacterTable",
    "OrthogonalityReport",
    "character_table",
    "inner_product",
    "table_to_csv",
    "table_to_json",
    "verify_orthogonality",
]

_REFERENCE_MATCH_TOL = 1e-8
_EIGENVECTOR_RESIDUAL_TOL = 1e-7

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irreducible characters of ``group``.

    ``class_values[i, c]`` is the value of character ``i`` on conjugacy class
    ``c`` (class order follows ``group.class_reps``).  ``phi[x, i]`` is the
    value of character ``i`` at element ``x``; for abelian groups ``phi`` is
    square and ``phi @ phi^H / n`` is the identity.  Row 0 is always the
    trivial character.
    """

    group: Group
    class_values: np.ndarray
    phi: np.ndarray
    degrees: tuple[int, ...]
    root_order: int

    @property
    def n_irreps(self) -> int:
        return self.class_values.shape[0]

    def __repr__(self) -> str:
        return f"CharacterTable(group={self.group.name!r}, n_irreps={self.n_irreps})"


@dataclass(frozen=True)
class OrthogonalityReport:
    max_row_deviation: float
    max_column_deviation: float
    tol: float
    passed: bool


# ---------------------------------------------------------------------------
# roots of unity and the analytic abelian path


def _roots_of_unity(m: int) -> np.ndarray:
    """exp(2*pi*i*k/m) for k = 0..m-1 with exact conjugate pairing.

    Entries at k and m-k are forced to be exact complex conjugates so that
    conjugate characters stay exactly conjugate; 1, -1, i, -i are exact.
    """
    k = np.arange(m)
    roots = np.exp(2j * np.pi * k / m)
    roots[0] = 1.0
    if m % 2 == 0:
        roots[m // 2] = -1.0
    if m % 4 == 0:
        roots[m // 4] = 1j
    for t in range(1, (m - 1) // 2 + 1):
        roots[m - t] = np.conj(roots[t])
    return roots


def _abelian_phi(factors: Sequence[int]) -> np.ndarray:
    """Element-by-character value matrix for a product of cyclic factors.

    Characters are indexed by exponent tuples in the same row-major order as
    the elements, so ``phi[x, e] = prod_f omega_f^(x_f * e_f)``.
    """
    phi = np.ones((1, 1), dtype=complex)
    for m in factors:
        roots = _roots_of_unity(m)
        grid = (np.arange(m)[:, None] * np.arange(m)[None, :]) % m
        phi = np.kron(phi, roots[grid])
    return phi


# ---------------------------------------------------------------------------
# class-sum eigenvalue path


def _class_multiplication_matrices(group: Group) -> np.ndarray:
    """Tensor ``c[i, j, k]``: number of ways C_i * C_j lands on the class-k rep."""
    r = group.n_classes
    n = group.order
    cls = np.asarray(group.class_of)
    c = np.zeros((r, r, r), dtype=np.int64)
    for k, z in enumerate(group.class_reps):
        partners = group.cayley[group.inverses, z]  # a -> a^{-1} z
        np.add.at(c, (cls, cls[partners], np.full(n, k)), 1)
    return c


def _class_sum_rows(group: Group) -> np.ndarray:
    """All irreducible character rows (unsorted) via common class-sum eigenvectors."""
    r = group.n_classes
    n = group.order
    sizes = np.asarray(group.class_sizes, dtype=float)
    mats = _class_multiplication_matrices(group)
    if r > len(_PRIMES):
        raise CapabilityError(
            f"class-sum path supports at most {len(_PRIMES)} classes, got {r}"
        )
    weights = np.sqrt(np.asarray(_PRIMES[:r], dtype=float))
    mixed = np.tensordot(weights, mats.astype(float), axes=1)
    _, vecs = np.linalg.eig(mixed)
    rows = []
    for t in range(r):
        v = vecs[:, t]
        if abs(v[0]) < 1e-10:
            raise NumericDegeneracyError(list(range(r)))
        v = v / v[0]
        anchor = int(np.argmax(np.abs(v)))
        omegas = np.empty(r, dtype=complex)
        failed = []
        for i in range(r):
            image = mats[i] @ v
            lam = image[anchor] / v[anchor]
            scale = max(1.0, float(np.max(np.abs(image))))
            if np.max(np.abs(image - lam * v)) > _EIGENVECTOR_RESIDUAL_TOL * scale:
                failed.append(i)
            omegas[i] = lam
        if failed:
            raise NumericDegeneracyError(failed)
        degree = math.sqrt(n / float(np.sum(np.abs(omegas) ** 2 / sizes)))
        rows.append(degree * omegas / sizes)
    return np.asarray(rows)


# Reference class values for the named nonabelian groups, in emission order.
# Class columns follow the class order computed by the groups module
# (identity class first, then by smallest member).
_REFERENCE_TABLES: dict[str, np.ndarray] = {
    # classes: [I], [(12)], [(123)]
    "S3": np.array(
        [
            [1, 1, 1],
            [1, -1, 1],
            [2, 0, -1],
        ],
        dtype=complex,
    ),
    # classes: [1], [-1], [i], [j], [k]
    "Q8": np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, -1, 1],
            [1, 1, -1, 1, -1],
            [2, -2, 0, 0, 0],
        ],
        dtype=complex,
    ),
    # classes: [e], [r], [r2], [s], [rs]
    "D4": np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, -1, 1, 1, -1],
            [1, -1, 1, -1, 1],
            [2, 0, -2, 0, 0],
        ],
        dtype=complex,
    ),
}


def _match_reference(computed: np.ndarray, reference: np.ndarray, name: str) -> np.ndarray:
    """Reorder computed rows to the reference order, failing on any mismatch."""
    r = reference.shape[0]
    out = np.empty_like(computed)
    used: set[int] = set()
    for ridx in range(r):
        best, best_dist = -1, np.inf
        for cidx in range(r):
            if cidx in used:
                continue
            dist = float(np.max(np.abs(computed[cidx] - reference[ridx])))
            if dist < best_dist:
                best, best_dist = cidx, dist
        if best < 0 or best_dist > _REFERENCE_MATCH_TOL:
            raise ValueError(
                f"computed character table for {name} deviates from the built-in "
                f"reference by {best_dist:.3e} (tolerance {_REFERENCE_MATCH_TOL:.0e})"
            )
        used.add(best)
        out[ridx] = computed[best]
    return out


def _sort_abelian_rows(rows: np.ndarray) -> np.ndarray:
    """Trivial character first, then lexicographic on rounded (re, im) values."""
    r = rows.shape[0]
    trivial = int(np.argmin(np.max(np.abs(rows - 1.0), axis=1)))
    if np.max(np.abs(rows[trivial] - 1.0)) > _REFERENCE_MATCH_TOL:
        raise ValueError("no trivial character found in computed table")
    rest = [i for i in range(r) if i != trivial]

    def key(i: int) -> tuple:
        row = np.round(rows[i], 9)
        return tuple(float(v) for pair in zip(row.real, row.imag) for v in pair)

    order = [trivial] + sorted(rest, key=key)
    return rows[order]


# ---------------------------------------------------------------------------
# assembly


def _validate_row_orthogonality(group: Group, class_values: np.ndarray) -> None:
    sizes = np.asarray(group.class_sizes, dtype=float)
    gram = (class_values * sizes[None, :]) @ np.conj(class_values.T) / group.order
    dev = float(np.max(np.abs(gram - np.eye(class_values.shape[0]))))
    if dev > _REFERENCE_MATCH_TOL:
        raise ValueError(f"character table failed orthogonality validation ({dev:.3e})")


@functools.lru_cache(maxsize=128)
def character_table(group: Group) -> CharacterTable:
    """Compute and validate the irreducible character table of ``group``.

    Memoized per group instance (groups compare by identity); the returned
    table and its arrays are read-only, so callers share it.

    Raises
    ------
    CapabilityError
        If the group is nonabelian and not one of the named built-ins.
    NumericDegeneracyError
        If the class-sum method cannot separate eigenspaces; the error lists
        the offending class sums.
    """
    if group.abelian_factors is not None:
        phi = _abelian_phi(group.abelian_factors)
        class_values = phi.T.copy()
        degrees = tuple([1] * group.order)
    elif group.name in _REFERENCE_TABLES:
        computed = _class_sum_rows(group)
        class_values = _match_reference(computed, _REFERENCE_TABLES[group.name], group.name)
        degrees = tuple(int(round(float(row[0].real))) for row in class_values)
        phi = class_values[:, group.class_of].T.copy()
    elif group.is_abelian:
        class_values = _sort_abelian_rows(_class_sum_rows(group))
        degrees = tuple([1] * group.order)
        phi = class_values[:, group.class_of].T.copy()
    else:
        raise CapabilityError(
            f"character tables for nonabelian groups are only available for "
            f"the named built-ins, not {group.name!r}"
        )
    _validate_row_orthogonality(group, class_values)
    class_values.setflags(write=False)
    phi.setflags(write=False)
    return CharacterTable(
        group=group,
        class_values=class_values,
        phi=phi,
        degrees=degrees,
        root_order=group.exponent,
    )


# ---------------------------------------------------------------------------
# operations


def inner_product(table: CharacterTable, u: Sequence[complex], v: Sequence[complex]) -> complex:
    """Normalized inner product (1/n) * sum_x u(x) * conj(v(x)) over elements."""
    n = table.group.order
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError(f"expected two length-{n} value vectors, got {u.shape} and {v.shape}")
    return complex(np.sum(u * np.conj(v)) / n)


def verify_orthogonality(table: CharacterTable, tol: float = 1e-10) -> OrthogonalityReport:
    """Check both orthogonality relations over elements.

    Row check: (1/n) sum_x chi_i(x) conj(chi_j(x)) = delta_ij.
    Column check: sum_i chi_i(x) conj(chi_i(y)) = n/|class(x)| when x, y are
    conjugate and 0 otherwise.
    """
    group = table.group
    n = group.order
    phi = table.phi
    gram = phi.T @ np.conj(phi) / n
    row_dev = float(np.max(np.abs(gram - np.eye(table.n_irreps))))
    kernel = phi @ np.conj(phi.T)
    sizes = np.asarray(group.class_sizes, dtype=float)
    same = np.asarray(group.class_of)[:, None] == np.asarray(group.class_of)[None, :]
    expected = np.where(same, n / sizes[np.asarray(group.class_of)][None, :], 0.0)
    col_dev = float(np.max(np.abs(kernel - expected)))
    return OrthogonalityReport(
        max_row_deviation=row_dev,
        max_column_deviation=col_dev,
        tol=tol,
        passed=row_dev <= tol and col_dev <= tol,
    )


# ---------------------------------------------------------------------------
# export


def _render_value(z: complex, root_order: int) -> str:
    """Symbolic rendering: integers, +-i, or q*e^{2pi*i*k/m} when exact."""
    mag = abs(z)
    if mag < 1e-9:
        return "0"
    q = round(mag)
    if q == 0 or abs(mag - q) > 1e-9:
        return f"{z.real:.6g}{z.imag:+.6g}i"
    m = root_order
    theta = math.atan2(z.imag, z.real) / (2 * math.pi)
    k = round(theta * m) % m
    approx = q * complex(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
    if abs(z - approx) > 1e-9:
        return f"{z.real:.6g}{z.imag:+.6g}i"
    if k == 0:
        return str(q)
    if 2 * k == m:
        return str(-q)
    if 4 * k == m:
        return "i" if q == 1 else f"{q}i"
    if 4 * k == 3 * m:
        return "-i" if q == 1 else f"-{q}i"
    prefix = "" if q == 1 else f"{q}*"
    return f"{prefix}e^{{2πi·{k}/{m}}}"


def table_to_json(table: CharacterTable) -> dict:
    group = table.group
    labels = [group.element_names[rep] for rep in group.class_reps]
    return {
        "group": group.name,
        "order": group.order,
        "root_order": table.root_order,
        "class_labels": labels,
        "class_sizes": list(group.class_sizes),
        "characters": [
            {
                "name": f"chi_{i + 1}",
                "degree": table.degrees[i],
                "values": [[float(z.real), float(z.imag)] for z in table.class_values[i]],
            }
            for i in range(table.n_irreps)
        ],
    }


def table_to_csv(table: CharacterTable) -> str:
    group = table.group
    labels = [group.element_names[rep] for rep in group.class_reps]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["character"]
    for label in labels:
        header.extend([label, f"{label}_re", f"{label}_im"])
    writer.writerow(header)
    for i in range(table.n_irreps):
        row: list[str] = [f"chi_{i + 1}"]
        for z in table.class_values[i]:
            row.extend(
                [
                    _render_value(complex(z), table.root_order),
                    f"{z.real:.12g}",
                    f"{z.imag:.12g}",
                ]
            )
        writer.writerow(row)
    return buf.getvalue()
