"""Irreducible character tables for every group with a Cayley table.

Three sources feed the same :class:`CharacterTable` record:

* groups built from cyclic factors get their characters analytically.  Every
  value is an e-th root of unity, e the lcm of the factor orders, so entry
  (i, c) is ``roots[E[i, c]]`` with the integer exponent
  ``E[i, c] = sum_f (e / m_f) * ((i_f * c_f) mod m_f) mod e`` over the
  row-major digits of the character and the element;
* the named nonabelian groups S3, Q8 and D4, and relabelled copies of them,
  read frozen class values: the bits the class-sum route gives them under
  OpenBLAS's SkylakeX kernels.  The search results pinned on these groups
  follow those last bits, which other LAPACK kernels round differently;
* every other group (any group loaded without factor structure, up to 15
  classes) goes through the class-sum (Burnside--Dixon) eigenvalue method:
  the class-sum multiplication matrices commute, their common eigenvectors
  are the columns of the table up to scale, and degrees are recovered from
  the second orthogonality relation.

A frozen table keeps its row order and places its columns in the group's
class order; a class-sum table puts the trivial character first, then sorts
by degree and by rounded values.  The degrees are read from the identity
column and must be integers, and the rows must be orthogonal: frozen and
class-sum tables check the Gram matrix, the analytic route a bound on it
computed from the e roots.  An analytic table builds and checks its values
when they are first read: from order ``_FFT_ORDER`` on, its transforms
:func:`project` and :func:`expand` are FFTs over the factors and never read
them, and :func:`table_to_json` renders the e roots once each and gathers the
n^2 entries through E.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError, NumericDegeneracyError
from .groups import Group, _kronecker_sum, element_order, make_named

__all__ = [
    "CharacterTable",
    "OrthogonalityReport",
    "character_table",
    "table_to_csv",
    "table_to_json",
    "verify_orthogonality",
]

_TABLE_TOL = 1e-8
_EIGENVECTOR_RESIDUAL_TOL = 1e-7
#: Rounding allowance of the analytic orthogonality bound, per group element.
_GRAM_ROUNDING_PER_ELEMENT = 8 * float(np.finfo(float).eps)

#: Rows per block of the e x e products of the analytic orthogonality bound.
_ROW_BLOCK = 64

#: Order from which an analytic table's transforms are FFTs: where one
#: ``np.fft.ifftn`` call on a cyclic group, about 16 us at any order up to 512,
#: gets cheaper than one ``phi @ a`` on a built table (between orders 176 and
#: 208 on a 2-core Xeon VM, one BLAS thread).
_FFT_ORDER = 192

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irreducible characters of ``group``.

    ``class_values[i, c]`` is the value of character ``i`` on conjugacy class
    ``c`` (class order follows ``group.class_reps``), the one array a table
    stores; row 0 is the trivial character.  ``phi[x, i]``, the value of
    character ``i`` at element ``x``, is the read-only C-contiguous gather
    ``class_values[:, group.class_of].T``, and ``root_order`` is the exponent
    of ``group``.  An analytic table (cyclic factors, degrees 1) builds and
    checks its class values ``roots[E]`` when they are first read; E is
    symmetric, so that array is its ``phi`` too, and an FFT-sized table that
    is only transformed never holds an n x n array.
    """

    group: Group
    degrees: tuple[int, ...]
    #: the class values once built; ``None`` only before an analytic table's first read
    _class_values: np.ndarray | None = None

    @property
    def class_values(self) -> np.ndarray:
        if self._class_values is None:
            # threads that race here build equal read-only arrays
            values = np.take(*_value_index(self))
            values.setflags(write=False)
            object.__setattr__(self, "_class_values", values)
        return self._class_values

    @functools.cached_property
    def phi(self) -> np.ndarray:
        if self.group.abelian_factors is not None:
            return self.class_values
        phi = self.class_values[:, self.group.class_of].T.copy()
        phi.setflags(write=False)
        return phi

    @property
    def root_order(self) -> int:
        return self.group.exponent

    @property
    def n_irreps(self) -> int:
        return len(self.degrees)

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
    roots[m - 1 : m // 2 : -1] = np.conj(roots[1 : (m - 1) // 2 + 1])
    return roots


def _exponents(factors: Sequence[int]) -> np.ndarray:
    """``E[i, c] = sum_f (e / m_f) * ((i_f * c_f) mod m_f) mod e``, e the lcm of the
    factor orders m_f, over the row-major mixed-radix digits of character i and
    element c: the exponent of the e-th root of unity that character i takes at
    element c.  E is symmetric, and int16: e <= 512, and a sum of at most nine
    terms below e stays below 2^15."""
    e = math.lcm(*factors)
    exponents = _kronecker_sum(factors, lambda m, k: (
        np.multiply.outer(np.arange(m, dtype=np.int32), np.arange(m, dtype=np.int32)) % m
        * (e // m)).astype(np.int16))
    if len(factors) > 1:  # one factor's exponents are below e already
        exponents %= e
    return exponents


def _root_bound(roots: np.ndarray, n: int) -> float:
    """A bound on the orthogonality deviation ``max |G - I|`` of the n x n table
    ``roots[E]``, G its Gram matrix over n, in O(e^2) where G costs O(n^3).

    Entry (i, j) of G averages ``roots[E[i, x]] * conj(roots[E[j, x]])`` over x.
    Each term is within ``delta = max_{a,c} |roots[a] * conj(roots[-c]) - roots[a + c]|``
    of ``roots[E[i - j, x]]``.  The character i - j has an order d dividing e and
    takes each exponent ``t * e / d``, t < d, equally often, so those terms
    average to ``sum_t roots[t * e / d] / d``, which is 1 for d = 1 and 0 else.
    The margin covers the rounding of the products and of a length-n sum.  The
    bound assumes nothing of the roots, so it holds far from I too.
    """
    e = len(roots)
    # delta by row blocks: roots[a] * conj(roots[-c]) against roots[a + c], read
    # through the strided view shifted[a, c] = twice[a + c] of the roots twice over
    conj = np.conj(roots)[-np.arange(e)]
    twice = np.concatenate((roots, roots))
    shifted = np.ndarray((e, e), twice.dtype, twice, strides=twice.strides * 2)
    delta = max(np.abs(np.multiply.outer(roots[a:a + _ROW_BLOCK], conj)
                       - shifted[a:a + _ROW_BLOCK]).max() for a in range(0, e, _ROW_BLOCK))
    small = [k for k in range(1, math.isqrt(e) + 1) if e % k == 0]
    divisors = small + [e // k for k in reversed(small) if k * k != e]
    # np.add.reduce is ndarray.sum without its Python wrapper
    averages = np.array([np.add.reduce(roots[::e // d]) / d for d in divisors])
    averages[0] -= 1.0  # d = 1, the diagonal
    return float(delta) + float(np.abs(averages).max()) + _GRAM_ROUNDING_PER_ELEMENT * n


def _checked_roots(group: Group) -> np.ndarray:
    """The e-th roots of unity of an analytic table, e the exponent of ``group``,
    once :func:`_root_bound` is within tolerance."""
    roots = _roots_of_unity(group.exponent)
    # every character's degree is its value at the identity, roots[0] = 1.0
    _check_deviation(_root_bound(roots, group.order))
    return roots


# ---------------------------------------------------------------------------
# class-sum eigenvalue path


def _class_multiplication_matrices(group: Group) -> np.ndarray:
    """Tensor ``c[i, j, k]``: number of ways C_i * C_j lands on the class-k rep."""
    r = group.n_classes
    cls = np.asarray(group.class_of)
    partners = group.cayley[group.inverses[:, None], group.class_reps]  # a -> a^{-1} z_k
    c = np.zeros((r, r, r), dtype=np.int64)
    np.add.at(c, (cls[:, None], cls[partners], np.arange(r)), 1)
    return c


def _class_sum_rows(group: Group) -> np.ndarray:
    """All irreducible character rows (unsorted) via common class-sum eigenvectors."""
    r, n = group.n_classes, group.order
    if r > len(_PRIMES):
        raise CapabilityError(
            f"class-sum path supports at most {len(_PRIMES)} classes, got {r}"
        )
    sizes = np.asarray(group.class_sizes, dtype=float)
    mats = _class_multiplication_matrices(group)
    weights = np.sqrt(np.asarray(_PRIMES[:r], dtype=float))
    _, vecs = np.linalg.eig(np.tensordot(weights, mats.astype(float), axes=1))
    rows = []
    for t in range(r):
        v = vecs[:, t]
        if abs(v[0]) < 1e-10:
            raise NumericDegeneracyError(list(range(r)))
        v = v / v[0]
        anchor = int(np.argmax(np.abs(v)))
        images = mats @ v  # row i is class sum i applied to v
        # complex even when eig returns real vectors, as the rows must be
        omegas = (images[:, anchor] / v[anchor]).astype(complex)
        scale = np.maximum(1.0, np.max(np.abs(images), axis=1))
        residual = np.max(np.abs(images - omegas[:, None] * v), axis=1)
        failed = np.flatnonzero(residual > _EIGENVECTOR_RESIDUAL_TOL * scale)
        if len(failed):
            raise NumericDegeneracyError(failed.tolist())
        degree = math.sqrt(n / float(np.sum(np.abs(omegas) ** 2 / sizes)))
        rows.append(degree * omegas / sizes)
    return np.asarray(rows)


# Frozen class values of the named nonabelian groups (see the module
# docstring), in emission order.  The sha256 of their complex128 bytes starts
# d66fa2924bd9, every imaginary part is +0.0, and rounding gives the integer
# tables.  Class columns follow the class order computed by the groups module
# (identity class first, then by smallest member).
_REFERENCE_TABLES: dict[str, np.ndarray] = {
    # classes: [I], [(12)], [(123)]
    "S3": np.array([
        [1.0, 1.0, 1.0],
        [0.9999999999999998, -1.0, 0.9999999999999998],
        [2.0, -2.0557335828564925e-16, -1.0],
    ], dtype=complex),
    # classes: [1], [-1], [i], [j], [k]
    "Q8": np.array([
        [1.0, 1.0, 0.9999999999999997, 1.0000000000000004, 0.9999999999999997],
        [1.0000000000000004, 1.0000000000000004, 0.9999999999999997, -0.9999999999999992,
         -1.0000000000000002],
        [1.0, 1.0, -1.0, -1.0, 1.0],
        [1.0000000000000009, 1.0000000000000009, -0.9999999999999993, 0.9999999999999996, -1.0],
        [2.0000000000000013, -1.9999999999999984, -6.900106266217608e-16, -1.045819777048753e-15,
         7.179057356295624e-16],
    ], dtype=complex),
    # classes: [e], [r], [r2], [s], [rs]
    "D4": np.array([
        [1.0000000000000002, 0.9999999999999998, 1.0000000000000002, 0.9999999999999998,
         1.0000000000000002],
        [1.0000000000000004, 0.9999999999999989, 1.0000000000000004, -1.0, -1.0000000000000002],
        [1.0000000000000004, -1.0, 1.0000000000000004, 0.9999999999999998, -0.9999999999999993],
        [1.0000000000000002, -0.9999999999999998, 1.0000000000000002, -0.9999999999999998, 1.0],
        [2.000000000000001, -7.519251583605647e-16, -1.9999999999999987, 1.0973784630821452e-15,
         -1.4748665234461325e-16],
    ], dtype=complex),
}


def _aligned_reference(group: Group) -> np.ndarray:
    """The named group's frozen table with columns in ``group``'s class order.

    A relabelled copy of a named group can list its classes in another order;
    columns are matched by (class size, element order) against the classes of
    :func:`make_named`, equal keys in class order.  Classes sharing a key
    (Q8's i, j, k; D4's two reflection classes) are permuted by automorphisms,
    which only permute the rows of the exact table.
    """
    keys, named_keys = (np.array([size * (g.order + 1) + element_order(g, rep)
                                  for size, rep in zip(g.class_sizes, g.class_reps)])
                        for g in (group, make_named(group.name)))
    order, named_order = np.argsort(keys, kind="stable"), np.argsort(named_keys, kind="stable")
    if keys.shape != named_keys.shape or np.any(keys[order] != named_keys[named_order]):
        raise ValueError(f"conjugacy classes of {group.name} do not match the built-in reference")
    columns = np.empty_like(order)
    columns[order] = named_order
    return _REFERENCE_TABLES[group.name][:, columns]


def _sort_rows(rows: np.ndarray) -> np.ndarray:
    """Trivial character first, then lexicographic on rounded (re, im) values.

    Column 0 is the identity class, so the rest sort by degree first.
    """
    trivial = int(np.argmin(np.max(np.abs(rows - 1.0), axis=1)))
    if np.max(np.abs(rows[trivial] - 1.0)) > _TABLE_TOL:  # NaN fails later
        raise ValueError("no trivial character found in computed table")
    rest = np.delete(np.arange(rows.shape[0]), trivial)
    rounded = np.round(rows[rest], 9)
    keys = np.stack((rounded.real, rounded.imag), axis=2).reshape(len(rest), -1)
    return rows[np.concatenate(([trivial], rest[np.lexsort(keys.T[::-1])]))]


# ---------------------------------------------------------------------------
# assembly


def _gram_deviation(group: Group, class_values: np.ndarray) -> float:
    """max |G - I| of the class-size weighted Gram matrix G of the rows."""
    sizes = np.asarray(group.class_sizes, dtype=float)
    gram = (class_values * sizes[None, :]) @ np.conj(class_values.T) / group.order
    return float(np.max(np.abs(gram - np.eye(class_values.shape[0]))))


def _checked_degrees(class_values: np.ndarray, dev: float) -> tuple[int, ...]:
    """The degrees read from the identity column, once they are integers and the
    orthogonality deviation ``dev`` is within tolerance."""
    degrees = np.round(class_values[:, 0].real)
    # written as "not <=", so that a NaN degree fails too
    if not np.max(np.abs(class_values[:, 0] - degrees)) <= _TABLE_TOL:
        raise ValueError("computed character table has a non-integral degree")
    _check_deviation(dev)
    return tuple(degrees.astype(int).tolist())


def _check_deviation(dev: float) -> None:
    """Raise ValueError unless the orthogonality deviation ``dev`` is within
    tolerance; written as "not <=", so that a NaN fails too."""
    if not dev <= _TABLE_TOL:
        raise ValueError(f"character table failed orthogonality validation ({dev:.3e})")


@functools.lru_cache(maxsize=128)
def character_table(group: Group) -> CharacterTable:
    """Compute and validate the irreducible character table of ``group``.

    Memoized per group instance (groups compare by identity); the returned
    table and its arrays are read-only, so callers share it.

    Raises
    ------
    CapabilityError
        If a group with neither cyclic factors nor a frozen table has more
        than 15 classes.
    ValueError
        If a group named S3, Q8 or D4 does not have that group's classes, or a
        degree is not an integer, or the rows are not orthogonal.  An analytic
        table raises these at the first read of its values instead.
    NumericDegeneracyError
        If the class-sum method cannot separate eigenspaces; the error lists
        the offending class sums.
    """
    if group.abelian_factors is not None:
        # every class is a singleton, listed in element order, so the
        # element-by-character matrix is the table of class values
        assert np.array_equal(group.class_of, np.arange(group.order))
        return CharacterTable(group=group, degrees=(1,) * group.order)
    class_values = (_aligned_reference(group) if group.name in _REFERENCE_TABLES
                    else _sort_rows(_class_sum_rows(group)))
    degrees = _checked_degrees(class_values, _gram_deviation(group, class_values))
    class_values.setflags(write=False)
    return CharacterTable(group=group, degrees=degrees, _class_values=class_values)


# ---------------------------------------------------------------------------
# operations


def _fft_shape(table: CharacterTable) -> tuple[int, ...] | None:
    """The factor sizes an FFT-sized analytic table transforms over, else None."""
    factors = table.group.abelian_factors
    return factors if factors is not None and table.group.order >= _FFT_ORDER else None


def project(table: CharacterTable, v: np.ndarray) -> np.ndarray:
    """The coefficients ``conj(phi)^T v / n`` of complex values ``v``.

    From order ``_FFT_ORDER`` on, an analytic table takes the forward FFT over
    its factors: ``conj(phi[x, e]) = prod_f exp(-2 pi i x_f e_f / m_f)``.  Any
    other table sums the values over each class, one bincount per part, and
    takes the r x r product of the C-contiguous class values with the
    conjugated sums.  Neither calls BLAS on more than r x r, so the bits are
    the same at any number of BLAS threads."""
    shape = _fft_shape(table)
    if shape is not None:  # numpy.fft is imported here, on its first use
        return np.fft.fftn(v.reshape(shape), norm="forward").ravel()
    group = table.group
    classes, r = group.class_of, group.n_classes
    conj_sums = (np.bincount(classes, weights=v.real, minlength=r)
                 - 1j * np.bincount(classes, weights=v.imag, minlength=r))
    return np.conj(table.class_values @ conj_sums) / group.order


def expand(table: CharacterTable, a: np.ndarray) -> np.ndarray:
    """The values ``phi @ a`` of coefficients ``a``; from order ``_FFT_ORDER`` on,
    an analytic table's unnormalized inverse FFT over its factors."""
    shape = _fft_shape(table)
    if shape is not None:
        return np.fft.ifftn(a.reshape(shape), norm="forward").ravel()
    return table.phi @ a


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


#: One ``[re, im]`` float pair as a list item of ``json.dumps(..., indent=2)``:
#: ``.format(pad)`` sets its indent, ``% (re, im)`` prints ``float.__repr__``s.
_JSON_PAIR = "{0}[\n{0}  %r,\n{0}  %r\n{0}]"


def _value_index(table: CharacterTable) -> tuple[np.ndarray, np.ndarray]:
    """Values and an index into them with ``class_values == values[index]`` bit
    for bit: on an analytic table the checked e-th roots of unity and E, which
    build its class values, else the r^2 class values."""
    factors = table.group.abelian_factors
    if factors is not None:
        return _checked_roots(table.group), _exponents(factors)
    class_values = table.class_values
    return class_values.ravel(), np.arange(class_values.size).reshape(class_values.shape)


def table_to_json(table: CharacterTable) -> str:
    """The table as the text of ``json.dumps(<dict>, indent=2)`` plus a newline.

    The dict holds group, order, root_order, class_labels, class_sizes and
    one ``{"name", "degree", "values"}`` entry per character, each value a
    ``[re, im]`` pair.  Only the header goes through :mod:`json`: each value
    that :func:`_value_index` lists is rendered once, with the
    ``float.__repr__`` that :mod:`json` uses, and gathered into the rows.

    Raises ValueError on a non-finite value, as ``allow_nan=False`` does.
    """
    group = table.group
    values, index = _value_index(table)
    flat = np.ascontiguousarray(values).view(float)
    finite = np.isfinite(flat)
    if not finite.all():
        bad = float(flat[np.argmin(finite)])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    pair = _JSON_PAIR.format(" " * 8)  # "values" pairs sit at 8 spaces
    pairs = flat.reshape(-1, 2).tolist()
    rendered = [pair % re_im for re_im in map(tuple, pairs)]
    # one row per character: its opening lines, its pairs, each but the last
    # followed by ",\n", and its closing lines
    pieces = np.empty((index.shape[0], index.shape[1] + 2), dtype=object)
    pieces[:, 0] = [
        f'    {{\n      "name": "chi_{i + 1}",\n      "degree": {degree},\n      "values": [\n'
        for i, degree in enumerate(table.degrees)
    ]
    pieces[:, 1:-1] = np.take(np.array([pair + ",\n" for pair in rendered], dtype=object), index)
    pieces[:, -2] = np.take(np.array(rendered, dtype=object), index[:, -1])
    pieces[:, -1] = "\n      ]\n    },\n"
    pieces[-1, -1] = "\n      ]\n    }\n"
    header = json.dumps(
        {
            "group": group.name,
            "order": group.order,
            "root_order": table.root_order,
            "class_labels": [group.element_names[rep] for rep in group.class_reps],
            "class_sizes": list(group.class_sizes),
        },
        indent=2,
    )
    # the header without its closing "\n}", then the characters list
    return "".join(
        [header[:-2], ',\n  "characters": [\n', *pieces.ravel().tolist(), "  ]\n}\n"]
    )


def table_to_csv(table: CharacterTable) -> str:
    group = table.group
    labels = [group.element_names[rep] for rep in group.class_reps]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["character"]
    for label in labels:
        header.extend([label, f"{label}_re", f"{label}_im"])
    writer.writerow(header)
    root_order = table.root_order
    for i in range(table.n_irreps):
        row: list[str] = [f"chi_{i + 1}"]
        for z in table.class_values[i]:
            row.extend(
                [
                    _render_value(complex(z), root_order),
                    f"{z.real:.12g}",
                    f"{z.imag:.12g}",
                ]
            )
        writer.writerow(row)
    return buf.getvalue()
