"""Small finite groups stored as explicit Cayley tables.

Every group in this package is a table: element ``i`` times element ``j``
is ``cayley[i, j]``.  A table from outside (a JSON file, a presentation, any
:func:`_build_group` caller) is validated against the full set of group
axioms (closure, identity, two-sided inverses, and associativity exactly, by
Light's test, at every order), and its conjugacy-class partition is computed
from it.  A product of cyclic groups built from its factor sizes is correct
by construction: its identity, inverses, classes and exponent are closed
forms of the mixed-radix digits, pinned against the validated build by the
tests, and its Cayley table is built only when it is first read.  Groups are
frozen with read-only arrays, so the constructors memoize them and callers
share one instance per label.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapabilityError

__all__ = [
    "CATALOG",
    "Group",
    "MAX_ORDER",
    "element_order",
    "group_from_json",
    "group_from_label",
    "group_to_json",
    "inverse",
    "make_abelian",
    "make_cyclic",
    "make_named",
    "multiply",
]

MAX_ORDER = 512

#: Most cyclic factors of an abelian group: each factor is an array axis, and
#: numpy 1.x arrays have at most 32 (numpy 2, 64).
_MAX_FACTORS = 32

#: Bound on each constructor's memo; built groups are read-only and shared.
_CACHE_SIZE = 128

CATALOG = ("S3", "Q8", "V4", "D4")


@dataclass(frozen=True, eq=False)
class Group:
    """A finite group of order ``order`` with elements ``0 .. order-1``.

    Attributes
    ----------
    name : str
        Display label, e.g. ``"Z6"``, ``"Z2xZ3"``, ``"S3"``.
    order : int
        Number of elements.
    cayley : np.ndarray
        ``(order, order)`` read-only int64 array; ``cayley[i, j]`` is the
        product ``g_i g_j``.  A validated table is stored as given; a group
        built by :func:`make_abelian` builds its table from ``abelian_factors``
        when ``cayley`` is first read and keeps it, so commands that never
        multiply elements never pay for it.
    identity : int
        Index of the identity element.
    inverses : np.ndarray
        ``inverses[i]`` is the index of ``g_i^{-1}``.
    class_of : np.ndarray
        ``class_of[i]`` is the conjugacy-class index of ``g_i``.  Class 0 is
        the class of the identity; the rest are ordered by smallest member.
    class_reps : tuple[int, ...]
        Smallest member of each class.
    class_sizes : tuple[int, ...]
        Size of each class.
    element_names : tuple[str, ...]
        Human-readable element labels used by exports and the CLI.
    abelian_factors : tuple[int, ...] | None
        For groups built as products of cyclic factors, the factor sizes in
        row-major order; ``None`` when no such structure is known.
    """

    name: str
    order: int
    identity: int
    inverses: np.ndarray
    class_of: np.ndarray
    class_reps: tuple[int, ...]
    class_sizes: tuple[int, ...]
    element_names: tuple[str, ...]
    abelian_factors: tuple[int, ...] | None = None
    #: the Cayley table once built; ``None`` only before a product's first read
    _cayley: np.ndarray | None = None

    @property
    def cayley(self) -> np.ndarray:
        if self._cayley is None:  # threads that race here build equal read-only tables
            object.__setattr__(self, "_cayley", _abelian_cayley(self.abelian_factors))
        return self._cayley

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    @property
    def is_abelian(self) -> bool:
        return len(self.class_sizes) == self.order

    @property
    def exponent(self) -> int:
        """Least common multiple of the element orders."""
        if self.abelian_factors is not None:
            return math.lcm(*self.abelian_factors)
        # the exponent is the least m with x^m = e for every x at once
        x = np.arange(self.order)
        power, m = x, 1
        while (power != self.identity).any():
            power, m = self.cayley[power, x], m + 1
        return m

    def __repr__(self) -> str:  # keep array dumps out of test output
        return f"Group(name={self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# validation helpers


def _check_integer(name: str, value: int) -> int:
    """``value`` as an int; a bool is no integer here, although
    ``operator.index`` takes one, and a float is rejected, not truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _check_count(name: str, value: int, least: int) -> None:
    """Reject a ``value`` that is not an integer of at least ``least`` (0 or 1)."""
    if _check_integer(name, value) < least:
        raise ValueError(f"{name} must be {'at least 1' if least else 'non-negative'}, got {value}")


def _check_cayley(cayley: np.ndarray) -> None:
    n = cayley.shape[0]
    if cayley.ndim != 2 or cayley.shape != (n, n):
        raise ValueError(f"Cayley table must be square, got shape {cayley.shape}")
    if n < 1:
        raise ValueError("group order must be at least 1")
    if n > MAX_ORDER:
        raise CapabilityError(f"group order {n} exceeds supported maximum {MAX_ORDER}")
    if cayley.min() < 0 or cayley.max() >= n:
        raise ValueError("Cayley table entries must be element indices in range")


def _find_identity(cayley: np.ndarray) -> int:
    idx = np.arange(cayley.shape[0])
    left = (cayley == idx[None, :]).all(axis=1)  # row e is the identity map
    right = (cayley == idx[:, None]).all(axis=0)  # column e is the identity map
    hits = np.flatnonzero(left & right)
    if len(hits) != 1:
        raise ValueError(f"expected exactly one two-sided identity, found {len(hits)}")
    return int(hits[0])


def _find_inverses(cayley: np.ndarray, identity: int) -> np.ndarray:
    is_identity = cayley == identity
    inv = is_identity.argmax(axis=1)  # first right inverse of each element
    unique = is_identity.sum(axis=1) == 1
    two_sided = cayley[inv, np.arange(cayley.shape[0])] == identity
    bad = np.flatnonzero(~(unique & two_sided))
    if len(bad):
        raise ValueError(f"element {bad[0]} has no unique two-sided inverse")
    return inv


def _check_associativity(cayley: np.ndarray, identity: int) -> None:
    """Light's test: check associativity exactly, in O(n^2 log n).

    The elements ``s`` with ``(x s) y = x (s y)`` for all ``x, y`` are closed
    under multiplication, so checking a generating set suffices.  Each
    generator is the smallest element outside the subgroup generated by the
    earlier ones, and is checked before it joins: so that set stays a
    subgroup, and each generator at least doubles it.  There are at most
    floor(log2 n) generators, each costing two n x n gathers.
    """
    inside = np.zeros(cayley.shape[0], dtype=bool)
    inside[identity] = True
    while not inside.all():
        s = int(inside.argmin())
        bad = cayley[cayley[:, s]] != cayley.take(cayley[s], axis=1)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise ValueError(f"associativity fails at triple ({x}, {s}, {y})")
        inside[s] = True
        new = np.flatnonzero(inside)
        while len(new):  # in a group, closing under right products suffices
            before = inside.copy()
            inside[cayley[new[:, None], np.flatnonzero(inside)]] = True
            new = np.flatnonzero(inside & ~before)


def _conjugacy_partition(
    cayley: np.ndarray, inverses: np.ndarray, identity: int
) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    # conjugates[t, x] = t x t^-1, so each column's minimum is the smallest
    # member of x's class
    smallest = cayley[cayley, inverses[:, None]].min(axis=0)
    reps = np.flatnonzero(np.bincount(smallest, minlength=cayley.shape[0]))
    # identity class first, the rest by smallest member
    reps = np.concatenate(([identity], reps[reps != identity]))
    relabel = np.empty(cayley.shape[0], dtype=np.int64)
    relabel[reps] = np.arange(len(reps))
    class_of = relabel[smallest]
    sizes = np.bincount(class_of, minlength=len(reps))
    return class_of, tuple(reps.tolist()), tuple(sizes.tolist())


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _build_group(
    name: str,
    cayley: np.ndarray,
    element_names: Sequence[str] | None = None,
) -> Group:
    cayley = np.asarray(cayley, dtype=np.int64)
    _check_cayley(cayley)
    table = cayley.astype(np.int16)  # orders <= MAX_ORDER fit; a quarter of the traffic
    identity = _find_identity(table)
    inverses = _find_inverses(table, identity)
    _check_associativity(table, identity)
    class_of, reps, sizes = _conjugacy_partition(table, inverses, identity)
    if element_names is None:
        element_names = tuple(str(i) for i in range(cayley.shape[0]))
    names = tuple(element_names)
    if len(names) != cayley.shape[0]:
        raise ValueError("element_names length must match group order")
    return Group(
        name=name,
        order=int(cayley.shape[0]),
        identity=int(identity),
        inverses=_freeze(inverses),
        class_of=_freeze(class_of),
        class_reps=reps,
        class_sizes=sizes,
        element_names=names,
        _cayley=_freeze(cayley),
    )


# ---------------------------------------------------------------------------
# constructors


def make_cyclic(n: int) -> Group:
    """Cyclic group Z_n with elements 0..n-1 under addition mod n (memoized)."""
    return make_abelian((n,))


def make_abelian(factors: Iterable[int]) -> Group:
    """Direct product of cyclic groups, elements in row-major tuple order.

    The element with mixed-radix digits ``(t_1, .., t_k)`` over the factor
    sizes gets index ``sum(t_f * stride_f)`` where the last factor varies
    fastest, and the name ``"(t_1,..,t_k)"``; a single factor names its
    elements ``"0" .. "n-1"``.  Memoized by the factor tuple.
    """
    return _make_abelian(tuple(_check_integer("cyclic factor size", m) for m in factors))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _make_abelian(factors: tuple[int, ...]) -> Group:
    if not factors:
        raise ValueError("at least one cyclic factor is required")
    if any(m < 1 for m in factors):
        raise ValueError(f"cyclic factor sizes must be positive, got {factors}")
    if len(factors) > _MAX_FACTORS:
        raise ValueError(
            f"at most {_MAX_FACTORS} cyclic factors are supported, got {len(factors)}"
        )
    n = math.prod(factors)
    if n > MAX_ORDER:
        raise CapabilityError(f"group order {n} exceeds supported maximum {MAX_ORDER}")
    # the inverse negates each mixed-radix digit, mod its factor ("wrap")
    negated = [-d for d in np.unravel_index(np.arange(n), factors)]
    inverses = np.ravel_multi_index(negated, factors, mode="wrap")
    names = map(str, range(n))
    if len(factors) > 1:
        digits = itertools.product(*map(range, factors))  # row-major mixed radix
        names = ("(" + ",".join(map(str, ds)) + ")" for ds in digits)
    return Group(
        name="x".join(f"Z{m}" for m in factors),
        order=n,
        identity=0,
        inverses=_freeze(inverses),
        class_of=_freeze(np.arange(n)),  # every class of an abelian group is one element
        class_reps=tuple(range(n)),
        class_sizes=(1,) * n,
        element_names=tuple(names),
        abelian_factors=factors,
    )


def _kronecker_sum(factors: Sequence[int], grid: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """``table[x, y] = sum_f grid(m_f, k_f)[x_f, y_f]`` over the row-major mixed-radix
    digits of the factor sizes m_f, k_f the stride of factor f: a Kronecker sum.
    ``grid(m, k)`` returns the factor's m x m term, scaled by the stride k for
    element indices and by e/m for exponents of the e-th roots of unity.  The
    table takes the grids' integer dtype."""
    table = np.zeros((1, 1), dtype=np.int8)
    for m in reversed(factors):  # last first, so the broadcast's inner loop is long
        k = len(table)
        table = (grid(m, k)[:, None, :, None] + table[None, :, None, :]).reshape(m * k, m * k)
    return table


def _abelian_cayley(factors: tuple[int, ...]) -> np.ndarray:
    """The read-only Cayley table of the product of cyclic groups of these orders."""
    # Z_m's table (i + j) % m is a sliding window over arange(2m - 1) % m; the
    # stride scales those 2m - 1 entries before the window, not the m^2 after
    return _freeze(_kronecker_sum(
        factors, lambda m, k: sliding_window_view(np.arange(2 * m - 1) % m * k, m)))


#: Named nonabelian groups as ``(m, twist, words, names)``: the elements are
#: x^a y^b with x^m = 1, y x y^-1 = x^-1 and y^2 = x^twist.  Each word is the
#: normal form "x"*a + "y"*b of one element, listed in element-index order.
_NAMED = {
    "S3": (3, 0, ("", "y", "xy", "xxy", "x", "xx"),
           ("I", "(12)", "(13)", "(23)", "(123)", "(132)")),
    "Q8": (4, 2, ("", "xx", "x", "xxx", "y", "xxy", "xy", "xxxy"),
           ("1", "-1", "i", "-i", "j", "-j", "k", "-k")),
    "D4": (4, 0, ("", "x", "xx", "xxx", "y", "xy", "xxy", "xxxy"),
           ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")),
}


def _presentation(
    name: str, m: int, twist: int, words: Sequence[str], names: Sequence[str]
) -> Group:
    """The group of x^a y^b, x^m = 1, y x y^-1 = x^-1, y^2 = x^twist, in ``words`` order."""
    a = np.array([w.count("x") for w in words])
    b = np.array([w.count("y") for w in words])
    index = np.full(2 * m, -1)  # a word missing from the list leaves a -1 hole
    index[a + m * b] = np.arange(len(words))
    # x^a y^b . x^c y^d = x^(a + (-1)^b c + twist [b = d = 1]) y^(b + d)
    power = a[:, None] + (1 - 2 * b)[:, None] * a[None, :] + twist * (b[:, None] & b[None, :])
    cayley = index[power % m + m * (b[:, None] ^ b[None, :])]
    return _build_group(name, cayley, element_names=names)


def make_named(name: str) -> Group:
    """One of the built-in nonabelian/Klein groups: S3, Q8, V4, D4.

    Memoized by the upper-cased name, so every spelling shares one instance.
    """
    key = name.upper()
    if key not in CATALOG:
        raise ValueError(f"unknown group name {name!r}; available: {', '.join(CATALOG)}")
    return _make_named(key)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _make_named(key: str) -> Group:
    if key == "V4":
        return replace(make_abelian((2, 2)), name="V4")
    return _presentation(key, *_NAMED[key])


def group_from_label(label: str) -> Group:
    """Resolve a short label such as ``Z6``, ``Z2xZ3``, ``S3`` to a group."""
    text = label.strip()
    key = text.upper()
    if key in CATALOG:
        return make_named(key)
    parts = key.split("X")
    if all(re.fullmatch(r"Z\d+", p) for p in parts):
        return make_abelian(int(p[1:]) for p in parts)
    raise ValueError(
        f"cannot resolve group label {label!r}; expected Z<n>, a product like Z2xZ3, "
        f"or one of {', '.join(CATALOG)}"
    )


# ---------------------------------------------------------------------------
# element-level operations


def _check_element(group: Group, x: int) -> int:
    x = _check_integer("element index", x)
    if not 0 <= x < group.order:
        raise IndexError(f"element index {x} out of range for group of order {group.order}")
    return x


def multiply(group: Group, a: int, b: int) -> int:
    """Product ``g_a g_b`` as an element index."""
    return int(group.cayley[_check_element(group, a), _check_element(group, b)])


def inverse(group: Group, a: int) -> int:
    """Index of ``g_a^{-1}``."""
    return int(group.inverses[_check_element(group, a)])


def element_order(group: Group, x: int) -> int:
    """Multiplicative order of ``g_x``."""
    x = _check_element(group, x)
    cur, k = x, 1
    while cur != group.identity:
        cur = int(group.cayley[cur, x])
        k += 1
    return k


# ---------------------------------------------------------------------------
# serialization


def group_to_json(group: Group) -> dict:
    """JSON-compatible dict with the Cayley table and identity index."""
    return {
        "name": group.name,
        "order": group.order,
        "cayley": group.cayley.tolist(),
        "identity": group.identity,
    }


def group_from_json(obj: dict) -> Group:
    """Rebuild a group from :func:`group_to_json` output.

    All axioms are revalidated and the class partition is recomputed; the
    file's claims are never trusted.  ``order``, ``identity`` and the table
    entries must be JSON integers: floats, strings and booleans are rejected,
    not coerced.  When the stored table matches a label that
    :func:`group_from_label` can resolve, the resolved constructor's group is
    returned so factor structure is recovered.
    """
    try:
        name = str(obj["name"])
        order, identity, rows = obj["order"], obj["identity"], obj["cayley"]
        # bool is a subclass of int, so test the exact type
        if type(order) is not int or type(identity) is not int:
            raise TypeError("order and identity must be integers")
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            raise TypeError("cayley entries must be integers")
        cayley = np.asarray(rows, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed group JSON: {exc}") from exc
    if cayley.shape != (order, order):
        raise ValueError(
            f"declared order {order} does not match Cayley table shape {cayley.shape}"
        )
    try:
        candidate = group_from_label(name)
    except ValueError:
        candidate = None
    if candidate is not None and np.array_equal(candidate.cayley, cayley):
        group = candidate
    else:
        group = _build_group(name, cayley)
    if group.identity != identity:
        raise ValueError(
            f"declared identity {identity} does not match computed {group.identity}"
        )
    return group
