"""Group construction, axioms, conjugacy classes, and JSON round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bentgroups import (
    CATALOG,
    CapabilityError,
    Group,
    build_ledger,
    character_table,
    conjugacy_classes,
    element_order,
    group_from_json,
    group_from_label,
    group_to_json,
    inverse,
    ledger_to_json,
    make_abelian,
    make_cyclic,
    make_named,
    multiply,
)
from bentgroups import characters, groups

ALL_LABELS = ["Z1", "Z2", "Z6", "Z12", "Z2xZ3", "Z4xZ2", "S3", "Q8", "V4", "D4"]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_group_axioms(label):
    g = group_from_label(label)
    n = g.order
    cayley = g.cayley
    e = g.identity
    assert np.array_equal(cayley[e, :], np.arange(n))
    assert np.array_equal(cayley[:, e], np.arange(n))
    for x in range(n):
        assert cayley[x, g.inverses[x]] == e
        assert cayley[g.inverses[x], x] == e
    if n <= 12:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert cayley[cayley[a, b], c] == cayley[a, cayley[b, c]]


@pytest.mark.parametrize(
    "label,expected_sizes",
    [
        ("S3", (1, 3, 2)),
        ("Q8", (1, 1, 2, 2, 2)),
        ("D4", (1, 2, 1, 2, 2)),
        ("V4", (1, 1, 1, 1)),
        ("Z6", (1,) * 6),
    ],
)
def test_class_sizes(label, expected_sizes):
    g = group_from_label(label)
    assert g.class_sizes == expected_sizes
    assert sum(g.class_sizes) == g.order
    assert g.class_of[g.identity] == 0
    assert g.class_sizes[0] == 1


def test_classes_are_conjugation_orbits():
    g = make_named("S3")
    for x in range(g.order):
        for t in range(g.order):
            conj = multiply(g, multiply(g, t, x), inverse(g, t))
            assert g.class_of[conj] == g.class_of[x]


def test_conjugacy_classes_listing():
    g = make_named("Q8")
    classes = conjugacy_classes(g)
    assert [len(c) for c in classes] == [1, 1, 2, 2, 2]
    assert classes[0] == [g.identity]
    assert sorted(x for c in classes for x in c) == list(range(8))


def test_element_orders_q8():
    g = make_named("Q8")
    orders = sorted(element_order(g, x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_element_orders_s3():
    g = make_named("S3")
    orders = sorted(element_order(g, x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_cyclic_is_shift_table():
    g = make_cyclic(5)
    i, j = np.indices((5, 5))
    assert np.array_equal(g.cayley, (i + j) % 5)
    assert g.abelian_factors == (5,)


def test_abelian_product_crt_isomorphic_to_z6():
    """Z2 x Z3 has the same multiplication as Z6 after CRT relabeling."""
    prod = make_abelian((2, 3))
    z6 = make_cyclic(6)
    # element (a, b) of Z2 x Z3 (row-major index 3a + b) corresponds to the
    # unique residue r mod 6 with r = a mod 2, r = b mod 3
    to_z6 = np.empty(6, dtype=int)
    for a in range(2):
        for b in range(3):
            r = next(r for r in range(6) if r % 2 == a and r % 3 == b)
            to_z6[3 * a + b] = r
    for x in range(6):
        for y in range(6):
            assert to_z6[prod.cayley[x, y]] == z6.cayley[to_z6[x], to_z6[y]] % 6


def test_v4_is_z2_squared():
    v4 = make_named("V4")
    sq = make_abelian((2, 2))
    assert np.array_equal(v4.cayley, sq.cayley)
    assert v4.name == "V4"
    assert v4.exponent == 2


def test_exponent():
    assert make_cyclic(12).exponent == 12
    assert make_named("S3").exponent == 6
    assert make_named("Q8").exponent == 4


def test_group_json_round_trip():
    for label in ("Z6", "S3", "Q8"):
        g = group_from_label(label)
        obj = group_to_json(g)
        back = group_from_json(obj)
        assert back.name == g.name
        assert np.array_equal(back.cayley, g.cayley)
        assert back.class_sizes == g.class_sizes
        # classes must be recomputed on load, not read from the payload
        assert "class_of" not in obj


def test_group_json_round_trip_via_text():
    g = make_named("D4")
    back = group_from_json(json.loads(json.dumps(group_to_json(g))))
    assert np.array_equal(back.cayley, g.cayley)


def test_group_from_json_rejects_bad_table():
    g = make_cyclic(3)
    obj = group_to_json(g)
    obj["cayley"][0][0] = 2  # breaks the identity row
    with pytest.raises(ValueError):
        group_from_json(obj)
    # the memoized constructor's group is untouched by the rejected payload
    assert make_cyclic(3) is g
    assert np.array_equal(g.cayley, (np.arange(3)[:, None] + np.arange(3)) % 3)


def test_label_errors():
    with pytest.raises(ValueError):
        group_from_label("Z0")
    with pytest.raises(ValueError):
        group_from_label("A5")
    with pytest.raises(ValueError):
        group_from_label("")


def test_order_cap():
    with pytest.raises(CapabilityError):
        make_cyclic(513)


def test_multiply_inverse_helpers():
    g = make_cyclic(7)
    assert multiply(g, 3, 5) == 1
    assert inverse(g, 2) == 5
    assert element_order(g, 1) == 7


def test_groups_are_immutable():
    g = make_cyclic(4)
    assert isinstance(g, Group)
    with pytest.raises(ValueError):
        g.cayley[0, 0] = 1


# ---------------------------------------------------------------------------
# loop references for the vectorized group build


def loop_identity(cayley: np.ndarray) -> int:
    n = cayley.shape[0]
    idx = np.arange(n)
    hits = [e for e in range(n) if np.array_equal(cayley[e], idx) and np.array_equal(cayley[:, e], idx)]
    if len(hits) != 1:
        raise ValueError(f"expected exactly one two-sided identity, found {len(hits)}")
    return hits[0]


def loop_inverses(cayley: np.ndarray, identity: int) -> np.ndarray:
    n = cayley.shape[0]
    inv = np.empty(n, dtype=np.int64)
    for i in range(n):
        right = np.flatnonzero(cayley[i] == identity)
        if len(right) != 1 or cayley[right[0], i] != identity:
            raise ValueError(f"element {i} has no unique two-sided inverse")
        inv[i] = right[0]
    return inv


def loop_partition(cayley: np.ndarray, inverses: np.ndarray, identity: int):
    n = cayley.shape[0]
    class_of = np.full(n, -1, dtype=np.int64)
    orbits: list[np.ndarray] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(cayley[cayley[:, x], inverses])
        orbits.append(orbit)
        class_of[orbit] = len(orbits) - 1
    order = sorted(range(len(orbits)), key=lambda c: (orbits[c][0] != identity, orbits[c][0]))
    relabel = np.empty(len(orbits), dtype=np.int64)
    relabel[order] = np.arange(len(orbits))
    orbits = [orbits[c] for c in order]
    reps = tuple(int(orbit[0]) for orbit in orbits)
    sizes = tuple(int(len(orbit)) for orbit in orbits)
    return relabel[class_of], reps, sizes


def loop_exponent(g: Group) -> int:
    out = 1
    for x in range(g.order):
        out = math.lcm(out, element_order(g, x))
    return out


def assert_matches_loops(g: Group) -> None:
    cayley = np.asarray(g.cayley)
    identity = loop_identity(cayley)
    inverses = loop_inverses(cayley, identity)
    class_of, reps, sizes = loop_partition(cayley, inverses, identity)
    assert g.identity == identity
    assert np.array_equal(g.inverses, inverses)
    assert g.inverses.dtype == inverses.dtype
    assert np.array_equal(g.class_of, class_of)
    assert g.class_reps == reps
    assert g.class_sizes == sizes
    assert g.exponent == loop_exponent(g)
    assert g.is_abelian == all(size == 1 for size in sizes)


@pytest.mark.parametrize(
    "label", [*CATALOG, *(f"Z{n}" for n in range(1, 65)), "Z2xZ4xZ64"]
)
def test_group_build_matches_loop_reference(label):
    assert_matches_loops(group_from_label(label))


@pytest.mark.parametrize("label", [*CATALOG, "Z1", "Z12", "Z2xZ4", "Z2xZ4xZ64"])
def test_json_loaded_group_matches_loop_reference(label):
    """A table loaded without factor structure takes the power-iteration exponent."""
    obj = group_to_json(group_from_label(label))
    obj["name"] = "anonymous"
    g = group_from_json(obj)
    assert g.abelian_factors is None
    assert_matches_loops(g)


# ---------------------------------------------------------------------------
# tables that are not groups

#: The smallest loop that is not a group: a Latin square with identity 0 on
#: which associativity fails.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]
#: Multiplication mod 6: associative, identity 1, but 0, 2, 3 and 4 have no inverse.
MONOID_MOD_6 = (np.arange(6)[:, None] * np.arange(6)[None, :]) % 6
#: Relabel the monoid so the first element without an inverse is not element 0.
_SWAP = np.array([1, 0, 5, 3, 4, 2])
MONOID_RELABELED = _SWAP[MONOID_MOD_6[_SWAP][:, _SWAP]]


def _out_of_range(value: int) -> list[list[int]]:
    table = [row[:] for row in NONASSOCIATIVE_LOOP]
    table[2][3] = value
    return table


@pytest.mark.parametrize(
    "table,message",
    [
        (np.zeros((4, 4), dtype=int), "expected exactly one two-sided identity, found 0"),
        (np.full((3, 3), 2), "expected exactly one two-sided identity, found 0"),
        (MONOID_MOD_6, "element 0 has no unique two-sided inverse"),
        (MONOID_RELABELED, "element 1 has no unique two-sided inverse"),
        (NONASSOCIATIVE_LOOP, "associativity fails at triple (1, 1, 2)"),
        (_out_of_range(5), "Cayley table entries must be element indices in range"),
        (_out_of_range(-1), "Cayley table entries must be element indices in range"),
    ],
    ids=["zero", "constant", "monoid", "monoid-relabeled", "loop", "too-large", "negative"],
)
def test_rejects_non_groups(table, message):
    with pytest.raises(ValueError) as info:
        groups._build_group("T", table)
    assert str(info.value) == message


def test_group_from_json_rejects_non_groups():
    for table in (NONASSOCIATIVE_LOOP, MONOID_MOD_6.tolist(), [[0, 1], [1, 2]]):
        obj = {"name": "Z5", "order": len(table), "cayley": table, "identity": 0}
        with pytest.raises(ValueError):
            group_from_json(obj)


# ---------------------------------------------------------------------------
# memoized constructors and tables


def _memos() -> list:
    return [
        obj
        for module in (groups, characters)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear")
    ]


def test_constructors_and_tables_are_memoized():
    g = make_cyclic(12)
    assert make_cyclic(12) is g
    assert group_from_label("Z12") is g
    assert make_abelian([2, 4]) is make_abelian((2, 4)) is group_from_label("Z2xZ4")
    assert make_named("Q8") is group_from_label("q8")
    assert character_table(g) is character_table(g)
    assert len(_memos()) == 4
    assert all(memo.cache_info().maxsize for memo in _memos())  # bounded


def test_memoized_arrays_stay_read_only():
    for label in ("Z12", "Z2xZ4", "S3", "V4"):
        g = group_from_label(label)
        table = character_table(g)
        for arr in (g.cayley, g.inverses, g.class_of, table.phi, table.class_values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


def test_ledger_is_identical_with_cold_and_warm_caches():
    for memo in _memos():
        memo.cache_clear()
    assert character_table.cache_info().currsize == 0
    cold = json.dumps(ledger_to_json(build_ledger(budget=300)), indent=2)
    warm = json.dumps(ledger_to_json(build_ledger(budget=300)), indent=2)
    assert character_table.cache_info().hits > 0
    assert cold == warm
