"""Group construction, axioms, conjugacy classes, and JSON round-trips."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bentgroups import (
    CATALOG,
    CapabilityError,
    ClassFunction,
    Group,
    SequenceKind,
    build_ledger,
    character_table,
    character_twist,
    derivative_sum,
    element_order,
    group_from_json,
    group_from_label,
    group_to_json,
    inverse,
    ledger_to_json,
    make_abelian,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    multiply,
    quadratic_chirp,
    translate,
    zadoff_chu,
)
from bentgroups import characters, constructions, groups, ledger
from conftest import (
    FACTORIZATIONS,
    INDEX_FACTORIZATIONS,
    INDEX_IDS,
    LARGE_FACTORIZATIONS,
    LARGE_IDS,
)

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


# ---------------------------------------------------------------------------
# hand-written references for the presentation builder


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[x]] for x in range(len(p)))


def reference_s3() -> tuple[np.ndarray, tuple[str, ...]]:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ("I", "(12)", "(13)", "(23)", "(123)", "(132)")
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[_compose(p, q)] for q in perms] for p in perms]), names


def reference_q8() -> tuple[np.ndarray, tuple[str, ...]]:
    # elements encoded as (unit, sign) with units 1, i, j, k
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    cayley = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        ua, sa = divmod(a, 2)
        for b in range(8):
            ub, sb = divmod(b, 2)
            uc, flip = unit_mul[(ua, ub)]
            cayley[a, b] = 2 * uc + ((sa + sb + flip) % 2)
    return cayley, ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def reference_d4() -> tuple[np.ndarray, tuple[str, ...]]:
    # elements r^a s^b indexed a + 4b, with s r s = r^{-1}
    cayley = np.empty((8, 8), dtype=np.int64)
    for x in range(8):
        a, b = x % 4, x // 4
        for y in range(8):
            c, d = y % 4, y // 4
            cayley[x, y] = (a + (c if b == 0 else -c)) % 4 + 4 * ((b + d) % 2)
    return cayley, ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")


@pytest.mark.parametrize(
    "name,reference", [("S3", reference_s3), ("Q8", reference_q8), ("D4", reference_d4)]
)
def test_presentation_matches_hand_written_reference(name, reference):
    cayley, names = reference()
    want = groups._build_group(name, cayley, element_names=names)
    got = make_named(name)
    assert np.array_equal(got.cayley, want.cayley)
    assert got.element_names == want.element_names
    assert got.class_reps == want.class_reps
    assert got.class_sizes == want.class_sizes


@pytest.mark.parametrize("n", [1, 2, 6, 12, 64, 512])
def test_cyclic_is_the_one_factor_product(n):
    g = make_cyclic(n)
    assert g is make_abelian((n,))
    assert g.element_names == tuple(str(i) for i in range(n))


def assert_matches_mixed_radix(factors: tuple[int, ...]) -> None:
    """The table and names against the former construction: add the mixed-radix
    digits mod each factor, re-index with ``ravel_multi_index``, and name each
    element from ``str`` of its numpy digits."""
    g = make_abelian(factors)
    digits = np.unravel_index(np.arange(math.prod(factors)), factors)
    cayley = np.ravel_multi_index(
        tuple((d[:, None] + d[None, :]) % m for d, m in zip(digits, factors)), factors
    )
    assert g.cayley.dtype == cayley.dtype and g.cayley.shape == cayley.shape, factors
    assert g.cayley.tobytes() == cayley.tobytes(), factors
    if len(factors) > 1:
        names = tuple("(" + ",".join(map(str, ds)) + ")" for ds in zip(*digits))
        assert g.element_names == names, factors


def test_cayley_broadcast_matches_the_mixed_radix_table_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_matches_mixed_radix(factors)


@pytest.mark.parametrize("factors", LARGE_FACTORIZATIONS, ids=LARGE_IDS)
def test_cayley_broadcast_matches_the_mixed_radix_table_at_order_512(factors):
    assert_matches_mixed_radix(factors)
    assert_matches_loops(make_abelian(factors))


def loop_cayley(factors: tuple[int, ...]) -> np.ndarray:
    """The product's table as one loop from the last factor outward: Z_m's table
    ``(i + j) % m``, a sliding window over ``arange(2m - 1) % m``, times the
    order k of the later factors, plus theirs."""
    cayley = np.zeros((1, 1), dtype=np.int64)
    for m in reversed(factors):
        k = len(cayley)
        window = sliding_window_view(np.arange(2 * m - 1) % m * k, m)
        cayley = (window[:, None, :, None] + cayley[None, :, None, :]).reshape(m * k, m * k)
    return cayley


def assert_cayley_matches_the_loop(factors: tuple[int, ...]) -> None:
    got, want = groups._abelian_cayley(factors), loop_cayley(factors)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), factors
    assert not got.flags.writeable, factors


def test_cayley_matches_the_loop_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_cayley_matches_the_loop(factors)


@pytest.mark.parametrize("factors", INDEX_FACTORIZATIONS, ids=INDEX_IDS)
def test_cayley_matches_the_loop_at_large_orders(factors):
    assert_cayley_matches_the_loop(factors)


def assert_closed_form_matches_the_validated_build(factors: tuple[int, ...]) -> None:
    """Every field the product fills without a table against ``_build_group``'s
    checks and partition of that product's table, in value and dtype."""
    g = make_abelian(factors)
    digits = zip(*np.unravel_index(np.arange(g.order), factors))
    names = None if len(factors) == 1 else ["(" + ",".join(map(str, ds)) + ")" for ds in digits]
    want = groups._build_group(g.name, g.cayley, element_names=names)
    assert g.order == want.order and g.identity == want.identity, factors
    for got, ref in ((g.inverses, want.inverses), (g.class_of, want.class_of)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), factors
        assert not got.flags.writeable
    assert g.class_reps == want.class_reps and g.class_sizes == want.class_sizes, factors
    assert g.element_names == want.element_names, factors
    assert want.abelian_factors is None  # so its exponent is the power iteration's
    assert g.exponent == want.exponent, factors


def test_closed_form_products_match_the_validated_build_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_closed_form_matches_the_validated_build(factors)


@pytest.mark.parametrize("factors", LARGE_FACTORIZATIONS, ids=LARGE_IDS)
def test_closed_form_products_match_the_validated_build_at_order_512(factors):
    assert_closed_form_matches_the_validated_build(factors)


def test_a_product_builds_its_table_on_first_read_and_keeps_it():
    build = groups._make_abelian.__wrapped__  # a fresh group, outside the memo
    g = build((2, 6))
    assert g._cayley is None
    table = g.cayley
    assert g.cayley is table and not table.flags.writeable
    assert table.tobytes() == make_abelian((2, 6)).cayley.tobytes()
    # a copy made before the first read builds its own table, read-only too
    v4 = replace(build((2, 2)), name="V4")
    assert v4._cayley is None
    assert v4.cayley.tobytes() == make_named("V4").cayley.tobytes()
    assert not v4.cayley.flags.writeable
    with pytest.raises(ValueError):
        v4.cayley[0, 0] = 1


def test_one_factor_product_survives_json_round_trip():
    g = make_abelian((6,))
    assert group_from_json(group_to_json(g)) is g


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


@pytest.mark.parametrize("relabel", [False, True], ids=["label-table", "relabelled-table"])
def test_group_from_json_rejects_a_wrong_declared_identity(relabel):
    """The identity is checked alike on the label's own table, which resolves
    to the label's group, and on a relabelled table, which is built anew."""
    g = make_named("S3")
    perm = np.arange(g.order)[::-1] if relabel else np.arange(g.order)
    cayley = np.empty_like(g.cayley)
    cayley[np.ix_(perm, perm)] = perm[g.cayley]
    computed, declared = int(perm[g.identity]), int(perm[1])
    obj = {"name": "S3", "order": g.order, "cayley": cayley.tolist(), "identity": declared}
    with pytest.raises(ValueError) as info:
        group_from_json(obj)
    assert str(info.value) == f"declared identity {declared} does not match computed {computed}"
    obj["identity"] = computed
    assert (group_from_json(obj) is g) != relabel


def test_label_errors():
    with pytest.raises(ValueError):
        group_from_label("Z0")
    with pytest.raises(ValueError):
        group_from_label("A5")
    with pytest.raises(ValueError):
        group_from_label("")
    with pytest.raises(ValueError, match="unknown group name 'a5'"):
        make_named("a5")


def test_order_cap():
    with pytest.raises(CapabilityError):
        make_cyclic(513)


def test_multiply_inverse_helpers():
    g = make_cyclic(7)
    assert multiply(g, 3, 5) == 1
    assert inverse(g, 2) == 5
    assert element_order(g, 1) == 7


# ---------------------------------------------------------------------------
# integer arguments: one rule, in groups, behind every entry point


def _z8() -> ClassFunction:
    return make_bent_cyclic(SequenceKind.ZADOFF_CHU, 8, 3).function


#: each entry point with one integer argument replaced, and the name its message gives
INTEGER_ARGUMENTS = [
    pytest.param(make_cyclic, "cyclic factor size", id="make_cyclic"),
    pytest.param(lambda v: make_abelian([v, 2]), "cyclic factor size", id="make_abelian"),
    pytest.param(lambda v: zadoff_chu(v, 1), "sequence length", id="zadoff_chu-length"),
    pytest.param(lambda v: zadoff_chu(5, v), "sequence root", id="zadoff_chu-root"),
    pytest.param(quadratic_chirp, "sequence length", id="quadratic_chirp"),
    # "spec": the kind, length and root that make_bent_cyclic takes
    pytest.param(lambda v: make_bent_cyclic("chirp", v), "sequence length", id="spec-length"),
    pytest.param(lambda v: make_bent_cyclic("zadoff-chu", 5, v), "sequence root", id="spec-root"),
    pytest.param(lambda v: derivative_sum(_z8(), v), "element index", id="derivative_sum"),
    pytest.param(lambda v: translate(_z8(), v), "element index", id="translate"),
    pytest.param(lambda v: multiply(make_cyclic(8), v, 1), "element index", id="multiply-left"),
    pytest.param(lambda v: multiply(make_cyclic(8), 1, v), "element index", id="multiply-right"),
    pytest.param(lambda v: inverse(make_cyclic(8), v), "element index", id="inverse"),
    pytest.param(lambda v: element_order(make_cyclic(8), v), "element index", id="element_order"),
    pytest.param(lambda v: character_twist(_z8(), v), "character index", id="character_twist"),
]


@pytest.mark.parametrize("value", [1.5, True, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("call, name", INTEGER_ARGUMENTS)
def test_a_non_integer_argument_is_rejected(call, name, value):
    """Each entry point truncated a float (``make_cyclic(4.7)`` was Z4,
    ``derivative_sum(f, 1.5)`` read sigma = 1) and read True as 1, except
    ``character_twist``, which raised a bare TypeError on a float."""
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


def test_numpy_integer_arguments_act_as_ints():
    assert make_cyclic(np.int64(12)) is make_cyclic(12)
    assert make_abelian([np.int64(2), np.int32(4)]) is make_abelian([2, 4])
    assert zadoff_chu(np.int64(9), np.int64(2)).tobytes() == zadoff_chu(9, 2).tobytes()
    assert quadratic_chirp(np.int64(9)).tobytes() == quadratic_chirp(9).tobytes()
    f = make_bent_cyclic(SequenceKind.ZADOFF_CHU, np.int64(8), np.int64(3)).function
    assert f.coefficients.tobytes() == _z8().coefficients.tobytes()
    q8 = make_named("Q8")
    for x in range(8):
        i = np.int64(x)
        assert derivative_sum(f, i) == derivative_sum(f, x)
        assert translate(f, i).values.tobytes() == translate(f, x).values.tobytes()
        assert character_twist(f, i).values.tobytes() == character_twist(f, x).values.tobytes()
        assert (multiply(q8, i, 3), multiply(q8, 3, i), inverse(q8, i), element_order(q8, i)) == (
            multiply(q8, x, 3), multiply(q8, 3, x), inverse(q8, x), element_order(q8, x))


_OUT_OF_Z8 = "element index {} out of range for group of order 8"


@pytest.mark.parametrize("x", [-1, 8, np.int64(-1), np.int64(8)], ids=repr)
@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda x: derivative_sum(_z8(), x), _OUT_OF_Z8, id="derivative_sum"),
        pytest.param(lambda x: translate(_z8(), x), _OUT_OF_Z8, id="translate"),
        pytest.param(lambda x: multiply(make_cyclic(8), x, 1), _OUT_OF_Z8, id="multiply"),
        pytest.param(lambda x: inverse(make_cyclic(8), x), _OUT_OF_Z8, id="inverse"),
        pytest.param(lambda x: element_order(make_cyclic(8), x), _OUT_OF_Z8, id="element_order"),
        pytest.param(lambda x: character_twist(_z8(), x),
                     "character index {} out of range for 8 irreps", id="character_twist"),
    ],
)
def test_an_integer_out_of_range_raises_index_error(call, message, x):
    with pytest.raises(IndexError) as info:
        call(x)
    assert str(info.value) == message.format(x)


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


def _z2_json(**fields) -> dict:
    obj = {"name": "Z2", "order": 2, "cayley": [[0, 1], [1, 0]], "identity": 0}
    obj.update(fields)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        _z2_json(cayley=[[0, 1], [1, 1.7]]),
        _z2_json(cayley=[[0, 1], [1, True]]),
        _z2_json(cayley=[[0, 1], [1, "1"]]),
        _z2_json(cayley=[[0, 1], [1, 1e300]]),
        _z2_json(cayley=[[0, 1], [1, 2**70]]),
        _z2_json(cayley=[[0, 1], [1]]),
        _z2_json(cayley="01"),
        _z2_json(order="2"),
        _z2_json(order=2.5),
        _z2_json(order=True),
        _z2_json(identity="0"),
        _z2_json(identity=0.0),
        _z2_json(identity=False),
        {"name": "Z2", "order": 2, "cayley": [[0, 1], [1, 0]]},
    ],
    ids=[
        "float-entry", "bool-entry", "str-entry", "huge-float-entry", "huge-int-entry",
        "ragged", "str-table", "str-order", "float-order", "bool-order",
        "str-identity", "float-identity", "bool-identity", "missing-identity",
    ],
)
def test_group_from_json_rejects_malformed_fields(obj):
    """Order, identity and table entries must be JSON integers, never coerced."""
    with pytest.raises(ValueError, match="^malformed group JSON: "):
        group_from_json(obj)


def _exhaustive_failures(table: np.ndarray) -> np.ndarray:
    """Every triple (x, y, z) with (x y) z != x (y z), checked over all n^3."""
    return np.argwhere(table[table, :] != table[:, table])


def _assert_reported_triple_fails(table: np.ndarray, message: str) -> None:
    match = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", message)
    assert match, message
    x, s, y = map(int, match.groups())
    assert table[table[x, s], y] != table[x, table[s, y]]


@pytest.mark.parametrize(
    "n,i,j,value",
    [(256, 100, 200, 17), (256, 254, 253, 5), (512, 3, 5, 11), (512, 7, 9, 2), (512, 100, 200, 17)],
)
def test_corrupted_large_tables_are_rejected(n, i, j, value):
    """Single-entry corruptions that a sample of random triples can miss."""
    obj = group_to_json(make_cyclic(n))
    obj["name"] = "anon"
    obj["cayley"][i][j] = value
    with pytest.raises(ValueError, match="associativity fails at triple") as info:
        group_from_json(obj)
    _assert_reported_triple_fails(np.array(obj["cayley"]), str(info.value))


def _direct_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The table of pairs (i, j), indexed i * len(b) + j, multiplied componentwise."""
    m, k = len(a), len(b)
    return (a[:, None, :, None] * k + b[None, :, None, :]).reshape(m * k, m * k)


#: Group tables of order <= 12, plus loops on which associativity can hold at
#: the first greedy generator and fail only at a later one.
SMALL_TABLES = [
    *(group_from_label(label).cayley for label in (
        *CATALOG, *(f"Z{n}" for n in range(1, 13)), "Z2xZ2xZ2", "Z2xZ4", "Z2xZ6", "Z3xZ3",
    )),
    np.array(NONASSOCIATIVE_LOOP),
    _direct_product(make_cyclic(2).cayley, np.array(NONASSOCIATIVE_LOOP)),
]


@st.composite
def near_group_tables(draw) -> np.ndarray:
    """A relabelled table from ``SMALL_TABLES``, with one entry perhaps changed."""
    base = draw(st.sampled_from(SMALL_TABLES))
    n = len(base)
    perm = np.array(draw(st.permutations(range(n))))
    table = np.empty_like(base)
    table[np.ix_(perm, perm)] = perm[base]
    if draw(st.booleans()):
        i, j, value = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[i, j] = value
    return table


@settings(max_examples=400, deadline=None)
@given(near_group_tables())
def test_light_test_agrees_with_exhaustive_check(table):
    try:
        identity = groups._find_identity(table)
        groups._find_inverses(table, identity)
    except ValueError:
        assume(False)
    try:
        groups._check_associativity(table, identity)
    except ValueError as exc:
        _assert_reported_triple_fails(table, str(exc))
        assert len(_exhaustive_failures(table))
    else:
        assert not len(_exhaustive_failures(table))


# ---------------------------------------------------------------------------
# memoized constructors and tables


def _memos() -> list:
    return [
        obj
        for module in (groups, characters, constructions, ledger)
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    ]


def test_constructors_and_tables_are_memoized():
    g = make_cyclic(12)
    assert make_cyclic(12) is g
    assert group_from_label("Z12") is g
    assert make_abelian([2, 4]) is make_abelian((2, 4)) is group_from_label("Z2xZ4")
    assert make_named("Q8") is group_from_label("q8")
    assert make_named("s3") is make_named("S3")
    assert character_table(g) is character_table(g)
    assert len(_memos()) == 5
    assert all(memo.cache_info().maxsize for memo in _memos())  # bounded


def test_memoized_arrays_stay_read_only():
    for label in ("Z12", "Z2xZ4", "S3", "V4"):
        g = group_from_label(label)
        table = character_table(g)
        for arr in (g.cayley, g.inverses, g.class_of, table.phi, table.class_values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
    certified = make_bent_cyclic(SequenceKind.ZADOFF_CHU, 12, 5)
    for arr in (certified.function.values, certified.function.coefficients,
                certified.report.residuals):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_ledger_is_identical_with_cold_and_warm_caches():
    for memo in _memos():
        memo.cache_clear()
    assert character_table.cache_info().currsize == 0
    cold = json.dumps(ledger_to_json(build_ledger(budget=300)), indent=2)
    built = ledger._witness_rows.cache_info().misses
    # the seed-free claims run in both builds: cold, then on warm group and table memos
    ledger._seed_free.cache_clear()
    warm = json.dumps(ledger_to_json(build_ledger(budget=300)), indent=2)
    assert ledger._seed_free.cache_info().misses == 6
    assert character_table.cache_info().hits > 0
    # the warm build reads every witness row from the memo the cold one filled
    assert ledger._witness_rows.cache_info().misses == built
    assert ledger._witness_rows.cache_info().hits > 0
    assert cold == warm
