"""Character tables: frozen values, orthogonality, inversion, rendering."""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from bentgroups import (
    BENT,
    CapabilityError,
    NumericDegeneracyError,
    character_table,
    element_order,
    from_coefficients,
    from_values,
    group_from_json,
    group_from_label,
    group_to_json,
    impossibility_certificate,
    is_bent,
    is_bent_spectral,
    make_abelian,
    make_cyclic,
    make_named,
    table_to_csv,
    table_to_json,
    verify_orthogonality,
)

from bentgroups import characters
from conftest import (
    FACTORIZATIONS,
    INDEX_FACTORIZATIONS,
    INDEX_IDS,
    LARGE_FACTORIZATIONS,
    LARGE_IDS,
    unit_phases,
)

W3 = cmath.exp(2j * math.pi / 3)

Z3_TABLE = np.array(
    [
        [1, 1, 1],
        [1, W3, W3**2],
        [1, W3**2, W3],
    ]
)

Z4_TABLE = np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ]
)

S3_TABLE = np.array(
    [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
)

Q8_TABLE = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, -1, 1],
        [1, 1, -1, 1, -1],
        [2, -2, 0, 0, 0],
    ]
)

D4_TABLE = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, -1, 1, 1, -1],
        [1, -1, 1, -1, 1],
        [2, 0, -2, 0, 0],
    ]
)


def test_z3_values(z3_table):
    np.testing.assert_allclose(z3_table.class_values, Z3_TABLE, atol=1e-12)


def test_z4_values(z4_table):
    np.testing.assert_allclose(z4_table.class_values, Z4_TABLE, atol=1e-12)
    # fourth powers of i come out exactly on the axes
    assert z4_table.phi[1, 1] == 1j
    assert z4_table.phi[2, 1] == -1


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_power_rule(n):
    """chi_i(g^k) = omega^{(i-1) k} with omega = exp(2 pi i / n)."""
    table = character_table(make_cyclic(n))
    for i in range(n):
        for k in range(n):
            expected = cmath.exp(2j * math.pi * ((i * k) % n) / n)
            assert abs(table.phi[k, i] - expected) < 1e-12


def test_s3_values(s3_table):
    np.testing.assert_allclose(s3_table.class_values, S3_TABLE, atol=1e-10)
    assert s3_table.degrees == (1, 1, 2)


def test_q8_values(q8_table):
    np.testing.assert_allclose(q8_table.class_values, Q8_TABLE, atol=1e-10)
    assert q8_table.degrees == (1, 1, 1, 1, 2)


def test_d4_values(d4_table):
    np.testing.assert_allclose(d4_table.class_values, D4_TABLE, atol=1e-10)
    assert d4_table.degrees == (1, 1, 1, 1, 2)


def test_q8_d4_same_table_different_groups(q8_table, d4_table):
    """The two order-8 nonabelian groups have distinct tables here only in
    class structure; degree patterns coincide."""
    assert q8_table.degrees == d4_table.degrees
    assert q8_table.group.class_sizes != d4_table.group.class_sizes


def test_trivial_character_first():
    for label in ("Z5", "Z2xZ4", "S3", "Q8", "V4", "D4"):
        table = character_table(group_from_label(label))
        np.testing.assert_allclose(table.phi[:, 0], 1.0, atol=0)
        assert table.degrees[0] == 1


def test_n_irreps_equals_n_classes():
    for label in ("Z6", "S3", "Q8", "D4", "V4", "Z2xZ3"):
        table = character_table(group_from_label(label))
        assert table.n_irreps == table.group.n_classes


def test_degree_squares_sum_to_order():
    for label in ("S3", "Q8", "D4", "Z6", "V4"):
        table = character_table(group_from_label(label))
        assert sum(d * d for d in table.degrees) == table.group.order


@pytest.mark.parametrize("label", ["Z2", "Z7", "Z12", "Z3xZ5", "V4", "S3", "Q8", "D4"])
def test_orthogonality(label):
    table = character_table(group_from_label(label))
    report = verify_orthogonality(table, tol=1e-10)
    assert report.passed, (report.max_row_deviation, report.max_column_deviation)


def test_orthogonality_detects_corruption(z4_table):
    values = z4_table.class_values.copy()
    values[1, 1] *= 1.001
    corrupted = replace(z4_table, _class_values=values)
    report = verify_orthogonality(corrupted, tol=1e-10)
    assert not report.passed
    assert report.max_row_deviation > 1e-4


def test_abelian_phi_inverse():
    for label in ("Z2", "Z9", "Z4xZ4", "V4"):
        table = character_table(group_from_label(label))
        n = table.group.order
        prod = np.conj(table.phi.T) @ table.phi / n
        np.testing.assert_allclose(prod, np.eye(n), atol=1e-10)


def test_class_sum_route_matches_analytic_route():
    """An abelian group loaded without factor structure goes through the
    class-sum eigenvalue path and must produce the same character set."""
    obj = group_to_json(make_abelian((2, 2)))
    obj["name"] = "anon4"
    anon = group_from_json(obj)
    assert anon.abelian_factors is None
    table = character_table(anon)
    reference = character_table(make_named("V4"))
    got = sorted(tuple(np.round(row, 9)) for row in table.class_values)
    want = sorted(tuple(np.round(row, 9)) for row in reference.class_values)
    assert np.allclose(np.array(got, dtype=complex), np.array(want, dtype=complex), atol=1e-9)


def relabelled_named(name: str, perm: np.ndarray):
    """The named group with element x renamed perm[x], loaded under its own name."""
    group = make_named(name)
    cayley = np.empty_like(group.cayley)
    cayley[np.ix_(perm, perm)] = perm[group.cayley]
    obj = group_to_json(group)
    obj.update(cayley=cayley.tolist(), identity=int(perm[group.identity]))
    return group_from_json(obj)


def character_set(phi: np.ndarray) -> list[tuple]:
    """Columns of phi (the characters) as a sorted list, blind to their order."""
    return sorted(map(tuple, np.ascontiguousarray(np.round(phi.T, 9)).view(float) + 0.0))


RELABELLINGS = {
    # every relabelling of S3's five non-identity elements
    "S3": [np.array([0, *p]) for p in itertools.permutations(range(1, 6))],
    # a fixed sample that also moves the identity
    "Q8": list(np.random.default_rng(8).permuted(np.tile(np.arange(8), (60, 1)), axis=1)),
    "D4": list(np.random.default_rng(4).permuted(np.tile(np.arange(8), (60, 1)), axis=1)),
}


# The class-sum route as per-class loops, kept as the reference of its array form.


def loop_multiplication_matrices(group) -> np.ndarray:
    r, n = group.n_classes, group.order
    cls = np.asarray(group.class_of)
    c = np.zeros((r, r, r), dtype=np.int64)
    for k, z in enumerate(group.class_reps):
        partners = group.cayley[group.inverses, z]
        np.add.at(c, (cls, cls[partners], np.full(n, k)), 1)
    return c


def loop_class_sum_rows(group) -> np.ndarray:
    r, n = group.n_classes, group.order
    sizes = np.asarray(group.class_sizes, dtype=float)
    mats = loop_multiplication_matrices(group)
    weights = np.sqrt(np.asarray(characters._PRIMES[:r], dtype=float))
    _, vecs = np.linalg.eig(np.tensordot(weights, mats.astype(float), axes=1))
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
            if np.max(np.abs(image - lam * v)) > characters._EIGENVECTOR_RESIDUAL_TOL * scale:
                failed.append(i)
            omegas[i] = lam
        if failed:
            raise NumericDegeneracyError(failed)
        degree = math.sqrt(n / float(np.sum(np.abs(omegas) ** 2 / sizes)))
        rows.append(degree * omegas / sizes)
    return np.asarray(rows)


def loop_aligned_reference(group) -> np.ndarray:
    named = make_named(group.name)
    free: list = [(size, element_order(named, rep))
                  for size, rep in zip(named.class_sizes, named.class_reps)]
    columns = []
    for size, rep in zip(group.class_sizes, group.class_reps):
        key = (size, element_order(group, rep))
        if key not in free:
            raise ValueError(f"conjugacy classes of {group.name} do not match the built-in reference")
        columns.append(free.index(key))
        free[columns[-1]] = None
    return characters._REFERENCE_TABLES[group.name][:, columns]


def loop_sort_rows(rows: np.ndarray) -> np.ndarray:
    trivial = int(np.argmin(np.max(np.abs(rows - 1.0), axis=1)))
    rest = [i for i in range(rows.shape[0]) if i != trivial]

    def key(i: int) -> tuple:
        row = np.round(rows[i], 9)
        return tuple(float(v) for pair in zip(row.real, row.imag) for v in pair)

    return rows[[trivial] + sorted(rest, key=key)]


def loop_class_values(group) -> np.ndarray:
    """The class values the loop route gives ``group``: a named group's frozen
    values, else its sorted class-sum rows."""
    if group.name in characters._REFERENCE_TABLES:
        return loop_aligned_reference(group)
    return loop_sort_rows(loop_class_sum_rows(group))


def assert_loop_class_values(table) -> None:
    mats = characters._class_multiplication_matrices(table.group)
    assert np.array_equal(mats, loop_multiplication_matrices(table.group))
    want = loop_class_values(table.group)
    assert table.class_values.dtype == want.dtype and table.class_values.shape == want.shape
    assert table.class_values.tobytes() == want.tobytes(), table.group.name


@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_relabelled_named_groups_get_their_table(name):
    """Relabelling can reorder the classes; the frozen columns follow them, bit
    for bit."""
    canonical = character_table(make_named(name))
    assert_loop_class_values(canonical)
    for perm in RELABELLINGS[name]:
        group = relabelled_named(name, perm)
        table = character_table(group)
        assert_loop_class_values(table)
        assert verify_orthogonality(table).passed
        assert table.degrees == canonical.degrees
        # character values at perm[x] are the canonical ones at x, up to the
        # automorphisms that permute Q8's and D4's linear characters
        moved = table.phi[perm]
        if name == "S3":
            np.testing.assert_allclose(moved, canonical.phi, atol=1e-9)
        assert character_set(moved) == character_set(canonical.phi)


EXACT_TABLES = {"S3": S3_TABLE, "Q8": Q8_TABLE, "D4": D4_TABLE}


def named_and_relabelled(name: str) -> list:
    return [make_named(name)] + [relabelled_named(name, perm) for perm in RELABELLINGS[name]]


def test_frozen_tables_keep_their_bits():
    digest = hashlib.sha256()
    for name in ("S3", "Q8", "D4"):  # reference row order
        table = characters._REFERENCE_TABLES[name]
        assert table.dtype == np.complex128 and table.flags.c_contiguous
        digest.update(table.tobytes())
    assert digest.hexdigest().startswith("d66fa2924bd9")


@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_frozen_tables_are_real_and_round_to_the_integer_tables(name):
    table = characters._REFERENCE_TABLES[name]
    assert np.all(table.imag == 0.0) and not np.any(np.signbit(table.imag))
    assert np.array_equal(np.round(table), EXACT_TABLES[name])


@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_class_sum_route_reproduces_the_frozen_rows(name):
    """On the named group and every relabelled copy, each aligned frozen row has
    exactly one class-sum row within 1e-14, and each class-sum row one frozen row."""
    for group in named_and_relabelled(name):
        frozen, rows = loop_aligned_reference(group), characters._class_sum_rows(group)
        close = np.max(np.abs(frozen[:, None, :] - rows[None, :, :]), axis=2) <= 1e-14
        assert np.all(close.sum(axis=0) == 1) and np.all(close.sum(axis=1) == 1), name


@pytest.mark.parametrize("name", ["S3", "Q8", "D4"])
def test_named_groups_never_run_the_class_sum_route(monkeypatch, name):
    groups = named_and_relabelled(name)

    def route(group):
        raise AssertionError(f"the class-sum route ran on {group.name}")

    monkeypatch.setattr(characters, "_class_sum_rows", route)
    for group in groups:
        table = character_table.__wrapped__(group)
        assert table.class_values.tobytes() == loop_aligned_reference(group).tobytes()


@pytest.mark.parametrize("m", [5, 6])
def test_loaded_dihedral_tables_match_the_loop_route(m):
    table = character_table(group_from_json(dihedral_json(m)))
    assert table.group.abelian_factors is None
    assert_loop_class_values(table)


def anonymous(label: str):
    obj = group_to_json(group_from_label(label))
    obj["name"] = f"anon-{label}"
    return group_from_json(obj)


def test_unnamed_class_sum_tables_match_the_loop_route():
    for label in ("S3", "Q8", "D4", "Z2xZ2", "Z3", "Z2xZ4", "Z12"):
        assert_loop_class_values(character_table(anonymous(label)))


@pytest.mark.parametrize("table_of, name", [("Z6", "S3"), ("D4", "Q8"), ("Q8", "D4")])
def test_class_keys_that_miss_the_reference_are_rejected(table_of, name):
    obj = group_to_json(group_from_label(table_of))
    obj["name"] = name
    with pytest.raises(ValueError, match=f"classes of {name} do not match the built-in reference"):
        character_table(group_from_json(obj))


def mixing_eig(column: int, *, zero_first: bool = False):
    """``np.linalg.eig`` with eigenvector 0 mixed into eigenvector ``column``,
    or with that eigenvector's first entry zeroed."""
    eig = np.linalg.eig

    def mixed(matrix):
        values, vectors = eig(matrix)
        vectors = vectors.astype(complex)
        if zero_first:
            vectors[0, column] = 0.0
        else:
            vectors[:, column] += vectors[:, 0] * (vectors[0, column] / vectors[0, 0])
        return values, vectors

    return mixed


@pytest.mark.parametrize("label", ["S3", "Q8", "D4", "D5"])
@pytest.mark.parametrize("column", [1, 2])
@pytest.mark.parametrize("zero_first", [False, True])
def test_degenerate_eigenvectors_name_the_failing_class_sums(monkeypatch, label, column, zero_first):
    group = group_from_json(dihedral_json(5)) if label == "D5" else anonymous(label)
    monkeypatch.setattr(np.linalg, "eig", mixing_eig(column, zero_first=zero_first))
    with pytest.raises(NumericDegeneracyError) as want:
        loop_class_sum_rows(group)
    with pytest.raises(NumericDegeneracyError) as got:
        characters._class_sum_rows(group)
    assert got.value.failed_class_sums == want.value.failed_class_sums
    assert str(got.value) == str(want.value)
    if zero_first:
        assert got.value.failed_class_sums == list(range(group.n_classes))
    else:  # the identity class sum is the identity matrix, which never fails
        assert 0 not in got.value.failed_class_sums and got.value.failed_class_sums


def test_named_label_on_another_group_is_rejected():
    for table_of, name in (("Z6", "S3"), ("D4", "Q8"), ("Q8", "D4")):
        obj = group_to_json(group_from_label(table_of))
        obj["name"] = name
        with pytest.raises(ValueError, match=f"computed character table for {name}|classes of {name}"):
            character_table(group_from_json(obj))


def dihedral_json(m: int) -> dict:
    """The dihedral group of order 2m as JSON: element a + m*b is r^a s^b."""
    a, b = np.arange(2 * m) % m, np.arange(2 * m) // m
    rot = (a[:, None] + np.where(b[:, None] == 0, 1, -1) * a[None, :]) % m
    cayley = rot + m * ((b[:, None] + b[None, :]) % 2)
    return {"name": f"D{m}", "order": 2 * m, "cayley": cayley.tolist(), "identity": 0}


def test_unnamed_nonabelian_groups_take_the_class_sum_route():
    """Any nonabelian Cayley table gets a validated table, not only the named ones."""
    anon = group_to_json(make_named("S3"))
    anon["name"] = "anon6"
    rng = np.random.default_rng(10)
    for obj, degrees in ((anon, (1, 1, 2)), (dihedral_json(5), (1, 1, 2, 2))):
        group = group_from_json(obj)
        assert group.abelian_factors is None and not group.is_abelian
        table = character_table(group)
        assert table.degrees == degrees
        assert sum(d * d for d in table.degrees) == group.order
        assert verify_orthogonality(table).passed
        forced = np.asarray(table.degrees) / math.sqrt(group.order)
        functions = [from_values(table, unit_phases(rng, group.n_classes)[group.class_of])
                     for _ in range(50)]
        functions += [from_coefficients(table, forced * unit_phases(rng, len(degrees)))
                      for _ in range(50)]
        for f in functions:
            assert is_bent_spectral(f) == (is_bent(f).verdict == BENT)
    # the L1 bound rules nothing out on D5
    assert impossibility_certificate(table).violated == ()


def test_non_integral_degree_is_rejected(monkeypatch):
    obj = group_to_json(make_named("S3"))
    obj["name"] = "anon6"
    rows = characters._class_sum_rows(group_from_json(obj))
    scaled = np.where(rows[:, :1].real > 1.5, 0.75 * rows, rows)  # degree 2 -> 1.5
    monkeypatch.setattr(characters, "_class_sum_rows", lambda group: scaled)
    with pytest.raises(ValueError, match="non-integral degree"):
        character_table(group_from_json(obj))


def test_class_sum_route_is_capped_at_15_classes():
    obj = group_to_json(make_cyclic(16))
    obj["name"] = "anon16"
    anon = group_from_json(obj)
    assert anon.abelian_factors is None
    with pytest.raises(CapabilityError, match="at most 15 classes"):
        character_table(anon)


def test_root_order_is_group_exponent():
    assert character_table(make_cyclic(6)).root_order == 6
    assert character_table(make_named("Q8")).root_order == 4
    assert character_table(make_named("V4")).root_order == 2


def test_table_json_layout(z3_table):
    obj = json.loads(table_to_json(z3_table))
    assert obj["group"] == "Z3"
    assert obj["order"] == 3
    assert len(obj["characters"]) == 3
    chi2 = obj["characters"][1]
    assert chi2["name"] == "chi_2"
    assert chi2["degree"] == 1
    re, im = chi2["values"][1]
    assert abs(complex(re, im) - W3) < 1e-12


def table_dict(table):
    """The table as a dict; ``table_to_json`` must print its ``indent=2`` dump."""
    group = table.group
    return {
        "group": group.name,
        "order": group.order,
        "root_order": table.root_order,
        "class_labels": [group.element_names[rep] for rep in group.class_reps],
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


# the class-sum tables, and analytic tables of one to nine factors up to order 512
JSON_LABELS = [
    "V4", "S3", "Q8", "D4", "Z1", "Z2", "Z2xZ2", "Z2xZ4", "Z12", "Z64", "Z509", "Z512",
    "Z2xZ4xZ64", "x".join(["Z2"] * 9), "Z8xZ8xZ8", "Z26xZ19",
]


@pytest.mark.parametrize("label", JSON_LABELS)
def test_table_json_text_is_the_json_encoder_dump(label):
    table = character_table(group_from_label(label))
    text = table_to_json(table)
    expected = json.dumps(table_dict(table), indent=2) + "\n"
    if text != expected:  # pytest's own diff of two 20 MB strings runs for minutes
        at = next(i for i, (a, b) in enumerate(zip(text, expected + "\0")) if a != b)
        pytest.fail(f"text differs at offset {at}: {text[max(at - 60, 0):at + 20]!r}")


def test_table_json_rejects_a_non_finite_value_as_the_json_encoder_does(s3_table):
    values = s3_table.class_values.copy()
    values[2, 1] = complex(0.0, math.nan)
    table = replace(s3_table, _class_values=values)
    with pytest.raises(ValueError) as expected:
        json.dumps(table_dict(table), indent=2, allow_nan=False)
    with pytest.raises(ValueError) as raised:
        table_to_json(table)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("entry", [(2, 1), (5, 3), (7, 0)], ids=["off-row", "in-row", "first"])
def test_abelian_table_json_rejects_a_non_finite_value_as_the_json_encoder_does(monkeypatch, entry):
    """The writer renders the roots an analytic table gathers its values from,
    so a NaN reaches it through ``_roots_of_unity``: here the root that this
    entry of Z2xZ4 takes, roots 2, 3 and 0 of the 4th roots of unity."""
    factors = (2, 4)
    root = int(characters._exponents(factors)[entry])
    exact = characters._roots_of_unity

    def nan_root(m):
        roots = exact(m)
        roots[root] = complex(math.nan, 0.0)
        return roots

    monkeypatch.setattr(characters, "_roots_of_unity", nan_root)
    table = character_table.__wrapped__(make_abelian(factors))
    # a NaN roots[0] is a NaN degree
    with pytest.raises(ValueError, match=r"non-integral degree|orthogonality validation \(nan\)"):
        table_to_json(table)


def assert_json_values_gather_to_the_class_values(table) -> None:
    """The values ``table_to_json`` renders, gathered through its index, are the
    table's class values bit for bit."""
    values, index = characters._value_index(table)
    assert values[index].tobytes() == table.class_values.tobytes(), table.group.name


def test_json_values_gather_to_the_class_values_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_json_values_gather_to_the_class_values(character_table(make_abelian(factors)))
    for label in ("V4", "S3", "Q8", "D4"):
        assert_json_values_gather_to_the_class_values(character_table(group_from_label(label)))


@pytest.mark.parametrize("factors", INDEX_FACTORIZATIONS, ids=INDEX_IDS)
def test_json_values_gather_to_the_class_values_at_large_orders(factors):
    assert_json_values_gather_to_the_class_values(character_table(make_abelian(factors)))


def loop_exponents(factors: tuple[int, ...]) -> np.ndarray:
    """The root exponents E as one loop over the factors, from the row-major
    digits of every element: factor m's products of digits mod m, times e/m,
    summed mod e."""
    e, n = math.lcm(*factors), math.prod(factors)
    exponents = np.zeros((n, n), dtype=np.intp)
    for m, digits in zip(factors, np.unravel_index(np.arange(n), factors)):
        exponents += e // m * (np.multiply.outer(digits, digits) % m)
    return exponents % e


def assert_exponent_index_matches_the_loop(factors: tuple[int, ...]) -> None:
    got, want = characters._exponents(factors), loop_exponents(factors)
    assert got.dtype == np.int16 and got.tobytes() == want.astype(np.int16).tobytes(), factors


def test_exponent_index_matches_the_loop_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_exponent_index_matches_the_loop(factors)


@pytest.mark.parametrize("factors", INDEX_FACTORIZATIONS, ids=INDEX_IDS)
def test_exponent_index_matches_the_loop_at_large_orders(factors):
    assert_exponent_index_matches_the_loop(factors)


def test_table_csv_rendering(z3_table, s3_table):
    csv_z3 = table_to_csv(z3_table)
    assert "e^{2πi·1/3}" in csv_z3
    assert csv_z3.splitlines()[0].startswith("character,")
    csv_s3 = table_to_csv(s3_table)
    lines = csv_s3.splitlines()
    assert len(lines) == 4  # header + three characters
    assert lines[1].split(",")[0] == "chi_1"
    assert "-1" in csv_s3


def test_abelian_csv_prints_no_negative_zero_up_to_order_64():
    """Every analytic value is one of the roots ``_roots_of_unity`` lists, and
    none of those has a -0.0 part, so no CSV cell reads -0.  The CSV itself is
    read where products of the factors' roots 1, -1, i and -i leave -0.0."""
    for factors in FACTORIZATIONS:
        parts = character_table(make_abelian(factors)).class_values.view(float)
        assert not np.signbit(parts[parts == 0.0]).any(), factors
    for label in ("V4", "Z2xZ4", "Z4xZ4"):
        text = table_to_csv(character_table(group_from_label(label)))
        assert "-0" not in itertools.chain.from_iterable(csv.reader(io.StringIO(text))), label


def test_z1_table():
    table = character_table(make_cyclic(1))
    assert table.n_irreps == 1
    assert complex(table.phi[0, 0]) == 1.0


def analytic_values_and_bound(factors: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The analytic table ``roots[E]`` and its orthogonality bound."""
    roots = characters._roots_of_unity(math.lcm(*factors))
    return roots[characters._exponents(factors)], characters._root_bound(roots, math.prod(factors))


def gram_deviation(phi: np.ndarray) -> float:
    """max |G - I| of the rows of phi.T, as the Gram check forms it."""
    class_values = phi.T
    gram = class_values @ np.conj(class_values.T) / phi.shape[0]
    return float(np.max(np.abs(gram - np.eye(phi.shape[0]))))


def test_analytic_bound_covers_the_gram_deviation_up_to_order_64():
    for factors in FACTORIZATIONS:
        phi, bound = analytic_values_and_bound(factors)
        assert gram_deviation(phi) <= bound <= 1e-12, factors


@pytest.mark.parametrize("factors", LARGE_FACTORIZATIONS, ids=LARGE_IDS)
def test_analytic_bound_covers_the_gram_deviation_at_order_512(factors):
    phi, bound = analytic_values_and_bound(factors)
    assert gram_deviation(phi) <= bound <= 1e-11


@pytest.mark.parametrize(
    "factors", [(2, 3), (2, 2, 2), (3, 4), (8,), (2, 4, 8)],
    ids=["Z2xZ3", "Z2^3", "Z3xZ4", "Z8", "Z2xZ4xZ8"],
)
def test_analytic_bound_holds_for_perturbed_roots(monkeypatch, factors):
    """The bound assumes nothing of the roots, so it must hold far from I too."""
    rng = np.random.default_rng(sum(factors))
    exact = characters._roots_of_unity

    def perturbed(m):
        noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return exact(m) * (1.1 + 0.05 * noise)

    monkeypatch.setattr(characters, "_roots_of_unity", perturbed)
    phi, bound = analytic_values_and_bound(factors)
    assert 0.1 < gram_deviation(phi) <= bound


def scale_root(roots):
    roots[3] *= 1 + 1e-6
    return roots


def swap_roots(roots):
    roots[[1, 3]] = roots[[3, 1]]
    return roots


def square_roots(roots):
    return roots**2  # still a homomorphism, but not faithful


@pytest.mark.parametrize("corrupt", [scale_root, swap_roots, square_roots])
def test_corrupted_roots_fail_the_analytic_orthogonality_check(monkeypatch, corrupt):
    exact = characters._roots_of_unity
    monkeypatch.setattr(characters, "_roots_of_unity", lambda m: corrupt(exact(m)))
    with pytest.raises(ValueError, match="failed orthogonality validation"):
        character_table.__wrapped__(make_cyclic(8)).class_values  # checked on first read


def test_a_nan_root_fails_the_analytic_orthogonality_check(monkeypatch):
    exact = characters._roots_of_unity

    def nan_root(m):
        roots = exact(m)
        roots[3] = complex(math.nan, math.nan)
        return roots

    monkeypatch.setattr(characters, "_roots_of_unity", nan_root)
    with pytest.raises(ValueError, match=r"failed orthogonality validation \(nan\)"):
        character_table.__wrapped__(make_cyclic(8)).phi  # checked on first read


def nan_rows(group, column: int) -> np.ndarray:
    """The class-sum rows of ``group`` with one entry of its degree-2 row NaN."""
    rows = loop_class_sum_rows(group)
    rows[np.argmax(rows[:, 0].real), column] = complex(math.nan, 0.0)
    return rows


@pytest.mark.parametrize("column, message", [
    (0, "non-integral degree"),
    (1, r"failed orthogonality validation \(nan\)"),
    (2, r"failed orthogonality validation \(nan\)"),
])
def test_nan_class_sum_rows_fail_on_the_sorted_route(monkeypatch, column, message):
    group = anonymous("S3")
    rows = nan_rows(group, column)
    monkeypatch.setattr(characters, "_class_sum_rows", lambda group: rows)
    with pytest.raises(ValueError, match=message):
        character_table(group)


def test_analytic_phi_is_the_gathered_class_values():
    """The analytic route keeps ``roots[E]`` as ``phi``, and, as E is
    symmetric, as the class values too."""
    for factors in FACTORIZATIONS + [(512,)]:
        table = character_table(make_abelian(factors))
        assert table.class_values is table.phi, factors
        gathered = table.class_values[:, table.group.class_of].T.copy()
        assert table.phi.dtype == gathered.dtype and table.phi.shape == gathered.shape
        assert table.phi.tobytes() == gathered.tobytes(), factors
        assert table.phi.flags.c_contiguous and not table.phi.flags.writeable, factors


@pytest.mark.parametrize("label", ["S3", "Q8", "D4", "D5"])
def test_phi_is_the_read_only_gather_of_the_class_values(label):
    """Off the analytic route ``phi`` is ``class_values[:, class_of].T.copy()``
    byte for byte: the layout whose ``a @ phi.T`` bits the search pins."""
    group = group_from_json(dihedral_json(5)) if label == "D5" else group_from_label(label)
    table = character_table(group)
    gathered = table.class_values[:, group.class_of].T.copy()
    assert table.phi.dtype == gathered.dtype and table.phi.shape == gathered.shape
    assert table.phi.tobytes() == gathered.tobytes()
    assert table.phi.flags.c_contiguous and not table.phi.flags.writeable


@pytest.mark.parametrize("label", ["S3", "Z4"])
def test_replaced_class_values_give_their_own_phi(label):
    """``phi`` follows the class values a table is built with, not a copy kept
    beside them.  The changed entry is on the diagonal, so Z4's values stay
    symmetric, as an analytic table's are."""
    table = character_table(group_from_label(label))
    table.phi  # read before the replace, which must not carry it over
    values = table.class_values.copy()
    values[1, 1] *= 1.001
    replaced = replace(table, _class_values=values)
    assert np.array_equal(replaced.phi, values[:, table.group.class_of].T)
    assert not np.array_equal(replaced.phi, table.phi)


def loop_roots_of_unity(m: int) -> np.ndarray:
    """The roots with their conjugate pairing set one index at a time."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots[0] = 1.0
    if m % 2 == 0:
        roots[m // 2] = -1.0
    if m % 4 == 0:
        roots[m // 4] = 1j
    for t in range(1, (m - 1) // 2 + 1):
        roots[m - t] = np.conj(roots[t])
    return roots


def test_roots_of_unity_match_the_loop_pairing():
    for m in range(1, 513):
        assert characters._roots_of_unity(m).tobytes() == loop_roots_of_unity(m).tobytes(), m


def loop_root_bound(roots: np.ndarray, n: int) -> float:
    """``_root_bound`` with delta from one e x e product of every root with
    every conjugate, and one average per divisor d of e in a loop."""
    e = len(roots)
    index = np.arange(e)
    products = np.multiply.outer(roots, np.conj(roots))
    delta = np.max(np.abs(products - roots[np.subtract.outer(index, index) % e]))
    worst = 0.0
    for d in range(1, e + 1):
        if e % d == 0:
            average = np.sum(roots[np.arange(d) * (e // d)]) / d
            worst = max(worst, abs(average - (d == 1)))
    return float(delta) + worst + characters._GRAM_ROUNDING_PER_ELEMENT * n


def windowed_root_bound(roots: np.ndarray, n: int) -> float:
    """``_root_bound`` with delta from row blocks of a sliding window over
    ``roots[(0 .. 2e - 2) % e]`` and one average per d in 1..e that divides e:
    the reference whose floats the bound keeps."""
    e = len(roots)
    index = np.arange(e)
    conj = np.conj(roots)[-index]
    shifted = sliding_window_view(roots[np.arange(2 * e - 1) % e], e)
    blocks = (slice(a, a + characters._ROW_BLOCK) for a in range(0, e, characters._ROW_BLOCK))
    delta = np.max([np.max(np.abs(np.multiply.outer(roots[rows], conj) - shifted[rows]))
                    for rows in blocks])
    averages = np.array([roots[::e // d].sum() / d for d in range(1, e + 1) if e % d == 0])
    averages[0] -= 1.0
    return float(delta) + float(np.max(np.abs(averages))) + characters._GRAM_ROUNDING_PER_ELEMENT * n


def test_root_bound_keeps_the_bits_of_the_windowed_form():
    """delta reads a strided view of the roots twice over, and the divisors are
    listed up to sqrt(e): the same float at every exponent."""
    for e in range(1, 513):
        roots = characters._roots_of_unity(e)
        for n in {e, 512}:
            got = characters._root_bound(roots, n)
            assert type(got) is float and got == windowed_root_bound(roots, n), (e, n)
    for e in (1, 2, 12, 64, 65):
        for k in range(e):
            roots = characters._roots_of_unity(e)
            roots[k] *= 10.0
            assert characters._root_bound(roots, e) == windowed_root_bound(roots, e), (e, k)


def assert_phi_and_bound_match_the_loop_reference(factors) -> None:
    table = character_table.__wrapped__(make_abelian(factors))
    roots = loop_roots_of_unity(math.lcm(*factors))
    want_phi = roots[loop_exponents(factors)]
    assert table.phi.dtype == want_phi.dtype and table.phi.shape == want_phi.shape, factors
    assert table.phi.tobytes() == want_phi.tobytes(), factors
    n = math.prod(factors)
    got, want = characters._root_bound(roots, n), loop_root_bound(roots, n)
    assert math.isclose(got, want, rel_tol=1e-12), factors


def test_phi_and_bound_match_the_loop_reference_up_to_order_64():
    for factors in FACTORIZATIONS:
        assert_phi_and_bound_match_the_loop_reference(factors)
    # one root far off the circle puts the worst product in its own row, so a
    # row the 64-row blocks skip shows.  The bounds are compared to 1e-12, as
    # numpy's abs of a complex array can differ in the last bit from the abs
    # of each scalar, which the loop takes
    for e in (1, 2, 63, 64, 65, 127, 128, 130):
        for k in range(e):
            roots = loop_roots_of_unity(e)
            roots[k] *= 10.0
            got, want = characters._root_bound(roots, e), loop_root_bound(roots, e)
            assert math.isclose(got, want, rel_tol=1e-12), (e, k)


@pytest.mark.parametrize("factors", LARGE_FACTORIZATIONS, ids=LARGE_IDS)
def test_phi_and_bound_match_the_loop_reference_at_order_512(factors):
    assert_phi_and_bound_match_the_loop_reference(factors)


def test_perturbed_class_sum_table_fails_the_gram_check(monkeypatch):
    group = group_from_json(dihedral_json(5))
    rows = characters._class_sum_rows(group)
    degree_two = int(np.argmax(rows[:, 0].real))
    rows[degree_two, 1] *= 1 + 1e-6  # off the identity column: degrees stay integers
    monkeypatch.setattr(characters, "_class_sum_rows", lambda group: rows)
    with pytest.raises(ValueError, match="failed orthogonality validation"):
        character_table(group)
