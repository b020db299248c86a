"""Coefficient/value representations of class functions and their JSON form."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentgroups import (
    SearchConfig,
    build_ledger,
    character_table,
    class_function_from_json,
    class_function_to_json,
    cyclic_criterion,
    cyclic_satisfied,
    from_coefficients,
    from_values,
    group_from_label,
    is_bent,
    is_bent_spectral,
    is_unimodular,
    load_class_function,
    make_bent_cyclic,
    make_cyclic,
    make_named,
    oracle_verdicts,
    save_class_function,
)
from bentgroups import characters
from bentgroups.characters import _FFT_ORDER, expand, project
from bentgroups.class_functions import _pairs

from conftest import BLOCK_LABELS, class_constant_samples, relabelled

complex_coeff = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


def coeff_vectors(n: int):
    return st.lists(complex_coeff, min_size=n, max_size=n)


def test_evaluation_is_coefficient_sum_at_identity(z3_table):
    a = np.array([0.3 + 0.1j, -0.2j, 0.7])
    f = from_coefficients(z3_table, a)
    assert abs(f.values[0] - a.sum()) < 1e-12


def test_z4_evaluation_closed_form(z4_table):
    a = np.array([0.1, 0.2 + 0.5j, -0.3, 1.0 - 1.0j])
    f = from_coefficients(z4_table, a)
    a1, a2, a3, a4 = a
    assert abs(f.values[1] - ((a1 - a3) + 1j * (a2 - a4))) < 1e-12
    assert abs(f.values[2] - (a1 - a2 + a3 - a4)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(data=coeff_vectors(6))
def test_round_trip_z6(data):
    table = character_table(make_cyclic(6))
    a = np.array(data)
    f = from_coefficients(table, a)
    back = from_values(table, f.values).coefficients
    np.testing.assert_allclose(back, a, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(data=coeff_vectors(5))
def test_parseval_z5(data):
    table = character_table(make_cyclic(5))
    a = np.array(data)
    f = from_coefficients(table, a)
    energy_values = float(np.sum(np.abs(f.values) ** 2)) / table.group.order
    energy_coeffs = float(np.sum(np.abs(a) ** 2))
    assert abs(energy_values - energy_coeffs) < 1e-9


def test_round_trip_nonabelian(s3_table):
    a = np.array([0.5, -0.25j, 1.0 + 1.0j])
    f = from_coefficients(s3_table, a)
    g = from_values(s3_table, f.values)
    np.testing.assert_allclose(g.coefficients, a, atol=1e-10)
    assert g.sync_residual < 1e-10


def test_values_constant_on_classes(q8_table):
    a = np.ones(5) / math.sqrt(5)
    f = from_coefficients(q8_table, a)
    class_of = np.asarray(q8_table.group.class_of)
    for c in range(q8_table.group.n_classes):
        members = f.values[class_of == c]
        assert np.max(np.abs(members - members[0])) < 1e-12


def test_non_class_constant_rejected(s3_table):
    v = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 1.0])  # breaks the transposition class
    with pytest.raises(ValueError, match="class 1"):
        from_values(s3_table, v)


def test_coefficient_shape_rejected(z3_table):
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        from_coefficients(z3_table, [1.0, 2.0])


def test_value_shape_rejected(z3_table):
    with pytest.raises(ValueError, match="expected 3 values"):
        from_values(z3_table, [1.0, 2.0])


def test_is_unimodular(z4_table):
    flat = from_coefficients(z4_table, np.array([0, 1.0, 0, 0]))
    ok, dev = is_unimodular(flat)
    assert ok and dev < 1e-12
    lopsided = from_coefficients(z4_table, np.array([1.0, 1.0, 0, 0]) / math.sqrt(2))
    ok, dev = is_unimodular(lopsided)
    assert not ok
    assert dev == pytest.approx(1.0, abs=1e-12)  # value at g^2 is 0


def test_sync_residual_zero_for_coefficient_basis(v4_table):
    f = from_coefficients(v4_table, np.array([1.0, 0, 0, 0]))
    assert f.sync_residual == 0.0
    assert f.basis == "coefficients"


def test_json_round_trip_both_bases(z4_table):
    a = np.array([0.5, 0.5j, -0.5, -0.5j])
    for f in (from_coefficients(z4_table, a), from_values(z4_table, z4_table.phi @ a)):
        obj = class_function_to_json(f)
        assert obj["group"] == "Z4"
        assert obj["basis"] == f.basis
        assert len(obj["coefficients"]) == 4
        assert len(obj["values"]) == 4
        assert "sync_residual" in obj
        back = class_function_from_json(json.loads(json.dumps(obj)))
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-12)
        np.testing.assert_allclose(back.values, f.values, atol=1e-12)
        obj["group"] = "z4"  # the label resolves to the same group in any case
        assert class_function_from_json(obj).group is back.group


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="^malformed class-function JSON: missing key 'group'$"):
        class_function_from_json({"basis": "coefficients"})
    with pytest.raises(ValueError, match="^malformed class-function JSON: missing key 'basis'$"):
        class_function_from_json({"group": "Z2", "data": [[1, 0], [0, 0]]})
    with pytest.raises(ValueError, match="^malformed class-function JSON: missing key 'data'$"):
        class_function_from_json({"group": "Z2", "basis": "coefficients"})
    with pytest.raises(ValueError, match="^unknown basis 'sideways'"):
        class_function_from_json(
            {"group": "Z2", "basis": "sideways", "data": [[1, 0], [0, 0]]}
        )


@pytest.mark.parametrize("obj", [[{"group": "Z4"}], "Z4", 4.0, None])
def test_json_that_is_not_an_object_is_rejected(obj):
    with pytest.raises(ValueError) as raised:
        class_function_from_json(obj)
    assert str(raised.value) == (
        f"class-function JSON must be an object, got {type(obj).__name__}"
    )


@pytest.mark.parametrize(
    "label, message",
    [
        ("Y4", "cannot resolve group label 'Y4'"),
        ("Z1024", "group order 1024 exceeds"),
    ],
)
def test_json_label_for_another_group_is_rejected(z4_table, label, message):
    obj = class_function_to_json(from_coefficients(z4_table, np.array([0.5, 0.5j, -0.5, -0.5j])))
    obj["group"] = label
    with pytest.raises(ValueError, match=message):
        class_function_from_json(obj)


NAN = float("nan")


@pytest.mark.parametrize(
    "label, basis, data, message",
    [
        ("Z251xZ2", "coefficients", [[NAN, 0.0]] + [[0.5, 0.0]] * 501,
         "class-function data[0] is not finite"),
        ("Z251xZ2", "coefficients", [[1.0]] + [[0.0, 0.0]] * 501,
         "class-function data must be a list of [re, im] pairs of numbers"),
        ("Z251xZ2", "pointwise", 5, "class-function data must be a list of [re, im] pairs of numbers"),
        ("Z251xZ2", "pointwise", [["a", "b"]] * 502,
         "class-function data must be a list of [re, im] pairs of numbers"),
        ("Z251xZ2", "coefficients", [[0.5, 0.0]] * 501 + [[True, 0.0]],
         "class-function data must be a list of [re, im] pairs of numbers"),
        ("Z251xZ2", "sideways", [[1.0, 0.0]] * 502,
         "unknown basis 'sideways'; expected 'coefficients' or 'pointwise'"),
        ("Y4", "sideways", "junk", "unknown basis 'sideways'; expected 'coefficients' or 'pointwise'"),
        ("Z251xZ0", "pointwise", [[NAN, 0.0]], "cyclic factor sizes must be positive, got (251, 0)"),
        ("Z1024", "pointwise", [[NAN, 0.0]], "group order 1024 exceeds supported maximum 512"),
        ("Z509", "coefficients", [[0.5, 0.0]] * 3,
         "expected 509 coefficients for Z509, got shape (3,)"),
        ("S3", "pointwise", [[0.5, 0.0]] * 2, "expected 6 values for S3, got shape (2,)"),
        ("Z2", "coefficients", [], "expected 2 coefficients for Z2, got shape (0,)"),
    ],
    ids=["nan", "ragged", "int", "str", "bool", "basis", "basis-first", "label", "order", "length",
         "s3-length", "empty"],
)
def test_malformed_file_builds_no_character_table(label, basis, data, message):
    """The basis's error comes first, then the label's, the data's and the
    length's, which an empty list reaches; no character table is looked up for
    any of them."""
    info = character_table.cache_info()
    with pytest.raises(ValueError) as raised:
        class_function_from_json({"group": label, "basis": basis, "data": data})
    assert str(raised.value) == message
    after = character_table.cache_info()
    assert after.hits + after.misses == info.hits + info.misses


@pytest.mark.parametrize("big", [2**64 - 1, 2**64, 10**24, 1e24, -(2**63) - 1, -(10**24)],
                         ids=["uint64-max", "2^64", "10^24", "1e24", "below-int64", "-10^24"])
def test_an_integer_beyond_int64_and_uint64_is_read_as_a_float(big):
    f = class_function_from_json({"group": "Z2", "basis": "coefficients", "data": [[big, 0], [0, 1]]})
    assert f.coefficients.tobytes() == np.array([float(big), 1j]).tobytes()


@pytest.mark.parametrize(
    "data, message",
    [
        ([[10**400, 0], [0, 0]], "class-function data[0] is not finite"),
        ([[0, 0], [0, -(10**400)]], "class-function data[1] is not finite"),
        ([[2**64, True], [0, 0]], "class-function data must be a list of [re, im] pairs of numbers"),
        ([["1", 2**64], [0, 0]], "class-function data must be a list of [re, im] pairs of numbers"),
        ([[2**64, None], [0, 0]], "class-function data must be a list of [re, im] pairs of numbers"),
        ([2**64, 0], "class-function data must be a list of [re, im] pairs of numbers"),
    ],
    ids=["beyond-float", "negative-beyond-float", "bool", "str", "null", "flat"],
)
def test_a_large_integer_beyond_the_float_range_or_beside_a_non_number_is_rejected(data, message):
    with pytest.raises(ValueError) as raised:
        class_function_from_json({"group": "Z2", "basis": "coefficients", "data": data})
    assert str(raised.value) == message


def test_file_round_trip(tmp_path, v4_table):
    f = from_coefficients(v4_table, np.array([0.5, 0.5, 0.5, 0.5]))
    path = tmp_path / "f.json"
    save_class_function(f, str(path))
    back = load_class_function(str(path))
    assert back.group.name == "V4"
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_saved_file_is_the_json_dump(tmp_path, z4_table):
    f = from_coefficients(z4_table, [0.5, 0.5j, -0.5, 0.5])
    path = tmp_path / "f.json"
    save_class_function(f, str(path))
    want = json.dumps(class_function_to_json(f), indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == want


def test_saving_a_non_finite_function_raises_and_writes_no_file(tmp_path, z4_table):
    """A NaN would be written as a bare ``NaN`` token, which no loader accepts."""
    f = from_coefficients(z4_table, [NAN, 0.5, 0.5, 0.5])
    path = tmp_path / "f.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        save_class_function(f, str(path))
    assert not path.exists()


def test_loaded_functions_land_on_named_groups():
    table = character_table(group_from_label("Z2xZ3"))
    f = from_coefficients(table, np.ones(6) / 6)
    back = class_function_from_json(class_function_to_json(f))
    assert back.group.name == "Z2xZ3"
    assert back.group.abelian_factors == (2, 3)


def test_pairs_from_the_float_view_are_the_per_element_floats():
    z = np.array([0.5 - 0.0j, complex(-0.0, 5e-324), complex(1e308, math.nan), -1j, 3 + 0j])
    for arr in (z, z[::2], z[[0, 1, 3, 4]].astype(np.complex64)):
        old = [[float(v.real), float(v.imag)] for v in arr]
        assert repr(_pairs(arr)) == repr(old)
        assert all(type(x) is float for pair in _pairs(arr) for x in pair)


def projection_groups():
    """Every group of ``BLOCK_LABELS``, then Z4 and S3 relabelled so that their
    classes are not listed in element order."""
    return [group_from_label(label) for label in BLOCK_LABELS] + [
        relabelled(make_cyclic(4), [2, 0, 1, 3]),
        relabelled(make_named("S3"), [3, 1, 4, 0, 5, 2]),
    ]


def test_project_matches_the_adjoint_product():
    """``project`` sums over classes first; it agrees with ``conj(phi.T) @ v / n``
    to within the rounding of a length-n sum."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(16)
    for group in projection_groups():
        table = character_table(group)
        n = group.order
        for v in class_constant_samples(rng, group):
            adjoint = np.conj(table.phi.T) @ v / n
            atol = n * eps * max(1.0, float(np.max(np.abs(v))))
            np.testing.assert_allclose(project(table, v), adjoint, rtol=0, atol=atol,
                                       err_msg=group.name)


#: The labels of ``BLOCK_LABELS`` whose transforms are FFTs, with the cutoff
#: order itself, Z2^9, where ``fftn`` is slowest, and a product of two primes.
FFT_LABELS = [label for label in BLOCK_LABELS if label.startswith("Z")
              and group_from_label(label).order >= _FFT_ORDER] + [
    f"Z{_FFT_ORDER}", "x".join(["Z2"] * 9), "Z5xZ97",
]


@pytest.mark.parametrize("label", FFT_LABELS)
def test_fft_transforms_match_the_character_matrix_products(label):
    """Above the cutoff ``project`` and ``expand`` agree with ``conj(phi.T) @ v / n``
    and ``phi @ a`` to within ``n eps max|.|``, and build no n x n array."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    group = group_from_label(label)
    table = characters.character_table.__wrapped__(group)  # its values not built yet
    n = group.order
    samples = class_constant_samples(rng, group)
    transformed = [(project(table, v), expand(table, v)) for v in samples]
    assert "phi" not in vars(table) and table._class_values is None
    for v, (a, values) in zip(samples, transformed):
        atol = n * eps * max(1.0, float(np.max(np.abs(v))))
        np.testing.assert_allclose(a, np.conj(table.phi.T) @ v / n, rtol=0, atol=atol)
        np.testing.assert_allclose(values, table.phi @ v, rtol=0, atol=atol)


@pytest.mark.parametrize("order", [_FFT_ORDER - 1, 2, 64])
def test_transforms_below_the_cutoff_are_the_matrix_products_bit_for_bit(order):
    """Below the cutoff ``expand`` is ``phi @ a`` and ``project`` the class sums'
    product with the class values, as they were before the FFT route."""
    rng = np.random.default_rng(order)
    table = character_table(make_cyclic(order))
    classes = table.group.class_of
    for v in class_constant_samples(rng, table.group):
        assert expand(table, v).tobytes() == (table.phi @ v).tobytes()
        conj_sums = (np.bincount(classes, weights=v.real, minlength=order)
                     - 1j * np.bincount(classes, weights=v.imag, minlength=order))
        adjoint = np.conj(table.class_values @ conj_sums) / order
        assert project(table, v).tobytes() == adjoint.tobytes()


#: Prints a digest of ``project``'s bits on every group of ``BLOCK_LABELS``.
_PROJECTION_DIGEST = """
import hashlib
import numpy as np
from bentgroups import character_table, group_from_label
from bentgroups import characters
from bentgroups.characters import _FFT_ORDER, expand, project
from conftest import BLOCK_LABELS, class_constant_samples
rng = np.random.default_rng(16)
for label in BLOCK_LABELS:
    table = character_table(group_from_label(label))
    digest = hashlib.sha256()
    for v in class_constant_samples(rng, table.group):
        digest.update(project(table, v).tobytes())
    print(label, digest.hexdigest())
"""


def test_project_bits_do_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a product between threads at points that depend on their
    number; the r x r product of ``project`` gives the same bits at one and two."""
    tests = Path(__file__).resolve().parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _PROJECTION_DIGEST],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert len(outputs[0].splitlines()) == len(BLOCK_LABELS)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("label", ["S3", "Q8", "D4"])
@pytest.mark.parametrize("scale", [1e7, 1e50, 1e150])
def test_class_constant_input_is_accepted_at_any_scale(label, scale):
    """The class-mean gate is relative to max|v|: the rounding of a mean at a
    large scale is no deviation from it."""
    table = character_table(group_from_label(label))
    group = table.group
    rng = np.random.default_rng(7)
    samples = [v * scale for v in class_constant_samples(rng, group)]
    samples += [scale * rng.standard_normal(group.n_classes)[group.class_of] for _ in range(200)]
    for v in samples:
        f = from_values(table, v)
        peak = max(1.0, float(np.max(np.abs(v))))
        np.testing.assert_allclose(f.values, v)
        assert f.sync_residual <= 1e-12 * peak


def test_unit_scale_outliers_are_still_rejected(s3_table):
    group = s3_table.group
    v = np.ones(6, dtype=complex)
    v[np.flatnonzero(group.class_of == 1)[0]] += 2e-9  # 1.3e-9 from its class mean
    with pytest.raises(ValueError, match="class 1 "):
        from_values(s3_table, v)
    v[np.flatnonzero(group.class_of == 2)[0]] += 1e-3
    with pytest.raises(ValueError, match="class 1 "):  # the first offending class
        from_values(s3_table, v)
    v = np.ones(6, dtype=complex)
    v[np.flatnonzero(group.class_of == 1)[0]] += 5e-10
    assert from_values(s3_table, v).sync_residual < 1e-9


def _z5():
    return make_bent_cyclic("zadoff-chu", 5, 2).function


#: every public entry point that takes a tolerance, given only ``tol``
TOL_ENTRIES = [
    pytest.param(lambda tol: is_bent(_z5(), tol), id="is_bent"),
    pytest.param(lambda tol: is_bent_spectral(_z5(), tol), id="is_bent_spectral"),
    pytest.param(lambda tol: is_unimodular(_z5(), tol), id="is_unimodular"),
    pytest.param(lambda tol: oracle_verdicts(_z5().table, _z5().values[None, :], tol),
                 id="oracle_verdicts"),
    pytest.param(lambda tol: cyclic_criterion(_z5().coefficients, tol), id="cyclic_criterion"),
    pytest.param(lambda tol: cyclic_satisfied(_z5().coefficients[None, :], tol),
                 id="cyclic_satisfied"),
    pytest.param(lambda tol: make_bent_cyclic("zadoff-chu", 5, 2, tol=tol), id="make_bent_cyclic"),
    pytest.param(lambda tol: SearchConfig(group="S3", budget=10, tol=tol), id="SearchConfig"),
    pytest.param(lambda tol: build_ledger(tol=tol, budget=0), id="build_ledger"),
]


@pytest.mark.parametrize("tol", [True, np.True_, "1e-8", None, np.complex128(1e-8)], ids=repr)
@pytest.mark.parametrize("call", TOL_ENTRIES)
def test_a_bool_or_a_non_number_is_no_tolerance(call, tol):
    """``is_bent(f, True)`` read tol 1, and its JSON report printed "tol": true;
    a string or None raised a bare TypeError, and a numpy complex passed with
    a ComplexWarning, its imaginary part dropped."""
    with pytest.raises(ValueError) as info:
        call(tol)
    assert str(info.value) == f"tol must be a finite non-negative number, got {tol}"


@pytest.mark.parametrize("tol", [0, np.float64(1e-8), np.int64(1)], ids=repr)
@pytest.mark.parametrize("call", TOL_ENTRIES[:-1])  # build_ledger runs every claim
def test_a_zero_or_numpy_number_tolerance_stays_valid(call, tol):
    call(tol)
