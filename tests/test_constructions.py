"""CAZAC-based bent constructions and bentness-preserving transforms."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import bentgroups.constructions as constructions_module
from bentgroups import (
    BENT,
    CapabilityError,
    ConstructionError,
    SequenceKind,
    character_table,
    character_twist,
    cyclic_criterion,
    from_coefficients,
    global_phase,
    group_from_label,
    is_bent,
    make_bent_cyclic,
    quadratic_chirp,
    spectrum,
    translate,
    zadoff_chu,
)
from bentgroups.cli import main as cli_main

from conftest import brute_lag_sums


def test_zadoff_chu_z3_values():
    g = zadoff_chu(3, 1)
    expected = [1.0, cmath.exp(-2j * math.pi / 3), 1.0]
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_quadratic_chirp_values():
    w3 = cmath.exp(2j * math.pi / 3)
    np.testing.assert_allclose(quadratic_chirp(3), [1.0, w3, w3], atol=1e-12)
    w5 = cmath.exp(2j * math.pi / 5)
    np.testing.assert_allclose(
        quadratic_chirp(5), [1.0, w5, w5**4, w5**4, w5], atol=1e-12
    )


def test_sequences_are_unimodular():
    for n in range(1, 30):
        for u in range(1, n + 1):
            if math.gcd(u, n) != 1:
                continue
            g = zadoff_chu(n, u)
            np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)
        if n % 2:
            np.testing.assert_allclose(np.abs(quadratic_chirp(n)), 1.0, atol=1e-12)


def test_sequences_have_zero_autocorrelation():
    for n in (4, 7, 12, 15):
        g = zadoff_chu(n, 1)
        for lag_sum in brute_lag_sums(g):
            assert abs(lag_sum) < 1e-10


def test_zadoff_chu_argument_errors():
    with pytest.raises(ValueError, match="coprime"):
        zadoff_chu(6, 3)
    with pytest.raises(ValueError, match="positive"):
        zadoff_chu(0, 1)


def test_chirp_argument_errors():
    with pytest.raises(ValueError, match="odd"):
        quadratic_chirp(4)
    with pytest.raises(ValueError, match="positive"):
        quadratic_chirp(-3)


# A sequence spec is the kind, length and root that make_bent_cyclic takes.


def test_spec_validation():
    with pytest.raises(ValueError):
        make_bent_cyclic(SequenceKind.ZADOFF_CHU, 6, 3)
    with pytest.raises(ValueError):
        make_bent_cyclic(SequenceKind.QUADRATIC_CHIRP, 4)
    assert make_bent_cyclic(SequenceKind.ZADOFF_CHU, 6, 5).report.verdict == BENT
    assert SequenceKind("chirp") is SequenceKind.QUADRATIC_CHIRP


@pytest.mark.parametrize("entry", ["spec", "function", "cli"])
@pytest.mark.parametrize(
    "kind, n, root, message",
    [
        (SequenceKind.ZADOFF_CHU, 0, 1, "sequence length must be positive, got 0"),
        (SequenceKind.QUADRATIC_CHIRP, 4, None, "quadratic chirps require odd length, got 4"),
        (
            SequenceKind.ZADOFF_CHU,
            6,
            3,
            "Zadoff-Chu root must be coprime to the length; gcd(3, 6) = 3",
        ),
    ],
    ids=["length-0", "even-chirp", "root-not-coprime"],
)
def test_every_entry_point_rejects_a_sequence_with_the_same_message(
    capsys, entry, kind, n, root, message
):
    """The entries are make_bent_cyclic ("spec"), the generator and the CLI;
    make_bent_cyclic reports the sequence before its NaN ``tol``."""
    if entry == "cli":
        argv = ["construct", kind.value, str(n)] + ([] if root is None else [str(root)])
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        return
    with pytest.raises(ValueError) as excinfo:
        if entry == "spec":
            make_bent_cyclic(kind, n, root, tol=math.nan)
        elif kind is SequenceKind.ZADOFF_CHU:
            zadoff_chu(n, root)
        else:
            quadratic_chirp(n)
    assert str(excinfo.value) == message


def test_spec_rejects_an_unknown_kind():
    with pytest.raises(ValueError) as excinfo:
        make_bent_cyclic("bogus", 5)
    assert str(excinfo.value) == "unknown sequence kind 'bogus'"


@pytest.mark.parametrize("kind, n, root", [("zadoff-chu", 5, 2), ("chirp", 9, None)])
def test_spec_takes_a_valid_kind_string_as_its_enum_member(kind, n, root):
    coefficients = make_bent_cyclic(kind, n, root).function.coefficients
    same = make_bent_cyclic(SequenceKind(kind), n, root).function.coefficients
    assert coefficients.tobytes() == same.tobytes()


@pytest.mark.parametrize("root", [5, 1, 0])
def test_a_chirp_given_a_root_is_refused_with_the_clis_message(capsys, root):
    """make_bent_cyclic dropped a chirp's root silently; the CLI refused it."""
    with pytest.raises(ValueError) as excinfo:
        make_bent_cyclic("chirp", 9, root)
    assert str(excinfo.value) == f"construct chirp takes no root, got {root}"
    assert cli_main(["construct", "chirp", "9", str(root)]) == 2
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


def test_zadoff_chu_without_a_root_takes_root_1():
    made = make_bent_cyclic("zadoff-chu", 7).function.coefficients
    assert made.tobytes() == make_bent_cyclic("zadoff-chu", 7, 1).function.coefficients.tobytes()


def test_tol_is_keyword_only():
    with pytest.raises(TypeError):
        make_bent_cyclic("zadoff-chu", 7, 1, 1e-8)


def test_make_bent_cyclic_certifies():
    for n in (2, 5, 6, 9, 16):
        certified = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, 1)
        assert certified.report.verdict == BENT
        assert certified.report.max_residual < n * 1e-10
        # coefficients are the sequence scaled to the unit sphere
        np.testing.assert_allclose(
            np.abs(certified.function.coefficients), 1.0 / math.sqrt(n), atol=1e-12
        )
        ok_dev = np.max(np.abs(np.abs(certified.function.values) - 1.0))
        assert ok_dev < 1e-10


def test_constructed_functions_have_flat_spectrum():
    for n in (3, 8, 13):
        f = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, 1).function
        np.testing.assert_allclose(spectrum(f), float(n), atol=n * 1e-10)


def test_all_valid_roots_certify():
    for n in (8, 9, 10):
        for u in range(1, n):
            if math.gcd(u, n) != 1:
                continue
            certified = make_bent_cyclic(SequenceKind.ZADOFF_CHU, n, u)
            assert certified.report.verdict == BENT


def test_chirp_certifies_odd_lengths():
    for n in (3, 5, 7, 9, 11, 21):
        certified = make_bent_cyclic(SequenceKind.QUADRATIC_CHIRP, n)
        assert certified.report.verdict == BENT


@pytest.mark.parametrize(
    "root,sequence,message",
    [
        (3, lambda n: 2.0 * zadoff_chu(n, 3), "NOT_UNIMODULAR, unimodular deviation 1.000e+00"),
        (5, lambda n: math.sqrt(n) * np.eye(n)[0], "NOT_BENT, max residual 7.000e+00"),
    ],
)
def test_failed_self_check_names_its_measure_and_is_not_cached(
    monkeypatch, root, sequence, message
):
    monkeypatch.setattr(constructions_module, "zadoff_chu", lambda n, u: sequence(n))
    with pytest.raises(ConstructionError) as excinfo:
        make_bent_cyclic(SequenceKind.ZADOFF_CHU, 7, root, tol=3e-8)
    assert str(excinfo.value) == (
        f"construction zadoff-chu of length 7 and root {root} failed its bentness "
        f"self-check at tol 3e-08: verdict {message}"
    )
    monkeypatch.undo()
    assert make_bent_cyclic(SequenceKind.ZADOFF_CHU, 7, root, tol=3e-8).report.verdict == BENT


def test_a_failed_chirp_names_no_root(monkeypatch):
    doubled = lambda n: 2.0 * quadratic_chirp(n)  # noqa: E731
    monkeypatch.setattr(constructions_module, "quadratic_chirp", doubled)
    with pytest.raises(ConstructionError) as excinfo:
        make_bent_cyclic("chirp", 9)
    assert str(excinfo.value).startswith("construction chirp of length 9 failed its bentness")


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_a_bad_tolerance_is_rejected_before_any_build(monkeypatch, tol):
    """NaN raised a ConstructionError "failed its bentness self-check at tol
    nan", and -1.0 certified silently at the rounding floor 2.5e-14."""
    def no_build(group):
        raise AssertionError("a character table was built before the tol check")

    monkeypatch.setattr(constructions_module, "character_table", no_build)
    with pytest.raises(ValueError) as info:
        make_bent_cyclic(SequenceKind.ZADOFF_CHU, 5, 2, tol=tol)
    assert str(info.value) == f"tol must be a finite non-negative number, got {tol}"


def test_constructions_pass_cyclic_criterion():
    f = make_bent_cyclic(SequenceKind.ZADOFF_CHU, 12, 5).function
    assert cyclic_criterion(f.coefficients).satisfied


# ---------------------------------------------------------------------------
# transforms


@pytest.fixture(scope="module")
def bent_z8():
    return make_bent_cyclic(SequenceKind.ZADOFF_CHU, 8, 3).function


def test_global_phase_preserves_bentness(bent_z8):
    g = global_phase(bent_z8, cmath.exp(0.7j))
    assert is_bent(g).verdict == BENT
    np.testing.assert_allclose(np.abs(g.values), 1.0, atol=1e-12)


def test_global_phase_rejects_non_unit(bent_z8):
    with pytest.raises(ValueError, match="unimodular"):
        global_phase(bent_z8, 2.0)
    with pytest.raises(ValueError, match=r"unimodular, got \|c\| = nan"):
        global_phase(bent_z8, complex(math.nan, 0.0))


def test_translate_preserves_bentness(bent_z8):
    for tau in range(8):
        assert is_bent(translate(bent_z8, tau)).verdict == BENT


def test_translate_range(bent_z8):
    with pytest.raises(IndexError):
        translate(bent_z8, 8)


def test_character_twist_preserves_bentness(bent_z8):
    for i in range(8):
        assert is_bent(character_twist(bent_z8, i)).verdict == BENT


def test_character_twist_rejects_higher_degree(s3_table):
    f = from_coefficients(s3_table, np.ones(3) / math.sqrt(3))
    with pytest.raises(CapabilityError, match="degree 2"):
        character_twist(f, 2)


def test_five_fold_composition_stays_bent():
    rng = np.random.default_rng(53)
    for label in ("Z6", "V4", "Z2xZ4"):
        table = character_table(group_from_label(label))
        n = table.group.order
        if label == "V4":
            a = np.kron([1.0, -1j], [1.0, -1j]) / 2.0
        elif label == "Z2xZ4":
            a = np.kron(zadoff_chu(2, 1), zadoff_chu(4, 1)) / math.sqrt(8)
        else:
            a = zadoff_chu(6, 1) / math.sqrt(6)
        f = from_coefficients(table, a)
        assert is_bent(f).verdict == BENT
        for _ in range(5):
            kind = rng.integers(0, 3)
            if kind == 0:
                f = global_phase(f, cmath.exp(2j * math.pi * rng.random()))
            elif kind == 1:
                f = translate(f, int(rng.integers(0, n)))
            else:
                f = character_twist(f, int(rng.integers(0, n)))
            assert is_bent(f).verdict == BENT


def test_tensor_of_bent_vectors_is_bent():
    table = character_table(group_from_label("Z3xZ3"))
    a = np.kron(zadoff_chu(3, 1), zadoff_chu(3, 2)) / 3.0
    report = is_bent(from_coefficients(table, a))
    assert report.verdict == BENT
