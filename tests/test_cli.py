"""Command-line interface: payloads, exit codes, and determinism."""

from __future__ import annotations

import contextlib
import io
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
    character_table,
    from_coefficients,
    make_cyclic,
    save_class_function,
)
from bentgroups.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chars_json(capsys):
    code, out, _ = run_cli(capsys, "chars", "Z3")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "Z3"
    assert len(payload["characters"]) == 3
    re, im = payload["characters"][1]["values"][1]
    assert abs(complex(re, im) - complex(-0.5, math.sqrt(3) / 2)) < 1e-12


def test_chars_csv(capsys):
    code, out, _ = run_cli(capsys, "chars", "Z3", "--format", "csv")
    assert code == 0
    assert "e^{2πi·1/3}" in out
    assert out.splitlines()[0].startswith("character,")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_chars_writes_the_printed_table_to_a_file(capsys, tmp_path, fmt):
    path = tmp_path / f"S3.{fmt}"
    code, out, _ = run_cli(capsys, "chars", "S3", "--format", fmt, "-o", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out


def test_chars_s3_is_integer_table(capsys):
    code, out, _ = run_cli(capsys, "chars", "S3")
    values = [
        [complex(re, im) for re, im in chi["values"]]
        for chi in json.loads(out)["characters"]
    ]
    assert np.allclose(values, [[1, 1, 1], [1, -1, 1], [2, 0, -1]], atol=1e-10)


def test_chars_z1(capsys):
    code, out, _ = run_cli(capsys, "chars", "Z1")
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 1
    assert payload["characters"][0]["values"] == [[1.0, 0.0]]


def test_chars_unknown_group(capsys):
    code, _, err = run_cli(capsys, "chars", "E8")
    assert code == 2
    assert "error:" in err


def test_check_bent_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    code, out, _ = run_cli(capsys, "construct", "zadoff-chu", "8", "3", "-o", str(path))
    assert code == 0
    saved = json.loads(path.read_text())
    assert saved["report"]["verdict"] == "BENT"
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "BENT"


def test_check_constant_function_is_negative(capsys, tmp_path):
    table = character_table(make_cyclic(4))
    f = from_coefficients(table, np.array([1.0, 0, 0, 0]))
    path = tmp_path / "const.json"
    save_class_function(f, str(path))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "NOT_BENT"


def test_check_truncated_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"group": "Z4", "basis"')
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "data",
    [
        5,
        [[1], [0, 0], [0, 0]],
        [[float("nan"), 0.0], [0.5, 0.0], [0.5, 0.0]],
        [[1e308, 1e308]] * 3,
    ],
    ids=["int", "ragged", "nan", "1e308"],
)
def test_check_malformed_data_exits_2(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "Z3", "basis": "coefficients", "data": data}))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON output")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
NUMBERS = st.sampled_from([0, 1, -1, 0.5]) | st.floats() | st.integers()
PAIRS = st.tuples(NUMBERS, NUMBERS).map(list)
# label -> (number of coefficients, number of elements)
LABEL_SIZES = {"Z1": (1, 1), "Z2": (2, 2), "Z3": (3, 3), "z6": (6, 6), "V4": (4, 4),
               " S3 ": (3, 6), "Q8": (5, 8), "D4": (5, 8), "Z2xZ2": (4, 4)}


@st.composite
def class_function_payloads(draw):
    """Well-formed payloads three times in four per field, so exits 0 and 1 occur."""
    well_formed = st.integers(0, 3).map(bool)
    if draw(well_formed):
        label = draw(st.sampled_from(sorted(LABEL_SIZES)))
    else:
        label = draw(st.sampled_from(["Z0", "Z513", "Z2xZ0", "E8", ""]) | st.text(max_size=5))
    if draw(well_formed):
        basis = draw(st.sampled_from(["coefficients", "pointwise"]))
    else:
        basis = draw(st.text(max_size=4))
    r, n = LABEL_SIZES.get(label, (3, 3))
    size = r if basis == "coefficients" else n
    if draw(well_formed):
        data = draw(st.lists(PAIRS, min_size=size, max_size=size))
    else:
        data = draw(st.lists(PAIRS | JSON_VALUES, max_size=9) | JSON_VALUES)
    return {"group": label, "basis": basis, "data": data}


BENT_PAYLOAD = {"group": "Z2", "basis": "pointwise", "data": [[1, 0], [0, 1]]}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "payload.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(payload=class_function_payloads() | JSON_VALUES | st.just(BENT_PAYLOAD))
def test_check_fuzzed_payloads_keep_the_exit_contract(fuzz_path, payload):
    """Any JSON payload: exit 0/1 with strict JSON on stdout, or exit 2 with
    one error line on stderr; no exception escapes main."""
    fuzz_path.write_text(json.dumps(payload), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(fuzz_path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=reject_constant)
        assert (report["verdict"] == "BENT") == (code == 0)


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/f.json")
    assert code == 2
    assert "error:" in err


def test_construct_parity_error(capsys):
    code, _, err = run_cli(capsys, "construct", "chirp", "4")
    assert code == 2
    assert "odd" in err


def test_construct_invalid_root(capsys):
    code, _, err = run_cli(capsys, "construct", "zadoff-chu", "6", "3")
    assert code == 2
    assert "coprime" in err


@pytest.mark.parametrize("tol", ["1e-14", "1e-15"])
@pytest.mark.parametrize("n", [10, 11, 12])
def test_construct_certifies_every_root_below_the_rounding_floor(capsys, n, tol):
    """The self-check runs at max(tol, n^2 * 1e-15) and reports that tolerance."""
    for u in range(1, n):
        if math.gcd(u, n) != 1:
            continue
        code, out, err = run_cli(capsys, "construct", "zadoff-chu", str(n), str(u), "--tol", tol)
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["verdict"] == "BENT"
        assert report["tol"] == n * n * 1e-15


def test_construct_writes_stdout_and_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    code, out, _ = run_cli(capsys, "construct", "chirp", "9", "-o", str(path))
    assert code == 0
    assert json.loads(out) == json.loads(path.read_text())


def test_search_exit_zero_even_without_certificate(capsys):
    code, out, _ = run_cli(capsys, "search", "--group", "S3", "--budget", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_bent"] is False
    assert payload["evaluations"] == 100


def test_search_certifies_z4(capsys):
    code, out, _ = run_cli(capsys, "search", "--group", "Z4", "--budget", "100")
    payload = json.loads(out)
    assert code == 0
    assert payload["certified_bent"] is True
    assert payload["report"]["verdict"] == "BENT"


def test_search_seed_changes_outcome(capsys):
    _, out1, _ = run_cli(capsys, "search", "--group", "S3", "--budget", "200", "--seed", "1")
    _, out2, _ = run_cli(capsys, "search", "--group", "S3", "--budget", "200", "--seed", "2")
    assert json.loads(out1)["best_objective"] != json.loads(out2)["best_objective"]


def test_verify_paper_default_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    statuses = {e["claim"]: e["status"] for e in payload["entries"]}
    assert statuses["s3-search-evidence"] == "EVIDENCE"
    assert statuses["q8-existence-evidence"] == "EVIDENCE"
    assert all(
        s in ("PASS", "EVIDENCE") for s in statuses.values()
    ), statuses


def test_verify_paper_absurd_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "200", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["summary"]["FAIL"] > 0


def test_verify_paper_failure_output_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "0", "--tol", "1e-30")
    assert code == 1

    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")

    payload = json.loads(out, parse_constant=reject)
    assert any(e["metric"] is None for e in payload["entries"])


def test_verify_paper_budget_zero_skips_searches(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--budget", "0")
    assert code == 0
    payload = json.loads(out)
    skipped = [e["claim"] for e in payload["entries"] if e["status"] == "SKIPPED"]
    assert skipped == ["s3-search-evidence", "q8-existence-evidence"]


def test_verify_paper_is_byte_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify-paper", "--budget", "300", "-o", str(p1))
    run_cli(capsys, "verify-paper", "--budget", "300", "-o", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


COMMANDS = {
    "chars": ["chars", "S3"],
    "check": ["check", "missing.json"],
    "construct": ["construct", "zadoff-chu", "12", "1"],
    "search": ["search", "--group", "S3", "--budget", "100"],
    "verify-paper": ["verify-paper", "--budget", "0"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_invalid_tol_is_rejected_before_any_work(capsys, command):
    tols = ("-1", "-1e-3", "-.5E+1", "nan", "-NaN", "inf", "-inf", "-Infinity")
    for tol in tols:
        # the "=" form, the space-separated form and an abbreviated option
        for spelling in ([f"--tol={tol}"], ["--tol", tol], ["--to", tol]):
            code, out, err = run_cli(capsys, *COMMANDS[command], *spelling)
            assert (code, out) == (2, "")
            # one error line, about the tolerance, not the missing check input
            message = f"error: --tol must be a finite non-negative number, got {float(tol)}"
            assert err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv",
    [
        ["chars"],
        ["chars", "S3", "--bogus"],
        ["search", "--group", "S3", "--strategy", "foo"],
        ["construct", "zadoff-chu", "12", "x"],
        ["nosuch"],
    ],
    ids=["missing-positional", "unknown-option", "bad-choice", "bad-int", "unknown-command"],
)
def test_usage_errors_print_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_zero_tol_stays_valid(capsys):
    code, _, err = run_cli(capsys, "chars", "S3", "--tol", "0")
    assert (code, err) == (0, "")


def test_csv_rejected_outside_chars(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify-paper", "--budget", "0", "--format", "csv")
    assert code == 2
    assert "chars" in err


def test_every_claim_appears_once(capsys):
    _, out, _ = run_cli(capsys, "verify-paper", "--budget", "0")
    claims = [e["claim"] for e in json.loads(out)["entries"]]
    assert len(claims) == len(set(claims)) == 12


#: Runs chars, construct and check in one fresh interpreter, then prints the
#: exit codes and which of two slow-to-import numpy modules got loaded.
_COLD_RUN = """
import contextlib, io, sys
from bentgroups.cli import main
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["chars", "Z64"]), main(["construct", "zadoff-chu", "64", "5", "-o", path]),
             main(["check", path])]
print(codes, [name for name in ("numpy.random", "numpy.ma") if name in sys.modules])
"""


def test_cold_commands_leave_numpy_random_and_ma_unimported(tmp_path):
    """Their first import costs a fresh process tens of milliseconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(tmp_path / "z64.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0] []\n"
