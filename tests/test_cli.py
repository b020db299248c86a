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

import bentgroups
from bentgroups import (
    SearchConfig,
    SequenceKind,
    Strategy,
    build_ledger,
    character_table,
    class_function_to_json,
    from_coefficients,
    from_values,
    group_from_label,
    is_bent,
    ledger_to_json,
    make_bent_cyclic,
    make_cyclic,
    report_to_json,
    result_to_json,
    run_search,
    save_class_function,
)
from bentgroups import cli
from bentgroups.class_functions import _pairs
from bentgroups.cli import _build_parser, _dumps, main


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


def test_chars_refuses_more_than_32_factors(capsys):
    """Each factor is an array axis, and numpy 1.x arrays have at most 32."""
    code, out, _ = run_cli(capsys, "chars", "x".join(["Z2"] + ["Z1"] * 30 + ["Z2"]))
    assert code == 0 and json.loads(out)["order"] == 4
    code, out, err = run_cli(capsys, "chars", "x".join(["Z2"] + ["Z1"] * 31 + ["Z2"]))
    assert (code, out, err) == (2, "", "error: at most 32 cyclic factors are supported, got 33\n")


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
        [[True, False], [0.5, 0.0], [0.5, 0.0]],
        [[1, 0], [0, True], [0, 0]],
    ],
    ids=["int", "ragged", "nan", "1e308", "bool-among-floats", "bool-among-ints"],
)
def test_check_malformed_data_exits_2(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "Z3", "basis": "coefficients", "data": data}))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"group": "Z2", "basis": "coefficients", "data": []},
         "expected 2 coefficients for Z2, got shape (0,)"),
        ({"group": "Z2", "data": [[1, 0], [0, 0]]}, "malformed class-function JSON: missing key 'basis'"),
        ({"group": "Z2", "basis": "sideways", "data": "junk"},
         "unknown basis 'sideways'; expected 'coefficients' or 'pointwise'"),
    ],
    ids=["empty-data", "missing-basis", "basis-before-data"],
)
def test_check_reports_the_first_fault_of_the_file(capsys, tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("payload", [[1, 2], "Z3", None])
def test_check_non_object_json_exits_2(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: class-function JSON must be an object, got {type(payload).__name__}"
    ]


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


def test_check_prints_the_slack_that_decides_a_pointwise_verdict(capsys, tmp_path):
    """On an S3 file 5e-10 off its class means, ``max_residual + slack`` against
    ``order * tol`` gives the verdict: at a tol between the two sums the printed
    residual alone would pass, and the verdict does not."""
    table = character_table(group_from_label("S3"))
    values = np.exp(2j * np.pi * np.arange(1, 4) / 7)[table.group.class_of]
    values[[1, 5]] += 5e-10
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"group": "S3", "basis": "pointwise", "data": _pairs(values)}))
    _, out, _ = run_cli(capsys, "check", str(path))
    report = json.loads(out)
    assert list(report)[2:4] == ["max_residual", "slack"]
    residual, slack = report["max_residual"], report["slack"]
    assert 0 < slack < 6 * 1e-8
    between = (residual + slack / 2) / 6  # max_residual <= 6 tol < max_residual + slack
    for tol, verdict, exit_code in ((between, "NOT_BENT", 1), ((residual + 2 * slack) / 6, "BENT", 0)):
        code, out, _ = run_cli(capsys, "--tol", repr(tol), "check", str(path))
        report = json.loads(out)
        assert code == exit_code and report["verdict"] == verdict
        assert report["max_residual"] == residual and report["slack"] == slack
        assert report["max_residual"] <= 6 * tol
    save_class_function(from_coefficients(table, from_values(table, values).coefficients), str(path))
    _, out, _ = run_cli(capsys, "check", str(path))
    assert json.loads(out)["slack"] == 0.0


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


def test_construct_chirp_rejects_a_root(capsys, tmp_path):
    path = tmp_path / "f.json"
    code, out, err = run_cli(capsys, "construct", "chirp", "5", "5", "-o", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: construct chirp takes no root, got 5"]
    assert not path.exists()


def test_construct_zadoff_chu_root_defaults_to_one(capsys):
    assert run_cli(capsys, "construct", "zadoff-chu", "8") == run_cli(
        capsys, "construct", "zadoff-chu", "8", "1"
    )


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


def test_verify_paper_negative_budget_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--budget", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: budget must be non-negative, got -3\n"


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
            # after the command and before it
            for argv in (COMMANDS[command] + spelling, spelling + COMMANDS[command]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, "")
                # one error line, about the tolerance, not the missing check input
                message = f"error: --tol must be a finite non-negative number, got {float(tol)}"
                assert err.splitlines() == [message]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_negative_seed_is_rejected_before_any_work(capsys, command):
    for seed in ("-1", "-5"):
        for spelling in ([f"--seed={seed}"], ["--seed", seed]):
            for argv in (COMMANDS[command] + spelling, spelling + COMMANDS[command]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, "")
                assert err.splitlines() == [
                    f"error: --seed must be a non-negative integer, got {seed}"
                ]


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


def test_csv_rejected_outside_chars(capsys):
    for command in ("check", "construct", "search", "verify-paper"):
        for argv in (COMMANDS[command] + ["--format", "csv"],
                     ["--format", "csv"] + COMMANDS[command]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.splitlines() == ["error: csv output is only available for the chars command"]


def test_every_claim_appears_once(capsys):
    _, out, _ = run_cli(capsys, "verify-paper", "--budget", "0")
    claims = [e["claim"] for e in json.loads(out)["entries"]]
    assert len(claims) == len(set(claims)) == 12


def _src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


#: Runs chars, construct and check in one fresh interpreter, then prints the
#: exit codes and which of two slow-to-import numpy modules got loaded.
_COLD_RUN = """
import contextlib, io, sys
from bentgroups.cli import _build_parser, main
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["chars", "Z64"]), main(["construct", "zadoff-chu", "64", "5", "-o", path]),
             main(["check", path])]
print(codes, [name for name in ("numpy.random", "numpy.ma") if name in sys.modules])
"""


def test_cold_commands_leave_numpy_random_and_ma_unimported(tmp_path):
    """Their first import costs a fresh process tens of milliseconds."""
    result = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(tmp_path / "z64.json")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0] []\n"


#: Runs construct, check and chars (JSON and CSV) in one fresh interpreter,
#: printing the exit codes and which of the lazily loaded modules has run;
#: then the same after search and verify-paper.
_LAZY_RUN = """
import contextlib, io, sys, types
import bentgroups.cli
from bentgroups.cli import main
def executed():
    return [name for name in ("criteria", "ledger", "search")
            if type(sys.modules[f"bentgroups.{name}"]) is types.ModuleType]
path = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["construct", "zadoff-chu", "64", "5", "-o", path]), main(["check", path]),
             main(["chars", "Z6"]), main(["chars", "Z6", "--format", "csv"])]
print(codes, executed())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["search", "--group", "S3", "--budget", "50"]), main(["verify-paper", "--budget", "0"])]
print(codes, executed())
"""


def test_cold_commands_run_no_criteria_ledger_or_search_code(tmp_path):
    """``import bentgroups.cli`` registers the three modules in ``sys.modules``
    unexecuted, and search and verify-paper load them when they run."""
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_RUN, str(tmp_path / "z64.json")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0] []\n[0, 0] ['criteria', 'ledger', 'search']\n"


def test_csv_search_is_rejected_before_criteria_ledger_or_search_run():
    run = ("import contextlib, io, sys, types\nfrom bentgroups.cli import main\n"
           "with contextlib.redirect_stderr(io.StringIO()):\n"
           "    code = main(['--format', 'csv', 'search', '--group', 'S3', '--budget', '10'])\n"
           "print(code, [name for name in ('criteria', 'ledger', 'search')\n"
           "             if type(sys.modules[f'bentgroups.{name}']) is types.ModuleType])")
    result = subprocess.run([sys.executable, "-c", run], env=_src_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "2 []\n"


def test_private_and_dunder_lookups_on_the_package_run_no_lazy_module():
    """Only public names can be lazy ones, so ``hasattr`` on a dunder that a
    tool probes, or on a private name, must not run criteria, ledger or search."""
    run = ("import sys, types\nimport bentgroups\n"
           "print(hasattr(bentgroups, '__wrapped__'), hasattr(bentgroups, '_no_such_name'),\n"
           "      [name for name in ('criteria', 'ledger', 'search')\n"
           "       if type(sys.modules[f'bentgroups.{name}']) is types.ModuleType])")
    result = subprocess.run([sys.executable, "-c", run], env=_src_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False []\n"


def test_importing_cli_by_name_runs_no_criteria_ledger_or_search_code():
    """``from bentgroups import cli`` asks the package for ``cli`` before it
    imports the submodule; that lookup must not run the lazily loaded modules."""
    run = ("import sys, types\nfrom bentgroups import cli\n"
           "print([name for name in ('criteria', 'ledger', 'search')\n"
           "       if type(sys.modules[f'bentgroups.{name}']) is types.ModuleType])")
    result = subprocess.run([sys.executable, "-c", run], env=_src_env(), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


#: The names ``from bentgroups import *`` bound while every submodule loaded on
#: import, by the submodule that defines each.
STAR_NAMES = {
    "bentness": "BENT NOT_BENT NOT_UNIMODULAR BentReport derivative_sum derivative_sums is_bent "
                "is_bent_spectral oracle_verdicts report_to_json spectrum",
    "characters": "CharacterTable OrthogonalityReport character_table table_to_csv table_to_json "
                  "verify_orthogonality",
    "class_functions": "ClassFunction class_function_from_json class_function_to_json "
                       "from_coefficients from_values is_unimodular load_class_function "
                       "save_class_function",
    "constructions": "CertifiedFunction SequenceKind character_twist global_phase make_bent_cyclic "
                     "quadratic_chirp translate zadoff_chu",
    "criteria": "CriterionOutcome ImpossibilityCertificate abelian_magnitude_necessary "
                "cyclic_criterion cyclic_lag_sums cyclic_satisfied impossibility_certificate "
                "klein_criterion q8_equation_residuals solve_magnitude_system solve_q8_system",
    "errors": "CapabilityError ConstructionError NumericDegeneracyError",
    "groups": "CATALOG Group MAX_ORDER element_order group_from_json group_from_label "
              "group_to_json inverse make_abelian make_cyclic make_named multiply",
    "ledger": "LedgerEntry PaperLedger build_ledger ledger_to_json",
    "search": "SearchConfig SearchResult Strategy objective result_to_json run_search",
}


def test_star_import_binds_each_submodules_own_objects():
    namespace = {}
    exec("from bentgroups import *", namespace)
    del namespace["__builtins__"]
    want = {}
    for module, names in STAR_NAMES.items():
        submodule = sys.modules[f"bentgroups.{module}"]
        want[module] = submodule
        want.update({name: getattr(submodule, name) for name in names.split()})
    assert len(want) == 78
    assert namespace.keys() == want.keys()
    assert all(namespace[name] is obj for name, obj in want.items())


def test_no_name_is_exported_by_two_submodules():
    """A second star import of one name would silently rebind it."""
    exported = [name for module in STAR_NAMES
                for name in sys.modules[f"bentgroups.{module}"].__all__]
    assert len(exported) == len(set(exported))


@pytest.mark.parametrize(
    "module", ["bentness", "characters", "class_functions", "constructions", "errors", "groups"]
)
def test_package_binds_each_eager_submodules_all_to_its_own_objects(module):
    submodule = sys.modules[f"bentgroups.{module}"]
    assert all(getattr(bentgroups, name) is getattr(submodule, name)
               for name in submodule.__all__)


@pytest.mark.parametrize("argv", [[], ["search"], ["construct"], ["verify-paper"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 0
    assert out.startswith("usage: bentgroups") and err == ""
    if argv == ["search"]:
        assert "{random,random+local}" in out
    if argv == ["construct"]:
        assert "{zadoff-chu,chirp}" in out


def test_parser_literals_match_search_and_ledger():
    """The parser spells out the strategies and the ledger's budget, so that
    building it loads neither module."""
    from bentgroups import Strategy, ledger

    subcommands = next(
        action for action in _build_parser()._actions if action.dest == "command"
    ).choices
    strategy = next(a for a in subcommands["search"]._actions if a.dest == "strategy")
    assert list(strategy.choices) == [s.value for s in Strategy]
    assert Strategy(strategy.default) is Strategy.RANDOM_PLUS_LOCAL
    assert _build_parser().parse_args(["verify-paper"]).budget == ledger.DEFAULT_BUDGET


#: Runs construct, check of its file as coefficients and as pointwise values,
#: and chars in one fresh interpreter, printing the exit codes and the factor
#: tuples whose Cayley table got built; then reads one table to show the hook.
_TABLE_FREE_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from bentgroups import groups
from bentgroups.cli import main
built, build = [], groups._abelian_cayley
groups._abelian_cayley = lambda factors: built.append(factors) or build(factors)
coefficients, pointwise = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["construct", "zadoff-chu", "469", "3", "-o", coefficients])]
    f = json.loads(Path(coefficients).read_text())
    Path(pointwise).write_text(json.dumps({"group": f["group"], "basis": "pointwise", "data": f["values"]}))
    codes += [main(["check", coefficients]), main(["check", pointwise]), main(["chars", "Z2xZ4xZ64"])]
print(codes, built)
groups.make_cyclic(469).cayley
print(built)
"""


def test_cold_abelian_commands_never_build_a_cayley_table(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _TABLE_FREE_RUN, str(tmp_path / "c.json"), str(tmp_path / "p.json")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0] []\n[(469,)]\n"


#: Runs construct, the checks of its file as coefficients and as pointwise
#: values, and the check of a bent coefficient file on Z2xZ4xZ64, a product of
#: Zadoff-Chu functions on its factors, in one fresh interpreter; prints the
#: exit codes, the factor tuples whose root exponents got built and the groups
#: whose roots got checked.  Then prints the same after the JSON of Z512's
#: table, and whether that built the table's values, and after reading one
#: table's values, to show the hooks.
_VALUE_FREE_RUN = """
import contextlib, io, json, math, sys
from pathlib import Path
import numpy as np
from bentgroups import characters, make_cyclic, zadoff_chu
from bentgroups.cli import main
built, build = [], characters._exponents
characters._exponents = lambda factors: built.append(factors) or build(factors)
checked, check = [], characters._checked_roots
characters._checked_roots = lambda group: checked.append(group.name) or check(group)
coefficients, pointwise, product = sys.argv[1:]
a = np.ones(1)
for m in (2, 4, 64):
    a = np.kron(a, zadoff_chu(m, 1) / math.sqrt(m))
data = a.view(float).reshape(-1, 2).tolist()
Path(product).write_text(json.dumps({"group": "Z2xZ4xZ64", "basis": "coefficients", "data": data}))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["construct", "zadoff-chu", "469", "3", "-o", coefficients])]
    f = json.loads(Path(coefficients).read_text())
    Path(pointwise).write_text(json.dumps({"group": f["group"], "basis": "pointwise", "data": f["values"]}))
    codes += [main(["check", path]) for path in (coefficients, pointwise, product)]
print(codes, built, checked)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["chars", "Z512"])
table = characters.character_table(make_cyclic(512))
print(code, built, checked, table._class_values is None and "phi" not in vars(table))
characters.character_table(make_cyclic(469)).phi
print(built, checked)
"""


def test_cold_fft_sized_commands_never_build_character_values(tmp_path):
    paths = [str(tmp_path / name) for name in ("c.json", "p.json", "z2xz4xz64.json")]
    result = subprocess.run(
        [sys.executable, "-c", _VALUE_FREE_RUN, *paths],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "[0, 0, 0, 0] [] []\n"
        "0 [(512,)] ['Z512'] True\n"
        "[(512,), (469,)] ['Z512', 'Z469']\n"
    )


#: (command, global flags); "{out}" is replaced by an output path and "{in}"
#: by a bent class-function file.
GLOBAL_FLAG_RUNS = {
    "chars-csv": (["chars", "Z6"], ["--format", "csv", "--seed", "3"]),
    "chars-output": (["chars", "S3"], ["--tol", "0", "-o", "{out}"]),
    "check": (["check", "{in}"], ["--tol", "1e-3"]),
    "construct": (["construct", "zadoff-chu", "8", "3"], ["--tol=1e-12", "-o", "{out}"]),
    "search": (["search", "--group", "S3", "--budget", "100"], ["--seed", "2", "--tol", "1e-6"]),
    "verify-paper": (["verify-paper", "--budget", "0"], ["--seed", "1", "--format", "json"]),
    "csv-rejected": (["verify-paper", "--budget", "0"], ["--format", "csv"]),
}


@pytest.mark.parametrize("run", sorted(GLOBAL_FLAG_RUNS))
def test_global_flags_work_before_and_after_the_command(capsys, tmp_path, run):
    bent = tmp_path / "bent.json"
    assert run_cli(capsys, "construct", "zadoff-chu", "5", "2", "-o", str(bent))[0] == 0
    command, flags = GLOBAL_FLAG_RUNS[run]

    def outcome(argv, out_path):
        argv = [a.replace("{out}", str(out_path)).replace("{in}", str(bent)) for a in argv]
        return run_cli(capsys, *argv), out_path.read_bytes() if out_path.exists() else None

    after = outcome(command + flags, tmp_path / "after.out")
    assert outcome(flags + command, tmp_path / "before.out") == after


def test_a_global_flag_after_the_command_wins(capsys, tmp_path):
    search = ["search", "--group", "S3", "--budget", "100"]
    assert run_cli(capsys, "--seed", "1", *search, "--seed", "2") == run_cli(
        capsys, *search, "--seed", "2"
    )
    assert run_cli(capsys, "--seed", "1", *search)[1] != run_cli(capsys, *search)[1]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, out, _ = run_cli(capsys, "-o", str(first), "chars", "Z2", "-o", str(second))
    assert code == 0 and not first.exists()
    assert second.read_text(encoding="utf-8") == out


def _fresh_cli(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    result = subprocess.run(
        [sys.executable, "-m", "bentgroups.cli", *argv],
        cwd=cwd, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def test_reusing_the_parser_gives_the_same_results(capsys, monkeypatch, tmp_path):
    """The parser is built once per process; every call must behave as the first."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "construct", "zadoff-chu", "7", "3", "-o", "bent.json")[0] == 0
    sequence = {
        "usage-error": ["chars", "S3", "--bogus"],
        "bad-tol": ["--tol=-1", "chars", "S3"],
        "chars": ["chars", "Z12", "--format", "csv"],
        "check": ["check", "bent.json"],
        "construct": ["construct", "zadoff-chu", "9", "2", "-o", "made.json"],
        "search": ["search", "--group", "S3", "--budget", "3000", "--seed", "4"],
        "verify-paper": ["verify-paper", "--budget", "0"],
    }
    runs = []
    for _ in range(2):
        results = {name: run_cli(capsys, *argv) for name, argv in sequence.items()}
        results["made.json"] = Path("made.json").read_bytes()
        Path("made.json").unlink()
        runs.append(results)
    assert runs[0] == runs[1]
    assert runs[0]["usage-error"][0] == runs[0]["bad-tol"][0] == 2
    for name in ("chars", "construct"):
        assert _fresh_cli(sequence[name], tmp_path) == runs[0][name]
    assert Path("made.json").read_bytes() == runs[0]["made.json"]
    assert _build_parser() is _build_parser()


# ---------------------------------------------------------------------------
# the JSON writer against the json module's indent=2 encoder


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def construct_payload(kind: str, n: int, root: int | None = None) -> dict:
    certified = make_bent_cyclic(SequenceKind(kind), n, root)
    payload = class_function_to_json(certified.function)
    payload["report"] = report_to_json(certified.report)
    return payload


def check_payload(label: str, seed: int, scale: float = 1.0) -> dict:
    table = character_table(group_from_label(label))
    rng = np.random.default_rng(seed)
    values = scale * np.exp(2j * np.pi * rng.random(table.group.order))[table.group.class_of]
    return report_to_json(is_bent(from_values(table, values)))


WRITER_PAYLOADS = {
    "construct-z1": lambda: construct_payload("zadoff-chu", 1),
    "construct-z12-root5": lambda: construct_payload("zadoff-chu", 12, 5),
    "construct-z64-root3": lambda: construct_payload("zadoff-chu", 64, 3),
    "construct-chirp-z9": lambda: construct_payload("chirp", 9),
    "construct-z469-root2": lambda: construct_payload("zadoff-chu", 469, 2),
    "check-bent-z64": lambda: construct_payload("zadoff-chu", 64)["report"],
    "check-random-s3": lambda: check_payload("S3", 1),
    "check-random-z2xz4": lambda: check_payload("Z2xZ4", 2),
    "check-non-unimodular-q8": lambda: check_payload("Q8", 3, scale=2.0),
    "search-s3": lambda: result_to_json(run_search(SearchConfig(group="S3", budget=2000, seed=1))),
    "search-q8-random": lambda: result_to_json(
        run_search(SearchConfig(group="Q8", budget=2000, seed=2, strategy=Strategy.RANDOM))
    ),
    "search-z4": lambda: result_to_json(run_search(SearchConfig(group="Z4", budget=2000, seed=0))),
    "verify-paper": lambda: ledger_to_json(build_ledger(budget=300)),
    "edge-values": lambda: {
        "floats": [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 123456789.0],
        "pairs": [[-0.0, 5e-324], [1e308, -0.0], [0.5, -2.5]],
        "not pairs": [[1.0, 2], [1.0], [1.0, 2.0, 3.0], [True, 1.0], (1.0, 2.0)],
        "empty": [[], {}, [[]], [{}]],
        "nested": {"a": {"b": {"c": [1, [2, [3.5]]]}}},
        "strings": ["", "ascii", "\u00e9\u00fc \u2603 \U0001d11e", "quote \" backslash \\ tab \t nl \n"],
        "scalars": [None, True, False, 0, -7, 10**30],
        "numpy floats": [np.float64(1.5), [np.float64(-0.0), 2.0]],
        "pairs of numpy floats": [[np.float64(0.5), np.float64(-0.0)]],
        "pairs with a bool": [[1.0, True], [0.5, 0.5]],
        "pairs with a str": [[1.0, "x"]],
        "\u00e9t\u00e9": "non-ASCII key",
    },
    "empty-dict": dict,
    "empty-list": list,
    "shared-values": lambda: shared_payload([[0.5, -0.0], [1e308, 5e-324]]),
}


def shared_payload(pairs: list) -> dict:
    """One list under two keys of one dict and again one level deeper."""
    return {"data": pairs, "coefficients": pairs, "nested": {"values": pairs}}


@pytest.mark.parametrize("name", sorted(WRITER_PAYLOADS))
def test_writer_is_byte_identical_to_json_dumps(name):
    obj = WRITER_PAYLOADS[name]()
    assert _dumps(obj) == json_text(obj)


def test_writer_renders_a_value_that_keys_share_once(monkeypatch):
    payload = construct_payload("zadoff-chu", 469, 3)
    assert payload["data"] is payload["coefficients"]
    encode, calls = cli._encode, []
    monkeypatch.setattr(cli, "_encode", lambda obj, pad: calls.append(id(obj)) or encode(obj, pad))
    assert _dumps(payload) == json_text(payload)
    assert calls.count(id(payload["data"])) == 1


@pytest.mark.parametrize(
    "obj",
    [
        {"x": [[1.0, math.nan]]},
        {"x": [[0.0, 1.0], [2.0, math.inf], [math.nan, 0.0]]},
        {"x": -math.inf},
        {"x": [1.0, [np.float64(math.nan)]]},
        {"x": np.int64(1)},
        {"x": {1, 2}},
    ],
)
def test_writer_raises_what_json_dumps_raises(obj):
    with pytest.raises((ValueError, TypeError)) as expected:
        json_text(obj)
    with pytest.raises(expected.type) as raised:
        _dumps(obj)
    assert str(raised.value) == str(expected.value)
