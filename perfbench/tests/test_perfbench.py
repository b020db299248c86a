"""Tests for the benchmark's own code: generator, checker and span arithmetic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from perfbench import checks, gen, tracing

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_is_deterministic_per_seed(seed):
    assert gen.cli_fresh_cycle(seed, 3) == gen.cli_fresh_cycle(seed, 3)
    assert gen.paper_requests(seed, 9) == gen.paper_requests(seed, 9)
    assert gen.search_requests(seed, 9) == gen.search_requests(seed, 9)
    first = gen.request_hash(sum(gen.cli_fresh_cycle(seed, 0), []))
    assert first == gen.request_hash(sum(gen.cli_fresh_cycle(seed, 0), []))
    assert first != gen.request_hash(sum(gen.cli_fresh_cycle(seed + 1, 0), []))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_no_label_repeats_within_a_cli_fresh_process(seed):
    for cycle in range(12):
        for session in gen.cli_fresh_cycle(seed, cycle):
            labels = [req["label"] for req in session if req["label"]]
            assert len(labels) == len(set(labels)), labels


def test_cli_fresh_cycle_mix_and_coverage():
    kinds, subs, labels = Counter(), Counter(), set()
    for cycle in range(14):
        sessions = gen.cli_fresh_cycle(5, cycle)
        assert [len(s) for s in sessions] == [16, 16, 16]
        reqs = sum(sessions, [])
        assert Counter(r["kind"] for r in reqs) == {"check": 24, "construct": 16, "chars": 8}
        kinds.update(r["kind"] for r in reqs)
        subs.update(r["sub"] for r in reqs)
        labels.update(r["label"] for r in reqs if r["label"])
    assert set(gen.MALFORMED) <= set(subs)
    assert set(gen.NAMED) <= labels
    assert any("x" in label for label in labels)
    orders = {gen.label_classes(label)[0] for label in labels}
    assert min(orders) == 2 and max(orders) > 400


def test_generator_never_imports_the_program():
    code = (
        "import sys; from perfbench import gen; gen.cli_fresh_cycle(0, 0); "
        "gen.paper_requests(0, 4); gen.search_requests(0, 4); "
        "print(any(m.startswith('bentgroups') for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_self_times_on_a_synthetic_span_tree():
    # cli.main [0, 10] -> ledger.a [1, 7] -> groups.b [2, 3], groups.c [4, 6]
    #                  -> groups.d [8, 9.5]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["ledger.a", 1.0, 7.0, 0, 0],
        ["groups.b", 2.0, 3.0, 1, 0],
        ["groups.c", 4.0, 6.0, 1, 0],
        ["groups.d", 8.0, 9.5, 0, 0],
    ]
    assert tracing.self_times(spans) == [2.5, 3.0, 1.0, 2.0, 1.5]
    summary = tracing.layer_summary(spans)
    assert summary["cli"] == {"self_s": 2.5, "calls": 1}
    assert summary["ledger"] == {"self_s": 3.0, "calls": 1}
    assert summary["groups"] == {"self_s": 4.5, "calls": 3}
    assert sum(row["self_s"] for row in summary.values()) == 10.0


def _check_request(sub="random-phase", verdict="NOT_BENT", rc=1):
    return {
        "id": "t0", "kind": "check", "sub": sub, "label": "Z4",
        "argv": ["check", "in/t0.json"],
        "expect": {"rc": rc, "group": "Z4", "n": 4, "verdict": verdict},
    }


def _check_stdout(verdict):
    return (
        '{"group": "Z4", "verdict": "%s", "max_residual": 1.0, '
        '"residuals": [[0, 0], [0, 0], [0, 0]]}' % verdict
    )


def test_checker_counts_wrong_verdict_and_escaped_exception():
    tally = checks.Tally()
    req = _check_request()
    good = {"rc": 1, "exc": None, "stdout": _check_stdout("NOT_BENT"), "stderr": ""}
    wrong = dict(good, stdout=_check_stdout("NOT_UNIMODULAR"))
    escaped = {"rc": None, "exc": "KeyError: 'x'", "stdout": "", "stderr": ""}
    for outcome in (good, wrong, escaped):
        tally.add(req, outcome, checks.check_op(req, outcome))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failures == {"check/random-phase": 2}
    assert len(tally.unexpected) == 2 and not tally.known


def test_checker_separates_known_defects_from_new_failures():
    tally = checks.Tally()
    data_int = _check_request(sub="malformed-data-int", rc=2)
    escaped = {"rc": None, "exc": "TypeError: object of type 'int' has no len()",
               "stdout": "", "stderr": ""}
    nan = _check_request(sub="malformed-nan", rc=2)
    nan_out = {"rc": 1, "exc": None, "stdout": '{"max_residual": NaN}', "stderr": ""}
    fixed = {"rc": 2, "exc": None, "stdout": "", "stderr": "error: bad data\n"}
    for req, outcome in ((data_int, escaped), (nan, nan_out), (nan, fixed)):
        tally.add(req, outcome, checks.check_op(req, outcome))
    assert tally.failed == 2
    assert tally.known == {"escaped-typeerror": 1, "non-finite-json": 1}
    assert not tally.unexpected


def test_strict_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        checks.strict_json('{"x": NaN}')
    assert checks.strict_json('{"x": 1.5}') == {"x": 1.5}


def test_calibrated_times_scale_by_the_samples_around_each_op():
    from perfbench import run

    ref = run.CALIBRATION_REF_S
    result = {
        "calibration": [ref, 2 * ref, 2 * ref],
        "ops": [{"seconds": 3.0, "calibration": 0}, {"seconds": 4.0, "calibration": 1}],
    }
    assert run.calibrated(result) == pytest.approx([2.0, 2.0])


def test_tail_percentile_is_a_measured_sample_with_its_count_beyond():
    from perfbench import run

    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == (90.0, 10)
    assert run.percentile(values[:40], 70) == (28.0, 12)
