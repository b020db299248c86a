"""Benchmark for the bentgroups CLI: one closed-loop client, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {paper,cli-fresh,search} \\
        --seed N --seconds S --trace {0,1}

The client drives ``bentgroups.cli.main(argv)`` in-process, in a fresh
worker interpreter, with stdout captured.  It sends the next op only after
the previous one returned, runs no threads, and pins BLAS to one thread.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, untraced and then traced in fresh processes, checks that the two
stdouts are byte-identical and reports the per-layer metrics.  Every op's
output is checked outside the timed interval; see ``perfbench/checks.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workloads:

``paper``
    ``verify-paper --budget 2000`` over eight seeds derived from ``--seed``.
``cli-fresh``
    single ``check``, ``construct`` and ``chars`` commands on orders 2..512,
    16 to a fresh process, no group label twice in one process.
``search``
    ``search --budget 100000`` on S3, Q8 and D4, both strategies.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, gen  # noqa: E402
from perfbench.tracing import LAYERS  # noqa: E402

SRC = ROOT / "src"
#: Fresh interpreters started to time ``import bentgroups.cli``, half before
#: and half after the ops, since start-up time shifts in spells of seconds;
#: the median counts.
SETUP_PROBES = 12
#: Time for a fresh interpreter to import numpy on the reference machine.
SETUP_REF_S = 0.11
#: Tail percentile per workload, fixed so runs stay comparable: a round one
#: that leaves at least ten samples beyond it in every baseline run, with room
#: for slower runs.  On cli-fresh the top 2-3% are the few chars commands on
#: orders 128..512, whose times swing with their orders, so p95 is used there
#: (perfbench/baseline.json gives the sample counts).
TAIL_PERCENTILE = {"paper": 70, "cli-fresh": 95, "search": 85}
#: More ops per second than any run finishes; sizes the paper and search op lists.
MAX_OPS_PER_S = 1000
#: In a traced run, the untraced pass takes this share of ``--seconds``.
TRACE_SHARE = 0.4
WORKER_TIMEOUT_S = 170
#: Time of ``worker.calibrate`` on the reference machine.  Every reported op
#: time is a measured time times this over the calibration time measured
#: around it, so that drift in the host's speed between and within runs cancels.
CALIBRATION_REF_S = 0.0045


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _time_to_import(env: dict, module: str) -> float:
    """Seconds from starting an interpreter until ``import <module>`` returns."""
    probe = f"import {module}, time; print(repr(time.monotonic()))"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(proc.stdout) - start


def setup_samples(env: dict, count: int) -> list[tuple[float, float]]:
    """(calibrated, raw) times to ``import bentgroups.cli`` in a fresh interpreter.

    On a shared virtual machine, start-up time can shift by half within
    seconds, and the calibration loops do not follow it.  A fresh interpreter
    that imports only numpy does: on a 2-vCPU Intel Xeon VM with Python 3.11
    the ratio of the two stayed within 4% while both moved by 70%.  So each
    probe is paired with a numpy-only probe and scaled by ``SETUP_REF_S``
    over that probe's time.
    """
    samples = []
    for _ in range(count):
        raw = _time_to_import(env, "bentgroups.cli")
        samples.append((raw * SETUP_REF_S / _time_to_import(env, "numpy"), raw))
    return samples


def calibrated(result: dict) -> list[float]:
    """Each op's seconds scaled by the calibration samples taken before and after it."""
    cal = result["calibration"]
    return [
        rec["seconds"] * 2 * CALIBRATION_REF_S / (cal[rec["calibration"]] + cal[rec["calibration"] + 1])
        for rec in result["ops"]
    ]


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


class Run:
    """One benchmark run: its working directory, its worker processes and its tally."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = _env()
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        self.spans_path = ROOT / ".perfbench_out" / f"spans-{workload}.jsonl"
        self.request_hash = ""
        self.tally = checks.Tally()
        self.first_sha: dict[tuple, str] = {}
        self.search_evals = 0
        self.search_seconds = 0.0
        self.spent = 0.0  # calibrated op-seconds so far

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def worker(self, tag: str, requests: list[dict], seconds: float | None, trace: bool) -> dict:
        """Run ``requests`` in a fresh worker; returns its result record."""
        stdout_dir = None if trace else self.work / f"{tag}.stdout"
        if stdout_dir:
            stdout_dir.mkdir()
        job = {
            "ops": [r["argv"] for r in requests],
            "seconds": seconds,
            "calibration_ref": CALIBRATION_REF_S,
            "src": str(SRC),
            "stdout_dir": stdout_dir and str(stdout_dir),
            "trace": trace,
            "spans_path": str(self.spans_path),
        }
        job_path = self.work / f"{tag}.job.json"
        result_path = self.work / f"{tag}.result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", str(job_path), str(result_path)],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {tag} timed out after {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["stdout_dir"] = stdout_dir
        result["calibrated"] = calibrated(result)
        return result

    def check(self, requests: list[dict], plain: dict, traced: dict | None) -> None:
        """Check every op of an untraced worker, then drop its outputs.

        With ``traced`` given, an op whose traced stdout differs also fails.
        """
        stdout_dir = plain["stdout_dir"]
        for i, (req, rec) in enumerate(zip(requests, plain["ops"])):
            outcome = dict(rec, stdout=(stdout_dir / f"{i}.txt").read_text(encoding="utf-8"))
            reasons = checks.check_op(req, outcome, self._read)
            if req["kind"] in ("verify-paper", "search"):
                first = self.first_sha.setdefault(tuple(req["argv"]), rec["sha"])
                if first != rec["sha"]:
                    reasons.append("stdout differs from an earlier run of the same command")
            if traced is not None and traced["ops"][i]["sha"] != rec["sha"]:
                reasons.append("stdout differs between the untraced and traced runs")
            if req["kind"] == "search" and not reasons:
                self.search_evals += checks.strict_json(outcome["stdout"])["evaluations"]
                self.search_seconds += plain["calibrated"][i]
            self.tally.add(req, outcome, reasons)
        shutil.rmtree(stdout_dir)
        for req in requests:
            for name in (req.get("file", {}).get("name"), req["expect"].get("output")):
                if name:
                    (self.work / name).unlink(missing_ok=True)

    def _read(self, name: str) -> str | None:
        path = self.work / name
        return path.read_text(encoding="utf-8") if path.is_file() else None

    def sessions(self, budget: float):
        """(tag, requests, seconds bound) for each worker until ``budget`` calibrated op-seconds pass."""
        if self.workload != "cli-fresh":
            make = gen.paper_requests if self.workload == "paper" else gen.search_requests
            yield "w", make(self.seed, int(budget * MAX_OPS_PER_S) + 24), budget
            return
        cycle = 0
        while True:
            for s, session in enumerate(gen.cli_fresh_cycle(self.seed, cycle)):
                gen.write_inputs(session, self.work)
                yield f"c{cycle}.{s}", session, None
            cycle += 1
            if self.spent >= budget:
                return

    def measure(self, trace: bool) -> dict:
        """Run the workload; returns calibrated latencies and, when traced, layer totals."""
        agg = {
            "latencies": [], "raw": [], "maxrss_kb": 0, "traced_s": 0.0, "roots_s": 0.0,
            "bytes": 0, "counts": Counter(), "spans": 0,
            "layers": {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS},
        }
        if trace:
            self.spans_path.parent.mkdir(exist_ok=True)
            self.spans_path.write_text("")
        budget = self.seconds * (TRACE_SHARE if trace else 1.0)
        for tag, requests, bound in self.sessions(budget):
            plain = self.worker(tag, requests, bound, trace=False)
            done = requests[: len(plain["ops"])]
            self.request_hash = gen.request_hash(done, self.request_hash)
            agg["raw"] += [rec["seconds"] for rec in plain["ops"]]
            self.spent += sum(plain["calibrated"])
            agg["latencies"] += plain["calibrated"]
            agg["maxrss_kb"] = max(agg["maxrss_kb"], plain["maxrss_kb"])
            traced = None
            if trace:
                traced = self.worker(tag + ".t", done, None, trace=True)
                self._merge_trace(agg, traced)
            self.check(done, plain, traced)
        return agg

    @staticmethod
    def _merge_trace(agg: dict, traced: dict) -> None:
        """Add a traced worker's ops to the totals, each time calibrated like its op."""
        for rec, seconds in zip(traced["ops"], traced["calibrated"]):
            scale = seconds / rec["seconds"]
            agg["traced_s"] += seconds
            agg["roots_s"] += rec["root_s"] * scale
            agg["bytes"] += rec["bytes"]
            agg["spans"] += rec["spans"]
            for layer, row in rec["layers"].items():
                agg["layers"][layer]["self_s"] += row["self_s"] * scale
                agg["layers"][layer]["calls"] += row["calls"]
        agg["counts"].update(traced["counts"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _timings(latencies: list[float], p: float) -> dict:
    tail, beyond = percentile(latencies, p)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_samples_beyond": beyond,
    }


def end_to_end(run: Run, agg: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    p = TAIL_PERCENTILE[run.workload]
    timings = _timings(agg["latencies"], p)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "ops_per_s": (timings["ops_per_s"], "op/s"),
        "latency_p50_ms": (timings["latency_p50_ms"], "ms"),
        "latency_tail_ms": (timings["latency_tail_ms"], "ms"),
        "peak_rss_mb": (agg["maxrss_kb"] / 1024, "MB"),
    }
    info = {
        "ops": len(agg["latencies"]),
        "tail_percentile": p,
        "tail_samples_beyond": timings["tail_samples_beyond"],
        "uncalibrated": dict(
            _timings(agg["raw"], p), setup_s=statistics.median(raw for _, raw in setup)
        ),
    }
    return metrics, info


def per_layer(run: Run, agg: dict) -> tuple[dict, dict]:
    ops = len(agg["latencies"])
    plain_s = sum(agg["latencies"])
    layers, counts = agg["layers"], agg["counts"]
    metrics = {f"{layer}.self_s": (layers[layer]["self_s"] / ops, "s") for layer in LAYERS}
    metrics.update({
        "groups.builds": (counts["groups.builds"] / ops, "count"),
        "groups.repeat_share": (_ratio(counts["groups.repeats"], counts["groups.builds"]), "ratio"),
        "characters.tables": (counts["characters.tables"] / ops, "count"),
        "characters.classsum_share": (
            _ratio(counts["characters.classsum"], counts["characters.tables"]), "ratio"),
        "class_functions.calls": (layers["class_functions"]["calls"] / ops, "count"),
        "bentness.checks": (counts["bentness.checks"] / ops, "count"),
        "bentness.directions": (counts["bentness.directions"] / ops, "count"),
        "criteria.calls": (layers["criteria"]["calls"] / ops, "count"),
        "constructions.certified": (counts["constructions.certified"] / ops, "count"),
        "search.evals": (counts["search.evals"] / ops, "count"),
        "search.budget_share": (_ratio(counts["search.evals"], counts["search.budget"]), "ratio"),
        "search.evals_per_s": (_ratio(run.search_evals, run.search_seconds), "eval/s"),
        "cli.bytes_out": (agg["bytes"] / ops, "B"),
        "trace.overhead_share": ((agg["traced_s"] - plain_s) / agg["traced_s"], "ratio"),
    })
    info = {
        "ops": ops,
        "spans": agg["spans"],
        "traced_op_s": agg["traced_s"],
        "layer_self_s": agg["roots_s"],
        "harness_s": agg["traced_s"] - agg["roots_s"],
        "untraced_op_s": plain_s,
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the worker, finally cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "bentgroups" / "cli.py").is_file():
        print(f"error: no bentgroups sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        setup = []
        if not args.trace:
            setup_samples(run.env, 1)  # compile and cache bytecode first
            setup += setup_samples(run.env, SETUP_PROBES // 2)
        agg = run.measure(trace=bool(args.trace))
        if not args.trace:
            setup += setup_samples(run.env, SETUP_PROBES - SETUP_PROBES // 2)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    if args.trace:
        metrics, info = per_layer(run, agg)
    else:
        metrics, info = end_to_end(run, agg, setup)
    tally = run.tally
    info.update({
        "workload": run.workload,
        "seed": run.seed,
        "request_hash": run.request_hash,
        "fail_share": _ratio(tally.failed, tally.attempted),
        "failures_by_kind": dict(tally.failures),
        "known_defects": dict(tally.known),
        "unexpected_failures": tally.unexpected[:20],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_share = {info['fail_share']!r} ratio ({tally.failed} of {tally.attempted} ops)")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
