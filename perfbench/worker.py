"""Run a list of CLI ops in this fresh interpreter and record each outcome.

Usage: ``python -m perfbench.worker JOB.json RESULT.json``, with the
working directory set to the run's directory.  The job holds ``ops`` (argv
lists for ``bentgroups.cli.main``), ``seconds`` (stop once the ops have
taken this long in calibrated time, or ``null`` to run them all),
``calibration_ref`` (see ``calibrate``), ``src`` (the directory
``bentgroups`` must be imported from), ``stdout_dir`` (where each op's
stdout goes, or ``null``), ``trace`` (record spans) and ``spans_path``
(where to append the spans).

Each op runs in-process with stdout and stderr captured.  Only the
``main`` call is timed.  Between ops, outside the timed interval, the
worker writes the op's stdout to ``<stdout_dir>/<i>.txt`` for the checker
and its spans to ``spans_path``, and times the calibration loops at least
every ``CALIBRATE_EVERY_S`` seconds of op time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

#: Op time between two timings of the calibration loops.
CALIBRATE_EVERY_S = 0.1

_SMALL = np.arange(8.0)


def _loop() -> None:
    total = 0
    for i in range(25_000):
        total += i * i


def _numpy() -> None:
    for _ in range(300):
        np.abs(_SMALL * _SMALL - 1.0).max()


def _increment(x: int) -> int:
    return x + 1


def _calls() -> None:
    x = 0
    for _ in range(20_000):
        x = _increment(x)


def calibrate() -> float:
    """Seconds three fixed loops take now, each the best of three tries.

    On a shared virtual machine, speed can drift by a quarter and more within
    a minute (a 2-vCPU Intel Xeon VM did so).  Dividing an op's time by this
    time, relative to ``run.CALIBRATION_REF_S``, cancels that drift.  The
    loops mix the program's kinds of work: integer arithmetic, Python calls,
    and numpy calls on small arrays.  They allocate nothing that outlives
    them, so nothing the program leaves on the heap changes their time.
    """
    total = 0.0
    for loop in (_loop, _numpy, _calls):
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            loop()
            best = min(best, perf_counter() - start)
        total += best
    return total


def _run(cli, argv: list[str]) -> tuple[int | None, str | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as stop:  # argparse rejects the arguments
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception as error:  # an escaped exception is a failed op, not a crash
        exc = f"{type(error).__name__}: {error}"
    elapsed = perf_counter() - start
    return rc, exc, out.getvalue(), err.getvalue(), elapsed


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    import bentgroups.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"error: imported bentgroups from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    stdout_dir = job["stdout_dir"] and Path(job["stdout_dir"])
    records = []
    calibration = [calibrate()]
    spent = since_calibration = 0.0
    with open(job["spans_path"] if tracer else os.devnull, "a", encoding="utf-8") as spans_file:
        for i, argv in enumerate(job["ops"]):
            if job["seconds"] is not None and spent >= job["seconds"]:
                break
            if since_calibration >= CALIBRATE_EVERY_S:
                calibration.append(calibrate())
                since_calibration = 0.0
            if tracer is not None:
                tracer.op = i
            rc, exc, out, err, elapsed = _run(cli, argv)
            spent += elapsed * job["calibration_ref"] / calibration[-1]
            since_calibration += elapsed
            data = out.encode("utf-8")
            if stdout_dir:
                (stdout_dir / f"{i}.txt").write_bytes(data)
            record = {
                "rc": rc,
                "exc": exc,
                "stderr": err[-4000:],
                "seconds": elapsed,
                "calibration": len(calibration) - 1,  # the sample taken before this op
                "bytes": len(data),
                "sha": hashlib.sha256(data).hexdigest(),
            }
            if tracer is not None:
                record["spans"] = len(tracer.spans)
                record["layers"], record["root_s"] = tracer.flush(spans_file)
            records.append(record)
    calibration.append(calibrate())
    result = {
        "ops": records,
        "calibration": calibration,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
