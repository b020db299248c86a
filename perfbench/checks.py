"""Correctness checks for every benchmark op, run outside the timed interval.

An op's outcome is a dict with ``rc`` (exit code, or ``None`` when an
exception escaped ``main``), ``exc`` (that exception as text, or ``None``),
``stdout`` and ``stderr``.  :func:`check_op` returns the list of reasons the
outcome disagrees with the request's expectation; an empty list is a pass.
Failures are counted, never raised.

Some failures are defects of the program that are known and recorded in
``perfbench/baseline.json``.  :func:`known_defect` names the defect a failed
op matches, so a run can tell a known defect from a new one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

from perfbench import gen

#: Defects of the program at the commit that defined this benchmark.  Each
#: entry names the request variants it affects and the failure it causes.
KNOWN_DEFECTS = {
    "escaped-typeerror": {
        "subs": ("malformed-data-int",),
        "reason": (
            '{"group": ..., "basis": "coefficients", "data": 5} lets a TypeError '
            "escape main instead of exit 2"
        ),
    },
    "non-finite-json": {
        "subs": ("malformed-nan", "malformed-1e308"),
        "reason": (
            "NaN or 1e308 coefficient pairs give exit 1 and print NaN/Infinity "
            "into the JSON instead of exit 2"
        ),
    },
}


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text: str):
    """Parse ``text`` as strict JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def known_defect(req: dict, outcome: dict) -> str | None:
    """Name of the known defect this failed op shows, if it shows one."""
    sub = req.get("sub")
    if sub in KNOWN_DEFECTS["escaped-typeerror"]["subs"]:
        if (outcome.get("exc") or "").startswith("TypeError"):
            return "escaped-typeerror"
    if sub in KNOWN_DEFECTS["non-finite-json"]["subs"]:
        if outcome.get("rc") == 1 and any(
            tok in outcome.get("stdout", "") for tok in ("NaN", "Infinity")
        ):
            return "non-finite-json"
    return None


class Tally:
    """Counts attempted and failed ops, by request kind and by known defect."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()  # "kind/sub" -> failed ops
        self.known: Counter = Counter()  # known defect -> failed ops
        self.unexpected: list[str] = []  # failures no known defect explains

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, req: dict, outcome: dict, reasons: list[str]) -> None:
        self.attempted += 1
        if not reasons:
            return
        self.failures[f"{req['kind']}/{req['sub']}"] += 1
        defect = known_defect(req, outcome)
        if defect:
            self.known[defect] += 1
        else:
            self.unexpected.append(f"{req['id']} {req['kind']}/{req['sub']}: {'; '.join(reasons)}")


def check_op(req: dict, outcome: dict, read_file=None) -> list[str]:
    """Reasons why ``outcome`` fails ``req``'s expectation (empty: pass).

    ``read_file(name)`` returns the text of a file the op wrote; it is needed
    for ``construct -o``.
    """
    expect = req["expect"]
    if outcome.get("exc"):
        return [f"exception escaped main: {outcome['exc']}"]
    if outcome.get("rc") != expect["rc"]:
        return [f"exit code {outcome.get('rc')}, expected {expect['rc']}"]
    if expect["rc"] == 2:
        lines = outcome.get("stderr", "").strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return [f"expected one 'error:' line on stderr, got {len(lines)} lines"]
        return []
    try:
        payload = _parse(req, outcome["stdout"])
    except (ValueError, csv.Error) as exc:
        return [f"stdout does not parse: {exc}"]
    checker = {
        "verify-paper": _check_paper,
        "search": _check_search,
        "check": _check_check,
        "construct": _check_construct,
        "chars": _check_chars,
    }[req["kind"]]
    try:
        return checker(expect, payload, read_file)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"unexpected payload shape: {type(exc).__name__}: {exc}"]


def _parse(req: dict, text: str):
    if req["kind"] == "chars" and req["sub"] == "csv":
        return list(csv.reader(io.StringIO(text)))
    return strict_json(text)


def _check_paper(expect: dict, doc: dict, _read) -> list[str]:
    out = []
    if len(doc["entries"]) != expect["entries"]:
        out.append(f"{len(doc['entries'])} ledger entries, expected {expect['entries']}")
    if doc["summary"] != expect["summary"]:
        out.append(f"ledger summary {doc['summary']}, expected {expect['summary']}")
    if doc["passed"] is not True:
        out.append("ledger not passed")
    return out


def _check_search(expect: dict, doc: dict, _read) -> list[str]:
    out = []
    config = doc["config"]
    for key in ("group", "budget", "seed", "strategy"):
        if config[key] != expect[key]:
            out.append(f"config {key} = {config[key]!r}, expected {expect[key]!r}")
    if not 1 <= doc["evaluations"] <= expect["budget"]:
        out.append(f"evaluations {doc['evaluations']} outside 1..{expect['budget']}")
    if doc["certified_bent"]:
        if expect["never_certifies"]:
            out.append(f"{expect['group']} certified a bent function")
        if not doc["report"] or doc["report"]["verdict"] != "BENT":
            out.append("certified result without a BENT report")
    pinned = expect["best_objective"]
    if pinned is not None and not math.isclose(doc["best_objective"], pinned, rel_tol=1e-9):
        out.append(f"best objective {doc['best_objective']!r}, pinned {pinned!r}")
    return out


def _check_check(expect: dict, doc: dict, _read) -> list[str]:
    out = []
    if doc["verdict"] != expect["verdict"]:
        out.append(f"verdict {doc['verdict']}, expected {expect['verdict']}")
    if doc["group"] != expect["group"]:
        out.append(f"group {doc['group']!r}, expected {expect['group']!r}")
    if len(doc["residuals"]) != expect["n"] - 1:
        out.append(f"{len(doc['residuals'])} residuals, expected {expect['n'] - 1}")
    return out


def _check_construct(expect: dict, doc: dict, read_file) -> list[str]:
    out = []
    n = expect["n"]
    if doc["group"] != expect["group"] or doc["basis"] != "coefficients":
        out.append(f"group/basis {doc['group']!r}/{doc['basis']!r}")
    if doc["report"]["verdict"] != "BENT":
        out.append(f"report verdict {doc['report']['verdict']}")
    kind = expect["sequence"]
    seq = gen.chirp(n) if kind == "chirp" else gen.zadoff_chu(n, expect["root"])
    got = np.array([complex(re, im) for re, im in doc["data"]])
    if got.shape != (n,) or np.max(np.abs(got - seq / math.sqrt(n))) > 1e-9:
        out.append(f"coefficients differ from the {kind} sequence")
    if read_file(expect["output"]) != json.dumps(doc, indent=2) + "\n":
        out.append(f"-o file {expect['output']} differs from stdout")
    return out


def _check_chars(expect: dict, doc, _read) -> list[str]:
    sizes = np.asarray(expect["class_sizes"], dtype=float)
    r = len(sizes)
    out = []
    if isinstance(doc, dict):
        if doc["group"] != expect["group"] or doc["order"] != expect["n"]:
            out.append(f"group/order {doc['group']!r}/{doc['order']}")
        if doc["class_sizes"] != expect["class_sizes"]:
            out.append("class sizes differ")
        rows = [[complex(re, im) for re, im in chi["values"]] for chi in doc["characters"]]
    else:
        header, body = doc[0], doc[1:]
        if header[0] != "character" or len(header) != 1 + 3 * r:
            out.append(f"csv header has {len(header)} columns, expected {1 + 3 * r}")
        rows = [
            [complex(float(row[2 + 3 * c]), float(row[3 + 3 * c])) for c in range(r)]
            for row in body
        ]
    table = np.asarray(rows, dtype=complex)
    if table.shape != (r, r):
        return out + [f"table shape {table.shape}, expected {(r, r)}"]
    gram = (table * sizes) @ table.conj().T / expect["n"]
    dev = float(np.max(np.abs(gram - np.eye(r))))
    if dev > 1e-7:
        out.append(f"rows not orthonormal (deviation {dev:.2e})")
    if np.max(np.abs(table[0] - 1)) > 1e-9:
        out.append("first character is not trivial")
    return out
