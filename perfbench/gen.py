"""Seeded request generator for the benchmark workloads.

It uses numpy alone and never imports ``bentgroups``, so generating inputs
warms no cache of the program under test.  The same seed always yields the
same requests.  A request is a dict with these keys:

``id``
    unique within a run; input and output file names derive from it
``kind``
    ``verify-paper``, ``search``, ``check``, ``construct`` or ``chars``
``sub``
    the request variant, e.g. ``bent-coef`` or ``malformed-nan``
``label``
    the group label the request makes the program build, or ``None``
``argv``
    arguments for ``bentgroups.cli.main``; paths are relative to the run's
    working directory
``expect``
    what the checker compares the outcome with
``file``
    optional ``{"name", "text"}`` input file written before the request runs
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

WORKLOADS = ("paper", "cli-fresh", "search")

# ---------------------------------------------------------------------------
# paper: the ledger replay

PAPER_BUDGET = 2000
PAPER_SEEDS_PER_RUN = 8


def _derived_seeds(seed: int, stream: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(1, 2**31, size=count)]


def paper_requests(seed: int, count: int) -> list[dict]:
    """``count`` verify-paper ops cycling over eight seeds derived from ``seed``.

    Seeds repeat within a run, so the checker can compare the stdout of
    identical commands byte for byte.
    """
    seeds = _derived_seeds(seed, 11, PAPER_SEEDS_PER_RUN)
    return [
        {
            "id": f"p{i}",
            "kind": "verify-paper",
            "sub": f"budget{PAPER_BUDGET}",
            "label": None,
            "argv": [
                "verify-paper", "--budget", str(PAPER_BUDGET),
                "--seed", str(seeds[i % len(seeds)]),
            ],
            "expect": {
                "rc": 0,
                "entries": 12,
                "summary": {"PASS": 10, "FAIL": 0, "EVIDENCE": 2, "SKIPPED": 0},
            },
        }
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# search: the only groups on which a search spends its budget

SEARCH_GROUPS = ("S3", "Q8", "D4")
SEARCH_STRATEGIES = ("random+local", "random")
SEARCH_BUDGET = 100_000
SEARCH_SEEDS = 8
#: Frozen search floor: S3, budget 1e5, seed 0, random+local.
S3_FLOOR = 0.28831509904574804


def search_requests(seed: int, count: int) -> list[dict]:
    """``count`` search ops over S3/Q8/D4, both strategies, op seeds 0..7.

    Ops come in blocks of six, one per (group, strategy) pair, sharing an op
    seed; block ``k`` uses op seed ``k mod 8`` and ``seed`` shuffles each
    block.  How long a search runs depends strongly on its op seed, so
    every run uses the same op seeds: otherwise a run's work would depend
    on ``seed``.  Op seed 0 checks the frozen S3 floor; the repeats let the
    checker compare the stdout of identical commands byte for byte.
    """
    rng = np.random.default_rng([seed, 12])
    pairs = [(g, s) for g in SEARCH_GROUPS for s in SEARCH_STRATEGIES]
    out = []
    for block in range(-(-count // len(pairs))):
        op_seed = block % SEARCH_SEEDS
        for j in rng.permutation(len(pairs)):
            group, strategy = pairs[j]
            pinned = group == "S3" and op_seed == 0 and strategy == "random+local"
            out.append(
                {
                    "id": f"s{len(out)}",
                    "kind": "search",
                    "sub": strategy,
                    "label": group,
                    "argv": [
                        "search", "--group", group, "--budget", str(SEARCH_BUDGET),
                        "--seed", str(op_seed), "--strategy", strategy,
                    ],
                    "expect": {
                        "rc": 0,
                        "group": group,
                        "budget": SEARCH_BUDGET,
                        "seed": op_seed,
                        "strategy": strategy,
                        "never_certifies": group == "S3",
                        "best_objective": S3_FLOOR if pinned else None,
                    },
                }
            )
    return out[:count]


# ---------------------------------------------------------------------------
# cli-fresh: single commands on orders 2..512, one fresh process per session

N_BUCKETS = 8  # bucket b holds orders [2^b, 2^(b+1)), the last one also 512
SESSIONS_PER_CYCLE = 3
#: Slots of one bucket in one cycle: half check, a third construct, a sixth chars.
SLOTS = ("check", "check", "check", "zadoff-chu", "chirp", "chars")
#: Check variants; a cycle's 24 checks take every entry twice.
CHECK_SUBS = (
    "bent-coef", "bent-pointwise", "random-phase", "non-unimodular",
    "bent-coef", "bent-pointwise", "malformed", "bent-coef",
    "bent-pointwise", "random-phase", "non-unimodular", "malformed",
)
MALFORMED = (
    "malformed-no-group",
    "malformed-data-int",
    "malformed-ragged",
    "malformed-nan",
    "malformed-1e308",
    "malformed-unknown-label",
    "malformed-not-json",
)
#: Malformed variants that never reach a group constructor.
_NO_GROUP = {"malformed-no-group", "malformed-unknown-label", "malformed-not-json"}

# Named groups: order, class of each element, class sizes, abelian factors.
NAMED = {
    "V4": (4, (0, 1, 2, 3), (1, 1, 1, 1), (2, 2)),
    "S3": (6, (0, 1, 1, 1, 2, 2), (1, 3, 2), None),
    "Q8": (8, (0, 1, 2, 2, 3, 3, 4, 4), (1, 1, 2, 2, 2), None),
    "D4": (8, (0, 1, 2, 1, 3, 4, 3, 4), (1, 2, 1, 2, 2), None),
}
#: The k-th label of a (bucket, variant) pair is an abelian product when
#: k mod 5 is in this set and the order allows one (two in five), else cyclic.
_PRODUCT_TURNS = {1, 3}
#: Chance that a slot in bucket 2 or 3 takes a named group (orders 4, 6, 8),
#: so that V4, S3, Q8 and D4 occur in nearly every run (all four in nine of
#: ten 10-cycle runs).
_NAMED_SHARE = 0.3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: The order sequences start at fixed points, which the seed moves by at
#: most this share of a bucket, so that a run's total work hardly depends on
#: the seed while labels, roots and data do.
_ORDER_JITTER = 1 / 32


def bucket_range(b: int) -> tuple[int, int]:
    """Inclusive order range of bucket ``b`` (1-based)."""
    lo = 2**b
    return lo, (512 if b == N_BUCKETS else 2 * lo - 1)


@lru_cache(maxsize=None)
def factorizations(n: int) -> tuple[tuple[int, ...], ...]:
    """Ordered factorizations of ``n`` into at least two factors >= 2."""
    out = []
    for d in range(2, n):
        if n % d == 0:
            out.append((d, n // d))
            out.extend((d,) + rest for rest in factorizations(n // d))
    return tuple(sorted(set(out)))


def product_label(factors) -> str:
    return "x".join(f"Z{m}" for m in factors)


def label_factors(label: str) -> tuple[int, ...] | None:
    """Cyclic factor sizes of an abelian label, ``None`` for S3/Q8/D4."""
    if label in NAMED:
        return NAMED[label][3]
    return tuple(int(p[1:]) for p in label.split("x"))


def label_classes(label: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(order, class of each element, class sizes) of a label."""
    if label in NAMED:
        return NAMED[label][:3]
    n = math.prod(label_factors(label))
    return n, tuple(range(n)), (1,) * n


def _candidates(order: int, form: str, need: str) -> list[str]:
    if form == "cyclic":
        ok = need != "odd-cyclic" or order % 2 == 1
        return [f"Z{order}"] if ok else []
    if need in ("cyclic", "odd-cyclic"):
        return []
    return [product_label(f) for f in factorizations(order)]


def _pick_label(rng, b: int, u: float, k: int, need: str, used: set[str]) -> str:
    """A label for the ``k``-th request of its kind in bucket ``b``, unused in the session.

    Its order is the one the log-uniform position ``u`` picks in the bucket,
    or the nearest order with a free label.
    """
    lo, hi = bucket_range(b)
    named = [
        name for name, (n, _, _, factors) in NAMED.items()
        if lo <= n <= hi and name not in used
        and need in ("any", "abelian") and (need == "any" or factors is not None)
    ]
    if named and rng.random() < _NAMED_SHARE:
        return named[int(rng.integers(len(named)))]
    target = min(hi, int(lo * ((hi + 1) / lo) ** u))
    offsets = [0]
    for step in range(1, hi - lo + 1):
        offsets += [step, -step]
    forms = ("product", "cyclic") if k % 5 in _PRODUCT_TURNS else ("cyclic", "product")
    for off in offsets:
        order = target + off
        if not lo <= order <= hi:
            continue
        for form in forms:
            pool = [x for x in _candidates(order, form, need) if x not in used]
            if pool:
                return pool[int(rng.integers(len(pool)))]
    raise ValueError(f"bucket {b} has no unused label for {need!r}")


def zadoff_chu(n: int, u: int) -> np.ndarray:
    """Zadoff-Chu sequence of length ``n`` and root ``u`` (unit modulus)."""
    k = np.arange(n)
    phase = -np.pi * u * k * (k + 1) / n if n % 2 else -np.pi * u * k * k / n
    return np.exp(1j * phase)


def chirp(n: int) -> np.ndarray:
    """Quadratic chirp exp(2 pi i k^2 / n) for odd ``n``."""
    k = np.arange(n)
    return np.exp(2j * np.pi * ((k * k) % n) / n)


def _coprime_root(rng, n: int) -> int:
    roots = [u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1]
    return roots[int(rng.integers(len(roots)))]


def _bent_coefficients(rng, factors: tuple[int, ...]) -> np.ndarray:
    """Kronecker product of Zadoff-Chu (or chirp) vectors, one per factor."""
    a = np.ones(1, dtype=complex)
    for m in factors:
        if m % 2 and rng.random() < 0.5:
            seq = chirp(m)
        else:
            seq = zadoff_chu(m, _coprime_root(rng, m))
        a = np.kron(a, seq / math.sqrt(m))
    return a


def pointwise_values(factors: tuple[int, ...], a: np.ndarray) -> np.ndarray:
    """f(x) = sum_e a_e prod_f exp(2 pi i x_f e_f / m_f), row-major indices."""
    n = math.prod(factors)
    return (n * np.fft.ifftn(a.reshape(factors))).ravel()


def _pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


def _check_payload(rng, sub: str, label: str | None, order: int) -> tuple[str, dict]:
    """Input file text and expected outcome for one check request."""
    if sub == "malformed-no-group":
        return json.dumps({"data": 5}), {"rc": 2}
    if sub == "malformed-unknown-label":
        doc = {"group": f"Y{order}", "basis": "coefficients", "data": [[1.0, 0.0]]}
        return json.dumps(doc), {"rc": 2}
    if sub == "malformed-not-json":
        return "{not json: [1, 0]", {"rc": 2}
    n, class_of, sizes = label_classes(label)
    r = len(sizes)
    factors = label_factors(label)
    doc = {"group": label, "basis": "coefficients"}
    if sub == "malformed-data-int":
        doc["data"] = 5
        return json.dumps(doc), {"rc": 2}
    if sub == "malformed-ragged":
        doc["data"] = [[1.0]] + [[0.0, 0.0]] * (r - 1)
        return json.dumps(doc), {"rc": 2}
    if sub == "malformed-nan":
        doc["data"] = [[float("nan"), 0.0]] + [[0.5, 0.0]] * (r - 1)
        return json.dumps(doc), {"rc": 2}
    if sub == "malformed-1e308":
        doc["data"] = [[1e308, 1e308]] * r
        return json.dumps(doc), {"rc": 2}
    expect = {"rc": 1, "group": label, "n": n}
    if sub in ("bent-coef", "bent-pointwise"):
        a = _bent_coefficients(rng, factors)
        if sub == "bent-coef":
            doc["data"] = _pairs(a)
        else:
            doc["basis"] = "pointwise"
            doc["data"] = _pairs(pointwise_values(factors, a))
        expect.update(rc=0, verdict="BENT")
    elif sub == "random-phase":
        phases = np.exp(2j * np.pi * rng.random(r))
        doc["basis"] = "pointwise"
        doc["data"] = _pairs(phases[list(class_of)])
        expect["verdict"] = "NOT_BENT"
    elif sub == "non-unimodular":
        if rng.random() < 0.5:
            z = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) / math.sqrt(2 * r)
            doc["data"] = _pairs(z)
        else:
            z = rng.uniform(0.5, 0.95, r) * np.exp(2j * np.pi * rng.random(r))
            doc["basis"] = "pointwise"
            doc["data"] = _pairs(z[list(class_of)])
        expect["verdict"] = "NOT_UNIMODULAR"
    else:
        raise ValueError(f"unknown check variant {sub!r}")
    return json.dumps(doc), expect


def _slot_need(slot: str, sub: str | None) -> str | None:
    if slot == "zadoff-chu":
        return "cyclic"
    if slot == "chirp":
        return "odd-cyclic"
    if sub in _NO_GROUP:
        return None
    if sub in ("bent-coef", "bent-pointwise"):
        return "abelian"
    return "any"


_SUB_INDEX = {
    sub: i for i, sub in enumerate(
        ("zadoff-chu", "chirp", "json", "csv") + tuple(dict.fromkeys(CHECK_SUBS)) + MALFORMED
    )
}
_NEED_RANK = {"odd-cyclic": 0, "cyclic": 1, "abelian": 2, "any": 3, None: 4}


def _cycle_plan(cycle: int) -> list[tuple[int, int, str, str]]:
    """(bucket, slot index, slot, variant) of every request of a cycle; seed-free."""
    plan = []
    n_malformed = 0
    for b in range(1, N_BUCKETS + 1):
        checks_seen = 0
        for k, slot in enumerate(SLOTS):
            sub = slot
            if slot == "check":
                sub = CHECK_SUBS[(3 * (b - 1) + checks_seen + 7 * cycle) % len(CHECK_SUBS)]
                checks_seen += 1
                if sub == "malformed":
                    sub = MALFORMED[(4 * cycle + n_malformed) % len(MALFORMED)]
                    n_malformed += 1
            elif slot == "chars":
                sub = "json" if (b + cycle) % 2 == 0 else "csv"
            plan.append((b, k, slot, sub))
    return plan


def cli_fresh_cycle(seed: int, cycle: int) -> list[list[dict]]:
    """The three sessions of cycle ``cycle``; each runs in its own fresh process.

    Every cycle has the same make-up: for each of the eight log2-order
    buckets three checks, one Zadoff-Chu and one chirp construct and one
    chars request.  The order of the k-th request of a (bucket, variant)
    pair follows a golden-ratio sequence, so every run covers each bucket
    evenly for every variant.  No group label repeats
    within a session.
    """
    seen: dict[tuple[int, str], int] = {}
    for earlier in range(cycle):
        for b, _, _, sub in _cycle_plan(earlier):
            seen[b, sub] = seen.get((b, sub), 0) + 1
    rng = np.random.default_rng([seed, 21, cycle])
    sessions: list[list[tuple]] = [[] for _ in range(SESSIONS_PER_CYCLE)]
    for b, k, slot, sub in _cycle_plan(cycle):
        start = np.random.default_rng([20, b, _SUB_INDEX[sub]]).random()
        jitter = np.random.default_rng([seed, 20, b, _SUB_INDEX[sub]]).random() * _ORDER_JITTER
        nth = seen.get((b, sub), 0)
        u = (start + nth * _GOLDEN) % 1.0 * (1 - _ORDER_JITTER) + jitter
        session = (k // 2 + b + cycle) % SESSIONS_PER_CYCLE
        sessions[session].append((b, slot, sub, u, nth))
    out = []
    for s, slots in enumerate(sessions):
        used: set[str] = set()
        requests = []
        for i, (b, slot, sub, u, nth) in enumerate(
            sorted(slots, key=lambda t: _NEED_RANK[_slot_need(t[1], t[2])])
        ):
            need = _slot_need(slot, sub)
            label = None
            if need is not None:
                label = _pick_label(rng, b, u, nth, need, used)
                used.add(label)
            order = label_classes(label)[0] if label else bucket_range(b)[0]
            requests.append(_cli_request(rng, f"f{cycle}.{s}.{i}", slot, sub, label, order))
        out.append([requests[i] for i in rng.permutation(len(requests))])
    return out


def _cli_request(rng, rid: str, slot: str, sub: str | None, label: str | None, order: int) -> dict:
    if slot == "check":
        text, expect = _check_payload(rng, sub, label, order)
        name = f"in/{rid}.json"
        return {
            "id": rid, "kind": "check", "sub": sub, "label": label,
            "argv": ["check", name], "expect": expect,
            "file": {"name": name, "text": text},
        }
    if slot == "chars":
        argv = ["chars", label] + (["--format", "csv"] if sub == "csv" else [])
        n, _, sizes = label_classes(label)
        expect = {"rc": 0, "group": label, "n": n, "class_sizes": list(sizes)}
        return {"id": rid, "kind": "chars", "sub": sub, "label": label, "argv": argv, "expect": expect}
    out_name = f"out/{rid}.json"
    root = _coprime_root(rng, order) if slot == "zadoff-chu" else 1
    argv = ["construct", slot, str(order)]
    argv += [str(root)] if slot == "zadoff-chu" else []
    return {
        "id": rid, "kind": "construct", "sub": slot, "label": label,
        "argv": argv + ["-o", out_name],
        "expect": {
            "rc": 0, "group": label, "n": order, "sequence": slot, "root": root,
            "output": out_name,
        },
    }


def write_inputs(requests: list[dict], directory) -> None:
    """Write every request's input file under ``directory``."""
    for req in requests:
        if "file" in req:
            path = Path(directory) / req["file"]["name"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(req["file"]["text"], encoding="utf-8")


def request_hash(requests: list[dict], previous: str = "") -> str:
    """SHA-256 over the canonical JSON of ``requests``, chained onto ``previous``."""
    digest = hashlib.sha256(previous.encode())
    digest.update(json.dumps(requests, sort_keys=True).encode())
    return digest.hexdigest()
