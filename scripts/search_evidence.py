#!/usr/bin/env python3
"""Collect search evidence for bent-function existence across small groups.

Runs the seeded coefficient-space search on each target group over several
seeds and writes one JSON summary.  Cyclic groups and V4 certify instantly
from constructed candidates; S3, Q8 and D4 never certify (their forced
magnitudes admit no bent function), so only the best residual is reported.

Example:
    python3 scripts/search_evidence.py --budget 50000 --seeds 0 1 2 -o evidence.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bentgroups import SearchConfig, run_search

DEFAULT_GROUPS = ["Z4", "Z6", "V4", "S3", "Q8", "D4"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", nargs="+", default=DEFAULT_GROUPS)
    parser.add_argument("--budget", type=int, default=20_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("-o", "--output", default=None, help="write summary here")
    args = parser.parse_args()

    summary = {"budget": args.budget, "tol": args.tol, "groups": {}}
    for label in args.groups:
        rows = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result = run_search(
                SearchConfig(group=label, budget=args.budget, seed=seed, tol=args.tol)
            )
            rows.append(
                {
                    "seed": seed,
                    "certified_bent": result.certified_bent,
                    "best_objective": result.best_objective,
                    "evaluations": result.evaluations,
                    "seconds": round(time.perf_counter() - t0, 3),
                }
            )
            flag = "BENT" if result.certified_bent else "    "
            print(
                f"{label:7s} seed {seed}: best {result.best_objective:.6e} "
                f"[{flag}] ({result.evaluations} evals)"
            )
        summary["groups"][label] = {
            "any_certified": any(r["certified_bent"] for r in rows),
            "best_objective": min(r["best_objective"] for r in rows),
            "runs": rows,
        }

    text = json.dumps(summary, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
