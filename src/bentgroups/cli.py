"""Command-line interface.

Commands
--------
chars
    Print a group's character table (JSON or CSV).
check
    Load a class-function JSON file and print its bentness report;
    exit 0 when BENT, 1 otherwise.
construct
    Build a certified bent function on Z_n from a chirp sequence.
search
    Run a seeded coefficient-space search and print the result transcript.
verify-paper
    Re-run the full claims ledger; exit 0 only if no deterministic claim fails.

Exit codes: 0 success/affirmative, 1 negative verdict, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import NoReturn, Sequence

from .bentness import BENT, is_bent, report_to_json
from .characters import character_table, table_to_csv, table_to_json
from .class_functions import class_function_to_json, load_class_function
from .constructions import SequenceKind, SequenceSpec, make_bent_cyclic
from .groups import group_from_label
from .ledger import DEFAULT_BUDGET, build_ledger, ledger_to_json
from .search import SearchConfig, Strategy, result_to_json, run_search

__all__ = ["main"]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _require_json(args: argparse.Namespace) -> None:
    if args.format != "json":
        raise ValueError("csv output is only available for the chars command")


def _cmd_chars(args: argparse.Namespace) -> int:
    table = character_table(group_from_label(args.group))
    if args.format == "csv":
        _emit(table_to_csv(table), args.output)
    else:
        _emit(_dumps(table_to_json(table)), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    _require_json(args)
    f = load_class_function(args.input)
    report = is_bent(f, args.tol)
    _emit(_dumps(report_to_json(report)), args.output)
    return 0 if report.verdict == BENT else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    _require_json(args)
    kind = SequenceKind(args.kind)
    spec = SequenceSpec(kind=kind, length=args.n, root=args.root)
    certified = make_bent_cyclic(spec, args.tol)
    payload = class_function_to_json(certified.function)
    payload["report"] = report_to_json(certified.report)
    _emit(_dumps(payload), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _require_json(args)
    config = SearchConfig(
        group=args.group,
        budget=args.budget,
        seed=args.seed,
        tol=args.tol,
        strategy=Strategy(args.strategy),
    )
    result = run_search(config)
    _emit(_dumps(result_to_json(result)), args.output)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    _require_json(args)
    ledger = build_ledger(tol=args.tol, budget=args.budget, seed=args.seed)
    _emit(_dumps(ledger_to_json(ledger)), args.output)
    return 0 if ledger.passed else 1


#: Tokens that start with '-' and that ``float()`` reads: ``-1e-3``, ``-inf``, ``-nan``.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-inf`` or ``-1e-3`` as a value.

    argparse takes a token that starts with '-' for an option unless it looks
    like ``-1`` or ``-.5``, so ``--tol -inf`` would end in a usage error
    instead of the tolerance check in :func:`main`.  A usage error becomes a
    ValueError, which :func:`main` prints as its one ``error:`` line.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bentgroups",
        description="Bent class functions on small finite groups.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8, help="numeric tolerance")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument("-o", "--output", default=None, help="also write output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_chars = sub.add_parser("chars", parents=[common], help="print a character table")
    p_chars.add_argument("group", help="group label, e.g. Z6, Z2xZ3, S3, Q8, V4, D4")
    p_chars.set_defaults(func=_cmd_chars)

    p_check = sub.add_parser(
        "check", parents=[common], help="bentness-check a class-function JSON file"
    )
    p_check.add_argument("input", help="path to a class-function JSON file")
    p_check.set_defaults(func=_cmd_check)

    p_construct = sub.add_parser(
        "construct", parents=[common], help="build a certified bent function on Z_n"
    )
    p_construct.add_argument("kind", choices=[k.value for k in SequenceKind])
    p_construct.add_argument("n", type=int, help="cyclic group order")
    p_construct.add_argument(
        "root", type=int, nargs="?", default=1, help="Zadoff-Chu root (default 1)"
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_search = sub.add_parser(
        "search", parents=[common], help="seeded coefficient-space search"
    )
    p_search.add_argument("--group", required=True, help="group label")
    p_search.add_argument("--budget", type=int, default=10_000)
    p_search.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.RANDOM_PLUS_LOCAL.value,
    )
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser(
        "verify-paper", parents=[common], help="re-run the full claims ledger"
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="search budget for evidence entries (0 skips them)",
    )
    p_verify.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"--tol must be a finite non-negative number, got {args.tol}")
        return args.func(args)
    except (ValueError, OSError, RuntimeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
