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

The global flags ``--tol``, ``--seed``, ``--format`` and ``-o`` go before or
after the command.  Exit codes: 0 success/affirmative, 1 negative verdict,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import NoReturn, Sequence

from .bentness import BENT, is_bent, report_to_json
from .characters import _JSON_PAIR, character_table, table_to_csv, table_to_json
from .class_functions import DEFAULT_TOL, _check_tol, class_function_to_json, load_class_function
from .constructions import SequenceKind, make_bent_cyclic
from .groups import group_from_label

__all__ = ["main"]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _dumps(obj: dict) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"`` for str-keyed dicts,
    byte for byte, without :mod:`json`'s pure-Python indenting encoder.  Each
    list of ``[re, im]`` float pairs renders through one template, and a value
    object that two keys of one dict share renders once."""
    return _encode(obj, "") + "\n"


def _encode(obj: object, pad: str) -> str:
    """``obj`` as JSON text whose first line sits at the indent ``pad``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        brackets = "[]"
        if all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is float for p in obj):
            for x in itertools.filterfalse(math.isfinite, itertools.chain.from_iterable(obj)):
                _encode(x, pad)  # raises at the first non-finite value
            pair = _JSON_PAIR.format(inner)
            items = [pair % re_im for re_im in map(tuple, obj)]
        else:
            items = [inner + _encode(x, inner) for x in obj]
    elif isinstance(obj, dict):
        brackets = "{}"
        text = {}  # by object id: the values are alive, so an id names one object
        for value in obj.values():
            if id(value) not in text:
                text[id(value)] = _encode(value, inner)
        items = [
            f"{inner}{encode_basestring_ascii(key)}: {text[id(value)]}"
            for key, value in obj.items()
        ]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def _cmd_chars(args: argparse.Namespace) -> int:
    table = character_table(group_from_label(args.group))
    if args.format == "csv":
        _emit(table_to_csv(table), args.output)
    else:
        _emit(table_to_json(table), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    f = load_class_function(args.input)
    report = is_bent(f, args.tol)
    _emit(_dumps(report_to_json(report)), args.output)
    return 0 if report.verdict == BENT else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    certified = make_bent_cyclic(args.kind, args.n, args.root, tol=args.tol)
    payload = class_function_to_json(certified.function)
    payload["report"] = report_to_json(certified.report)
    _emit(_dumps(payload), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchConfig, result_to_json, run_search

    config = SearchConfig(
        group=args.group,
        budget=args.budget,
        seed=args.seed,
        tol=args.tol,
        strategy=args.strategy,
    )
    result = run_search(config)
    _emit(_dumps(result_to_json(result)), args.output)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    from .ledger import build_ledger, ledger_to_json

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


#: Flags that go before or after the command: (option strings, keyword arguments).
_GLOBAL_FLAGS = (
    (("--tol",), {"type": float, "default": DEFAULT_TOL, "help": "numeric tolerance"}),
    (("--seed",), {"type": int, "default": 0, "help": "RNG seed"}),
    (("--format",), {"choices": ("json", "csv"), "default": "json", "help": "output format"}),
    (("-o", "--output"), {"default": None, "help": "also write output to this file"}),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused for the process.

    The top-level parser holds the global flags' defaults; each command gets
    copies that set a flag only when it is given, so a flag after the
    command wins over one before it.  The search strategies and the ledger's
    default budget are spelled out, so that building the parser loads neither
    module; a test keeps them equal to ``Strategy`` and ``DEFAULT_BUDGET``.
    """
    parser = _Parser(
        prog="bentgroups",
        description="Bent class functions on small finite groups.",
    )
    common = _Parser(add_help=False)
    for flags, options in _GLOBAL_FLAGS:
        parser.add_argument(*flags, **options)
        common.add_argument(*flags, **{**options, "default": argparse.SUPPRESS})
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
        "root", type=int, nargs="?", default=None,
        help="Zadoff-Chu root (default 1); chirps take none",
    )
    p_construct.set_defaults(func=_cmd_construct)

    p_search = sub.add_parser(
        "search", parents=[common], help="seeded coefficient-space search"
    )
    p_search.add_argument("--group", required=True, help="group label")
    p_search.add_argument("--budget", type=int, default=10_000)
    p_search.add_argument(
        "--strategy",
        choices=("random", "random+local"),
        default="random+local",
    )
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser(
        "verify-paper", parents=[common], help="re-run the full claims ledger"
    )
    p_verify.add_argument(
        "--budget",
        type=int,
        default=2000,
        help="search budget for evidence entries (0 skips them)",
    )
    p_verify.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_tol(args.tol, "--tol")
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.format == "csv" and args.func is not _cmd_chars:
            raise ValueError("csv output is only available for the chars command")
        return args.func(args)
    except (ValueError, OSError, RuntimeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
