"""Command-line front door.

Subcommands: classify, legendre, sqrtmod, sum, check, trace, verify,
search. Reports go to stdout, diagnostics to stderr. JSON output is
canonical (sorted keys, no insignificant whitespace); integers beyond
2^53 - 1 are emitted as decimal strings so double-precision JSON
consumers stay exact. Exit codes: 0 success, 1 when verify finds a
counterexample, 2 for usage or domain errors, 130 when interrupted,
143 when terminated by SIGTERM.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any

from .apsum import APWindow, check_window_square, sum_first_k, sum_sq_first_k
from .obstruction import TraceReport, trace_length3, valuation_law
from .residues import (
    DETERMINISTIC_LIMIT,
    classify_prime_mod12,
    legendre_euler,
    sqrt_mod_prime,
)
from .search import find_solutions, verify_no_solutions

_FORMATS = ("json", "csv", "text")
_FORMAT_ENV = "APSQUARES_FORMAT"
_JSON_SAFE_MAX = 2**53 - 1

_SOLUTIONS_CSV_HEADER = ["k", "n", "d", "t"]


@dataclass(frozen=True)
class _Output:
    status: int
    payload: dict[str, Any]
    csv_header: list[str]
    csv_rows: list[list[Any]]
    text: str


def _print_error(message: str) -> None:
    # Every failure leaves a single machine-parsable record on stderr.
    print(json.dumps({"error": message}, sort_keys=True, separators=(",", ":")), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        _print_error(message)
        raise SystemExit(2)


def _canonical(value: Any) -> Any:
    if isinstance(value, bool):
        # bool is an int subclass; keep it a JSON boolean.
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_SAFE_MAX else value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def render_json(payload: dict[str, Any]) -> str:
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(header: list[str], rows: list[list[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if item is None else item for item in row])
    return buf.getvalue()


def render(output: _Output, fmt: str) -> str:
    if fmt == "json":
        return render_json(output.payload)
    if fmt == "csv":
        return render_csv(output.csv_header, output.csv_rows)
    return output.text if output.text.endswith("\n") else output.text + "\n"


def _checked_prime_param(value: int, flag: str) -> int:
    if value >= DETERMINISTIC_LIMIT:
        raise ValueError(
            f"{flag}={value} is beyond the deterministic primality range "
            f"(< {DETERMINISTIC_LIMIT})"
        )
    return value


def _run_classify(args: argparse.Namespace) -> _Output:
    profile = classify_prime_mod12(_checked_prime_param(args.p, "--p"))
    payload = {"p": profile.p, "mod12": profile.residue_mod_12, "legendre3": profile.legendre3}
    kind = "residue" if profile.legendre3 == 1 else "non-residue"
    return _Output(
        status=0,
        payload=payload,
        csv_header=["p", "mod12", "legendre3"],
        csv_rows=[[profile.p, profile.residue_mod_12, profile.legendre3]],
        text=f"p = {profile.p}: p mod 12 = {profile.residue_mod_12}, "
        f"3 is a quadratic {kind} of p",
    )


def _run_legendre(args: argparse.Namespace) -> _Output:
    symbol = legendre_euler(args.a, _checked_prime_param(args.p, "--p"))
    return _Output(
        status=0,
        payload={"a": args.a, "p": args.p, "symbol": symbol},
        csv_header=["a", "p", "symbol"],
        csv_rows=[[args.a, args.p, symbol]],
        text=f"({args.a} / {args.p}) = {symbol}",
    )


def _run_sqrtmod(args: argparse.Namespace) -> _Output:
    roots = sqrt_mod_prime(args.a, _checked_prime_param(args.p, "--p"))
    payload = {"a": args.a, "p": args.p, "roots": None if roots is None else list(roots)}
    row = [args.a, args.p] + ([None, None] if roots is None else list(roots))
    text = (
        f"x^2 = {args.a} (mod {args.p}) has no solution"
        if roots is None
        else f"x^2 = {args.a} (mod {args.p}): x = {roots[0]} or {roots[1]}"
    )
    return _Output(
        status=0,
        payload=payload,
        csv_header=["a", "p", "root_small", "root_large"],
        csv_rows=[row],
        text=text,
    )


def _run_sum(args: argparse.Namespace) -> _Output:
    linear = sum_first_k(args.k)
    squares = sum_sq_first_k(args.k)
    return _Output(
        status=0,
        payload={"k": args.k, "sum": linear, "sum_sq": squares},
        csv_header=["k", "sum", "sum_sq"],
        csv_rows=[[args.k, linear, squares]],
        text=f"1 + ... + {args.k} = {linear}; 1^2 + ... + {args.k}^2 = {squares}",
    )


def _run_check(args: argparse.Namespace) -> _Output:
    window = APWindow(n=args.n, d=args.d, k=args.k)
    outcome = check_window_square(window)
    payload = {
        "n": window.n,
        "d": window.d,
        "k": window.k,
        "sum": outcome.sum,
        "floor_root": outcome.floor_root,
        "root": outcome.root,
    }
    if outcome.root is not None:
        text = f"S({window.n}, {window.d}, {window.k}) = {outcome.sum} = {outcome.root}^2"
    else:
        text = (
            f"S({window.n}, {window.d}, {window.k}) = {outcome.sum}, not a perfect "
            f"square (floor sqrt {outcome.floor_root})"
        )
    return _Output(
        status=0,
        payload=payload,
        csv_header=["n", "d", "k", "sum", "floor_root", "root"],
        csv_rows=[[window.n, window.d, window.k, outcome.sum, outcome.floor_root, outcome.root]],
        text=text,
    )


def _trace_report(window: APWindow) -> TraceReport:
    if window.k == 3:
        return trace_length3(window)
    return valuation_law(window)


def _run_trace(args: argparse.Namespace) -> _Output:
    window = APWindow(n=args.n, d=args.d, k=_checked_prime_param(args.k, "--k"))
    report = _trace_report(window)
    payload = {
        "n": window.n,
        "d": window.d,
        "k": window.k,
        "prime": report.prime,
        "obstruction": report.obstruction,
        "splits": {
            "n": {"valuation": report.n_split.valuation, "unit": report.n_split.unit},
            "d": {"valuation": report.d_split.valuation, "unit": report.d_split.unit},
        },
        "details": dict(report.details),
    }
    detail_text = ", ".join(f"{key}={value}" for key, value in sorted(report.details.items()))
    return _Output(
        status=0,
        payload=payload,
        csv_header=["n", "d", "k", "prime", "obstruction", "valuation", "quotient"],
        csv_rows=[[
            window.n,
            window.d,
            window.k,
            report.prime,
            report.obstruction,
            report.details.get("valuation"),
            report.details.get("quotient"),
        ]],
        text=f"window ({window.n}, {window.d}, {window.k}): obstruction "
        f"{report.obstruction} ({detail_text})",
    )


def _solutions_output(
    payload: dict[str, Any],
    k: int,
    solutions,
    status: int,
    text: str,
) -> _Output:
    rows = [[k, n, d, t] for (n, d, t) in solutions]
    return _Output(
        status=status,
        payload=payload,
        csv_header=list(_SOLUTIONS_CSV_HEADER),
        csv_rows=rows,
        text=text,
    )


def _run_verify(args: argparse.Namespace) -> _Output:
    report = verify_no_solutions(
        _checked_prime_param(args.p, "--p"),
        args.max_n,
        args.max_d,
        checkpoint=args.checkpoint,
    )
    payload = {
        "p": report.k,
        "max_n": args.max_n,
        "max_d": args.max_d,
        "windows": report.windows_checked,
        "solutions": [list(sol) for sol in report.solutions],
    }
    if report.solutions:
        status = 1
        text = (
            f"COUNTEREXAMPLE: {len(report.solutions)} square window(s) of "
            f"length {report.k} found; this falsifies the nonexistence result"
        )
    else:
        status = 0
        text = (
            f"p = {report.k}: no square windows for n <= {args.max_n}, "
            f"d <= {args.max_d} ({report.windows_checked} windows checked)"
        )
    return _solutions_output(payload, report.k, report.solutions, status, text)


def _run_search(args: argparse.Namespace) -> _Output:
    report = find_solutions(
        _checked_prime_param(args.k, "--k"),
        args.max_n,
        args.max_d,
        use_sieve=args.sieve,
    )
    payload = {
        "k": report.k,
        "max_n": args.max_n,
        "max_d": args.max_d,
        "sieve": report.sieve_used,
        "windows": report.windows_checked,
        "solutions": [list(sol) for sol in report.solutions],
    }
    lines = [
        f"k = {report.k}: {len(report.solutions)} square window(s) for "
        f"n <= {args.max_n}, d <= {args.max_d} "
        f"({report.windows_checked} windows checked"
        + (", sieved)" if report.sieve_used else ")")
    ]
    lines.extend(f"  n={n} d={d} t={t}" for (n, d, t) in report.solutions)
    return _solutions_output(payload, report.k, report.solutions, 0, "\n".join(lines))


_HANDLERS = {
    "classify": _run_classify,
    "legendre": _run_legendre,
    "sqrtmod": _run_sqrtmod,
    "sum": _run_sum,
    "check": _run_check,
    "trace": _run_trace,
    "verify": _run_verify,
    "search": _run_search,
}


def _default_format() -> str:
    env = os.environ.get(_FORMAT_ENV, "")
    return env if env in _FORMATS else "json"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apsquares",
        description="Sums of squares of arithmetic-progression windows: "
        "classification, obstruction traces, verification, and search.",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=_default_format(),
        help="output format (default: json, or $%s)" % _FORMAT_ENV,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[common], help="mod-12 profile of a prime >= 5")
    sp.add_argument("--p", type=int, required=True, help="prime >= 5")

    sp = sub.add_parser("legendre", parents=[common], help="Legendre symbol (a/p)")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--p", type=int, required=True, help="odd prime")

    sp = sub.add_parser("sqrtmod", parents=[common], help="square roots of a modulo an odd prime")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--p", type=int, required=True, help="odd prime not dividing a")

    sp = sub.add_parser("sum", parents=[common], help="sum and square-sum of 1..k")
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("check", parents=[common], help="is the window's square sum a perfect square?")
    sp.add_argument("--n", type=int, required=True, help="first term")
    sp.add_argument("--d", type=int, required=True, help="common difference")
    sp.add_argument("--k", type=int, required=True, help="window length")

    sp = sub.add_parser(
        "trace",
        parents=[common],
        help="obstruction trace for k = 3 or prime k >= 5 with 3 a non-residue",
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser(
        "verify",
        parents=[common],
        help="exhaustively confirm there are no square windows of length p",
    )
    sp.add_argument("--p", type=int, required=True, help="3, or a prime >= 5 with 3 a non-residue")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--max-d", type=int, required=True)
    sp.add_argument("--checkpoint", type=str, default=None, help="row-checkpoint file for resume")

    sp = sub.add_parser("search", parents=[common], help="find square windows of length k")
    sp.add_argument("--k", type=int, required=True, help="window length >= 2")
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--max-d", type=int, required=True)
    sp.add_argument("--sieve", action="store_true", help="prune with the d/n residue sieve")

    return parser


def dispatch(args: argparse.Namespace) -> _Output:
    return _HANDLERS[args.command](args)


class _Terminated(BaseException):
    """SIGTERM arrived; like KeyboardInterrupt, not an `Exception`."""


def _raise_terminated(signum: int, frame: Any) -> None:
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only the main thread may install signal handlers.
    trap = threading.current_thread() is threading.main_thread()
    if trap:
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        output = dispatch(args)
    except ValueError as exc:
        _print_error(str(exc))
        return 2
    except KeyboardInterrupt:
        # Completed rows are already flushed to any checkpoint.
        _print_error("interrupted")
        return 130
    except _Terminated:
        _print_error("terminated")
        return 143
    finally:
        if trap:
            signal.signal(signal.SIGTERM, previous)
    sys.stdout.write(render(output, args.format))
    return output.status


if __name__ == "__main__":
    sys.exit(main())
