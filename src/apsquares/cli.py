"""Command-line front door.

Subcommands: classify, legendre, sqrtmod, sum, check, trace, verify,
search, each declared once in `_COMMANDS` with its help, flags, CSV
columns and handler. Reports go to stdout, diagnostics to stderr. JSON
output is canonical (sorted keys, no insignificant whitespace); integers
beyond 2^53 - 1 are emitted as decimal strings so double-precision JSON
consumers stay exact. `render_json` writes it by hand, byte for byte as
`json.dumps(..., sort_keys=True, separators=(",", ":"))` would, so a
child never imports `json`, nor the `re` and `enum` that `json` imports.
Exit codes: 0 success, 1 only when verify finds a counterexample, 2 for
usage or domain errors (among them a prime parameter at or beyond
DETERMINISTIC_LIMIT, which `residues.is_prime` refuses), for a checkpoint
file that cannot be opened, read or written, and for a stdout that cannot
be written (such as a closed pipe), 3 for a failed internal check or any other unexpected
error, which the record names, 130 when interrupted, 143 when terminated
by SIGTERM. A Ctrl-C or SIGTERM during the error record's own write
keeps the code already chosen; the record may be lost.

`parse_args` reads argv straight from `_COMMANDS`: the command first, then
its flags, each spelled in full (no abbreviations), as `--flag value` or
`--flag=value`; the last occurrence of a flag wins. A value may start with
`-` only if it is a negative number. `-h` or `--help`, first or after the
command, prints a short usage to stdout and exits 0. A usage error exits 2
with CPython 3.11 argparse's message.

`main(argv)` runs one command in-process under one SIGTERM trap and one
lift of the int/str digit limit, restores both, and leaves the heap as
it is. The trap uses `_signal`, the built-in module that `signal` wraps
in enums, which CPython 3.10-3.13 all provide. Parsing, the handlers and
the write only raise; `main`'s except clauses only pick the code and
message, and one call in its `finally`, still under the trap, writes the
record. `_write` is the one writer for both streams: stdout's report or
help text and stderr's record. `run()`, behind both `python -m
apsquares` and the `apsquares` script, returns `main()`'s status after a
`gc.freeze()`, so the full collections CPython runs at teardown skip the
objects the run left: about 6 ms of a 60 ms 1000² `verify` under
CPython 3.11 on one CPU of a 2-CPU Xeon host.
"""

import _signal
import errno
import gc
import os
import sys
from collections import namedtuple
from collections.abc import Iterable
from io import TextIOBase
from types import SimpleNamespace

from .apsum import APWindow, check_window_square, sum_first_k, sum_sq_first_k
from .obstruction import trace_length3, valuation_law
from .residues import classify_prime_mod12, legendre_euler, sqrt_mod_prime
from .search import SearchReport, find_solutions, verify_no_solutions

_FORMATS = ("json", "csv", "text")
_JSON_SAFE_MAX = 2**53 - 1


# `rows`: CSV rows, given only when they are not the one row of `payload` values.
_Output = namedtuple("_Output", "payload text rows status", defaults=(None, 0))


# The characters `json.dumps` escapes by name; every other one outside printable ASCII is
# `\u` and four lowercase hex digits, an astral one as its UTF-16 surrogate pair.
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
}


def _escape(char: str) -> str:
    code = ord(char)
    if char in _ESCAPES:
        return _ESCAPES[char]
    if 0x20 <= code < 0x7F:
        return char
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _json_string(text: str) -> str:
    # As `json.dumps(text)` writes it, `ensure_ascii` on.
    return '"' + "".join(map(_escape, text)) + '"'


def _fitting(chars: Iterable[str], budget: int) -> int:
    # How many of `chars`, from the first, fit in `budget` bytes of JSON string; an escaped
    # character takes 2 to 12.
    kept = 0
    for char in chars:
        budget -= len(_escape(char))
        if budget < 0:
            break
        kept += 1
    return kept


def _print_error(message: str) -> None:
    # Every failure leaves a single machine-parsable record on stderr; a long message keeps its
    # ends, each at most 500 bytes once escaped. With no usable stderr (None, closed or full),
    # or a Ctrl-C or SIGTERM meanwhile, the record is lost and the code already chosen stays.
    try:
        if len(_json_string(message)) - 2 > 1000:
            head, tail = _fitting(message, 500), _fitting(reversed(message), 500)
            cut = len(message) - head - tail
            message = f"{message[:head]}...[{cut} characters cut]...{message[len(message) - tail:]}"
        _write(sys.stderr, render_json({"error": message}))
    except (OSError, ValueError, KeyboardInterrupt, _Terminated):
        pass


def _json(value: object) -> str:
    # A payload holds dicts with str keys, lists, tuples, str, int, bool and None. A bool is an
    # int, so it is told apart first; an int beyond 2^53 - 1 becomes a decimal string.
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value) if -_JSON_SAFE_MAX <= value <= _JSON_SAFE_MAX else f'"{value}"'
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_json, value)) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{_json_string(key)}:{_json(item)}" for key, item in items) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(payload: dict[str, object]) -> str:
    """`payload` as `json.dumps(..., sort_keys=True, separators=(",", ":"))` writes it, with
    every int beyond 2^53 - 1 in magnitude as a decimal string, and a newline."""
    return _json(payload) + "\n"


def render(output: _Output, columns: str, fmt: str) -> str:
    if fmt == "json":
        return render_json(output.payload)
    if fmt == "csv":
        header = columns.split(",")
        rows = output.rows if output.rows is not None else [[output.payload[c] for c in header]]
        # Every cell is an int, None or an obstruction name, so none needs quoting.
        return "".join(
            ",".join("" if item is None else str(item) for item in row) + "\n"
            for row in [header, *rows]
        )
    return output.text + "\n"


def _classify(args: SimpleNamespace) -> _Output:
    profile = classify_prime_mod12(args.p)
    kind = "residue" if profile.legendre3 == 1 else "non-residue"
    payload = {"p": args.p, "mod12": profile.residue_mod_12, "legendre3": profile.legendre3}
    text = f"p = {args.p}: p mod 12 = {profile.residue_mod_12}, 3 is a quadratic {kind} of p"
    return _Output(payload, text)


def _legendre(args: SimpleNamespace) -> _Output:
    symbol = legendre_euler(args.a, args.p)
    text = f"({args.a} / {args.p}) = {symbol}"
    return _Output({"a": args.a, "p": args.p, "symbol": symbol}, text)


def _sqrtmod(args: SimpleNamespace) -> _Output:
    roots = sqrt_mod_prime(args.a, args.p)
    if roots is None:
        text = f"x^2 = {args.a} (mod {args.p}) has no solution"
    else:
        text = f"x^2 = {args.a} (mod {args.p}): x = {roots[0]} or {roots[1]}"
    # One JSON list (or null), two CSV columns.
    row = [args.a, args.p, *(roots or (None, None))]
    return _Output({"a": args.a, "p": args.p, "roots": roots}, text, [row])


def _sum(args: SimpleNamespace) -> _Output:
    linear = sum_first_k(args.k)
    squares = sum_sq_first_k(args.k)
    text = f"1 + ... + {args.k} = {linear}; 1^2 + ... + {args.k}^2 = {squares}"
    return _Output({"k": args.k, "sum": linear, "sum_sq": squares}, text)


def _check(args: SimpleNamespace) -> _Output:
    window = APWindow(n=args.n, d=args.d, k=args.k)
    outcome = check_window_square(window)
    if outcome.root is not None:
        text = f"S({window.n}, {window.d}, {window.k}) = {outcome.sum} = {outcome.root}^2"
    else:
        text = (
            f"S({window.n}, {window.d}, {window.k}) = {outcome.sum}, not a perfect "
            f"square (floor sqrt {outcome.floor_root})"
        )
    return _Output({**window._asdict(), **outcome._asdict()}, text)


def _trace(args: SimpleNamespace) -> _Output:
    window = APWindow(n=args.n, d=args.d, k=args.k)
    report = trace_length3(window) if window.k == 3 else valuation_law(window)
    payload = {
        **window._asdict(),
        "prime": report.prime,
        "obstruction": report.obstruction,
        "splits": {
            "n": {"valuation": report.n_split.valuation, "unit": report.n_split.unit},
            "d": {"valuation": report.d_split.valuation, "unit": report.d_split.unit},
        },
        "details": dict(report.details),
    }
    detail_text = ", ".join(f"{key}={value}" for key, value in sorted(report.details.items()))
    # The CSV row keeps two of the details; either may be absent.
    row = [window.n, window.d, window.k, report.prime, report.obstruction]
    row += [report.details.get("valuation"), report.details.get("quotient")]
    text = (
        f"window ({window.n}, {window.d}, {window.k}): obstruction "
        f"{report.obstruction} ({detail_text})"
    )
    return _Output(payload, text, [row])


def _grid_output(
    args: SimpleNamespace, report: SearchReport, length: int, text: str, status: int = 0,
    **fields: object
) -> _Output:
    """The verify and search report: payload, and a `k,n,d,t` CSV row per solution, k = `length`."""
    payload = {
        **fields,
        "max_n": args.max_n,
        "max_d": args.max_d,
        "windows": report.windows_checked,
        "solutions": report.solutions,
    }
    return _Output(payload, text, [[length, *sol] for sol in report.solutions], status)


def _verify(args: SimpleNamespace) -> _Output:
    report = verify_no_solutions(args.p, args.max_n, args.max_d, checkpoint=args.checkpoint)
    if report.solutions:
        text = (
            f"COUNTEREXAMPLE: {len(report.solutions)} square window(s) of "
            f"length {args.p} found; this falsifies the nonexistence result"
        )
    else:
        text = (
            f"p = {args.p}: no square windows for n <= {args.max_n}, "
            f"d <= {args.max_d} ({report.windows_checked} windows checked)"
        )
    return _grid_output(args, report, args.p, text, 1 if report.solutions else 0, p=args.p)


def _search(args: SimpleNamespace) -> _Output:
    report = find_solutions(args.k, args.max_n, args.max_d, use_sieve=args.sieve)
    sieved = ", sieved" if report.sieve_used else ""
    lines = [
        f"k = {args.k}: {len(report.solutions)} square window(s) for n <= {args.max_n}, "
        f"d <= {args.max_d} ({report.windows_checked} windows checked{sieved})"
    ]
    lines.extend(f"  n={n} d={d} t={t}" for (n, d, t) in report.solutions)
    return _grid_output(args, report, args.k, "\n".join(lines), k=args.k, sieve=report.sieve_used)


# `columns` is the CSV header, and `run` the handler. `flags` maps a flag to its help and its
# kind: `int` for a required integer, `str` for an optional string, `bool` for a switch.
_Command = namedtuple("_Command", "help columns run flags")


_COMMANDS = {
    "classify": _Command(
        "mod-12 profile of a prime >= 5", "p,mod12,legendre3", _classify,
        {"--p": ("prime >= 5", int)}),
    "legendre": _Command(
        "Legendre symbol (a/p)", "a,p,symbol", _legendre,
        {"--a": (None, int), "--p": ("odd prime", int)}),
    "sqrtmod": _Command(
        "square roots of a modulo an odd prime", "a,p,root_small,root_large", _sqrtmod,
        {"--a": (None, int), "--p": ("odd prime not dividing a", int)}),
    "sum": _Command("sum and square-sum of 1..k", "k,sum,sum_sq", _sum, {"--k": (None, int)}),
    "check": _Command(
        "is the window's square sum a perfect square?", "n,d,k,sum,floor_root,root", _check,
        {"--n": ("first term", int), "--d": ("common difference", int),
         "--k": ("window length", int)}),
    "trace": _Command(
        "obstruction trace for k = 3 or prime k >= 5 with 3 a non-residue",
        "n,d,k,prime,obstruction,valuation,quotient", _trace,
        {"--n": (None, int), "--d": (None, int), "--k": (None, int)}),
    "verify": _Command(
        "exhaustively confirm there are no square windows of length p", "k,n,d,t", _verify,
        {"--p": ("3, or a prime >= 5 with 3 a non-residue", int), "--max-n": (None, int),
         "--max-d": (None, int), "--checkpoint": ("row-checkpoint file for resume", str)}),
    "search": _Command(
        "find square windows of length k", "k,n,d,t", _search,
        {"--k": ("window length >= 2", int), "--max-n": (None, int), "--max-d": (None, int),
         "--sieve": ("prune with the d/n residue sieve", bool)}),
}

# Every command also takes `--format`, whose kind is its tuple of choices, and `-h`/`--help`.
_FORMAT_FLAG = {"--format": ("output format (default: json)", _FORMATS)}
_HELP_FLAGS = ("-h", "--help")


def _negative_number(token: str) -> bool:
    # argparse's `^-\d+$|^-\d*\.\d+$` on a dash word: `\d` is any Unicode decimal digit, and `$`
    # also matches before one final newline. A negative number can be a flag's value.
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _looks_like_flag(token: str, known: set[str]) -> bool:
    # A known flag, alone or before "=", or a dash word that is neither a negative number nor
    # spaced; any other token can be a flag's value.
    if token[:1] != "-" or len(token) == 1:
        return False
    if token.partition("=")[0] in known:
        return True
    return not (_negative_number(token) or " " in token)


def _spelling(flag: str, kind: object) -> str:
    # As argparse writes a flag in a usage line: an optional one in brackets.
    if kind is int:
        return f"{flag} {flag[2:].upper().replace('-', '_')}"
    if kind is str:
        return f"[{flag} {flag[2:].upper()}]"
    return f"[{flag} {{{','.join(kind)}}}]" if isinstance(kind, tuple) else f"[{flag}]"


def _usage(name: str | None) -> str:
    """The `-h`/`--help` text: the commands, or one command's flags."""
    if name is None:
        title = "COMMAND --FLAG VALUE ..."
        about = (
            "Sums of squares of arithmetic-progression windows: classification,\n"
            "obstruction traces, verification, and search. `apsquares COMMAND --help`\n"
            "lists a command's flags."
        )
        rows = [(command, entry.help) for command, entry in _COMMANDS.items()]
    else:
        title, about = f"{name} --FLAG VALUE ...", _COMMANDS[name].help
        flags = {**_COMMANDS[name].flags, **_FORMAT_FLAG}
        rows = [(_spelling(flag, kind), text) for flag, (text, kind) in flags.items()]
        rows.append(("[-h, --help]", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"usage: apsquares {title}", "", about, ""]
    lines += [f"  {left:<{width}}{text or ''}".rstrip() for left, text in rows]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Parse `COMMAND --FLAG VALUE ...` into the command's flag values.

    The command comes first. Each flag is spelled in full, as `--flag value` or
    `--flag=value`, and its last occurrence wins; every occurrence is checked.
    A value may start with `-` only if it is a negative number. A usage error
    raises `ValueError` with CPython 3.11 argparse's message; nothing is
    written. `-h` or `--help` returns a namespace whose `command` is None and
    whose `usage` is the help text.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    name = argv[0]
    if name in _HELP_FLAGS:
        return SimpleNamespace(command=None, usage=_usage(None))
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    flags = {**_COMMANDS[name].flags, **_FORMAT_FLAG}
    values = {"command": name, "format": "json"}
    for flag, (_, kind) in _COMMANDS[name].flags.items():
        values[flag[2:].replace("-", "_")] = False if kind is bool else None
    known = {*flags, *_HELP_FLAGS}
    seen, unrecognized = set(), []
    index = 1
    while index < len(argv):
        token = argv[index]
        index += 1
        flag, explicit, value = token.partition("=")
        if flag in _HELP_FLAGS:
            if explicit:
                raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
            return SimpleNamespace(command=None, usage=_usage(name))
        if flag not in flags:
            unrecognized.append(token)
            continue
        seen.add(flag)
        kind = flags[flag][1]
        if kind is bool:
            if explicit:
                raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not explicit:
            if index == len(argv) or _looks_like_flag(argv[index], known):
                raise ValueError(f"argument {flag}: expected one argument")
            value = argv[index]
            index += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid int value: {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            raise ValueError(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[flag[2:].replace("-", "_")] = value
    missing = [flag for flag, (_, kind) in flags.items() if kind is int and flag not in seen]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        raise ValueError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(**values)


def dispatch(args: SimpleNamespace) -> _Output:
    return _COMMANDS[args.command].run(args)


def _write(stream: TextIOBase | None, text: str) -> None:
    """Write all of `text` to `stream`, stdout or stderr, and flush it, or raise OSError("cannot
    write output: ...") after pointing that stream's descriptor, if it has one, at the null
    device, so the interpreter's own flush at exit neither fails nor prints a second record."""
    try:
        if stream is None:  # closed before start (`>&-`); only stdout's record is ever seen
            raise OSError("stdout is closed")
        buffer = getattr(stream, "buffer", None)
        if buffer is None:  # a text-only stream
            stream.write(text)
            stream.flush()
            return
        # An unbuffered stream's raw file may take only part of a write and return the count, which
        # the text layer ignores, or None if its non-blocking descriptor is full. So the encoded
        # bytes go to the layer below, each write resuming where the last one ended.
        stream.flush()
        data = memoryview(text.encode(stream.encoding, stream.errors))
        while data:
            written = buffer.write(data)
            if written is None:
                raise BlockingIOError(errno.EAGAIN, "write could not complete without blocking")
            data = data[written:]
        buffer.flush()
    except OSError as exc:
        try:
            fd = stream.fileno()
        except (AttributeError, OSError):  # None, or a stream with no descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise OSError(f"cannot write output: {exc}") from None


class _Terminated(BaseException):
    """SIGTERM arrived; like KeyboardInterrupt, not an `Exception`."""


def _raise_terminated(signum: int, frame: object) -> None:
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    # Exact sums outgrow CPython's 4300-digit int <-> str limit (3.10.7 on); lift it for the run.
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    handler = _signal.getsignal(_signal.SIGTERM)
    trapped, message = True, None
    try:
        try:
            _signal.signal(_signal.SIGTERM, _raise_terminated)
        except ValueError:  # only the main thread may install signal handlers
            trapped = False
        if digits is not None:
            sys.set_int_max_str_digits(0)
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.command is None:  # -h or --help
            text, status = args.usage, 0
        else:
            output = dispatch(args)
            text = render(output, _COMMANDS[args.command].columns, args.format)
            status = output.status
        _write(sys.stdout, text)
    # Each failure only picks its code and message: exit 1 is a counterexample's alone.
    except (ValueError, OSError) as exc:  # a usage error, or an unusable checkpoint or stdout
        status, message = 2, str(exc)
    except Exception as exc:  # a failed internal check or any other bug
        status, message = 3, str(exc) or type(exc).__name__
    except KeyboardInterrupt:  # completed rows are already flushed to any checkpoint
        status, message = 130, "interrupted"
    except _Terminated:
        status, message = 143, "terminated"
    finally:
        if message is not None:  # written while the trap still holds
            _print_error(message)
        if trapped:
            _signal.signal(_signal.SIGTERM, handler)
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    return status


def run() -> int:
    """Run `main()` on `sys.argv` in a process that exits next: return its
    status, after freezing the heap.

    Every object the run left moves into the permanent generation, which
    the full collections CPython runs at shutdown skip: after a `verify`
    run, about 12,800 tracked objects from 121 modules, which each of them
    would walk. Nothing else at exit changes: atexit handlers, the stdio
    flush and module teardown still run. Frozen cycles are never
    collected, so a `__del__` in one would not run; the checkpoint file is
    closed by its `with` before `main` returns, so no output depends on one.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
