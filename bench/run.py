#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for apsquares.

Run from the repository root:

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

With ``--trace 0`` each iteration spawns ``python -m apsquares ...`` (or
the trace-batch child) with PYTHONPATH set to this tree's ``src``, one
child at a time, times it from spawn to exit and brackets it with a
fixed reference loop; medians over the iterations are the end-to-end
metrics. With ``--trace 1`` the same
workload runs in-process, alternately untraced and under `Tracer`, and
the per-layer metrics come from the traced runs. Every output is
checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` runs every
workload briefly at small sizes and shows that a corrupted expected
digest is counted as a failure. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

WORKLOADS = ("verify-grid", "search-square", "search-tall", "trace-batch")
CHILD_TIMEOUT_S = 100.0
SETUP_GROUP = 3

# name -> (unit, better)
END_TO_END = {
    "windows_per_ref": ("1/ref", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Traced functions and the statistics reported for each.
TRACED = {
    "search._scan_row": ("calls", "cells", "self_s", "cells_per_s"),
    "search._sieved_row": ("calls", "self_s"),
    "search._sieved_cell": ("calls", "self_s"),
    "search._record": ("calls", "self_s"),
    "obstruction.valuation_law": ("calls", "self_s"),
    "obstruction.trace_length3": ("calls", "self_s"),
    "obstruction.residue_sieve": ("calls", "self_s"),
    "exactarith.padic_split": ("calls", "self_s"),
    "apsum.window_sum_sq_closed": ("calls", "self_s"),
    "residues.is_prime": ("calls", "self_s", "calls_per_window"),
    "residues.legendre_euler": ("calls", "self_s"),
    "residues.sqrt_mod_prime": ("calls", "self_s"),
    "cli.render_json": ("self_s", "bytes"),
}
STAT_UNITS = {
    "calls": ("count", "lower"),
    "cells": ("count", "lower"),
    "self_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "calls_per_window": ("calls/window", "lower"),
    "bytes": ("B", "lower"),
}
PER_LAYER = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in TRACED.items() for stat in stats}
PER_LAYER.update({
    "search.prune_fraction": ("ratio", "higher"),
    "search.checkpoint_bytes": ("B", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# Pinned sha256 of the compact JSON solution list, ascending in (d, n),
# for every grid a seed can pick. Derived once by an independent
# brute-force oracle (term-by-term sums, exact isqrt) and matching the
# program's sieved and unsieved output at the time of pinning.
SQUARE_K = 11
SQUARE_GRIDS = {
    (1000, 1000): "527f7b54c5701666851e8a19c6bb93cfce3afbd656890e9e214183a7f2ad065f",
    (980, 1020): "73a0022cfe2508c9a375b03666204d877e6028fcd57de72c3f792361920d537e",
    (1020, 980): "453e878d6d883f6284143a075baeb69cb845641acb5f8721250b66d2b4299873",
    (990, 1010): "c37ed16745580c2d7453858fcd4e17ae1fe59eaf46e0de8cf1f2f8841c4236b4",
    (1010, 990): "afe8ff85d7660a3b262d9c1d44abb9d5d25b654e084b13852d9f9cfe93913766",
    (995, 1005): "8eb2bbb15de11ba9f981442978c084a7ed0d97378cf5147e2e42a49e3057caff",
    (1005, 995): "527f7b54c5701666851e8a19c6bb93cfce3afbd656890e9e214183a7f2ad065f",
}
SQUARE_SMOKE = ((120, 120), "2e2d92c474bde60caf5548d54efdd582ef5af0f3377a15d2ba316d91bb8892b4")
EMPTY_DIGEST = hashlib.sha256(b"[]").hexdigest()
# The oracle finds no length-13 solution with n <= 20 and d <= 204000,
# so every tall grid pins the empty list; search-square carries the
# hit-list checks.
TALL_K = 13
TALL_GRIDS = {(20, d_max): EMPTY_DIGEST for d_max in range(47000, 54000, 1000)}
TALL_SMOKE = ((20, 2000), EMPTY_DIGEST)
VERIFY_P = 89
TRACE_WINDOWS = 1250
SMOKE_TRACE_WINDOWS = 200


def digest(solutions: list) -> str:
    return hashlib.sha256(json.dumps(solutions, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------- inputs


@dataclass
class GridCase:
    """One CLI invocation over the grid [1, n_max] x [1, d_max]."""

    command: str
    k: int
    n_max: int
    d_max: int
    expected_digest: str | None = None  # None: verify, which must find nothing

    @property
    def cells(self) -> int:
        return self.n_max * self.d_max

    def argv(self, checkpoint: str | None) -> list[str]:
        flag = "--p" if self.command == "verify" else "--k"
        argv = [self.command, flag, str(self.k), "--max-n", str(self.n_max), "--max-d", str(self.d_max)]
        if self.command == "search":
            argv.append("--sieve")
        if checkpoint:
            argv += ["--checkpoint", checkpoint]
        return argv

    def setup_case(self) -> "GridCase":
        return GridCase(self.command, self.k, 1, 1, None if self.command == "verify" else EMPTY_DIGEST)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin, exact below 3.3e24 with these witnesses.

    The benchmark makes its inputs without the program under test, so
    a change to the program's primality test cannot change the inputs.
    """
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _nonresidue_prime(rng: random.Random) -> int:
    """A prime p = 5, 7 (mod 12) of 8 to 80 bits."""
    bits = rng.randint(8, 80)
    while True:
        c = rng.getrandbits(bits) | 1 << (bits - 1)
        c += rng.choice((5, 7)) - c % 12
        if c.bit_length() == bits and _is_prime(c):
            return c


def trace_windows(rng: random.Random, count: int) -> list[list[int]]:
    """Half length 3, half non-residue primes; n, d of 20-256 bits, 30% times k^1..4."""
    windows = []
    for i in range(count):
        k = 3 if i % 2 == 0 else _nonresidue_prime(rng)
        n, d = (rng.getrandbits(bits) | 1 << (bits - 1) for bits in (rng.randint(20, 256), rng.randint(20, 256)))
        n, d = (x * k ** rng.randint(1, 4) if rng.random() < 0.3 else x for x in (n, d))
        windows.append([n, d, k])
    return windows


def grid_case(workload: str, rng: random.Random, smoke: bool) -> GridCase:
    if workload == "verify-grid":
        if smoke:
            return GridCase("verify", VERIFY_P, 200, 200)
        return GridCase("verify", VERIFY_P, rng.randrange(980, 1021), rng.randrange(980, 1021))
    k, grids, smoke_grid = {
        "search-square": (SQUARE_K, SQUARE_GRIDS, SQUARE_SMOKE),
        "search-tall": (TALL_K, TALL_GRIDS, TALL_SMOKE),
    }[workload]
    (n_max, d_max), pinned = smoke_grid if smoke else rng.choice(sorted(grids.items()))
    return GridCase("search", k, n_max, d_max, pinned)


# ---------------------------------------------------------------- checks


def _valuation(x: int, p: int) -> tuple[int, int]:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def expected_trace(n: int, d: int, k: int) -> list:
    """Obstruction kind and valuation, re-derived without the program."""
    if k == 3:
        v, _ = _valuation(sum((n + i * d) ** 2 for i in range(3)), 3)
        return ["VALUATION_PARITY" if v % 2 else "MOD3_QUOTIENT", v]
    # sum_{i<k} (n + i d)^2 by Faulhaber: k n^2 + 2 n d sum(i) + d^2 sum(i^2)
    total = k * n * n + n * d * k * (k - 1) + d * d * (k - 1) * k * (2 * k - 1) // 6
    v, _ = _valuation(6 * total, k)
    return ["VALUATION_PARITY", v]


def check_grid(case: GridCase, status: int | None, stdout: str, checkpoint: str | None) -> str | None:
    """Why the CLI output is wrong, or None when it is correct."""
    if status != 0:
        return f"exit status {status}"
    key = "p" if case.command == "verify" else "k"
    try:
        payload = json.loads(stdout)
        echoed = (payload[key], payload["max_n"], payload["max_d"])
        solutions = [[int(n), int(d), int(t)] for n, d, t in payload["solutions"]]
        windows = int(payload["windows"])
    except (ValueError, TypeError, KeyError):
        return f"malformed payload: {stdout[:200]!r}"
    if echoed != (case.k, case.n_max, case.d_max):
        return f"payload echoes the wrong parameters: {stdout[:200]!r}"
    if case.expected_digest is None:
        if solutions or windows != case.cells:
            return f"verify: solutions={solutions[:3]} windows={windows}, expected [] and {case.cells}"
    else:
        if not 0 <= windows <= case.cells:
            return f"search: windows={windows} outside [0, {case.cells}]"
        for n, d, t in solutions:
            if not (1 <= n <= case.n_max and 1 <= d <= case.d_max) or sum((n + i * d) ** 2 for i in range(case.k)) != t * t:
                return f"search: ({n}, {d}, {t}) is not a square window of length {case.k}"
        if digest(solutions) != case.expected_digest:
            return f"search: solution list digest {digest(solutions)} != pinned {case.expected_digest}"
    if checkpoint is not None:
        with open(checkpoint, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        header = f"k={case.k} n_max={case.n_max} d_max={case.d_max} sieve=0"
        if lines != [header] + [f"done d={d}" for d in range(1, case.d_max + 1)]:
            return f"checkpoint holds {len(lines)} lines, expected the header and {case.d_max} done lines"
    return None


# ---------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith(("PYTHON", "APSQUARES_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    status: int | None  # None on timeout
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def spawn(argv: list[str], work: Path) -> ChildResult:
    """Run one child to completion through spawn.py, which times it and reads its peak RSS."""
    fd, report = tempfile.mkstemp(dir=work, suffix=".report")
    os.close(fd)
    launcher = [sys.executable, "-I", "-S", str(BENCH / "spawn.py"), report, str(CHILD_TIMEOUT_S)]
    try:
        with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
            subprocess.run(launcher + argv, stdout=out, stderr=err, cwd=ROOT, env=child_env(),
                           timeout=CHILD_TIMEOUT_S + 30)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
        status, wall_s, rss_kib = Path(report).read_text(encoding="ascii").split()
    except (subprocess.TimeoutExpired, ValueError) as exc:
        return ChildResult(None, "", f"launcher failed: {exc!r}", 0.0, 0.0)
    finally:
        os.unlink(report)
    return ChildResult(
        status=None if status == "timeout" else int(status),
        stdout=stdout,
        stderr=stderr,
        wall_s=float(wall_s),
        peak_rss_mb=int(rss_kib) / 1024,
    )


def fresh_checkpoint(work: Path) -> str:
    fd, path = tempfile.mkstemp(dir=work, suffix=".ckpt")
    os.close(fd)
    return path


# ---------------------------------------------------------------- runs


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)

    def count(self, error: str | None, log) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            log(f"FAIL: {error}")
        return error is None


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def reference_s(work: Path) -> tuple[str | None, float]:
    child = spawn([sys.executable, "-I", "-S", str(BENCH / "reference.py")], work)
    try:
        return None, float(child.stdout)
    except ValueError:
        return f"reference loop failed: {child.stderr.strip()[:300]}", 0.0


def measure(setup, main, seconds: float, work: Path, log) -> Outcome:
    """Alternate measured child, reference loop and set-up child until `seconds` pass.

    `setup` and `main` each run one child and return (error, seconds,
    windows, peak RSS in MB). This machine's CPUs switch between speed
    regimes about 35% apart every second or so. So each child's rate is
    scaled by the mean time of the reference loops run right before and
    after it on the same CPU (see `pin_to_one_cpu`). A set-up child is
    shorter than a regime, so set-up samples are means of SETUP_GROUP
    consecutive children, which span regimes instead of landing in one.
    """
    outcome = Outcome()
    setups, rates, ref_rates, rss = [], [], [], []
    error, ref = reference_s(work)
    outcome.count(error, log)
    deadline = time.perf_counter() + seconds
    while True:
        (error, took, windows, peak), (ref_error, next_ref) = main(), reference_s(work)
        if outcome.count("; ".join(e for e in (error, ref_error) if e) or None, log):
            rates.append(windows / took)
            ref_rates.append(rates[-1] * (ref + next_ref) / 2)
            rss.append(peak)
            log(f"run {len(rates)}: seconds={took:.4f} windows_per_s={rates[-1]:.1f} "
                f"reference_s={(ref + next_ref) / 2:.4f} windows_per_ref={ref_rates[-1]:.1f} peak_rss_mb={peak:.3f}")
        ref = next_ref
        error, setup_s, _, _ = setup()
        if outcome.count(error, log):
            setups.append(setup_s)
        if time.perf_counter() >= deadline:
            break
    groups = [statistics.fmean(setups[i:i + SETUP_GROUP]) for i in range(0, len(setups), SETUP_GROUP)]
    log(f"medians: windows_per_s {median(rates):.1f} 1/s over {len(rates)} runs, "
        f"setup_s {median(groups):.4f} s over {len(groups)} groups of up to {SETUP_GROUP}")
    outcome.metrics = {"windows_per_ref": median(ref_rates), "setup_s": median(groups), "peak_rss_mb": median(rss)}
    return outcome


def grid_child(case: GridCase, work: Path):
    def run() -> tuple[str | None, float, int, float]:
        ckpt = fresh_checkpoint(work) if case.command == "verify" else None
        child = spawn([sys.executable, "-m", "apsquares", *case.argv(ckpt)], work)
        error = check_grid(case, child.status, child.stdout, ckpt)
        if error and child.stderr:
            error += f"; stderr: {child.stderr.strip()[:300]}"
        if ckpt:
            os.unlink(ckpt)
        return error, child.wall_s, case.cells, child.peak_rss_mb

    return run


def trace_children(windows: list, work: Path):
    expected = [expected_trace(*w) for w in windows]
    path = work / "windows.json"
    path.write_text(json.dumps(windows), encoding="ascii")

    def setup() -> tuple[str | None, float, int, float]:
        child = spawn([sys.executable, "-c", "import apsquares"], work)
        error = None if child.status == 0 else f"import failed: {child.stderr.strip()[:300]}"
        return error, child.wall_s, 0, child.peak_rss_mb

    def run() -> tuple[str | None, float, int, float]:
        child = spawn([sys.executable, str(BENCH / "tracebatch.py"), str(path)], work)
        if child.status != 0:
            return f"exit status {child.status}; stderr: {child.stderr.strip()[:300]}", 0.0, 0, 0.0
        try:
            result = json.loads(child.stdout)
            loop_s, results = float(result["loop_s"]), result["results"]
        except (ValueError, TypeError, KeyError):
            return f"malformed trace output: {child.stdout[:200]!r}", 0.0, 0, 0.0
        if results != expected:
            return "trace results differ from the oracle", 0.0, 0, 0.0
        return None, loop_s, len(windows), child.peak_rss_mb

    return setup, run


def run_traced(case: GridCase | None, windows: list | None, seconds: float, work: Path, log) -> Outcome:
    """Alternate untraced and traced in-process runs; report per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import apsquares.cli as cli
    import tracebatch
    from tracer import Tracer

    outcome = Outcome()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        outcome.count(f"imported {cli.__file__}, not the tree under test in {SRC}", log)
        return outcome
    probe = "import sys, time; t = time.perf_counter(); import apsquares.cli; sys.stdout.write(repr(time.perf_counter() - t))"
    import_s = []
    for _ in range(5):
        child = spawn([sys.executable, "-c", probe], work)
        if outcome.count(None if child.status == 0 else f"import failed: {child.stderr.strip()[:300]}", log):
            import_s.append(float(child.stdout))
    expected = [expected_trace(*w) for w in windows] if windows is not None else None

    def once(tracer: Tracer | None) -> tuple[float, str | None, dict]:
        ckpt = fresh_checkpoint(work) if case is not None and case.command == "verify" else None
        extra = {}
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            if case is not None:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = cli.main(case.argv(ckpt))
            else:
                results = tracebatch.trace_all(windows)
            wall = time.perf_counter() - start
        if case is not None:
            error = check_grid(case, status, buf.getvalue(), ckpt)
            if error is None:
                extra["prune_fraction"] = 1 - json.loads(buf.getvalue())["windows"] / case.cells
            if ckpt:
                extra["checkpoint_bytes"] = os.path.getsize(ckpt)
                os.unlink(ckpt)
        else:
            error = None if results == expected else "trace results differ from the oracle"
        return wall, error, extra

    overheads, traced_stats, counts = [], [], {}
    deadline = time.perf_counter() + seconds
    while True:
        plain_s, error, _ = once(None)
        outcome.count(error, log)
        tracer = Tracer()
        traced_s, error, extra = once(tracer)
        if outcome.count(error, log):
            overheads.append(traced_s - plain_s)
            traced_stats.append(tracer.stats)
            counts = extra
            log(f"pair {len(overheads)}: untraced_s={plain_s:.4f} traced_s={traced_s:.4f}")
        if time.perf_counter() >= deadline:
            break

    windows_decided = case.cells if case is not None else len(windows)
    metrics: dict[str, float] = {}
    last = traced_stats[-1] if traced_stats else {}
    for fn, stats in TRACED.items():
        calls, _, extra_count = last.get(fn, (0, 0.0, 0))
        self_s = median([s.get(fn, (0, 0.0, 0))[1] for s in traced_stats])
        values = {
            "calls": calls,
            "self_s": self_s,
            "cells": extra_count,
            "bytes": extra_count,
            "cells_per_s": extra_count / self_s if self_s else 0.0,
            "calls_per_window": calls / windows_decided,
        }
        metrics.update({f"{fn}.{stat}": values[stat] for stat in stats})
    metrics["search.prune_fraction"] = counts.get("prune_fraction", 0.0)
    metrics["search.checkpoint_bytes"] = counts.get("checkpoint_bytes", 0)
    metrics["cli.import_s"] = median(import_s)
    metrics["trace.overhead_s"] = median(overheads)
    if traced_stats:
        log("traced functions (name calls self_s):")
        for name, (calls, self_s, _) in sorted(last.items(), key=lambda item: -item[1][1]):
            if calls:
                log(f"  {name} {calls} {self_s:.6f}")
    outcome.metrics = metrics
    return outcome


# ---------------------------------------------------------------- entry point


def machine_facts(workload: str, seed: int, inputs: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "apsquares").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }


def probe_import(work: Path) -> str | None:
    """The child interpreter must import apsquares from this tree's src."""
    child = spawn([sys.executable, "-c", "import sys, apsquares; sys.stdout.write(apsquares.__file__)"], work)
    if child.status != 0:
        return f"cannot import apsquares from {SRC}: {child.stderr.strip()[:300]}"
    if not Path(child.stdout).resolve().is_relative_to(SRC):
        return f"child imported {child.stdout}, not the tree under test in {SRC}"
    return None


def pin_to_one_cpu() -> None:
    """Run the benchmark and every child it starts on one CPU.

    The CPUs of a shared host change speed independently, so a reference
    loop only predicts a child's speed when both run on the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
                 corrupt_digest: bool = False, log=print) -> Outcome:
    rng = random.Random(f"{workload}:{seed}")
    work = Path(tempfile.mkdtemp(dir=BENCH, prefix=".work-"))
    try:
        case = windows = None
        if workload == "trace-batch":
            windows = trace_windows(rng, SMOKE_TRACE_WINDOWS if smoke else TRACE_WINDOWS)
            inputs = {"windows": len(windows)}
        else:
            case = grid_case(workload, rng, smoke)
            if corrupt_digest:
                case.expected_digest = "0" * 64
            inputs = {"argv": case.argv(None), "cells": case.cells}
        log(json.dumps({"machine": machine_facts(workload, seed, inputs)}, sort_keys=True))
        error = probe_import(work)
        if error:
            outcome = Outcome()
            outcome.count(error, log)
            return outcome
        if trace:
            outcome = run_traced(case, windows, seconds, work, log)
        elif case is not None:
            outcome = measure(grid_child(case.setup_case(), work), grid_child(case, work), seconds, work, log)
        else:
            outcome = measure(*trace_children(windows, work), seconds, work, log)
        log(f"failure_rate {outcome.failed / outcome.attempted:.4f} ({outcome.failed} of {outcome.attempted} runs failed)")
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(outcome: Outcome, trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0), "unit": units[name][0]} for name in units},
    })


def smoke() -> int:
    """Every workload briefly at small sizes, then a corrupted digest."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
    if declared is not None:
        for key, registry in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if {m["name"]: (m["unit"], m["better"]) for m in declared[key]} != registry:
                problems.append(f"BENCHMARK.json {key} does not match run.py")
        if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads do not match run.py")
    quiet = lambda line: None  # noqa: E731
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome = run_workload(workload, 1, 1, trace, smoke=True, log=quiet)
            names = PER_LAYER if trace else END_TO_END
            ok = outcome.failed == 0 and outcome.attempted > 0 and set(outcome.metrics) == set(names)
            print(f"smoke {workload} trace={int(trace)}: {'PASS' if ok else 'FAIL'} "
                  f"({outcome.attempted} runs, {outcome.failed} failed)")
            if not ok:
                problems.append(f"{workload} trace={int(trace)}")
    outcome = run_workload("search-square", 1, 1, False, smoke=True, corrupt_digest=True, log=quiet)
    ok = outcome.attempted > 0 and outcome.failed > 0
    print(f"smoke corrupted digest counted as failure: {'PASS' if ok else 'FAIL'} "
          f"({outcome.failed} of {outcome.attempted} runs failed)")
    if not ok:
        problems.append("corrupted digest was not counted as a failure")
    for problem in problems:
        print(f"smoke problem: {problem}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="brief run of every workload at small sizes")
    args = parser.parse_args(argv)
    if not (SRC / "apsquares" / "__init__.py").is_file():
        print(f"error: no apsquares package under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.smoke:
        return smoke()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and a positive --seconds are required")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(result_line(outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
