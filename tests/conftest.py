"""Shared oracle helpers, deliberately independent of the library code,
and the CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

# CLI tests run `python -m apsquares` in a subprocess; let it import the
# package from this checkout's src/ without an install, as pytest's
# `pythonpath` setting does for the test process itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Far beyond any CLI run in the suite; a child that hangs fails one test.
CLI_TIMEOUT_S = 120


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "apsquares", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env_extra or {})},
        timeout=CLI_TIMEOUT_S,
    )


def primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes; the tests' independent prime oracle."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, limit, p))
    return [i for i in range(limit) if flags[i]]


def direct_square_sum(n: int, d: int, k: int) -> int:
    """Term-by-term window sum; the tests' summation oracle."""
    return sum((n + i * d) ** 2 for i in range(k))


def split(x: int, p: int) -> tuple[int, int]:
    """(v, unit) with x = p^v * unit, p not dividing unit, for x >= 1, by
    repeated division; the tests' valuation oracle."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x
