"""Exact arithmetic for sums of squares of arithmetic-progression windows.

The library decides perfect-squareness of window sums, classifies odd
primes by the quadratic character of 3 mod p, produces checkable
per-instance obstructions for the window lengths where a square sum is
impossible (length 3, and primes with 3 a non-residue), verifies their
absence on grids with resumable checkpoints, and searches for genuine
square windows at the remaining lengths with a lossless residue sieve.
"""

from .apsum import (
    APWindow,
    SquareOutcome,
    check_window_square,
    sum_first_k,
    sum_sq_first_k,
    window_sum_sq_closed,
)
from .obstruction import (
    MOD3_QUOTIENT,
    VALUATION_PARITY,
    PAdicSplit,
    TraceReport,
    residue_sieve,
    trace_length3,
    valuation_law,
)
from .residues import (
    DETERMINISTIC_LIMIT,
    PrimeProfile,
    classify_prime_mod12,
    is_prime,
    jacobi,
    legendre_euler,
    sqrt_mod_prime,
)
from .search import (
    CheckpointMismatch,
    SearchReport,
    find_solutions,
    verify_no_solutions,
)

__version__ = "0.1.0"

__all__ = [
    "APWindow",
    "CheckpointMismatch",
    "DETERMINISTIC_LIMIT",
    "MOD3_QUOTIENT",
    "PAdicSplit",
    "PrimeProfile",
    "SearchReport",
    "SquareOutcome",
    "TraceReport",
    "VALUATION_PARITY",
    "check_window_square",
    "classify_prime_mod12",
    "find_solutions",
    "is_prime",
    "jacobi",
    "legendre_euler",
    "residue_sieve",
    "sqrt_mod_prime",
    "sum_first_k",
    "sum_sq_first_k",
    "trace_length3",
    "valuation_law",
    "verify_no_solutions",
    "window_sum_sq_closed",
]
