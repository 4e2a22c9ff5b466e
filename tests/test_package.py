"""Tests for the package's public surface."""

import types

import apsquares


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(apsquares).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(apsquares.__all__) == public


def test_the_public_names_are_exactly_these():
    # With test_all_lists_exactly_the_public_names this pins the whole
    # surface: every listed name resolves, and no other public name, such
    # as a wrapper of math.isqrt or pow, is exported. The paper's
    # congruence 6N^2 - 6ND + D^2 = 0 (mod p) is exported once, solved for
    # D/N, as residue_sieve. The window sum and the p-adic split have one
    # spelling each; their term-by-term and repeated-division oracles live
    # in tests/conftest.py.
    assert sorted(apsquares.__all__) == [
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
