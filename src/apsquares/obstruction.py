"""Per-instance obstructions to perfect-square window sums.

For a window of prime length p whose sum of squares were a perfect
square, writing n = p^e*N, d = p^f*D with N, D coprime to p forces

    6*N^2 - 6*N*D + D^2 = 0  (mod p)        (when e = f)

and from that congruence [K*(3N - D)]^2 = 3 (mod p) with K the inverse
of N, i.e. 3 must be a quadratic residue of p. For p = 5, 7 (mod 12) it
is not, the congruence is unsatisfiable, and v_p(6*S) comes out odd --
incompatible with a square. This module holds the split n = p^e*N that
the law reads, computes those obstructions as checkable exact-integer
reports, handles length 3 by its own mod-3 analysis, and solves the
congruence once, for d/n, in `residue_sieve`. A trace checks its prime
once, then splits unchecked. For p >= 5 it checks the law with one
divmod of S by p^(2m+1), m = min(e, f), and one remainder of the
quotient mod p; only a violation counts the true valuation. Records are
built positionally, past namedtuple's keyword `__new__`.
"""

from __future__ import annotations

from collections import namedtuple

from .apsum import APWindow, window_sum_sq_closed
from .residues import is_prime, sqrt_mod_prime

# Obstruction kinds carried by TraceReport. The tracing operations below
# refuse the configurations where a square (hence no obstruction) is
# possible at all, so every report carries one of these.
VALUATION_PARITY = "VALUATION_PARITY"
MOD3_QUOTIENT = "MOD3_QUOTIENT"


class PAdicSplit(namedtuple("PAdicSplit", "base valuation unit")):
    """Decomposition x = base**valuation * unit with base not dividing unit."""

    __slots__ = ()


def _split(x: int, p: int) -> PAdicSplit:
    """Split x >= 1 as p**v * unit, for a prime p the caller has already checked."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return tuple.__new__(PAdicSplit, (p, v, x))


class TraceReport(namedtuple("TraceReport", "window prime n_split d_split obstruction details")):
    """The concrete obstruction refuting perfect-squareness of one window.

    Every integer in `details` is recomputable from the window alone:
    `valuation` is the p-adic valuation of the quantity that would have
    to have even valuation for a square (S itself for length 3, 6*S for
    prime lengths >= 5), and for length 3 `quotient` is S with all
    factors of 3 removed.
    """

    __slots__ = ()


def _require_nonresidue_prime(p: int) -> None:
    """Refuse all but the lengths the valuation law covers: primes p = 5, 7 (mod 12)."""
    if not is_prime(p) or p < 5:
        hint = "; length 3 is handled by trace_length3" if p == 3 else ""
        raise ValueError(f"window length must be a prime >= 5, got {p}{hint}")
    if p % 12 in (1, 11):
        raise ValueError(
            f"3 is a quadratic residue mod {p}; the valuation law is not "
            "guaranteed there and square windows may exist"
        )


def valuation_law(window: APWindow) -> TraceReport:
    """Obstruction for prime window lengths p >= 5 with 3 a non-residue.

    With e, f the p-adic valuations of n and d, the valuation of 6*S is
    exactly 2*min(e, f) + 1 -- odd, while 6 times a square has even
    p-adic valuation for p >= 5. The equality is re-derived here and a
    violation raises, since it would contradict the nonexistence result
    the law is distilled from. As p is prime to 6, v_p(6*S) = v_p(S), so
    one divmod by p^(2m+1) and one remainder mod p decide it.
    """
    n, d, p = window
    _require_nonresidue_prime(p)
    n_split = _split(n, p)
    d_split = _split(d, p)
    total = window_sum_sq_closed(window)
    min_exp = min(n_split[1], d_split[1])
    expected = 2 * min_exp + 1
    quotient, rest = divmod(total, p**expected)
    if rest or not quotient % p:
        raise RuntimeError(
            f"valuation law violated at {window}: v={_split(6 * total, p)[1]}, "
            f"expected {expected}; this would falsify the "
            "nonexistence result"
        )
    details = {"sum": total, "valuation": expected, "min_exponent": min_exp}
    return tuple.__new__(TraceReport, (window, p, n_split, d_split, VALUATION_PARITY, details))


def trace_length3(window: APWindow) -> TraceReport:
    """Obstruction for 3-term windows.

    Let v be the 3-adic valuation of S and Q = S / 3^v. Either v is odd
    (valuation parity obstruction) or Q = 2 (mod 3); a perfect square
    has even valuation and a quotient of 1 mod 3, so exactly one of the
    two fires for every window.
    """
    n, d, k = window
    if k != 3:
        raise ValueError(f"trace_length3 requires a window of length 3, got {k}")
    total = window_sum_sq_closed(window)
    _, v, quotient = _split(total, 3)
    residue = quotient % 3
    if not v % 2 and residue != 2:
        raise RuntimeError(
            f"length-3 case analysis violated at {window}: v={v}, "
            f"Q={quotient}; this would falsify the nonexistence result"
        )
    kind = VALUATION_PARITY if v % 2 else MOD3_QUOTIENT
    details = {"sum": total, "valuation": v, "quotient": quotient, "quotient_mod_3": residue}
    return tuple.__new__(TraceReport, (window, 3, _split(n, 3), _split(d, 3), kind, details))


def residue_sieve(p: int) -> frozenset[int]:
    """Admissible ratios d * n^-1 mod p for a square length-p window sum.

    A unit r = D/N is in this set exactly when (3 - r)^2 = 3 (mod p): the
    congruence over N^2, and the witness [K*(3N - D)]^2 = 3 with K = N^-1.
    So it is {3 -+ x} with x^2 = 3, or empty when 3 is a non-residue. A
    window with p dividing neither n nor d and a square sum has its ratio
    here; windows divisible by p reduce to this case by exact scaling.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"residue sieve requires a prime >= 5, got {p}")
    roots = sqrt_mod_prime(3, p)
    if roots is None:
        return frozenset()
    x = roots[0]
    return frozenset(((3 - x) % p, (3 + x) % p))
