"""Quadratic-residue machinery: Legendre and Jacobi symbols, the mod-12
classification of the quadratic character of 3, modular square roots, and
primality testing.

`is_prime` is trial division by the primes up to 41, then BPSW below
2^64: the strong (Miller-Rabin) test to base 2, then the extra strong
Lucas test, which no composite below 2^64 passes with it (Baillie &
Wagstaff 1980; Baillie, Fiori & Wagstaff 2021). From 2^64 on it runs the
strong test to the first 12 or 13 prime bases, exact below psi_t, the
least strong pseudoprime to them (Sorenson & Webster 2017). Below
DETERMINISTIC_LIMIT every verdict is exact; at or beyond it the 14 bases
2..43 give a probable-prime verdict."""

from collections import namedtuple
from math import inf, isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The strong-test bases: each row of `_WITNESS_TIERS` is a prefix.
_PRIME_BASES = (*_SMALL_PRIMES, 43)

# psi_13: the least strong pseudoprime to all 13 bases 2..41
# (1287836182261 * 2575672364521; Sorenson & Webster). Every n below it
# is decided exactly by those bases. Base 43 rejects psi_13 itself, so
# is_prime runs it too at and beyond this bound, where the verdict is
# strong probable prime rather than proof.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# Below it the strong test to base 2 plus `_extra_strong_lucas` (BPSW) is
# exact: no base-2 strong pseudoprime below 2^64 (Feitsma-Galway list)
# passes the extra strong Lucas test.
_BPSW_LIMIT = 2**64

# (bound, bases): base 2 together with `_extra_strong_lucas` decides every
# n < 2^64; above it the first t prime bases decide every n < psi_t exactly
# (OEIS A014233). The last row has no bound: from DETERMINISTIC_LIMIT on,
# the 14 bases 2..43 give a probable-prime verdict, not a proof. Every n
# that reaches the bases is at least 43^2, so no base needs reducing mod n.
_WITNESS_TIERS = (
    (_BPSW_LIMIT, _PRIME_BASES[:1]),
    (318_665_857_834_031_151_167_461, _PRIME_BASES[:12]),
    (DETERMINISTIC_LIMIT, _PRIME_BASES[:13]),
    (inf, _PRIME_BASES),
)


class PrimeProfile(namedtuple("PrimeProfile", "p residue_mod_12 legendre3")):
    """A prime p >= 5, its class mod 12, and the quadratic character of 3."""

    __slots__ = ()


def is_prime(n: int) -> bool:
    """Trial division by 2..41, then a Miller-Rabin test to the bases of
    the size band that n falls in.

    Exact for all n < DETERMINISTIC_LIMIT (about 3.3e24): n < 43^2 needs
    no base, and otherwise each band of `_WITNESS_TIERS` has its own set:
    BPSW (base 2, then the extra strong Lucas test) below 2^64, the first
    12 or 13 prime bases up to psi_t above. Inputs at or beyond the limit
    fall in the table's last, unbounded row, whose 14 bases 2..43 give a
    strong probable-prime verdict.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1849:  # 43^2: n has no prime factor <= 41, so none at all
        return True
    for bound, witnesses in _WITNESS_TIERS:
        if n < bound:
            break
    # n - 1 = d * 2^r with d odd.
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return bound != _BPSW_LIMIT or _extra_strong_lucas(n)


def _extra_strong_lucas(n: int) -> bool:
    """The extra strong Lucas probable-prime test for odd n >= 3.

    Baillie's parameters: Q = 1 and the least P >= 3 with Jacobi symbol
    ((P^2 - 4)/n) = -1; a symbol 0 before it, with n not dividing P^2 - 4,
    shows n composite. With n + 1 = d * 2^s, d odd, n passes when U_d = 0
    and V_d = +-2, or V_{d*2^r} = 0 for some 0 <= r < s - 1, all mod n.
    Every odd prime passes. A square n never gives the symbol -1, so it
    is rejected first.
    """
    if isqrt(n) ** 2 == n:
        return False
    p = 3
    while True:
        j = jacobi(p * p - 4, n)
        if j == -1:
            break
        if j == 0 and (p * p - 4) % n:
            return False
        p += 1
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    # (V_j, V_j+1) up the bits of d from (V_1, V_2): with Q = 1,
    # V_2j = V_j^2 - 2 and V_2j+1 = V_j * V_j+1 - P.
    v, w = p % n, (p * p - 2) % n
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w = (v * w - p) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - p) % n
    # (P^2 - 4) * U_d = 2 V_d+1 - P * V_d, and P^2 - 4 is a unit mod n.
    if (2 * w - p * v) % n == 0 and v in (2, n - 2):
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol (a/p) by the Euler criterion a^((p-1)/2) mod p.

    +1 when a is a quadratic residue of the odd prime p, -1 when it is a
    non-residue, 0 when p divides a.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre_euler requires an odd prime, got {p}")
    if a % p == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1.

    Computed by the reciprocity flip plus the supplementary rules for -1
    and 2, so no factoring of m is needed. Equals the Legendre symbol
    whenever m is prime, which gives a second engine for cross-checks.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"jacobi requires an odd positive modulus, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def classify_prime_mod12(p: int) -> PrimeProfile:
    """Profile a prime p >= 5 by its residue mod 12.

    The quadratic character of 3 is read off the residue class (+1 for
    p = 1, 11 mod 12, -1 for p = 5, 7) and cross-checked against the
    Euler criterion; a mismatch would be an internal consistency failure.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"classification requires a prime >= 5, got {p}")
    residue = p % 12
    legendre3 = 1 if residue in (1, 11) else -1
    if legendre3 != legendre_euler(3, p):
        raise RuntimeError(
            f"mod-12 class and Euler criterion disagree for p={p}"
        )
    return PrimeProfile(p=p, residue_mod_12=residue, legendre3=legendre3)


def sqrt_mod_prime(a: int, p: int) -> tuple[int, int] | None:
    """Solve x^2 = a (mod p) for an odd prime p with p not dividing a.

    Returns the two incongruent roots as (smaller, larger), or None when
    a is a non-residue. Tonelli-Shanks; for p = 3 (mod 4) its loop takes
    no step, so x = a^((p+1)/4).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"sqrt_mod_prime requires an odd prime, got {p}")
    a %= p
    if a == 0:
        raise ValueError(f"{p} divides a; the zero case is the caller's")
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # p - 1 = q * 2^m with q odd.
    m = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> m
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return (x, p - x) if x < p - x else (p - x, x)
