"""Quadratic-residue machinery: Legendre and Jacobi symbols, the mod-12
classification of the quadratic character of 3, modular square roots, and
primality testing.

`is_prime` is trial division by the primes up to 41, then a strong
(Miller-Rabin) test to the first t prime bases, where t is the fewest
that the psi_t table of Jaeschke (1993) and Sorenson & Webster (2017)
proves exact for the size of n. Below DETERMINISTIC_LIMIT every verdict
is exact; at or beyond it the 14 bases 2..43 give a probable-prime
verdict."""

from __future__ import annotations

from dataclasses import dataclass

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least strong pseudoprime to all 13 bases 2..41
# (1287836182261 * 2575672364521; Sorenson & Webster). Every n below it
# is decided exactly by those bases. Base 43 rejects psi_13 itself, so
# is_prime runs it too at and beyond this bound, where the verdict is
# strong probable prime rather than proof.
DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

# (psi_t, the first t prime bases): psi_t is the least strong pseudoprime
# to those bases (OEIS A014233), so they decide every n < psi_t exactly.
# Where psi_t = psi_(t+1) only the smaller t is listed.
_WITNESS_TIERS = tuple(
    (psi, _SMALL_PRIMES[:t])
    for psi, t in (
        (2_047, 1),
        (1_373_653, 2),
        (25_326_001, 3),
        (3_215_031_751, 4),
        (2_152_302_898_747, 5),
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (DETERMINISTIC_LIMIT, 13),
    )
)
_PROBABLE_WITNESSES = (*_SMALL_PRIMES, 43)


@dataclass(frozen=True)
class PrimeProfile:
    """A prime p >= 5, its class mod 12, and the quadratic character of 3."""

    p: int
    residue_mod_12: int
    legendre3: int


def is_prime(n: int) -> bool:
    """Trial division by 2..41, then a Miller-Rabin test to as many bases
    as the size of n needs.

    Exact for all n < DETERMINISTIC_LIMIT (about 3.3e24): n < 43^2 needs
    no base, and otherwise the first t of 2..41 suffice for n < psi_t.
    Inputs at or beyond the limit get a strong probable-prime verdict
    from the 14 bases 2..43.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1849:  # 43^2: n has no prime factor <= 41, so none at all
        return True
    for psi, witnesses in _WITNESS_TIERS:
        if n < psi:
            break
    else:
        witnesses = _PROBABLE_WITNESSES
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
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
    return True


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
