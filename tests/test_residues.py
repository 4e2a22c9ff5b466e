"""Tests for symbols, mod-12 classification, primality, and modular roots."""

import math
import sys

import pytest
from conftest import primes_below
from hypothesis import example, given
from hypothesis import strategies as st

from apsquares import residues
from apsquares.apsum import APWindow
from apsquares.obstruction import residue_sieve, valuation_law
from apsquares.residues import (
    DETERMINISTIC_LIMIT,
    PrimeProfile,
    _extra_strong_lucas,
    classify_prime_mod12,
    is_prime,
    jacobi,
    legendre_euler,
    sqrt_mod_prime,
)
from apsquares.search import find_solutions, verify_no_solutions


def test_is_prime_large_known_values():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert DETERMINISTIC_LIMIT > 2**67 - 1


# psi_t (OEIS A014233): the least strong pseudoprime to the first t prime bases.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One strong (Miller-Rabin) round for odd n > 2 to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _thirteen_base_is_prime(n: int) -> bool:
    """Trial division by 2..41, then all 13 of those bases: exact below psi_13."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _BASES)


def test_each_psi_fools_its_bases_but_not_is_prime():
    # psi_13 is the limit itself, which is_prime refuses rather than decides.
    for t, psi in enumerate(_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in _BASES[:t]), t
        if psi < DETERMINISTIC_LIMIT:
            assert not is_prime(psi), t
    assert _PSI[-1] == DETERMINISTIC_LIMIT


def test_witness_tiers_are_prime_prefixes_ending_at_psi():
    # BPSW, base 2 and then the Lucas test, decides every n below 2^64; each
    # band above runs the first t prime bases up to psi_t, and the last
    # ends at the limit with all 13.
    rows = residues._WITNESS_TIERS
    assert rows[0] == (2**64, (2,))
    for bound, bases in rows:
        t = len(bases)
        assert bases == _BASES[:t], bound
        assert bound == (2**64 if t == 1 else _PSI[t - 1]), bound
    assert rows[-1] == (DETERMINISTIC_LIMIT, _BASES)


def test_is_prime_matches_sieve_below_two_million():
    # Exhaustive over the trial-division tier (n < 43^2), negative n
    # included, and the first two million n of the BPSW band below 2^64.
    limit = 2_000_000
    primes = set(primes_below(limit))
    assert [n for n in range(-5, limit) if is_prime(n) != (n in primes)] == []


@given(st.sampled_from(_PSI[:-1]), st.integers(-(2**31), 2**31 - 1))
@example(_PSI[0], 0)
@example(_PSI[-2], 0)
def test_is_prime_matches_thirteen_bases_near_each_psi(psi, half_offset):
    n = psi + 2 * half_offset  # odd, since psi is, and within 2^32 of it
    assert is_prime(n) == _thirteen_base_is_prime(n)


@given(st.integers(1, 2**31))
@example(1)
def test_is_prime_matches_thirteen_bases_just_below_the_limit(half_gap):
    # Beyond the limit the 13 bases are no longer exact, so draw only below it.
    n = DETERMINISTIC_LIMIT - 2 * half_gap
    assert is_prime(n) == _thirteen_base_is_prime(n)


# The bounds of the published minimal strong-test base sets below 2^64
# (miller-rabin.appspot.com), each a composite that fools its set, with its
# prime factors. None bounds a band of is_prime, which must reject each.
_PUBLISHED_BOUNDS = (
    (341_531, (239, 1429)),
    (1_373_653, (829, 1657)),
    (25_326_001, (2251, 11251)),
    (3_215_031_751, (151, 751, 28351)),
    (350_269_456_337, (197279, 1775503)),
    (55_245_642_489_451, (3716371, 14865481)),
    (7_999_252_175_582_851, (9227, 894923, 968731)),
    (585_226_005_592_931_977, (382500329, 1530001313)),
)
# Each band [lo, hi) that one rule of is_prime decides, from 43^2 (below it
# trial division decides) up to DETERMINISTIC_LIMIT: base 2 and the Lucas
# test below 2^64, then the first 12 and the first 13 prime bases.
_BANDS = ((1849, 2**64), (2**64, _PSI[11]), (_PSI[11], _PSI[12]))


def test_is_prime_rejects_each_published_bound():
    for bound, factors in _PUBLISHED_BOUNDS:
        assert math.prod(factors) == bound and all(f > 1 for f in factors), bound
        assert not is_prime(bound), bound


@pytest.mark.parametrize(
    "n, prime",
    [
        (98_207, True),
        (3_709_689_913, True),
        (3_695_202_151, False),
        (401_079_056_743, False),
        (9_459_272_301_649, False),
        (346_338_208_585_571, False),
        (463_740_991_156_951, False),
        (2_496_591_062_878_201, False),
    ],
)
def test_is_prime_matches_thirteen_bases_on_pinned_n(n, prime):
    # Pinned primes and composites from 98,207 to 2.5e15, below 2^64, where
    # is_prime runs base 2 and the Lucas test: its verdict must be the
    # 13-base oracle's.
    assert is_prime(n) == prime == _thirteen_base_is_prime(n)


@given(
    st.sampled_from(_BANDS),
    st.sampled_from(("low", "inside", "high")),
    st.integers(0, 2**82),
)
@example(_BANDS[0], "low", 0)
@example(_BANDS[-1], "high", 0)
def test_is_prime_matches_thirteen_bases_in_each_band(band, where, offset):
    # The band's odd n are first + 2j for 0 <= j < count; j is drawn from
    # the first or last 2^16 of them, or from all.
    lo, hi = band
    first = lo | 1
    count = (hi - first + 1) // 2
    j = offset % (count if where == "inside" else 2**16)
    n = first + 2 * (count - 1 - j if where == "high" else j)
    assert lo <= n < hi
    assert is_prime(n) == _thirteen_base_is_prime(n)


def test_bpsw_band_psi_pass_base_two_but_not_is_prime():
    # From 43^2 to 2^64 is_prime runs only base 2 and then the extra strong
    # Lucas test. Each psi_t there with no prime factor up to 41 is a base-2
    # strong pseudoprime that trial division lets through, so the Lucas test
    # alone must reject it.
    band_psi = sorted(
        {psi for psi in _PSI if 1849 <= psi < 2**64 and all(psi % p for p in _BASES)}
    )
    assert band_psi[:3] == [1_373_653, 25_326_001, 3_215_031_751]
    assert len(band_psi) == 7
    for psi in band_psi:
        assert _strong_probable_prime(psi, 2), psi
        assert not _extra_strong_lucas(psi), psi
        assert not is_prime(psi), psi


def test_extra_strong_lucas_rejects_squares_and_returns(monkeypatch):
    # 1093^2 and 3511^2 are base-2 strong pseudoprimes. No P gives a square
    # the Jacobi symbol -1, so without the square check the parameter
    # search would not end; the spy turns that into a failure.
    calls = []

    def counting_jacobi(a, m):
        calls.append(a)
        assert len(calls) < 1000, "parameter search does not end"
        return jacobi(a, m)

    monkeypatch.setattr(residues, "jacobi", counting_jacobi)
    for n in (1093**2, 3511**2):
        assert _strong_probable_prime(n, 2), n
        assert _extra_strong_lucas(n) is False, n


def _mat_mul(a, b, n):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % n,
        (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % n,
    ), (
        (a[1][0] * b[0][0] + a[1][1] * b[1][0]) % n,
        (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % n,
    )


def _mat_pow(m, k, n):
    result = ((1, 0), (0, 1))
    while k:
        if k & 1:
            result = _mat_mul(result, m, n)
        m = _mat_mul(m, m, n)
        k >>= 1
    return result


def _matrix_lucas(n: int) -> bool:
    """The extra strong Lucas test by matrix powers, for odd n >= 3 not a square.

    With Q = 1, M = [[P, -1], [1, 0]] has M^k = [[U_k+1, -U_k], [U_k, -U_k-1]],
    so U_k is the lower-left entry and V_k = U_k+1 - U_k-1 the trace.
    """
    p = 3
    while (symbol := jacobi(p * p - 4, n)) != -1:
        if symbol == 0 and (p * p - 4) % n:
            return False
        p += 1
    s = 0
    while (n + 1) % 2 ** (s + 1) == 0:
        s += 1
    d = (n + 1) // 2**s
    power = _mat_pow(((p, n - 1), (1, 0)), d, n)
    trace = (power[0][0] + power[1][1]) % n
    if power[1][0] == 0 and trace in (2, n - 2):
        return True
    for _ in range(s - 1):
        if trace == 0:
            return True
        power = _mat_mul(power, power, n)
        trace = (power[0][0] + power[1][1]) % n
    return False


def test_extra_strong_lucas_matches_matrix_oracle():
    # Every odd n in [3, 10^5) that is not a square: the n with no prime
    # factor up to 41, which is_prime hands to the test, and the rest, where
    # the parameter search can meet a common factor.
    limit = 100_000
    primes = set(primes_below(limit))
    pseudoprimes = []
    for n in range(3, limit, 2):
        if math.isqrt(n) ** 2 == n:
            continue
        passes = _extra_strong_lucas(n)
        assert passes == _matrix_lucas(n), n
        if n in primes:
            assert passes, n
        elif passes:
            pseudoprimes.append(n)
    # OEIS A217719, the extra strong Lucas pseudoprimes.
    assert pseudoprimes[:9] == [989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059]


def test_deterministic_limit_is_composite():
    # A strong pseudoprime to all 13 bases, so the first n is_prime refuses.
    assert 1_287_836_182_261 * 2_575_672_364_521 == DETERMINISTIC_LIMIT
    with pytest.raises(ValueError, match="beyond the deterministic primality range"):
        is_prime(DETERMINISTIC_LIMIT)


def test_every_primality_gate_refuses_a_prime_beyond_the_limit():
    # q = 5 (mod 12) is prime (sympy's isprime agrees), but no proven base
    # set reaches it, so every gate that asks is_prime refuses it in
    # is_prime's words rather than certify on a probable prime.
    q = 3_317_044_064_679_887_385_962_177
    assert q > DETERMINISTIC_LIMIT and q % 12 == 5
    message = f"{q} is beyond the deterministic primality range (< {DETERMINISTIC_LIMIT})"
    gates = (
        lambda: is_prime(q),
        lambda: classify_prime_mod12(q),
        lambda: legendre_euler(3, q),
        lambda: sqrt_mod_prime(3, q),
        lambda: residue_sieve(q),
        lambda: valuation_law(APWindow(1, 1, q)),
        lambda: verify_no_solutions(q, 1, 1),
        lambda: find_solutions(q, 3, 3, use_sieve=True),
    )
    for gate in gates:
        with pytest.raises(ValueError) as info:
            gate()
        assert str(info.value) == message
    # Arithmetic stays unbounded: without the sieve no gate is asked.
    assert find_solutions(q, 3, 3).windows_checked == 9


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_refusal_names_an_n_past_the_digit_limit_by_its_bit_length():
    # 10^5000 has more digits than CPython's default 4300-digit int/str limit lets str() write.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as info:
            is_prime(10**5000)
    finally:
        sys.set_int_max_str_digits(digits)
    assert str(info.value) == (
        f"a 16610-bit integer is beyond the deterministic primality range (< {DETERMINISTIC_LIMIT})"
    )


def test_legendre_pinned_values():
    assert legendre_euler(3, 5) == -1
    assert legendre_euler(3, 13) == 1  # witness 4 * 4 == 16 == 3 (mod 13)
    assert legendre_euler(10, 5) == 0


def test_legendre_rejects_non_odd_primes():
    for p in (2, 9, 15, 1, 0, -7):
        with pytest.raises(ValueError):
            legendre_euler(3, p)


def test_legendre_against_square_enumeration():
    for p in primes_below(100)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre_euler(a, p) == (1 if a in squares else -1)
        assert legendre_euler(p, p) == 0
        assert legendre_euler(0, p) == 0


def test_jacobi_pinned_values():
    assert jacobi(1, 9) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(3, 11) == 1  # witness 5 * 5 == 25 == 3 (mod 11)


def test_jacobi_domain():
    for m in (0, -3, 2, 10):
        with pytest.raises(ValueError):
            jacobi(3, m)
    assert jacobi(7, 1) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(6, 9) == 0  # shared factor 3


@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(0, 500))
def test_jacobi_is_multiplicative(a, b, half):
    m = 2 * half + 1
    assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


@given(st.integers(-(10**6), 10**6), st.integers(1, 500))
def test_jacobi_is_periodic(a, half):
    m = 2 * half + 1
    assert jacobi(a, m) == jacobi(a + m, m) == jacobi(a - m, m)


def test_exactly_half_of_units_are_residues():
    for p in primes_below(500)[1:]:
        count = sum(1 for a in range(1, p) if legendre_euler(a, p) == 1)
        assert count == (p - 1) // 2


def test_classify_pinned_values():
    assert classify_prime_mod12(5) == PrimeProfile(p=5, residue_mod_12=5, legendre3=-1)
    assert classify_prime_mod12(7) == PrimeProfile(p=7, residue_mod_12=7, legendre3=-1)
    assert classify_prime_mod12(13) == PrimeProfile(p=13, residue_mod_12=1, legendre3=1)
    assert classify_prime_mod12(11) == PrimeProfile(p=11, residue_mod_12=11, legendre3=1)


def test_classify_domain():
    for p in (1, 2, 3, 4, 9, 49, 561):
        with pytest.raises(ValueError):
            classify_prime_mod12(p)


def test_classify_profile_invariants():
    for p in primes_below(3000):
        if p < 5:
            continue
        profile = classify_prime_mod12(p)
        assert profile.residue_mod_12 == p % 12
        assert profile.residue_mod_12 in (1, 5, 7, 11)
        sign = 1 if profile.residue_mod_12 in (1, 11) else -1
        assert profile.legendre3 == sign


def test_sqrt_mod_prime_pinned_values():
    assert sqrt_mod_prime(3, 11) == (5, 6)
    assert sqrt_mod_prime(3, 13) == (4, 9)
    assert sqrt_mod_prime(3, 5) is None


def test_sqrt_mod_prime_domain():
    with pytest.raises(ValueError):
        sqrt_mod_prime(10, 5)  # p divides a
    with pytest.raises(ValueError):
        sqrt_mod_prime(3, 2)
    with pytest.raises(ValueError):
        sqrt_mod_prime(3, 15)


def test_sqrt_mod_prime_sound_and_complete():
    for p in primes_below(500)[1:]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            roots = sqrt_mod_prime(a, p)
            if a in squares:
                assert roots is not None
                small, large = roots
                assert small < large == p - small
                assert small * small % p == a
            else:
                assert roots is None
