"""Tests for the exact integer primitives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsquares.exactarith import (
    PAdicSplit,
    is_perfect_square,
    isqrt,
    modinv,
    modpow,
    padic_split,
)


def test_isqrt_pinned_values():
    assert isqrt(0) == 0
    assert isqrt(4900) == 70  # 70 * 70 == 4900
    assert isqrt(14) == 3  # 9 <= 14 < 16


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_floor_contract_dense_range():
    for x in range(10**6):
        r = isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


def test_isqrt_floor_contract_big_values():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        x = rng.getrandbits(rng.randrange(64, 512))
        r = isqrt(x)
        assert r * r <= x < (r + 1) * (r + 1)


@given(st.integers(min_value=0))
def test_isqrt_floor_contract_property(x):
    r = isqrt(x)
    assert r * r <= x < (r + 1) * (r + 1)


def test_perfect_square_pinned_values():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(5929) == 77  # 77 * 77 computed directly
    assert is_perfect_square(14) is None  # strictly between 9 and 16


def test_perfect_square_rejects_negative():
    with pytest.raises(ValueError):
        is_perfect_square(-4)


def test_perfect_square_matches_isqrt_rule():
    for x in range(200_000):
        root = is_perfect_square(x)
        r = isqrt(x)
        if r * r == x:
            assert root == r
        else:
            assert root is None


def test_perfect_square_round_trip_bulk():
    rng = random.Random(1234)
    for _ in range(10_000):
        t = rng.randrange(0, 10**12)
        assert is_perfect_square(t * t) == t


@given(st.integers(min_value=0))
def test_perfect_square_round_trip_property(t):
    assert is_perfect_square(t * t) == t


@given(st.integers(min_value=2))
def test_between_consecutive_squares_is_not_square(t):
    assert is_perfect_square(t * t - 1) is None
    assert is_perfect_square(t * t + 1) is None


def test_padic_split_pinned_values():
    assert padic_split(18, 3) == PAdicSplit(base=3, valuation=2, unit=2)
    assert padic_split(7, 5) == PAdicSplit(base=5, valuation=0, unit=7)
    assert padic_split(126, 3) == PAdicSplit(base=3, valuation=2, unit=14)


def test_padic_split_round_trip():
    for p in (3, 5, 7, 11, 13):
        for x in range(1, 10_001):
            split = padic_split(x, p)
            assert split.value() == x
            assert split.unit % p != 0
            assert split.base == p and split.valuation >= 0


def test_padic_split_domain_errors():
    with pytest.raises(ValueError):
        padic_split(0, 3)  # valuation of 0 is rejected, not infinity
    with pytest.raises(ValueError):
        padic_split(-9, 3)
    with pytest.raises(ValueError):
        padic_split(12, 4)
    with pytest.raises(ValueError):
        padic_split(12, 1)


def test_modpow_pinned_values():
    assert modpow(2, 0, 7) == 1
    assert modpow(3, 2, 5) == 4
    assert modpow(3, 6, 13) == 1  # 729 == 56 * 13 + 1


def test_modpow_matches_naive_power():
    rng = random.Random(99)
    for _ in range(500):
        b = rng.randrange(-50, 50)
        e = rng.randrange(0, 40)
        m = rng.randrange(2, 1000)
        assert modpow(b, e, m) == (b**e) % m


def test_modpow_domain_errors():
    with pytest.raises(ValueError):
        modpow(2, 3, 1)
    with pytest.raises(ValueError):
        modpow(2, 3, 0)
    with pytest.raises(ValueError):
        modpow(2, -1, 7)


def test_modinv_pinned_values():
    assert modinv(1, 5) == 1
    assert modinv(2, 5) == 3  # 2 * 3 == 6 == 1 (mod 5)
    assert modinv(7, 11) == 8  # 7 * 8 == 56 == 5 * 11 + 1


def test_modinv_inverts_every_unit():
    for p in (3, 5, 7, 11, 13, 101):
        for a in range(1, p):
            k = modinv(a, p)
            assert 1 <= k < p
            assert a * k % p == 1


def test_modinv_rejects_multiples_of_modulus():
    for a in (0, 5, -10, 25):
        with pytest.raises(ValueError):
            modinv(a, 5)


def test_modinv_rejects_moduli_below_two():
    # pow(a, -1, p) itself answers for p = 1 and p = -5, and refuses p = 0 with another message.
    for p in (1, 0, -5):
        with pytest.raises(ValueError, match="at least 2"):
            modinv(3, p)
