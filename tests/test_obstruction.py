"""Tests for the obstruction machinery."""

import math

import pytest
from conftest import direct_square_sum, primes_below, split
from hypothesis import given
from hypothesis import strategies as st

from apsquares import obstruction, residues, search
from apsquares.apsum import APWindow
from apsquares.obstruction import (
    MOD3_QUOTIENT,
    VALUATION_PARITY,
    PAdicSplit,
    residue_sieve,
    trace_length3,
    valuation_law,
)

QNR_PRIMES = (5, 7, 17, 19, 29, 31)  # p = 5, 7 (mod 12): 3 a non-residue
QR_PRIMES = (11, 13, 23, 37)  # p = 1, 11 (mod 12): 3 a residue


def test_valuation_law_pinned_values():
    report = valuation_law(APWindow(1, 1, 5))
    assert report.obstruction == VALUATION_PARITY
    assert report.details == {"sum": 55, "valuation": 1, "min_exponent": 0}
    assert report.n_split.valuation == 0 and report.d_split.valuation == 0

    assert valuation_law(APWindow(5, 1, 7)).details["valuation"] == 1  # 6 * 476 == 7 * 408

    report = valuation_law(APWindow(5, 5, 5))
    assert report.details["valuation"] == 3  # 6 * 1375 == 5^3 * 66
    assert report.n_split.valuation == 1 == report.d_split.valuation


def test_valuation_law_domain():
    with pytest.raises(ValueError):
        valuation_law(APWindow(1, 1, 4))  # composite length
    with pytest.raises(ValueError):
        valuation_law(APWindow(1, 1, 3))  # length 3 has its own trace
    with pytest.raises(ValueError):
        valuation_law(APWindow(18, 1, 11))  # 3 is a residue mod 11: unsupported


def test_valuation_law_reports_on_subgrid():
    for p in (5, 7):
        for n in range(1, 41):
            for d in range(1, 41):
                report = valuation_law(APWindow(n, d, p))
                assert report.obstruction == VALUATION_PARITY
                total = direct_square_sum(n, d, p)
                assert report.details["sum"] == total
                v = report.details["valuation"]
                assert v % 2 == 1
                assert v == split(6 * total, p)[0]
                assert report.details["min_exponent"] == min(split(n, p)[0], split(d, p)[0])
                assert report.n_split.valuation == split(n, p)[0]
                assert report.d_split.valuation == split(d, p)[0]


def test_valuation_identity_exhaustive():
    # v_p(6 S) == 2 min(e, f) + 1 over the full square [1, 3p^2]^2.
    for p in (5, 7, 17, 19):
        limit = 3 * p * p
        c2 = p * (p - 1) * (2 * p - 1) // 6
        exponents = [split(x, p)[0] for x in range(1, limit + 1)]
        for d, f in enumerate(exponents, 1):
            b = p * (p - 1) * d
            c = c2 * d * d
            for n, e in enumerate(exponents, 1):
                s6 = 6 * (p * n * n + b * n + c)
                assert split(s6, p)[0] == 2 * min(e, f) + 1


def test_trace_length3_pinned_values():
    report = trace_length3(APWindow(1, 1, 3))
    assert report.obstruction == MOD3_QUOTIENT
    assert report.details == {"sum": 14, "valuation": 0, "quotient": 14, "quotient_mod_3": 2}

    report = trace_length3(APWindow(1, 3, 3))
    assert report.obstruction == VALUATION_PARITY
    assert report.details["sum"] == 66  # 2 * 3 * 11
    assert report.details["valuation"] == 1

    report = trace_length3(APWindow(3, 3, 3))
    assert report.obstruction == MOD3_QUOTIENT
    assert report.details["valuation"] == 2
    assert report.details["quotient"] == 14


def test_trace_length3_rejects_other_lengths():
    for k in (1, 2, 5, 9):
        with pytest.raises(ValueError):
            trace_length3(APWindow(1, 1, k))


def test_traces_check_the_prime_at_most_once(monkeypatch):
    # Every module binding of is_prime is counted, so a validation
    # reached through a helper such as legendre_euler shows up too. verify
    # checks its length as a trace does. valuation_law's count is exact, in
    # test_accepted_valuation_law_checks_the_prime_exactly_once.
    calls = []
    real = residues.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for module in (residues, obstruction, search):
        monkeypatch.setattr(module, "is_prime", counting)
    for window in (APWindow(1, 1, 3), APWindow(9, 27, 3)):
        calls.clear()
        trace_length3(window)
        assert len(calls) <= 1, (window, calls)
    for p in (3, 5, 7, 89):
        calls.clear()
        search.verify_no_solutions(p, 3, 2)
        assert len(calls) <= 1, (p, calls)


M61 = 2**61 - 1  # a Mersenne prime, 7 (mod 12)


def _expanded_square_sum(n: int, d: int, k: int) -> int:
    # sum (n + i d)^2 over i < k, with sum i and sum i^2 in closed form;
    # the term-by-term oracle cannot take 2^61 terms.
    return k * n * n + n * d * k * (k - 1) + d * d * (k - 1) * k * (2 * k - 1) // 6


@given(
    k=st.sampled_from((3, 5, 7, 17, M61)),
    e=st.integers(0, 4),
    f=st.integers(0, 4),
    u=st.integers(1, 2**200 - 1),
    w=st.integers(1, 2**200 - 1),
)
def test_trace_matches_oracles_on_big_windows(k, e, f, u, w):
    n, d = k**e * u, k**f * w
    report = trace_length3(APWindow(n, d, k)) if k == 3 else valuation_law(APWindow(n, d, k))
    assert report.n_split == PAdicSplit(k, *split(n, k))
    assert report.d_split == PAdicSplit(k, *split(d, k))
    total = _expanded_square_sum(n, d, k)
    if k < 100:
        assert total == direct_square_sum(n, d, k)
    assert report.details["sum"] == total
    assert report.details["valuation"] == split(total if k == 3 else 6 * total, k)[0]


def test_domain_error_messages_are_pinned():
    cases = [
        (lambda: valuation_law(APWindow(1, 1, 4)), "window length must be a prime >= 5, got 4"),
        (
            lambda: valuation_law(APWindow(1, 1, 3)),
            "window length must be a prime >= 5, got 3; length 3 is handled by trace_length3",
        ),
        (
            lambda: valuation_law(APWindow(18, 1, 11)),
            "3 is a quadratic residue mod 11; the valuation law is not "
            "guaranteed there and square windows may exist",
        ),
        (
            lambda: trace_length3(APWindow(1, 1, 5)),
            "trace_length3 requires a window of length 3, got 5",
        ),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_residue_sieve_pinned_values():
    assert residue_sieve(5) == frozenset()
    assert residue_sieve(11) == frozenset({8, 9})  # x = 5: 3 - 5 == 9, 3 + 5 == 8
    assert residue_sieve(23) == frozenset({10, 19})  # x = 7: 7^2 == 49 == 3


def test_residue_sieve_known_solutions_satisfy_it():
    assert 1 * pow(18, -1, 11) % 11 in residue_sieve(11)
    assert 1 * pow(7, -1, 23) % 23 in residue_sieve(23)


def test_residue_sieve_domain():
    for p in (1, 2, 3, 4, 9):
        with pytest.raises(ValueError):
            residue_sieve(p)


def test_residue_sieve_empty_iff_non_residue():
    for p in QNR_PRIMES:
        assert residue_sieve(p) == frozenset()
    for p in QR_PRIMES:
        ratios = residue_sieve(p)
        assert len(ratios) == 2
        for ratio in ratios:
            # admissible ratios are the roots of r^2 - 6r + 6 (mod p)
            assert (ratio * ratio - 6 * ratio + 6) % p == 0


def test_residue_sieve_is_the_witness_identity():
    # A unit ratio r = D/N is admissible exactly when the witness
    # [N^-1 * (3N - D)]^2 = (3 - r)^2 is 3 mod p.
    for p in primes_below(1000)[2:]:
        assert residue_sieve(p) == {r for r in range(1, p) if (3 - r) ** 2 % p == 3}, p


def test_residue_sieve_soundness_brute_force():
    for p in (11, 13, 23, 37):
        ratios = residue_sieve(p)
        limit = 4 * p
        for n in range(1, limit + 1):
            for d in range(1, limit + 1):
                if n % p == 0 or d % p == 0:
                    continue
                total = direct_square_sum(n, d, p)
                root = math.isqrt(total)
                if root * root == total:
                    assert d * pow(n, -1, p) % p in ratios


def test_valuation_law_refuses_every_strong_pseudoprime_psi():
    # Each psi_t passes the first t prime bases; five are 7 (mod 12), so
    # the mod-12 gate alone would let them through, and psi_12, psi_13
    # lie above 2^64. psi_13 is the limit, which is_prime itself refuses.
    from test_residues import _PSI

    assert sum(psi % 12 == 7 for psi in set(_PSI)) == 5
    for psi in _PSI:
        with pytest.raises(ValueError) as info:
            valuation_law(APWindow(1, 1, psi))
        limit = residues.DETERMINISTIC_LIMIT
        if psi < limit:
            assert str(info.value) == f"window length must be a prime >= 5, got {psi}"
        else:
            assert str(info.value) == (
                f"{psi} is beyond the deterministic primality range (< {limit})"
            )


P12 = 2**72 + 301  # prime, 5 (mod 12), in the 12-base band of is_prime
P13 = 2**79 + 23  # prime, 7 (mod 12), in the 13-base band


def test_accepted_valuation_law_checks_the_prime_exactly_once(monkeypatch):
    calls = []
    real = residues.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for module in (residues, obstruction, search):
        monkeypatch.setattr(module, "is_prime", counting)
    for p in (5, 7, 17, M61, P12, P13):
        for n, d in ((1, 1), (p, 1), (p**3, p * p), (2 * p * p, 3 * p * p)):
            calls.clear()
            valuation_law(APWindow(n, d, p))
            assert calls == [p], (n, d, p, calls)


def test_valuation_law_violations_raise_with_the_true_valuation(monkeypatch):
    # S = 55 for (1, 1, 5); 5 * 55 has v = 2. S = 1375 = 5^3 * 11 for
    # (5, 5, 5); 1375 / 5 has v = 2 < 3, so the divmod leaves a rest.
    for window, total in ((APWindow(1, 1, 5), 5 * 55), (APWindow(5, 5, 5), 1375 // 5)):
        monkeypatch.setattr(obstruction, "window_sum_sq_closed", lambda w, total=total: total)
        expected = 2 * min(split(window.n, 5)[0], split(window.d, 5)[0]) + 1
        with pytest.raises(RuntimeError) as info:
            valuation_law(window)
        assert str(info.value) == (
            f"valuation law violated at {window}: v=2, expected {expected}; "
            "this would falsify the nonexistence result"
        )


def test_length3_violation_raises(monkeypatch):
    # A square has even 3-adic valuation and a quotient of 1 (mod 3).
    for total, v, quotient in ((4, 0, 4), (9 * 4, 2, 4)):
        monkeypatch.setattr(obstruction, "window_sum_sq_closed", lambda w, total=total: total)
        with pytest.raises(RuntimeError) as info:
            trace_length3(APWindow(1, 1, 3))
        assert str(info.value) == (
            f"length-3 case analysis violated at APWindow(n=1, d=1, k=3): v={v}, "
            f"Q={quotient}; this would falsify the nonexistence result"
        )


@given(
    k=st.sampled_from((P12, P13)),
    e=st.integers(0, 4),
    f=st.integers(0, 4),
    u=st.integers(1, 2**256),
    w=st.integers(1, 2**256),
)
def test_valuation_law_matches_oracles_above_two_to_the_64(k, e, f, u, w):
    n, d = k**e * u, k**f * w
    report = valuation_law(APWindow(n, d, k))
    assert type(report) is obstruction.TraceReport
    assert type(report.n_split) is obstruction.PAdicSplit
    assert type(report.d_split) is obstruction.PAdicSplit
    assert report.window == (n, d, k) and report.prime == k
    assert report.n_split == PAdicSplit(k, *split(n, k))
    assert report.d_split == PAdicSplit(k, *split(d, k))
    assert report.obstruction == VALUATION_PARITY
    total = _expanded_square_sum(n, d, k)
    min_exp = min(split(n, k)[0], split(d, k)[0])
    assert report.details == {
        "sum": total,
        "valuation": split(6 * total, k)[0],
        "min_exponent": min_exp,
    }
    assert report.details["valuation"] == 2 * min_exp + 1
