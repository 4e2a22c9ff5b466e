"""Acceptance suite: one test per criterion, printing one pass line each.

Each of the paper's claims is asserted here once: Theorem 1's length-3
grid and traces, the non-residue prime grids, the valuation law with its
negative control, the character of 3 read off p mod 12, Euler against
Jacobi with quadratic reciprocity, the witness behind the residue sieve,
known solutions, the sieve's losslessness, square roots of 3, and the
CLI's golden bytes with a run resumed from its checkpoint. Module tests
pin the pieces and the edges; they do not repeat these sweeps.

`GOLDEN` below is the one golden table: every CLI output the suite pins
byte for byte. c10 checks each row in one `python -m apsquares` child, and
test_cli.py's `test_golden_outputs_through_a_text_only_stdout` once more
in-process.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every check is exact; there are no float tolerances
anywhere in this suite.
"""

import time

from conftest import direct_square_sum, primes_below, run_cli, split

from apsquares.apsum import APWindow, window_sum_sq_closed
from apsquares.obstruction import (
    MOD3_QUOTIENT,
    VALUATION_PARITY,
    residue_sieve,
    trace_length3,
)
from apsquares.residues import jacobi, legendre_euler, sqrt_mod_prime
from apsquares.search import find_solutions, verify_no_solutions

NONRESIDUE_PRIMES = (5, 7, 17, 19, 29, 31, 41, 43, 53, 67, 79, 89)


def _announce(number: int, started: float, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS ({time.perf_counter() - started:.1f}s): {message}")


def test_c01_length3_grid_and_traces():
    started = time.perf_counter()
    report = verify_no_solutions(3, 2000, 2000)
    assert report.windows_checked == 4_000_000
    assert report.solutions == ()
    for n in range(1, 301):
        for d in range(1, 301):
            trace = trace_length3(APWindow(n, d, 3))
            total = 3 * n * n + 6 * n * d + 5 * d * d
            v, quotient = split(total, 3)
            assert trace.details["sum"] == total
            assert trace.details["valuation"] == v
            assert trace.details["quotient"] == quotient
            if v % 2:
                assert trace.obstruction == VALUATION_PARITY
            else:
                assert trace.obstruction == MOD3_QUOTIENT
                assert quotient % 3 == 2
    _announce(1, started, "no squares on the 2000x2000 length-3 grid; traces recomputable on 300x300")


def test_c02_nonresidue_prime_grids():
    started = time.perf_counter()
    for p in NONRESIDUE_PRIMES:
        assert p % 12 in (5, 7)
        report = verify_no_solutions(p, 500, 500)
        assert report.solutions == ()
        assert report.windows_checked == 250_000
    _announce(2, started, f"zero square windows for {len(NONRESIDUE_PRIMES)} primes on 500x500 grids")


def test_c03_valuation_law_with_negative_control():
    started = time.perf_counter()
    windows = 0
    for p in (5, 7, 17, 19):
        for d in range(1, 161):
            f = split(d, p)[0]
            for n in range(1, 161):
                v = split(6 * window_sum_sq_closed(APWindow(n, d, p)), p)[0]
                assert v == 2 * min(split(n, p)[0], f) + 1
                windows += 1
    assert windows == 4 * 160 * 160  # 102400 windows, p-divisible n and d included
    # designated negative control: p = 11 has 3 as a residue and (18, 1, 11)
    # sums to 77^2, so v_11(6 S) is even instead
    total = direct_square_sum(18, 1, 11)
    assert total == 77**2
    assert split(6 * total, 11)[0] == 2
    _announce(3, started, f"v_p(6S) = 2 min(e,f)+1 on {windows} windows; control (18,1,11) has v=2")


def test_c04_character_census_below_one_million():
    started = time.perf_counter()
    primes = [p for p in primes_below(10**6) if p >= 5]
    assert len(primes) == 78_496
    for p in primes:
        assert (legendre_euler(3, p) == 1) == (p % 12 in (1, 11))
    _announce(4, started, f"character of 3 matches the mod-12 class for all {len(primes)} primes < 1e6")


def test_c05_engine_agreement_and_reciprocity():
    started = time.perf_counter()
    pairs = 0
    for p in primes_below(2000)[1:]:
        for a in range(p):
            assert legendre_euler(a, p) == jacobi(a, p)
            pairs += 1
    odd = primes_below(2000)[1:]
    flips = 0
    for i, p in enumerate(odd):
        for q in odd[i + 1 :]:
            expected = -1 if p % 4 == 3 and q % 4 == 3 else 1
            assert jacobi(p, q) * jacobi(q, p) == expected
            flips += 1
    _announce(5, started, f"Euler = Jacobi on {pairs} (a, p) pairs; reciprocity on {flips} prime pairs")


def test_c06_witness_exhaustion():
    started = time.perf_counter()
    confirming = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        ratios = residue_sieve(p)
        hits = 0
        for nu in range(1, p):
            inverse = pow(nu, -1, p)
            for du in range(1, p):
                # 6N^2 - 6ND + D^2 = 0 (mod p), solved once for D/N by residue_sieve
                holds = (6 * nu * nu - 6 * nu * du + du * du) % p == 0
                assert holds == (du * inverse % p in ratios)
                if holds:
                    hits += 1
                    assert (inverse * (3 * nu - du)) ** 2 % p == 3  # the witness
        if p % 12 in (5, 7):
            assert hits == 0  # non-residue primes admit no pair at all
        else:
            assert hits == 2 * (p - 1)  # two admissible ratios per unit n
        confirming += hits
    _announce(6, started, f"witness = 3 on all {confirming} congruent pairs; zero pairs at non-residue primes")


def test_c07_known_solutions_recovered():
    started = time.perf_counter()
    report11 = find_solutions(11, 50, 1)
    assert (18, 1, 77) in report11.solutions
    report23 = find_solutions(23, 50, 1)
    assert (7, 1, 92) in report23.solutions
    report24 = find_solutions(24, 5, 1)
    assert (1, 1, 70) in report24.solutions
    report2 = find_solutions(2, 10, 1)
    assert (3, 1, 5) in report2.solutions  # 3^2 + 4^2 = 5^2
    for k, report in ((11, report11), (23, report23), (24, report24), (2, report2)):
        for n, d, t in report.solutions:
            assert direct_square_sum(n, d, k) == t * t
    _announce(
        7, started, "(18,1,77), (7,1,92), (1,1,70), (3,1,5) recovered and re-verified by direct summation"
    )


def test_c08_sieve_losslessness():
    started = time.perf_counter()
    for p in (11, 13, 23):
        plain = find_solutions(p, 200, 200, use_sieve=False)
        sieved = find_solutions(p, 200, 200, use_sieve=True)
        assert sieved.solutions == plain.solutions
        assert sieved.sieve_used and not plain.sieve_used
        assert sieved.windows_checked < plain.windows_checked == 40_000
    _announce(8, started, "sieved and unsieved runs agree exactly, with strictly fewer cells inspected")


def test_c09_sqrt_of_three_for_residue_primes():
    started = time.perf_counter()
    primes = [p for p in primes_below(100_000) if p >= 5 and p % 12 in (1, 11)]
    for p in primes:
        roots = sqrt_mod_prime(3, p)
        assert roots is not None
        x, y = roots
        assert x * x % p == 3
        assert y == p - x and x < y
    _announce(9, started, f"x^2 = 3 (mod p) solved for all {len(primes)} primes = +-1 (mod 12) below 1e5")


# Each argv with the exact stdout it prints, with exit 0 and nothing on stderr.
GOLDEN = [
    (
        ("classify", "--p", "7"),
        '{"legendre3":-1,"mod12":7,"p":7}\n',
    ),
    (
        ("classify", "--p", "7", "--format", "csv"),
        "p,mod12,legendre3\n7,7,-1\n",
    ),
    (
        ("legendre", "--a", "3", "--p", "5"),
        '{"a":3,"p":5,"symbol":-1}\n',
    ),
    (
        ("legendre", "--a", "3", "--p", "5", "--format", "csv"),
        "a,p,symbol\n3,5,-1\n",
    ),
    (
        ("sqrtmod", "--a", "3", "--p", "11"),
        '{"a":3,"p":11,"roots":[5,6]}\n',
    ),
    (
        ("sqrtmod", "--a", "2", "--p", "17", "--format", "csv"),
        "a,p,root_small,root_large\n2,17,6,11\n",
    ),
    # A non-residue: no roots, null in JSON and two empty CSV cells.
    (
        ("sqrtmod", "--a", "3", "--p", "5"),
        '{"a":3,"p":5,"roots":null}\n',
    ),
    (
        ("sqrtmod", "--a", "3", "--p", "5", "--format", "csv"),
        "a,p,root_small,root_large\n3,5,,\n",
    ),
    (
        ("sum", "--k", "24"),
        '{"k":24,"sum":300,"sum_sq":4900}\n',
    ),
    (
        ("sum", "--k", "24", "--format", "csv"),
        "k,sum,sum_sq\n24,300,4900\n",
    ),
    (
        ("check", "--n", "18", "--d", "1", "--k", "11"),
        '{"d":1,"floor_root":77,"k":11,"n":18,"root":77,"sum":5929}\n',
    ),
    (
        ("check", "--n", "18", "--d", "1", "--k", "11", "--format", "text"),
        "S(18, 1, 11) = 5929 = 77^2\n",
    ),
    (
        ("check", "--n", "1", "--d", "1", "--k", "3", "--format", "csv"),
        "n,d,k,sum,floor_root,root\n1,1,3,14,3,\n",
    ),
    # n = 2^60: every int beyond 2^53 - 1 is a decimal string, and d = 1 stays a number.
    (
        ("check", "--n", "1152921504606846976", "--d", "1", "--k", "3"),
        '{"d":1,"floor_root":"1996918623117814389","k":3,"n":"1152921504606846976","root":null,'
        '"sum":"3987683987354747625628950208482115589"}\n',
    ),
    (
        ("trace", "--n", "1", "--d", "1", "--k", "3"),
        '{"d":1,"details":{"quotient":14,"quotient_mod_3":2,"sum":14,"valuation":0},'
        '"k":3,"n":1,"obstruction":"MOD3_QUOTIENT","prime":3,'
        '"splits":{"d":{"unit":1,"valuation":0},"n":{"unit":1,"valuation":0}}}\n',
    ),
    (
        ("trace", "--n", "1", "--d", "1", "--k", "3", "--format", "csv"),
        "n,d,k,prime,obstruction,valuation,quotient\n1,1,3,3,MOD3_QUOTIENT,0,14\n",
    ),
    # A non-residue prime: v_5(6 S) = 2 min(1, 2) + 1 = 3, with n and d split apart.
    (
        ("trace", "--n", "5", "--d", "50", "--k", "5"),
        '{"d":50,"details":{"min_exponent":1,"sum":80125,"valuation":3},"k":5,"n":5,'
        '"obstruction":"VALUATION_PARITY","prime":5,'
        '"splits":{"d":{"unit":2,"valuation":2},"n":{"unit":1,"valuation":1}}}\n',
    ),
    (
        ("trace", "--n", "5", "--d", "5", "--k", "5", "--format", "csv"),
        "n,d,k,prime,obstruction,valuation,quotient\n5,5,5,5,VALUATION_PARITY,3,\n",
    ),
    (
        ("verify", "--p", "5", "--max-n", "200", "--max-d", "200"),
        '{"max_d":200,"max_n":200,"p":5,"solutions":[],"windows":40000}\n',
    ),
    (
        ("verify", "--p", "5", "--max-n", "20", "--max-d", "20", "--format", "csv"),
        "k,n,d,t\n",
    ),
    (
        ("verify", "--p", "5", "--max-n", "20", "--max-d", "20", "--format", "text"),
        "p = 5: no square windows for n <= 20, d <= 20 (400 windows checked)\n",
    ),
    (
        ("search", "--k", "11", "--max-n", "50", "--max-d", "1"),
        '{"k":11,"max_d":1,"max_n":50,"sieve":false,"solutions":[[18,1,77],[38,1,143]],'
        '"windows":50}\n',
    ),
    (
        ("search", "--k", "11", "--max-n", "50", "--max-d", "1", "--format", "csv"),
        "k,n,d,t\n11,18,1,77\n11,38,1,143\n",
    ),
    (
        ("search", "--k", "11", "--max-n", "20", "--max-d", "300", "--format", "csv"),
        "k,n,d,t\n11,18,1,77\n11,2,7,143\n11,4,14,286\n11,12,19,407\n11,6,21,429\n"
        "11,8,28,572\n11,10,35,715\n11,12,42,858\n11,14,49,1001\n11,16,56,1144\n"
        "11,18,63,1287\n11,20,70,1430\n11,16,227,4499\n",
    ),
    (
        ("search", "--k", "11", "--max-n", "20", "--max-d", "300", "--format", "json"),
        '{"k":11,"max_d":300,"max_n":20,"sieve":false,"solutions":[[18,1,77],[2,7,143],'
        "[4,14,286],[12,19,407],[6,21,429],[8,28,572],[10,35,715],[12,42,858],[14,49,1001],"
        '[16,56,1144],[18,63,1287],[20,70,1430],[16,227,4499]],"windows":6000}\n',
    ),
    # The sieve finds the same 8 solutions in 110 of the 600 windows.
    (
        ("search", "--k", "11", "--max-n", "60", "--max-d", "10"),
        '{"k":11,"max_d":10,"max_n":60,"sieve":false,"solutions":[[18,1,77],[38,1,143],'
        '[36,2,154],[54,3,231],[36,5,209],[2,7,143],[24,7,209],[38,7,253]],"windows":600}\n',
    ),
    (
        ("search", "--k", "11", "--max-n", "60", "--max-d", "10", "--sieve"),
        '{"k":11,"max_d":10,"max_n":60,"sieve":true,"solutions":[[18,1,77],[38,1,143],'
        '[36,2,154],[54,3,231],[36,5,209],[2,7,143],[24,7,209],[38,7,253]],"windows":110}\n',
    ),
]


def test_c10_cli_golden_outputs_and_checkpoint_resume(tmp_path):
    started = time.perf_counter()
    for argv, expected in GOLDEN:
        # One child, whose hash seed differs from this process's; test_cli.py runs each row
        # once more in-process.
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected), argv

    ckpt = tmp_path / "acceptance.ckpt"
    uninterrupted = run_cli("verify", "--p", "17", "--max-n", "60", "--max-d", "12")
    full = run_cli(
        "verify", "--p", "17", "--max-n", "60", "--max-d", "12", "--checkpoint", str(ckpt)
    )
    assert full.stdout == uninterrupted.stdout
    lines = ckpt.read_text(encoding="ascii").splitlines()
    ckpt.write_text("\n".join(lines[:6]) + "\n", encoding="ascii")  # crash after 5 rows
    resumed = run_cli(
        "verify", "--p", "17", "--max-n", "60", "--max-d", "12", "--checkpoint", str(ckpt)
    )
    assert resumed.returncode == 0
    assert resumed.stdout == uninterrupted.stdout
    _announce(
        10, started, f"{len(GOLDEN)} golden CLI outputs byte-identical in a child; "
        "interrupted resume reproduces the report"
    )
