"""Acceptance suite: one check per release criterion.

Each test prints a single ``ACCEPTANCE <k>: PASS/FAIL - <summary>`` line
(visible with ``pytest tests/test_acceptance.py -v -s``) and enforces the
wall-clock budget attached to its criterion.
"""

import contextlib
import io
import math
import random
import time
from contextlib import contextmanager

from sk1.abelian import make_group
from sk1.cli import main as cli_main
from sk1.genetic import cyclic_quotient_count, genetic_basis_abelian
from sk1.metacyclic import genetic_basis_metacyclic, make_metacyclic, sk1_metacyclic
from sk1.ranks import (
    irrep_counts_metacyclic,
    irrep_counts_square_abelian,
    rank_metacyclic,
    rank_square_abelian,
)
from sk1.sk1_abelian import EXHAUSTIVE, REPRESENTATIVES, sk1
from sk1.snf import cokernel_decomposition

import oracles
from oracles import smith_divisors


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def _odd_primes(limit):
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    return [i for i in range(3, limit + 1, 2) if sieve[i]]


def test_criterion_1_small_square_abelian_table():
    with criterion(1, "SK1 of C_{3^n} x C_{3^n} matches the table for n <= 4"):
        cases = {1: {}, 2: {1: 2}, 3: {1: 8, 2: 2}, 4: {1: 22, 2: 12, 3: 2}}
        for n, want in cases.items():
            t0 = time.monotonic()
            dec = sk1(make_group(3, [3**n] * 2))
            elapsed = time.monotonic() - t0
            assert dec.prime_power_multiplicities(3) == want
            assert elapsed < 10


def test_criterion_2_large_square_abelian():
    with criterion(2, "SK1 of C_243 x C_243 matches within five minutes"):
        t0 = time.monotonic()
        dec = sk1(make_group(3, [243, 243]))
        elapsed = time.monotonic() - t0
        assert dec.prime_power_multiplicities(3) == {1: 60, 2: 42, 3: 12, 4: 2}
        assert elapsed < 300


def test_criterion_2_slow_n6():
    with criterion("2 (n = 6)", "SK1 of C_729 x C_729 matches within one hour"):
        t0 = time.monotonic()
        dec = sk1(make_group(3, [729, 729]))
        elapsed = time.monotonic() - t0
        assert dec.prime_power_multiplicities(3) == {
            1: 170, 2: 120, 3: 54, 4: 12, 5: 2,
        }
        assert elapsed < 3600


def test_criterion_3_metacyclic_family():
    with criterion(3, "metacyclic SK1 is elementary abelian of rank (n-2)(p-1)"):
        budgets = {(3, 3): 30, (3, 4): 30, (3, 5): 30, (5, 3): 30, (3, 6): 600, (5, 4): 600}
        for (p, n), budget in budgets.items():
            t0 = time.monotonic()
            dec = sk1_metacyclic(make_metacyclic(p, n))
            elapsed = time.monotonic() - t0
            assert dec.prime_power_multiplicities(p) == {1: (n - 2) * (p - 1)}
            assert elapsed < budget


def test_criterion_4_conjecture_verified():
    with criterion(4, "predicted decompositions verify against computed SK1 for n = 2..5"):
        for n in range(2, 6):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(["conjecture", "--prime", "3", "--n", str(n), "--verify"])
            assert rc == 0
            assert buf.getvalue().splitlines()[-1] == "MATCH"


def test_criterion_5_count_formulas():
    with criterion(5, "basis sizes match the closed count formulas"):
        for n, want in ((2, 17), (3, 53), (4, 161)):
            G = make_group(3, [3**n] * 2)
            assert len(genetic_basis_abelian(G)) == want
            assert cyclic_quotient_count(3, n, n) == want
            assert want == 1 + (3 + 1) * sum(3**i for i in range(n))
        for p in (3, 5):
            for n in range(3, 7):
                G = make_metacyclic(p, n)
                assert len(genetic_basis_metacyclic(G)) == (n - 2) * p + 3


def test_criterion_6_rank_cross_checks():
    with criterion(6, "rank formulas equal real minus rational irrep counts"):
        for p in (3, 5, 7):
            for n in range(1, 5):
                counts = irrep_counts_square_abelian(p, n)
                assert rank_square_abelian(p, n) == counts.real - counts.rational
            for n in range(3, 7):
                counts = irrep_counts_metacyclic(p, n)
                assert rank_metacyclic(p, n) == counts.real - counts.rational


def test_criterion_7_snf_property_battery():
    with criterion(7, "Smith form invariants survive the oracle battery"):
        rng = random.Random(777)
        for case in range(500):
            scale = 1 if case % 4 else rng.choice((2, 3))
            mat = [[scale * rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
            divs = smith_divisors(mat)
            for a, b in zip(divs, divs[1:]):
                if b:
                    assert a != 0 and b % a == 0
            prod = 1
            for k in range(1, 5):
                prod *= divs[k - 1]
                assert prod == oracles.minor_gcd(mat, k)
        for _ in range(60):
            mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
            want = smith_divisors(mat)
            work = [list(r) for r in mat]
            for _ in range(12):
                kind = rng.randrange(3)
                i, j = rng.sample(range(4), 2)
                c = rng.randint(-3, 3)
                if kind == 0:
                    work[i] = [x + c * y for x, y in zip(work[i], work[j])]
                elif kind == 1:
                    for r in work:
                        r[i] += c * r[j]
                else:
                    work[i], work[j] = work[j], work[i]
            assert smith_divisors(work) == want
        for _ in range(40):
            c = rng.randint(1, 3)
            moduli = [rng.choice((3, 9, 27)) for _ in range(c)]
            modulus = math.lcm(*moduli)
            rows = [[moduli[i] if j == i else 0 for j in range(c)] for i in range(c)]
            for _ in range(rng.randint(1, 3)):
                rows.append([rng.randrange(modulus) for _ in range(c)])
            dec = cokernel_decomposition(rows)
            assert dec.order == oracles.lattice_index(rows, modulus)
            assert dec.divisors == oracles.exact_cokernel(rows)


def test_criterion_8_strategy_invariance():
    with criterion(8, "reference strategies agree on every abelian group in scope"):
        groups = []
        for p in _odd_primes(729):
            a = 1
            while p**a <= 729:
                groups.append((p, (p**a,)))
                a += 1
            for a in range(1, 7):
                for b in range(1, a + 1):
                    if p ** (a + b) <= 729:
                        groups.append((p, (p**a, p**b)))
        groups.append((3, (3, 3, 3)))
        assert (3, (9, 3)) in groups
        for p, orders in groups:
            G = make_group(p, list(orders))
            assert sk1(G, strategy=REPRESENTATIVES) == sk1(G, strategy=EXHAUSTIVE)


def test_criterion_9_known_theory_sanity():
    with criterion(9, "cyclic groups are trivial and divisors stay below the exponent"):
        for p in (3, 5):
            for e in range(1, 5):
                assert sk1(make_group(p, [p**e])).is_trivial
        for p, n in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1)):
            dec = sk1(make_group(p, [p**n] * 2))
            for d in dec.divisors:
                assert p ** (n - 1) % d == 0
