"""Workload definitions: the groups each workload solves and the seeded
query stream of ``sweep``.

A query is a plain tuple so that it prints, hashes and compares:

    ("sk1", p, orders, strategy)      sk1(make_group(p, orders), strategy)
    ("sk1_metacyclic", p, n)          sk1_metacyclic(make_metacyclic(p, n), max_order=p**n)
    ("verify", p, n)                  verify(p, n, sk1(C_{p^n} x C_{p^n}))
    ("rank", family, p, n)            rank_square_abelian(p, n) or rank_metacyclic(p, n)

Every query is paired with ``via_cli``: True sends it through
``sk1.cli.main(argv)`` instead of the library call.

The seed never changes which queries a workload holds: on ``sweep`` it
orders the stream and picks which queries go through the CLI, which
costs the same for each.  That keeps run-to-run spread down to the
machine's own noise.
"""

from __future__ import annotations

import math
import random

REPRESENTATIVES = "representatives"
EXHAUSTIVE = "exhaustive"

# Groups whose exhaustive cross-check fits under the library's default guard.
EXHAUSTIVE_LIMIT = 729

# deep-p3: high exponent; the int64 elimination overflows and the exact
# Smith form dominates.
DEEP_P3 = [(3, (243, 243)), (5, (125, 125)), (3, (27, 27, 3))]

# wide-prime: large |G|, shallow exponent; the genetic basis scans every
# element for each of (e+1)*p^2 homomorphisms.
WIDE_PRIME = [(17, (289, 289)), (19, (361, 361))]

# metacyclic: relation rows cost O(|G|) component calls, each walking <h>.
METACYCLIC = [(3, 7), (3, 8), (5, 5), (7, 4), (11, 4)]

# sweep pools, each derived from a bound in the benchmark's specification
# or the test suite rather than listed by hand.
SWEEP_PRIMES = (3, 5, 7, 11, 13)
# Every square C_{p^n} x C_{p^n} with p <= 13 and |G| <= 28561 = 13^4.
SWEEP_SQUARES = [(p, n) for p in SWEEP_PRIMES for n in range(1, 9) if p ** (2 * n) <= 28561]
# The multi-factor groups of the strategy-invariance acceptance test:
# two unequal factors with |G| <= 729, and C3 x C3 x C3.
SWEEP_MULTI = [
    (p, (p**a, p**b))
    for p in SWEEP_PRIMES
    for a in range(2, 7)
    for b in range(1, a)
    if p ** (a + b) <= EXHAUSTIVE_LIMIT
] + [(3, (3, 3, 3))]
# Modular metacyclic groups M_n(p) of order up to 729.
SWEEP_METACYCLIC = [(p, n) for p in SWEEP_PRIMES for n in range(3, 9) if p**n <= 729]
# verify for p = 3 and n <= 4 (the conjecture starts at n = 2).
SWEEP_VERIFY = [(3, 2), (3, 3), (3, 4)]
# The rank formulas are asked for the groups the sweep solves.
RANK_POOL = [("abelian", p, n) for p, n in SWEEP_SQUARES] + [
    ("metacyclic", p, n) for p, n in SWEEP_METACYCLIC
]
# Weights of the stream.  No usage record exists, so these are
# assumptions kept as plain as possible: every kind of query is asked
# equally often, each pool is cycled so that its members are asked
# equally often (give or take one), and one query in ten goes through
# the CLI.  80 per kind makes 320 queries.
PER_KIND = 80
CLI_EVERY = 10

WORKLOADS = ("deep-p3", "wide-prime", "metacyclic", "sweep")


def square(p: int, n: int) -> tuple[int, int]:
    return (p**n, p**n)


def sweep_pools() -> dict[str, list[tuple]]:
    """The distinct queries of each kind the sweep stream asks."""
    solves = [("sk1", p, square(p, n), REPRESENTATIVES) for p, n in SWEEP_SQUARES]
    solves += [("sk1", p, orders, REPRESENTATIVES) for p, orders in SWEEP_MULTI]
    solves += [
        (kind, p, orders, EXHAUSTIVE)
        for kind, p, orders, _ in solves
        if math.prod(orders) <= EXHAUSTIVE_LIMIT
    ]
    return {
        "sk1": solves,
        "sk1_metacyclic": [("sk1_metacyclic", p, n) for p, n in SWEEP_METACYCLIC],
        "verify": [("verify", p, n) for p, n in SWEEP_VERIFY],
        "rank": [("rank", *q) for q in RANK_POOL],
    }


def solve_key(query: tuple):
    """The (group, strategy) pair a query makes the library solve, or None."""
    if query[0] == "verify":
        _, p, n = query
        return ("sk1", p, square(p, n), REPRESENTATIVES)
    if query[0] in ("sk1", "sk1_metacyclic"):
        return query
    return None


def square_exponent(p: int, orders) -> int | None:
    """n when orders is (p^n, p^n) with n >= 2, the squares the conjecture covers."""
    if len(orders) != 2 or orders[0] != orders[1]:
        return None
    n, v = 0, orders[0]
    while v % p == 0:
        v //= p
        n += 1
    return n if v == 1 and n >= 2 else None


def answer_key(query: tuple) -> str:
    """Key of the pinned answer in expected.json; strategies share a key."""
    key = solve_key(query) or query
    if key[0] == "sk1":
        return f"sk1 {key[1]} {','.join(map(str, key[2]))}"
    return " ".join(map(str, key))


# Library name of each rank family's formula.
RANK_FUNCS = {"abelian": "rank_square_abelian", "metacyclic": "rank_metacyclic"}


def stream(workload: str, seed: int) -> list[tuple[tuple, bool]]:
    """The workload's queries in order, each paired with ``via_cli``.

    The seed shapes ``sweep`` only.  The other three are fixed lists in a
    fixed order: reordering them would make a group's latency depend on
    the seed through its place in a fresh interpreter.
    """
    if workload == "deep-p3":
        queries = [("sk1", p, orders, REPRESENTATIVES) for p, orders in DEEP_P3]
    elif workload == "wide-prime":
        queries = [("sk1", p, orders, REPRESENTATIVES) for p, orders in WIDE_PRIME]
    elif workload == "metacyclic":
        queries = [("sk1_metacyclic", p, n) for p, n in METACYCLIC]
    elif workload == "sweep":
        return _sweep(random.Random(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(q, False) for q in queries]


def _sweep(rng: random.Random) -> list[tuple[tuple, bool]]:
    """PER_KIND queries of each kind, each pool cycled, one in CLI_EVERY
    of each kind through the CLI; the seed picks those and the order.

    The queries are the same for every seed, and so is the repeat share;
    only their order and their channel change.
    """
    queries = []
    for pool in sweep_pools().values():
        cli = set(rng.sample(range(PER_KIND), PER_KIND // CLI_EVERY))
        queries += [(pool[i % len(pool)], i in cli) for i in range(PER_KIND)]
    rng.shuffle(queries)
    return queries


def repeat_share(queries) -> float:
    """Share of queries whose (group, strategy) pair an earlier query solved."""
    seen = set()
    repeats = 0
    for q, _ in queries:
        key = solve_key(q)
        if key is None:
            continue
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(queries)
