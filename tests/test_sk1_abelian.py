"""Tests for the abelian relation-matrix pipeline."""

import itertools
import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import oracles
from oracles import STRATEGIES, column_orders, enumerate_elements, target_product

from sk1.abelian import (
    DEFAULT_MAX_ORDER,
    ENUMERATION_LIMIT,
    SK1_CACHE_SIZE,
    make_group,
)
from sk1.errors import TooLarge
from sk1.genetic import genetic_basis_abelian
from sk1.sk1_abelian import (
    ELEMENT_BLOCK,
    EXHAUSTIVE,
    REPRESENTATIVES,
    _divisibility_table,
    _divisible,
    _elements,
    _references,
    _torus_blocks,
    relation_matrix,
    sk1,
)
from sk1.snf import Lattice, SparseRows, cokernel_decomposition


def columns_by_tuple(G):
    target = target_product(G)
    return {S.coeffs: i for i, S in enumerate(target.columns)}


def test_target_product_c3xc3():
    # The columns relation_matrix builds inline: the basis members with
    # nontrivial quotient, as the oracle lists them.
    G = make_group(3, [3, 3])
    target = relation_matrix(G).target
    assert len(target.columns) == 4
    assert tuple(target.columns) == tuple(S for S in genetic_basis_abelian(G) if S.index > 1)
    assert target.columns == target_product(G).columns
    assert column_orders(target) == (3, 3, 3, 3)
    assert set(columns_by_tuple(G)) == {(0, 1), (1, 0), (1, 1), (1, 2)}


def test_relation_row_identity_reference():
    # h = identity lies in every subgroup, so every column reports the
    # class of the generator: the reference row and the matrix agree.
    G = make_group(3, [3, 3])
    basis = genetic_basis_abelian(G)
    pos = columns_by_tuple(G)
    [[row]] = oracles.relation_rows(G, basis, [(0, 0)], [(0, 1)])
    assert row[pos[(0, 1)]] == 1
    assert row[pos[(1, 0)]] == 0
    assert row[pos[(1, 1)]] == 1
    assert row[pos[(1, 2)]] == 2
    assert row in np.asarray(relation_matrix(G).rows).tolist()


def test_relation_row_nonidentity_references():
    G = make_group(3, [3, 3])
    basis = genetic_basis_abelian(G)
    pos = columns_by_tuple(G)
    # h = (0,1) lies only in the kernel of the (1,0) map.
    [[row]] = oracles.relation_rows(G, basis, [(0, 1)], [(1, 0)])
    want = [0, 0, 0, 0]
    want[pos[(1, 0)]] = 1
    assert row == want
    # h = (1,0) lies only in the kernel of the (0,1) map, where the class
    # of (1,0) is zero: the whole row vanishes.
    assert oracles.relation_rows(G, basis, [(1, 0)], [(1, 0)]) == [[[0, 0, 0, 0]]]


def test_relation_matrix_starts_with_seed_block():
    G = make_group(3, [9, 9])
    rel = relation_matrix(G)
    orders = column_orders(rel.target)
    k = len(orders)
    rows = np.asarray(rel.rows)
    assert rows.dtype == np.int64
    assert np.array_equal(rows[:k], np.diag(np.array(orders)))
    # No duplicate rows anywhere.
    seen = {r.tobytes() for r in rows}
    assert len(seen) == len(rows)
    # The triples are sorted by row, then by column, and all nonzero.
    lat = rel.rows.lattice()
    assert np.all(np.diff(lat.row * k + lat.col) > 0)
    assert np.all(lat.val != 0)


@pytest.mark.parametrize(
    "p,orders,strategy",
    [
        pytest.param(3, orders, REPRESENTATIVES, id=f"orders{i}")
        for i, orders in enumerate([[3, 3], [9, 3], [9, 9], [3, 3, 3]])
    ]
    + [
        pytest.param(3, [9, 3, 3], EXHAUSTIVE, id="exhaustive"),
        pytest.param(5, [25, 5], REPRESENTATIVES, id="p5"),
        pytest.param(7, [49, 49], REPRESENTATIVES, id="p7"),
        pytest.param(3, [27, 9, 3], REPRESENTATIVES, id="orders4"),
    ],
)
def test_matrix_rows_match_reference_rows(p, orders, strategy):
    # The array builder, which reads the members' forms, must agree with
    # the per-element reference rows, which read their coefficient tuples,
    # with the generator at each h's first coordinate prime to p skipped
    # and duplicates removed in the same first-wins order.
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    target = target_product(G, basis)
    rows = [list(r) for r in np.diag(np.array(column_orders(target), dtype=np.int64))]
    seen = {tuple(r) for r in rows}
    refs = reference_elements(G, basis, strategy)
    for h, h_rows in zip(refs, oracles.relation_rows(G, basis, refs, G.generators())):
        for i, row in enumerate(h_rows):
            if i == first_unit(p, h):
                continue
            if tuple(row) not in seen:
                seen.add(tuple(row))
                rows.append(row)
    rel = relation_matrix(G, strategy=strategy)
    assert np.asarray(rel.rows).tolist() == rows


def partitions(n, largest):
    """The partitions of n into parts of at most ``largest``, descending."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def abelian_groups(max_order, primes):
    """(p, orders) of every abelian p-group of order at most max_order."""
    return [
        (p, [p**a for a in part])
        for p in primes
        for n in range(1, max_order.bit_length())
        if p**n <= max_order
        for part in partitions(n, n)
    ]


# Every abelian group with p <= 13 and |G| <= 7000 but C_3^8, whose whole
# lattice of 26248 rows and 16.8M entries takes ~1.8 GB to build (it has
# no repeat either, checked once outside the suite).
GROUPS_UP_TO_7000 = [g for g in abelian_groups(7000, (3, 5, 7, 11, 13)) if g[1] != [3] * 8]


@pytest.mark.parametrize("p,orders", GROUPS_UP_TO_7000)
def test_representatives_rows_never_repeat(p, orders):
    # Observed, not proved: the relation lattice keeps every row, and no
    # row, seeds included, equals another.  Only the speed of the lattice
    # assembly rests on this; a repeat would leave the cokernel as it is.
    lattice = relation_matrix(make_group(p, orders)).rows.lattice()
    assert oracles.repeated_rows(lattice) == 0


@pytest.mark.parametrize(
    "p,orders",
    [(3, [9, 3]), (3, [9, 9]), (3, [27, 9]), (3, [27, 27]), (3, [3, 3, 3]), (3, [9, 3, 3]),
     (3, [3, 3, 3, 3]), (5, [25, 5]), (5, [5, 5, 5]), (7, [49, 7]), (13, [13, 13])],
)
def test_exhaustive_lattice_is_every_element_rows_deduplicated(p, orders):
    # The exhaustive lattice keeps the first element of each membership
    # signature.  That gives, byte for byte, the lattice of every
    # element's rows (the slot of its first unit coordinate skipped) with
    # the repeats dropped in first-wins order by the oracle.
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    refs = enumerate_elements(G)
    rows = [
        row
        for h, h_rows in zip(refs, oracles.relation_rows(G, basis, refs, G.generators()))
        for i, row in enumerate(h_rows)
        if i != first_unit(p, h)
    ]
    q = column_orders(target_product(G, basis))
    want = oracles.distinct_rows(q, np.array(rows, dtype=np.int64))
    got = relation_matrix(G, strategy=EXHAUSTIVE).rows.lattice()
    assert got.shape == want.shape
    for a, b in ((got.row, want.row), (got.col, want.col), (got.val, want.val)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_elements(G, basis, strategy):
    if strategy == EXHAUSTIVE:
        return enumerate_elements(G)
    return [S.coeffs for S in basis]


def first_unit(p, h):
    """Index of the first coordinate of h prime to p, or None."""
    return next((i for i, c in enumerate(h) if c % p), None)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "p,orders", [(3, [9, 3]), (3, [3, 3, 3]), (3, [27, 9, 3]), (5, [25, 5]), (7, [49, 49])]
)
def test_skipped_rows_lie_in_the_span(p, orders, strategy):
    # row(h, .) is a homomorphism that kills h, so sum_i h_i * row(h, e_i)
    # vanishes modulo the column orders; that identity puts the skipped
    # row of h's first unit coordinate in the span of the kept rows, and
    # stacking every skipped row on must not move the cokernel.
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    q = np.array(column_orders(target_product(G, basis)), dtype=np.int64)
    rel = relation_matrix(G, strategy=strategy)
    skipped = []
    refs = reference_elements(G, basis, strategy)
    for h, rows in zip(refs, oracles.relation_rows(G, basis, refs, G.generators())):
        assert not np.any(np.array(h, dtype=np.int64) @ np.array(rows, dtype=np.int64) % q)
        j = first_unit(p, h)
        if j is not None:
            skipped.append(rows[j])
    assert skipped
    stacked = np.asarray(rel.rows).tolist() + skipped
    assert cokernel_decomposition(stacked) == cokernel_decomposition(rel.rows)


@pytest.mark.parametrize(
    "p,orders", [(3, [243, 243]), (3, [27, 27, 3]), (5, [125, 125]), (3, [81, 27, 3])]
)
def test_sk1_is_the_cokernel_of_the_unpruned_reference_rows(p, orders):
    # Every (reference element, generator) row, none skipped, as the
    # per-element oracle builds it: the same cokernel as the pruned lattice.
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    target = target_product(G, basis)
    rows = np.diag(np.array(column_orders(target), dtype=np.int64)).tolist()
    refs = reference_elements(G, basis, REPRESENTATIVES)
    for h_rows in oracles.relation_rows(G, basis, refs, G.generators()):
        rows += h_rows
    assert cokernel_decomposition(rows) == sk1(G)


@pytest.mark.parametrize(
    "p,orders,shape",
    [(3, [243, 243], (1130, 484)), (3, [27, 27, 3], (490, 157)), (17, [289, 289], (668, 324))],
)
def test_relation_lattice_shapes(p, orders, shape):
    # Seed rows included.
    assert relation_matrix(make_group(p, orders)).rows.shape == shape


def test_rank_mod_p_oracle_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        for n_rows, n_cols in [(4, 6), (7, 5), (6, 6), (9, 4)]:
            rows = rng.integers(-20, 20, size=(n_rows, n_cols))
            # Rank deficiency: a row that is a combination of two others, and
            # a column that vanishes mod p.
            rows[-1] = 2 * rows[0] - 3 * rows[1]
            rows[:, 1] *= p
            want = DomainMatrix.from_list(rows.tolist(), sympy.ZZ)
            assert oracles.rank_mod_p(rows, p) == want.convert_to(sympy.GF(p)).rank()
            r, c = np.nonzero(rows)
            lat = Lattice(r, c, rows[r, c], rows.shape)
            assert oracles.rank_mod_p_sparse(lat, p) == want.convert_to(sympy.GF(p)).rank()


@pytest.mark.parametrize(
    "p,orders",
    [(3, [81, 81]), (3, [243, 243]), (5, [125, 125]), (3, [27, 27, 3]), (3, [9, 9, 9]),
     (5, [25, 25, 5]), (7, [343, 343]), (3, [729, 729]),
     (3, [2187, 2187]), (5, [3125, 3125]), (3, [6561, 6561]), (5, [15625, 15625]),
     (7, [16807, 16807])],
)
def test_factor_count_is_the_corank_mod_p(p, orders):
    # The cokernel of a lattice L in Z^cols has cols - rank(L mod p) cyclic
    # factors: its tensor with GF(p) is GF(p)^cols modulo L.  This counts
    # the factors of sk1's split eliminations with no Smith form at all:
    # on every torus block, each counted once per character of its orbit
    # size, by the sparse rank, and up to C_729^2 also on the whole
    # lattice, by the dense one.
    G = make_group(p, orders)
    factors = len(sk1(G).divisors)
    blocks = _torus_blocks(G, relation_matrix(G, per_orbit=True))
    assert factors == sum(
        size * (block.shape[1] - oracles.rank_mod_p_sparse(block.lattice(), p))
        for size, block in blocks
    )
    if G.order <= 729**2:
        rows = relation_matrix(G).rows
        assert factors == rows.shape[1] - oracles.rank_mod_p(rows, p)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("p,orders", [(3, [9, 3]), (3, [3, 3, 3]), (3, [27, 9, 3]), (5, [25, 5])])
def test_references_of_each_strategy(p, orders, strategy):
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    refs = _references(G, strategy, basis)
    assert refs.dtype == np.int64
    if strategy == EXHAUSTIVE:
        assert refs.tolist() == [list(x) for x in enumerate_elements(G)]
    else:
        assert refs.tolist() == [list(S.coeffs) for S in basis]


def test_exhaustive_references_keep_the_enumeration_guard():
    # C_{3^15} passes the basis guard (16 tuples), and relation_matrix has
    # no order guard, but its 3^15 > 10^7 elements are not listed.
    G = make_group(3, [3**15])
    assert G.order > ENUMERATION_LIMIT
    with pytest.raises(TooLarge, match="enumeration guard"):
        relation_matrix(G, strategy=EXHAUSTIVE)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("p,orders", [(3, [9, 3]), (3, [27, 9, 3]), (5, [25, 5]), (3, [81, 81])])
def test_exhaustive_blocks_keep_the_first_of_each_signature(p, orders, block, monkeypatch):
    # Streamed in blocks of any size, the exhaustive pass keeps the
    # elements of one pass over every element: the first of each
    # signature, in lexicographic order, so the lattice is byte-identical.
    from sk1 import sk1_abelian

    G = make_group(p, orders)
    want = oracles.relation_rows_by_remainder(G, EXHAUSTIVE, per_orbit=False)
    refs = _references(G, EXHAUSTIVE, genetic_basis_abelian(G))
    columns = target_product(G).columns
    q, F = columns.index, columns.form
    signature = [tuple(bits) for bits in (refs @ F.T % q == 0).tolist()]
    first = sorted({s: i for i, s in reversed(list(enumerate(signature)))}.values())
    stream, kept = sk1_abelian._first_of_each_signature, []

    def spy(*args):
        kept.append(stream(*args))
        return kept[-1]

    monkeypatch.setattr(sk1_abelian, "ELEMENT_BLOCK", block)
    monkeypatch.setattr(sk1_abelian, "_first_of_each_signature", spy)
    got = relation_matrix(G, strategy=EXHAUSTIVE).rows.lattice()
    assert kept[0].tolist() == refs[first].tolist()
    assert got.shape == want.shape
    for a, b in ((got.row, want.row), (got.col, want.col), (got.val, want.val)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_exhaustive_pass_memory_does_not_grow_with_the_group():
    # C_243^2 has 59049 elements and 484 columns.  One product over every
    # element took a 131 MB tracemalloc peak; in blocks of ELEMENT_BLOCK
    # elements the peak stays near one block's product.
    G = make_group(3, [243, 243])
    assert G.order > 10 * ELEMENT_BLOCK
    genetic_basis_abelian(G)
    tracemalloc.start()
    try:
        rel = relation_matrix(G, strategy=EXHAUSTIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert rel.rows.shape == relation_matrix(G).rows.shape


@pytest.mark.parametrize("orders", [[27, 27], [81, 81]])
def test_elements_are_the_lexicographic_product_at_every_block_boundary(orders):
    # C_81^2 has 6561 elements, more than one ELEMENT_BLOCK, so its blocks
    # start inside a run of the trailing coordinate; C_27^2 fits in one.
    G = make_group(3, orders)
    every = list(itertools.product(*map(range, G.orders)))
    bounds = list(range(0, G.order, ELEMENT_BLOCK)) + [G.order]
    windows = list(zip(bounds, bounds[1:]))
    windows += [(max(b - 5, 0), min(b + 5, G.order)) for b in bounds]
    windows += [(80, 82), (1, G.order - 1), (G.order - 1, G.order)]
    for lo, hi in windows:
        got = _elements(G, lo, hi)
        assert got.dtype == np.int64 and got.shape == (hi - lo, 2)
        assert got.tolist() == [list(x) for x in every[lo:hi]]


@pytest.mark.parametrize("p,orders,want", [
    (3, [27, 27], {3: 8, 9: 2}),
    (3, [81, 81], {3: 22, 9: 12, 27: 2}),
    (3, [27, 27, 3], {3: 45, 9: 21, 27: 2}),
])
def test_sk1_hands_its_rows_to_the_elimination_as_sparse_rows(p, orders, want, monkeypatch):
    # Below the split gate (C_27^2) and above it, every Smith input is
    # SparseRows of the seed orders and a Lattice of the other rows: no
    # seed row is stacked on, and none is searched for.
    from sk1 import sk1_abelian, snf

    def refuse(*args):
        raise AssertionError("the abelian rows went through a seed search")

    inputs = []

    def spy(mat):
        inputs.append(mat)
        return snf.cokernel_decomposition(mat)

    monkeypatch.setattr(snf, "_find_seeds", refuse)
    monkeypatch.setattr(snf, "seeds_first", refuse)
    monkeypatch.setattr(sk1_abelian, "cokernel_decomposition", spy)
    monkeypatch.setattr(sk1_abelian, "_solve", sk1_abelian._solve.__wrapped__)
    assert sk1(make_group(p, orders)).multiplicities() == want
    assert inputs and all(isinstance(m, SparseRows) and isinstance(m.rows, Lattice) for m in inputs)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_divisibility_without_division_is_the_remainder_test(p):
    # Every q = p^j that the int64 guard admits for a cyclic group
    # (q^2 < 2^63), against x % q == 0 on random x, random multiples of q
    # and the edges of [0, 2^63).
    e = max(j for j in range(64) if p ** (2 * j) < 2**63)
    powers, inverse, top = _divisibility_table(p)
    assert powers.tolist() == [p**j for j in range(e + 1)]
    rng = np.random.default_rng(p)
    for j, q in enumerate(powers.tolist()):
        edges = [0, q - 1, q, (2**63 - 1) // q * q, 2**63 - 1]
        multiples = rng.integers(0, (2**63 - 1) // q, size=500, endpoint=True) * q
        x = np.concatenate([edges, rng.integers(0, 2**63 - 1, size=500), multiples])
        x = x.astype(np.int64)
        want = x % q == 0
        assert want[:4].tolist() == [True, q == 1, True, True]
        assert np.array_equal(_divisible(x.copy(), inverse[j], top[j]), want)


@pytest.mark.parametrize("chunk", [1, 5, 75, 76, 1000])
def test_relation_matrix_does_not_depend_on_the_column_chunk(chunk, monkeypatch):
    # C27 x C9 x C3 has 76 columns: the chunks split them anywhere.
    from sk1 import sk1_abelian

    G = make_group(3, [27, 9, 3])
    for strategy in STRATEGIES:
        want = np.asarray(relation_matrix(G, strategy=strategy).rows)
        monkeypatch.setattr(sk1_abelian, "COLUMN_CHUNK", chunk)
        got = relation_matrix(G, strategy=strategy).rows
        monkeypatch.undo()
        assert got.shape == want.shape
        assert np.array_equal(np.asarray(got), want)


@pytest.mark.parametrize(
    "orders,expected",
    [
        ([3], ()),
        ([9], ()),
        ([243], ()),
        ([3, 3], ()),
        ([9, 9], (3, 3)),
        ([27, 27], (3, 3, 3, 3, 3, 3, 3, 3, 9, 9)),
        # Beyond the element cap 10^7, from 16 coefficient tuples.
        ([3**15], ()),
        # The largest cyclic 3-group inside the int64 refusal; q^2 < 2^63
        # keeps it on the modular route.
        ([3**19], ()),
    ],
)
def test_sk1_known_decompositions(orders, expected):
    G = make_group(3, orders)
    assert sk1(G).divisors == expected


def test_sk1_square_n4():
    G = make_group(3, [81, 81])
    dec = sk1(G)
    assert dec.prime_power_multiplicities(3) == {1: 22, 2: 12, 3: 2}


@pytest.mark.parametrize("orders", [[3, 3], [9, 3], [9, 9], [27, 3], [3, 3, 3], [27, 9], [27, 27]])
def test_strategies_agree(orders):
    G = make_group(3, orders)
    assert sk1(G, strategy=REPRESENTATIVES) == sk1(G, strategy=EXHAUSTIVE)


def test_exhaustive_guard():
    G = make_group(3, [3] * 7)  # order 2187 > default guard 729
    with pytest.raises(TooLarge):
        sk1(G, strategy=EXHAUSTIVE)
    with pytest.raises(TooLarge):
        sk1(make_group(3, [9, 9]), strategy=EXHAUSTIVE, max_order=50)


def test_cache_hit_does_not_skip_exhaustive_guard():
    G = make_group(3, [9, 9])
    assert sk1(G, strategy=EXHAUSTIVE, max_order=10**4).divisors == (3, 3)
    with pytest.raises(TooLarge):
        sk1(G, strategy=EXHAUSTIVE, max_order=10)


def test_int64_refusal():
    # len(orders) * eg^2 >= 2^63: 3^40 is past it (C_{3^19}, at 3^38, is
    # pinned in test_sk1_known_decompositions), and every abelian entry
    # point refuses.
    G = make_group(3, [3**20])
    for call in (sk1, relation_matrix, genetic_basis_abelian):
        with pytest.raises(TooLarge, match="int64"):
            call(G)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        relation_matrix(make_group(3, [3, 3]), strategy="everything")


def test_sk1_is_cached():
    G = make_group(3, [9, 9])
    assert sk1(G) is sk1(G)


def test_sk1_cache_drops_the_least_recently_used(monkeypatch):
    from sk1 import sk1_abelian

    # The default holds every distinct solve of a long mixed session.  The
    # perfbench sweep makes 48: 41 abelian ones, which this cache holds,
    # and 7 metacyclic ones, which sk1_metacyclic's own cache holds.
    assert sk1_abelian._solve.cache_info().maxsize == sk1_abelian.SK1_CACHE_SIZE >= 48
    solve = lru_cache(maxsize=2)(sk1_abelian._solve.__wrapped__)
    monkeypatch.setattr(sk1_abelian, "_solve", solve)

    def hits_and_misses():
        info = solve.cache_info()
        return info.hits, info.misses

    A, B, C = (make_group(3, orders) for orders in ([3, 3], [9, 3], [9, 9]))
    a, b = sk1(A), sk1(B)
    assert sk1(A) is a  # the hit makes A the most recent
    c = sk1(C)  # so B is dropped
    assert hits_and_misses() == (1, 3)
    assert sk1(A) is a and sk1(C) is c
    assert hits_and_misses() == (3, 3)
    again = sk1(B)  # solved anew, dropping A
    assert again == b and again is not b
    assert hits_and_misses() == (3, 4)
    assert sk1(C) is c  # C and B are held
    assert sk1(B) is again
    assert hits_and_misses() == (5, 4) and solve.cache_info().currsize == 2
    fresh = sk1(A)  # A was dropped
    assert fresh == a and fresh is not a
    assert hits_and_misses() == (5, 5)
    # A full cache still checks the guard before the lookup.
    sk1(B, strategy=EXHAUSTIVE, max_order=10**4)
    with pytest.raises(TooLarge):
        sk1(B, strategy=EXHAUSTIVE, max_order=10)


def test_basis_cache_keeps_the_guards():
    from sk1 import sk1_abelian

    assert genetic_basis_abelian.cache_info().maxsize == SK1_CACHE_SIZE
    # guard_int64 refuses C_{3^20}, the enumeration guard C_6561^3 (9 x
    # 6561^2 tuples): every call raises, and none is cached.
    for G, guard in ((make_group(3, [3**20]), "int64"),
                     (make_group(3, [6561] * 3), "enumeration guard")):
        size = genetic_basis_abelian.cache_info().currsize
        for call in (genetic_basis_abelian, sk1, genetic_basis_abelian, sk1):
            with pytest.raises(TooLarge, match=guard):
                call(G)
        assert genetic_basis_abelian.cache_info().currsize == size
    # Both strategies, above and below the split gate, share one basis:
    # each solve asks for it in _solve, to place the gate, and again in
    # relation_matrix.
    for orders in ([27, 9], [81, 81]):
        G = make_group(3, orders)
        sk1_abelian._solve.cache_clear()
        genetic_basis_abelian.cache_clear()
        sk1(G)
        sk1(G, strategy=EXHAUSTIVE, max_order=G.order)
        info = genetic_basis_abelian.cache_info()
        assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize(
    "n,expected",
    [(5, {1: 60, 2: 42, 3: 12, 4: 2}), (6, {1: 170, 2: 120, 3: 54, 4: 12, 5: 2})],
)
def test_sk1_peak_memory_stays_below_one_dense_matrix(n, expected):
    # The lattice stays sparse from the rows to the Smith form, so a cold
    # solve of C_{3^n}^2 allocates less than one int64 copy of its dense
    # relation matrix (1452 x 484 for n = 5, 4368 x 1456 for n = 6).
    from sk1 import sk1_abelian

    G = make_group(3, [3**n, 3**n])
    sk1_abelian._solve.cache_clear()
    tracemalloc.start()
    try:
        dec = sk1(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.prime_power_multiplicities(3) == expected
    n_rows, n_cols = relation_matrix(G).rows.shape
    assert peak < n_rows * n_cols * np.dtype(np.int64).itemsize


def test_sk1_values_are_p_power_torsion():
    for orders in ([9, 3], [27, 3], [27, 9]):
        G = make_group(3, orders)
        dec = sk1(G)
        for d in dec.divisors:
            while d % 3 == 0:
                d //= 3
            assert d == 1


def test_extra_reference_rows_change_nothing():
    # Rows for additional reference elements are already consequences of
    # the emitted ones, so stacking them on must not move the cokernel.
    import random

    rng = random.Random(17)
    for orders in ([9, 9], [27, 3]):
        G = make_group(3, orders)
        basis = genetic_basis_abelian(G)
        rel = relation_matrix(G)
        base = cokernel_decomposition(rel.rows)
        extra = np.asarray(rel.rows).tolist()
        els = enumerate_elements(G)
        refs = [rng.choice(els) for _ in range(10)]
        for h_rows in oracles.relation_rows(G, basis, refs, G.generators()):
            extra += h_rows
        assert cokernel_decomposition(extra) == base


def test_exhaustive_rows_extend_representative_rows():
    # Every relation row the representative strategy emits must also be
    # produced by the exhaustive sweep over all group elements.
    G = make_group(3, [9, 9])
    rep = relation_matrix(G, strategy=REPRESENTATIVES)
    exh = relation_matrix(G, strategy=EXHAUSTIVE)
    exh_rows = {r.tobytes() for r in np.asarray(exh.rows)}
    for r in np.asarray(rep.rows):
        assert r.tobytes() in exh_rows


@pytest.mark.parametrize(
    "p,orders",
    [(3, [9, 9]), (3, [27, 27]), (3, [27, 9, 3]), (5, [25, 25]), (3, [9, 3])],
)
def test_representatives_take_one_generator_per_cyclic_subgroup(p, orders):
    # The rule the metacyclic rows share: the reference elements, the basis
    # members' coefficient tuples reduced mod the factor orders, generate
    # every cyclic subgroup of G exactly once.
    G = make_group(p, orders)
    refs = [
        tuple(c % o for c, o in zip(S.coeffs, G.orders))
        for S in genetic_basis_abelian(G)
    ]
    generated = [oracles.cyclic_subgroup(G, h) for h in refs]
    assert len(set(generated)) == len(generated)
    assert set(generated) == oracles.cyclic_subgroups(G)


# Alperin, Dennis, Oliver & Stein, "SK1 of finite abelian groups, I",
# Invent. Math. 87 (1987): for G = (C_p)^k, SK1(Z[G]) is (C_p)^N with
# N = (p^k - 1)/(p - 1) - C(p + k - 1, p).
@pytest.mark.parametrize(
    "p,k,N",
    [
        (3, 2, 0), (3, 3, 3), (3, 4, 20), (3, 5, 86),
        (5, 3, 10), (5, 4, 100), (7, 3, 21), (11, 3, 55),
        (3, 8, 3160), (5, 6, 3654), (7, 5, 2471),
    ],
)
def test_sk1_elementary_abelian_closed_form(p, k, N):
    assert N == (p**k - 1) // (p - 1) - comb(p + k - 1, p)
    G = make_group(p, [p] * k)
    for strategy in [REPRESENTATIVES] + [EXHAUSTIVE] * (G.order <= DEFAULT_MAX_ORDER):
        assert sk1(G, strategy=strategy).divisors == (p,) * N


# Observed values, not a cited theorem: SK1 of C_{p^n} x C_p is 0 on
# every case pinned here.
@pytest.mark.parametrize(
    "p,orders",
    [
        (3, [9, 3]), (3, [243, 3]), (3, [2187, 3]),
        (5, [625, 5]), (7, [343, 7]), (13, [169, 13]),
    ],
)
def test_sk1_of_cyclic_times_order_p_vanishes(p, orders):
    assert sk1(make_group(p, orders)).divisors == ()
