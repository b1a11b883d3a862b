"""Tests for the abelian relation-matrix pipeline."""

import tracemalloc
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import oracles

from sk1.abelian import enumerate_elements, make_group
from sk1.errors import TooLarge
from sk1.genetic import genetic_basis_abelian
from sk1.sk1_abelian import (
    EXHAUSTIVE,
    REPRESENTATIVES,
    STRATEGIES,
    relation_matrix,
    sk1,
    target_product,
)
from sk1.snf import cokernel_decomposition


def columns_by_tuple(G):
    target = target_product(G)
    return {S.coeffs: i for i, S in enumerate(target.columns)}


def test_target_product_c3xc3():
    G = make_group(3, [3, 3])
    target = target_product(G)
    assert len(target.columns) == 4
    assert target.columns == tuple(S for S in genetic_basis_abelian(G) if S.index > 1)
    assert target.orders == (3, 3, 3, 3)
    assert set(columns_by_tuple(G)) == {(0, 1), (1, 0), (1, 1), (1, 2)}


def test_relation_row_identity_reference():
    # h = identity lies in every subgroup, so every column reports the
    # class of the generator: the reference row and the matrix agree.
    G = make_group(3, [3, 3])
    basis = genetic_basis_abelian(G)
    pos = columns_by_tuple(G)
    row = oracles.relation_row(G, basis, (0, 0), (0, 1))
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
    row = oracles.relation_row(G, basis, (0, 1), (1, 0))
    want = [0, 0, 0, 0]
    want[pos[(1, 0)]] = 1
    assert row == want
    # h = (1,0) lies only in the kernel of the (0,1) map, where the class
    # of (1,0) is zero: the whole row vanishes.
    assert oracles.relation_row(G, basis, (1, 0), (1, 0)) == [0, 0, 0, 0]


def test_relation_matrix_starts_with_seed_block():
    G = make_group(3, [9, 9])
    rel = relation_matrix(G)
    orders = rel.target.orders
    k = len(orders)
    rows = np.asarray(rel.rows)
    assert rows.dtype == np.int64
    assert np.array_equal(rows[:k], np.diag(np.array(orders)))
    # No duplicate rows anywhere.
    seen = {r.tobytes() for r in rows}
    assert len(seen) == len(rows)
    # The triples are sorted by row, then by column, and all nonzero.
    lat = rel.rows
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
    rows = [list(r) for r in np.diag(np.array(target.orders, dtype=np.int64))]
    seen = {tuple(r) for r in rows}
    for h in reference_elements(G, basis, strategy):
        for i, gen in enumerate(G.generators()):
            if i == first_unit(p, h):
                continue
            row = oracles.relation_row(G, basis, h, gen)
            if tuple(row) not in seen:
                seen.add(tuple(row))
                rows.append(row)
    rel = relation_matrix(G, strategy=strategy)
    assert np.asarray(rel.rows).tolist() == rows


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
    q = np.array(target_product(G, basis).orders, dtype=np.int64)
    rel = relation_matrix(G, strategy=strategy, max_order=G.order)
    skipped = []
    for h in reference_elements(G, basis, strategy):
        rows = [oracles.relation_row(G, basis, h, gen) for gen in G.generators()]
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
    rows = np.diag(np.array(target.orders, dtype=np.int64)).tolist()
    for h in reference_elements(G, basis, REPRESENTATIVES):
        rows += [oracles.relation_row(G, basis, h, gen) for gen in G.generators()]
    assert cokernel_decomposition(rows) == sk1(G)


@pytest.mark.parametrize(
    "p,orders,shape",
    [(3, [243, 243], (1130, 484)), (3, [27, 27, 3], (490, 157)), (17, [289, 289], (668, 324))],
)
def test_relation_lattice_shapes(p, orders, shape):
    # Seed rows included.
    assert relation_matrix(make_group(p, orders)).rows.shape == shape


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
        relation_matrix(make_group(3, [9, 9]), strategy=EXHAUSTIVE, max_order=50)


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
        for _ in range(10):
            h = rng.choice(els)
            for gen in G.generators():
                extra.append(oracles.relation_row(G, basis, h, gen))
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
    ],
)
def test_sk1_elementary_abelian_closed_form(p, k, N):
    assert N == (p**k - 1) // (p - 1) - comb(p + k - 1, p)
    assert sk1(make_group(p, [p] * k)).divisors == (p,) * N


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
