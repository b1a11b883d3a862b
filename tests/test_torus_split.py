"""Tests for the split of the abelian relation lattice over the diagonal
torus of Aut(G)."""

import itertools

import numpy as np
import pytest

from oracles import (
    relation_rows_by_remainder,
    rows_up_to_roots_of_unity,
    torus_by_permutations,
    torus_orbits_of_cyclic_subgroups,
)
from sk1.abelian import make_group
from sk1.genetic import cyclic_quotients, genetic_basis_abelian
from sk1.sk1_abelian import (
    EXHAUSTIVE,
    REPRESENTATIVES,
    SPLIT_MIN_PAIRS,
    TargetProduct,
    _characters,
    _components,
    _project,
    _references,
    _teichmuller_unit,
    _torus,
    _torus_blocks,
    relation_matrix,
    sk1,
)
from sk1.snf import cokernel_decomposition

# The exhaustive strategy runs on the groups of at most this order.
EXHAUSTIVE_UP_TO = 3125


def split_divisors(G, strategy):
    """The cyclic orders of the split: each block's, repeated by its
    multiplicity."""
    rel = relation_matrix(G, strategy=strategy, per_orbit=True)
    divisors = []
    for size, block in _torus_blocks(G, rel):
        divisors += cokernel_decomposition(block).divisors * size
    return tuple(sorted(divisors))


def strategies(G):
    return [REPRESENTATIVES] + [EXHAUSTIVE] * (G.order <= EXHAUSTIVE_UP_TO)


# Groups with multi-block splits, deep and wide squares, and the swap.
SPLIT_CASES = [
    (3, [3, 3, 3, 3]),
    (3, [9, 3, 3]),
    (3, [27, 27]),
    (3, [9, 9, 9]),
    (3, [81, 27, 3]),
    (5, [25, 25, 5]),
    (5, [125, 125]),
    (7, [49, 7]),
    (13, [169, 169]),
    (17, [289, 289]),
    (3, [729, 729]),
]
SPLIT_GROUPS = pytest.mark.parametrize("p,orders", SPLIT_CASES, ids=lambda v: str(v))


@SPLIT_GROUPS
def test_sk1_is_the_unsplit_cokernel(p, orders):
    G = make_group(p, orders)
    for strategy in strategies(G):
        rel = relation_matrix(G, strategy=strategy)
        want = cokernel_decomposition(rel.rows)
        assert sk1(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO) == want
        # Called directly, the split runs below the size gate too.
        assert split_divisors(G, strategy) == want.divisors


@SPLIT_GROUPS
@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_relation_rows_are_the_remainder_oracles(p, orders, chunk, monkeypatch):
    # The division-free membership test and its flat walk give the triples
    # of the int64 remainder test byte for byte, whole and per orbit.  At 7
    # columns a chunk's membership bits are padded to a byte, so the
    # exhaustive signatures differ from the oracle's unchunked ones.
    from sk1 import sk1_abelian

    if chunk is not None:
        monkeypatch.setattr(sk1_abelian, "COLUMN_CHUNK", chunk)
    G = make_group(p, orders)
    for strategy in strategies(G):
        for per_orbit in (False, True):
            rows = relation_matrix(G, strategy=strategy, per_orbit=per_orbit).rows
            got = rows if per_orbit else rows.lattice()
            want = relation_rows_by_remainder(G, strategy, per_orbit)
            assert got.shape == want.shape
            for a, b in ((got.row, want.row), (got.col, want.col), (got.val, want.val)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def row_set(lattice):
    return {tuple(r) for r in np.asarray(lattice).tolist()}


def project(torus, rows, chars):
    """The one block ``_project`` builds for ``chars``, as a Lattice."""
    [block] = _project(torus, rows, [chars])
    return block.lattice()


@SPLIT_GROUPS
def test_per_orbit_blocks_have_the_rows_of_the_whole_lattice(p, orders):
    # Every row of the relation lattice is, up to a root of unity, a torus
    # image of a row of the per-orbit references, so projecting the whole
    # lattice gives the same blocks, row for row up to a root of unity.
    G = make_group(p, orders)
    for strategy in strategies(G):
        whole = relation_matrix(G, strategy=strategy)
        rel = relation_matrix(G, strategy=strategy, per_orbit=True)
        assert rel.target == whole.target
        chars, mult = _characters(G)
        for size, block in _torus_blocks(G, rel):
            got = rows_up_to_roots_of_unity(block.lattice(), p)
            want = project(rel.torus, whole.rows.lattice(), chars[mult == size])
            want = rows_up_to_roots_of_unity(want, p)
            assert got.shape == want.shape
            assert row_set(got) == row_set(want)


@SPLIT_GROUPS
def test_every_block_is_a_well_formed_lattice(p, orders):
    # _project builds each block directly as the seed orders q_coords and
    # one row per nonzero projection; as a Lattice the seed rows come
    # first, then the projections, triples sorted by (row, column) with no
    # zero value.  Every other entry is reduced mod its column's seed.
    G = make_group(p, orders)
    for strategy in strategies(G):
        rel = relation_matrix(G, strategy=strategy, per_orbit=True)
        for _, block in _torus_blocks(G, rel):
            block = block.lattice()
            n_rows, k = block.shape
            assert len(block.row) == len(block.col) == len(block.val)
            assert np.array_equal(block.row[:k], np.arange(k))
            assert np.array_equal(block.col[:k], np.arange(k))
            seeds = block.val[:k]
            assert all(int(q) > 1 and G.exponent % int(q) == 0 for q in seeds)
            key = block.row * k + block.col
            assert (np.diff(key) > 0).all()
            assert (block.col < k).all()
            assert np.array_equal(np.unique(block.row), np.arange(n_rows))
            assert (block.val[k:] > 0).all() and (block.val[k:] < seeds[block.col[k:]]).all()


@pytest.mark.parametrize(
    "p,orders",
    [
        (3, [3]), (3, [27]), (3, [3, 3]), (3, [9, 3]), (3, [9, 9]), (3, [3, 3, 3]),
        (5, [5, 5, 5]), (5, [25, 5]), (7, [49, 49]), (13, [13, 13]), (3, [27, 9]),
    ],
    ids=lambda v: str(v),
)
def test_split_below_the_gate(p, orders):
    G = make_group(p, orders)
    for strategy in (REPRESENTATIVES, EXHAUSTIVE):
        rel = relation_matrix(G, strategy=strategy)
        assert len(rel.target.columns) * len(orders) < SPLIT_MIN_PAIRS
        assert split_divisors(G, strategy) == cokernel_decomposition(rel.rows).divisors


def test_exhaustive_split_above_the_gate_keeps_one_reference_per_cyclic_subgroup():
    # C_81^2 (160 columns x 2 generators) is split.  Its exhaustive rows
    # come from the first element of each cyclic subgroup, so they number
    # the non-seed rows of the representatives' whole lattice, and the SK1
    # is the representatives' one.
    G = make_group(3, [81, 81])
    whole = relation_matrix(G).rows
    assert whole.shape[1] * 2 >= SPLIT_MIN_PAIRS
    rel = relation_matrix(G, strategy=EXHAUSTIVE, per_orbit=True)
    assert rel.rows.shape[0] == whole.shape[0] - whole.shape[1] < G.order
    divisors = split_divisors(G, EXHAUSTIVE)
    assert divisors == split_divisors(G, REPRESENTATIVES) == sk1(G).divisors
    assert sk1(G, strategy=EXHAUSTIVE, max_order=G.order).divisors == divisors


@pytest.mark.parametrize("p,orders", [(3, [27, 27]), (5, [125, 125]), (3, [9, 9, 9])])
def test_components_of_every_character(p, orders):
    G = make_group(p, orders)
    rel = relation_matrix(G)
    kept = relation_matrix(G, per_orbit=True)
    torus = kept.torus
    assert len(kept.rows) < len(rel.rows)
    chars, mult = _characters(G)
    per_char = {}
    for a in chars:
        filtered = project(torus, kept.rows, a[None])
        # Every row is a torus image of a per-orbit row up to a root of
        # unity, so projecting every row adds no new row up to one.
        got = rows_up_to_roots_of_unity(filtered, p)
        want = rows_up_to_roots_of_unity(project(torus, rel.rows.lattice(), a[None]), p)
        assert got.shape == want.shape
        assert row_set(got) == row_set(want)
        per_char[tuple(a.tolist())] = cokernel_decomposition(filtered).divisors
    # Every factor has the same order here, so the characters a permutation
    # of the factors relates have the same sorted form, and their components
    # are isomorphic.
    orbits = {}
    for a, divisors in per_char.items():
        orbits.setdefault(tuple(sorted(a)), set()).add(divisors)
    assert all(len(d) == 1 for d in orbits.values())
    assert sorted(mult[mult > 0].tolist()) == sorted(
        sum(1 for a in per_char if tuple(sorted(a)) == s) for s in orbits
    )
    # Every character's own component, summed with no multiplicity, gives
    # the unsplit cokernel; so does one lattice holding every component.
    everything = tuple(sorted(d for divisors in per_char.values() for d in divisors))
    assert everything == cokernel_decomposition(rel.rows).divisors
    assert everything == cokernel_decomposition(project(torus, kept.rows, chars)).divisors


# An observed hypothesis, not a theorem: on every square pinned here, each
# character of the torus gives a component with the same decomposition,
# though the blocks differ in shape and nnz.  No argument is known, so
# _solve still eliminates one character per swap orbit.  C_243 x C_27 is
# the pinned counterexample off the squares: its two components differ.
@pytest.mark.parametrize(
    "p,orders,distinct",
    [
        (5, [25, 25], 1), (5, [125, 125], 1), (7, [49, 49], 1), (7, [343, 343], 1),
        (11, [121, 121], 1), (13, [169, 169], 1), (3, [243, 27], 2),
    ],
    ids=lambda v: str(v),
)
def test_observed_hypothesis_square_components_agree(p, orders, distinct):
    G = make_group(p, orders)
    rel = relation_matrix(G, per_orbit=True)
    chars, _ = _characters(G)
    components = {
        cokernel_decomposition(project(rel.torus, rel.rows, a[None])).divisors for a in chars
    }
    assert len(chars) == p - 1
    assert len(components) == distinct


# An observed hypothesis, not a theorem: on every square pinned here, the
# blocks built from one reference per torus orbit hold no two rows equal
# up to a root of unity, so the projection needs no row normalisation to
# stay duplicate-free.  C_3^4 is the pinned counterexample off the
# squares: the block keeps exact repeats, so of its 41 rows (seeds
# included) only 26 differ up to roots of unity; each repeat costs the
# elimination one row, cleared when its twin pivots.
@pytest.mark.parametrize(
    "p,orders,rows,distinct",
    [
        (3, [27, 27], 61, 61), (3, [81, 81], 187, 187), (3, [243, 243], 565, 565),
        (3, [729, 729], 1699, 1699), (5, [25, 25], 40, 40), (5, [125, 125], 205, 205),
        (7, [49, 49], 69, 69), (7, [343, 343], 489, 489), (11, [121, 121], 151, 151),
        (13, [169, 169], 204, 204), (17, [289, 289], 334, 334), (19, [361, 361], 411, 411),
        (3, [3, 3, 3, 3], 41, 26),
    ],
    ids=lambda v: str(v),
)
def test_observed_hypothesis_square_blocks_have_no_rows_equal_up_to_roots_of_unity(
    p, orders, rows, distinct
):
    G = make_group(p, orders)
    rel = relation_matrix(G, per_orbit=True)
    [(_, block)] = _torus_blocks(G, rel)
    assert len(block) == rows
    assert len(rows_up_to_roots_of_unity(block.lattice(), p)) == distinct


@pytest.mark.parametrize(
    "p,orders",
    [
        (3, [9, 9]), (3, [27, 9]), (3, [9, 3, 3]), (3, [3, 3, 3]), (3, [27, 27]),
        (5, [25, 5]), (5, [5, 5, 5]), (5, [25, 25]), (7, [49, 7]), (7, [7, 7]),
    ],
    ids=lambda v: str(v),
)
def test_references_meet_every_torus_orbit_once(p, orders):
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    torus = relation_matrix(G, per_orbit=True).torus
    refs = _references(G, REPRESENTATIVES, basis, torus)
    assert tuple(refs[0]) == G.identity()
    orbit_of = torus_orbits_of_cyclic_subgroups(G)
    met = [orbit_of[tuple(int(c) for c in h)] for h in refs]
    assert sorted(met) == sorted(set(orbit_of.values()))


def test_column_count_closed_form():
    # Every group of p <= 13 with up to three factors whose basis pass
    # stays small: the closed form counts the nontrivial cyclic quotients.
    groups = [
        (p, exps)
        for p in (3, 5, 7, 11, 13)
        for k in (1, 2, 3)
        for exps in itertools.combinations_with_replacement(range(6, 0, -1), k)
        if (max(exps) + 1) * p ** (sum(exps) - max(exps)) <= 20000
    ]
    assert len(groups) >= 100
    for p, exps in groups:
        G = make_group(p, [p**a for a in exps])
        assert cyclic_quotients(p, exps) == len(genetic_basis_abelian(G)) - 1


def test_squares_pair_every_character_with_its_swap():
    # chi = (a, 1 - a) would be swap-fixed only if 2a = 1 mod p - 1, which
    # has no solution: p - 1 is even.
    for p in (3, 5, 7, 11, 13):
        chars, mult = _characters(make_group(p, [p**2, p**2]))
        assert len(chars) == p - 1
        assert sorted(mult.tolist()) == [0] * ((p - 1) // 2) + [2] * ((p - 1) // 2)


# The groups where the permutation table was largest per column, (p-1)^(k-1)
# rows: 144 for C_13^3 and C_169^2 x C_13, 216 for C_49^2 x C_7^2.
@pytest.mark.parametrize(
    "p,orders",
    SPLIT_CASES + [(13, [13, 13, 13]), (13, [169, 169, 13]), (7, [7, 7, 7]), (5, [5, 5, 5, 5]),
                   (7, [49, 49, 7, 7])],
    ids=lambda v: str(v),
)
def test_closed_form_torus_is_the_permutation_table(p, orders):
    G = make_group(p, orders)
    target = relation_matrix(G).target
    chars, _ = _characters(G)
    torus = _torus(G, target)
    table = torus_by_permutations(G, target, chars)
    assert np.array_equal(torus.reps, table.reps)
    assert np.array_equal(torus.orbit, table.orbit)
    keep, coef = _components(torus, chars)
    assert np.array_equal(keep, table.keep)
    # The coefficients of a column count only where its orbit is kept.
    kept = keep.T[torus.orbit]
    assert kept.any()
    assert np.array_equal(coef[kept], table.coef[kept])


def test_a_target_missing_a_torus_image_is_refused():
    # Dropping any column of an orbit of two or more leaves an image outside
    # the target: the principal column, whose unit parts are all 1 mod p,
    # or one of the columns that it maps onto.  Both checks fire.
    for p, orders in ((3, [27, 27]), (5, [25, 25, 5])):
        G = make_group(p, orders)
        target = relation_matrix(G).target
        torus = _torus(G, target)
        n = len(target.columns)
        F = target.columns.form
        unit = F.copy()
        while (div := (unit % p == 0) & (unit != 0)).any():
            unit = np.where(div, unit // p, unit)
        principal = (unit % p <= 1).all(axis=1)
        fired = set()
        for c in np.flatnonzero(np.bincount(torus.orbit)[torus.orbit] > 1):
            broken = TargetProduct(target.columns[np.arange(n) != c])
            check = "a principal column of" if principal[c] else "the torus maps a column of"
            with pytest.raises(ValueError, match=f"{check} {G} (is )?outside the target"):
                _torus(G, broken)
            fired.add(check)
        assert len(fired) == 2


@pytest.mark.parametrize("p,eg", [(3, 3), (3, 3**8), (5, 5**5), (7, 7**4), (13, 169), (19, 361)])
def test_teichmuller_unit_has_order_p_minus_one(p, eg):
    w = _teichmuller_unit(p, eg)
    powers = [pow(w, j, eg) for j in range(1, p)]
    assert powers[-1] == 1 and 1 not in powers[:-1]


def test_teichmuller_unit_checks_its_order():
    # 9 is not prime, and the lift of 2 mod 9 to Z/81 does not have order 8.
    with pytest.raises(ValueError, match="order 8"):
        _teichmuller_unit(9, 81)


# The blocks of these groups hold many single-entry projected rows (204
# and 140), each of which stays a row of the elimination rather than
# lowering its column's modulus; their SK1 is the one CI records.
@pytest.mark.parametrize(
    "p,orders,want,single",
    [(13, [169, 169, 13], {13: 1105, 169: 77}, 204), (11, [121, 121, 11], {11: 671, 121: 54}, 140)],
    ids=lambda v: str(v),
)
def test_blocks_with_single_entry_rows_keep_their_sk1(p, orders, want, single):
    G = make_group(p, orders)
    assert sk1(G).multiplicities() == want
    blocks = _torus_blocks(G, relation_matrix(G, per_orbit=True))
    assert single == sum(
        int((np.bincount(block.rows.row, minlength=len(block.rows)) == 1).sum()) for _, block in blocks
    )


# The even-multiplicity law: the swap of the two factors pairs the
# components of SK1(C_{p^n} x C_{p^n}) without a fixed one (see
# test_squares_pair_every_character_with_its_swap), so the group is a
# square.  Checked on every pinned square.  Divisibility by p - 1 is
# observed on the same cases but not proven, so it is left out.
PINNED_SQUARES = (
    [(3, n) for n in range(2, 8)]
    + [(5, n) for n in range(2, 6)]
    + [(7, n) for n in range(2, 5)]
    + [(p, 2) for p in (11, 13, 17, 19)]
)


@pytest.mark.parametrize("p,n", PINNED_SQUARES)
def test_square_multiplicities_are_even(p, n):
    mult = sk1(make_group(p, [p**n, p**n])).multiplicities()
    assert mult
    assert all(m % 2 == 0 for m in mult.values())
