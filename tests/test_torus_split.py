"""Tests for the split of the abelian relation lattice over the diagonal
torus of Aut(G)."""

import itertools

import numpy as np
import pytest

from oracles import torus_orbits_of_cyclic_subgroups
from sk1.abelian import make_group
from sk1.genetic import cyclic_quotients, genetic_basis_abelian
from sk1.sk1_abelian import (
    EXHAUSTIVE,
    REPRESENTATIVES,
    SPLIT_MIN_PAIRS,
    TargetProduct,
    _characters,
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
    rel = relation_matrix(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO, per_orbit=True)
    divisors = []
    for size, block in _torus_blocks(G, rel):
        divisors += cokernel_decomposition(block).divisors * size
    return tuple(sorted(divisors))


def strategies(G):
    return [REPRESENTATIVES] + [EXHAUSTIVE] * (G.order <= EXHAUSTIVE_UP_TO)


# Groups with multi-block splits, deep and wide squares, and the swap.
SPLIT_GROUPS = pytest.mark.parametrize(
    "p,orders",
    [
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
    ],
    ids=lambda v: str(v),
)


@SPLIT_GROUPS
def test_sk1_is_the_unsplit_cokernel(p, orders):
    G = make_group(p, orders)
    for strategy in strategies(G):
        rel = relation_matrix(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO)
        want = cokernel_decomposition(rel.rows)
        assert sk1(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO) == want
        # Called directly, the split runs below the size gate too.
        assert split_divisors(G, strategy) == want.divisors


def row_set(lattice):
    return {tuple(r) for r in np.asarray(lattice).tolist()}


@SPLIT_GROUPS
def test_per_orbit_blocks_have_the_rows_of_the_whole_lattice(p, orders):
    # Every row of the relation lattice is, up to a root of unity, a torus
    # image of a row of the per-orbit references, so projecting the whole
    # lattice gives the same blocks, row for row.
    G = make_group(p, orders)
    for strategy in strategies(G):
        whole = relation_matrix(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO)
        rel = relation_matrix(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO, per_orbit=True)
        assert rel.target == whole.target
        chars, mult = _characters(G)
        for size, block in _torus_blocks(G, rel):
            want = _project(rel.torus, whole.rows, chars[mult == size])
            assert block.shape == want.shape
            assert row_set(block) == row_set(want)


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
        rel = relation_matrix(G, strategy=strategy, max_order=EXHAUSTIVE_UP_TO)
        assert len(rel.target.columns) * len(orders) < SPLIT_MIN_PAIRS
        assert split_divisors(G, strategy) == cokernel_decomposition(rel.rows).divisors


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
        filtered = _project(torus, kept.rows, a[None])
        # Every row is a torus image of a per-orbit row up to a root of
        # unity, so projecting every row adds no new normalised row.
        assert row_set(_project(torus, rel.rows, a[None])) == row_set(filtered)
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
    assert everything == cokernel_decomposition(_project(torus, kept.rows, chars)).divisors


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


def test_a_target_missing_a_torus_image_is_refused():
    G = make_group(3, [27, 27])
    target = relation_matrix(G).target
    torus = _torus(G, target)
    # A column that is not its orbit's representative is the image of one
    # that stays, so dropping it leaves an image outside the target.
    c = int(np.flatnonzero(torus.reps[torus.orbit] != np.arange(len(target.columns)))[0])
    broken = TargetProduct(target.columns[:c] + target.columns[c + 1 :])
    with pytest.raises(ValueError, match="outside the target"):
        _torus(G, broken)


@pytest.mark.parametrize("p,eg", [(3, 3), (3, 3**8), (5, 5**5), (7, 7**4), (13, 169), (19, 361)])
def test_teichmuller_unit_has_order_p_minus_one(p, eg):
    w = _teichmuller_unit(p, eg)
    powers = [pow(w, j, eg) for j in range(1, p)]
    assert powers[-1] == 1 and 1 not in powers[:-1]


def test_teichmuller_unit_checks_its_order():
    # 9 is not prime, and the lift of 2 mod 9 to Z/81 does not have order 8.
    with pytest.raises(ValueError, match="order 8"):
        _teichmuller_unit(9, 81)


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
