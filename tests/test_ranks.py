"""Tests for the closed-form representation counts and free ranks."""

import pytest

from sk1.abelian import make_group
from sk1.errors import BadParams
from sk1.genetic import genetic_basis_abelian
from sk1.metacyclic import genetic_basis_metacyclic, make_metacyclic
from sk1.ranks import (
    IrrepCounts,
    _exact_div,
    irrep_counts_metacyclic,
    irrep_counts_square_abelian,
    rank_metacyclic,
    rank_square_abelian,
)

import oracles


def conjugacy_class_count(G) -> int:
    els = oracles.meta_elements(G)
    seen = set()
    classes = 0
    for x in els:
        if x in seen:
            continue
        classes += 1
        for g in els:
            seen.add(oracles.meta_mul(G, oracles.meta_mul(G, g, x), oracles.meta_inverse(G, g)))
    return classes


def test_square_abelian_pinned():
    assert rank_square_abelian(3, 1) == 0
    assert rank_square_abelian(3, 2) == 24
    assert rank_square_abelian(5, 1) == 6
    counts = irrep_counts_square_abelian(3, 2)
    assert counts.complex == 81
    assert counts.real == 41
    assert counts.rational == 17
    assert irrep_counts_square_abelian(3, 1) == IrrepCounts(9, 5, 5)
    assert irrep_counts_square_abelian(3, 3) == IrrepCounts(729, 365, 53)


def test_metacyclic_pinned():
    assert rank_metacyclic(3, 3) == 0
    assert rank_metacyclic(3, 4) == 8
    assert rank_metacyclic(5, 3) == 7
    assert irrep_counts_metacyclic(3, 3) == IrrepCounts(11, 6, 6)
    assert irrep_counts_metacyclic(3, 4) == IrrepCounts(33, 17, 9)
    counts = irrep_counts_metacyclic(3, 5)
    assert counts.complex == 99
    assert counts.real == 50
    assert counts.rational == 12
    assert rank_metacyclic(3, 5) == 38


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_equals_real_minus_rational(p):
    for n in range(1, 7):
        counts = irrep_counts_square_abelian(p, n)
        assert rank_square_abelian(p, n) == counts.real - counts.rational
    for n in range(3, 9):
        counts = irrep_counts_metacyclic(p, n)
        assert rank_metacyclic(p, n) == counts.real - counts.rational


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (3, 5), (5, 3)])
def test_metacyclic_complex_count_is_class_count(p, n):
    # Complex irreducible representations are in bijection with
    # conjugacy classes.
    G = make_metacyclic(p, n)
    assert irrep_counts_metacyclic(p, n).complex == conjugacy_class_count(G)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_abelian_rational_count_is_cyclic_subgroup_count(p, n):
    # Rational irreducible representations of an abelian group are in
    # bijection with its cyclic subgroups.
    G = make_group(p, [p**n, p**n])
    assert irrep_counts_square_abelian(p, n).rational == len(oracles.cyclic_subgroups(G))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3)])
def test_abelian_rational_count_matches_basis(p, n):
    G = make_group(p, [p**n, p**n])
    assert irrep_counts_square_abelian(p, n).rational == len(genetic_basis_abelian(G))


@pytest.mark.parametrize("p,n", [(3, 3), (3, 6), (5, 3), (7, 4)])
def test_metacyclic_rational_count_matches_basis(p, n):
    G = make_metacyclic(p, n)
    assert irrep_counts_metacyclic(p, n).rational == len(genetic_basis_metacyclic(G))


def test_bad_params():
    for fn, n_bad in (
        (rank_square_abelian, 0),
        (irrep_counts_square_abelian, -1),
        (rank_metacyclic, 2),
        (irrep_counts_metacyclic, 0),
    ):
        with pytest.raises(BadParams):
            fn(3, n_bad)
        with pytest.raises(BadParams):
            fn(2, 4)
        with pytest.raises(BadParams):
            fn(9, 4)


def test_integral_float_params_act_as_ints():
    for fn in (rank_square_abelian, irrep_counts_square_abelian, rank_metacyclic, irrep_counts_metacyclic):
        assert fn(3.0, 4.0) == fn(3, 4)
        with pytest.raises(BadParams):
            fn(3.5, 4)
        with pytest.raises(BadParams):
            fn(3, 4.5)
    assert rank_metacyclic(3.0, 4) == 8 and type(rank_metacyclic(3.0, 4)) is int
    assert type(rank_square_abelian(3.0, 4)) is int
    for counts in (irrep_counts_square_abelian(3.0, 4), irrep_counts_metacyclic(3.0, 4)):
        assert {type(v) for v in vars(counts).values()} == {int}


def test_exact_division_guard():
    assert _exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        _exact_div(7, 2)


# Bass, "The Dirichlet unit theorem, induced characters, and Whitehead
# groups of finite groups", Topology 4 (1966): the rank of Wh(G) is the
# number of irreducible real representations of G minus the number of
# irreducible rational ones.  For G of odd order only the trivial complex
# character is real valued, so the real count is (classes + 1)/2, and the
# rational count is the number of conjugacy classes of cyclic subgroups,
# which is the size of the genetic basis.  The closed forms must agree
# with that generic identity.
@pytest.mark.parametrize(
    "p,n", [(3, 1), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 3)]
)
def test_abelian_rank_is_real_irreps_minus_basis(p, n):
    G = make_group(p, [p**n, p**n])
    real = _exact_div(p ** (2 * n) + 1, 2)
    assert rank_square_abelian(p, n) == real - len(genetic_basis_abelian(G))


@pytest.mark.parametrize(
    "p,n", [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (5, 5), (7, 4), (11, 4)]
)
def test_metacyclic_rank_is_real_irreps_minus_basis(p, n):
    G = make_metacyclic(p, n)
    real = _exact_div(irrep_counts_metacyclic(p, n).complex + 1, 2)
    assert rank_metacyclic(p, n) == real - len(genetic_basis_metacyclic(G))
