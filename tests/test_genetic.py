"""Tests for the enumeration of subgroups with cyclic quotient."""

import math

import numpy as np
import pytest

from sk1.abelian import ENUMERATION_LIMIT, make_group
from sk1.errors import BadParams, TooLarge
from sk1.genetic import (
    GeneticSubgroupA,
    cyclic_quotient_count,
    enumerate_cyclic_homs,
    genetic_basis_abelian,
)

import oracles
from oracles import enumerate_elements


def form_class(S, x):
    """Class of x in the cyclic quotient of S, read off the stored form."""
    return sum(f * c for f, c in zip(S.form, x)) % S.index


def test_hom_tuples_for_c3xc3():
    G = make_group(3, [3, 3])
    # First coordinate runs over [3^0 mod 3, 3^1 mod 3] = [1, 0], second is free.
    assert enumerate_cyclic_homs(G) == [
        (1, 0), (1, 1), (1, 2),
        (0, 0), (0, 1), (0, 2),
    ]


def test_hom_tuples_for_single_factor():
    G = make_group(3, [3])
    assert enumerate_cyclic_homs(G) == [(1,), (0,)]


def test_hom_tuples_for_c9xc9_first_coordinates():
    G = make_group(3, [9, 9])
    homs = enumerate_cyclic_homs(G)
    assert len(homs) == 3 * 9
    firsts = [h[0] for h in homs]
    assert sorted(set(firsts)) == [0, 1, 3]
    # Blocks appear in the order 3^0, 3^1, 3^2 mod 9 = 1, 3, 0.
    assert firsts[0] == 1 and firsts[9] == 3 and firsts[18] == 0


@pytest.mark.parametrize(
    "p,orders",
    [(3, [3, 3]), (3, [27, 9, 3]), (3, [3] * 5), (17, [289, 289]), (3, [3**15])],
)
def test_hom_tuples_count_and_odometer_order(p, orders):
    # (e+1) * prod_{i>0} o_i plain tuples, p^e the exponent: entry t is the
    # mixed-radix expansion of t, its first digit x read as p^x mod eg.
    G = make_group(p, orders)
    eg, e = G.exponent, 0
    while p**e < eg:
        e += 1
    homs = enumerate_cyclic_homs(G)
    radices = [e + 1, *orders[1:]]
    assert len(homs) == (e + 1) * math.prod(orders[1:])
    for t, h in enumerate(homs):
        assert type(h) is tuple
        digits = []
        for r in reversed(radices):
            t, d = divmod(t, r)
            digits.append(d)
        x, *rest = reversed(digits)
        assert h == (pow(p, x, eg), *rest)


COUNT_CASES = [
    # (p, orders, expected basis size)
    (3, [3, 3], 5),
    (3, [9, 9], 17),
    (3, [27, 27], 53),
    (3, [81, 81], 161),
    (3, [9, 3], 8),
    (3, [27, 3], 11),
    (5, [5, 5], 7),
    (5, [25, 5], 12),
    (5, [25, 25], 37),
    (5, [125, 25], 62),
    (5, [125, 125], 187),
]


@pytest.mark.parametrize("p,orders,expected", COUNT_CASES)
def test_basis_sizes(p, orders, expected):
    G = make_group(p, orders)
    assert len(genetic_basis_abelian(G)) == expected


@pytest.mark.parametrize(
    "p,n,m,expected",
    [
        (3, 1, 1, 5), (3, 2, 2, 17), (3, 3, 3, 53), (3, 4, 4, 161), (3, 1, 2, 8),
        (5, 1, 1, 7), (5, 1, 2, 12), (5, 2, 2, 37), (5, 2, 3, 62), (5, 3, 3, 187),
    ],
)
def test_count_formula_matches_enumeration(p, n, m, expected):
    assert cyclic_quotient_count(p, n, m) == expected


@pytest.mark.parametrize(
    "args",
    [(2, 1, 1), (3, 0, 1), (3, 2, 1), (9, 1, 1), (3, -1, 2), (3.5, 1, 1), (3, 1.5, 2), (3, 1, 2.5)],
)
def test_count_formula_rejects_bad_params(args):
    with pytest.raises(BadParams):
        cyclic_quotient_count(*args)


def test_count_formula_takes_integral_floats_as_ints():
    count = cyclic_quotient_count(3.0, 1.0, 2.0)
    assert count == cyclic_quotient_count(3, 1, 2) == 8
    assert type(count) is int


@pytest.mark.parametrize("orders", [[3, 3], [9, 3], [9, 9], [3, 3, 3]])
def test_basis_members_are_exactly_subgroups_with_cyclic_quotient(orders):
    G = make_group(3, orders)
    basis = genetic_basis_abelian(G)
    els = enumerate_elements(G)
    found = set()
    for S in basis:
        members = frozenset(x for x in els if form_class(S, x) == 0)
        assert len(els) == len(members) * S.index
        assert members not in found
        found.add(members)
    # Proper subgroups with cyclic quotient have rank at most two here, but
    # the whole group (trivial quotient) may need more than two generators.
    candidates = oracles.two_generated_subgroups(G) | {frozenset(els)}
    want = {H for H in candidates if oracles.has_cyclic_quotient(G, H)}
    assert found == want


@pytest.mark.parametrize("orders", [[3, 3], [9, 3], [9, 9], [3, 3, 3]])
def test_duality_with_cyclic_subgroup_count(orders):
    # The number of quotient-cyclic subgroups equals the number of cyclic
    # subgroups in a finite abelian group.
    G = make_group(3, orders)
    assert len(genetic_basis_abelian(G)) == len(oracles.cyclic_subgroups(G))


def test_basis_is_sorted_and_unique():
    G = make_group(3, [9, 9])
    basis = genetic_basis_abelian(G)
    keys = [(S.index, S.coeffs) for S in basis]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert basis[0].index == 1  # whole group comes first


def test_form_c3xc3():
    G = make_group(3, [3, 3])
    basis = genetic_basis_abelian(G)
    by_tuple = {S.coeffs: S for S in basis}
    S = by_tuple[(1, 1)]  # kernel {(0,0),(1,2),(2,1)}, quotient C3
    assert (S.index, S.form) == (3, (1, 1))
    assert form_class(S, (0, 0)) == 0
    assert form_class(S, (1, 2)) == 0
    assert form_class(S, (0, 1)) == 1
    assert form_class(S, (0, 2)) == 2
    assert form_class(S, (1, 0)) == 1
    Sb = by_tuple[(1, 0)]  # kernel = second factor
    assert Sb.form == (1, 0)
    assert form_class(Sb, (1, 0)) == 1
    assert form_class(Sb, (0, 1)) == 0
    Sab = by_tuple[(1, 2)]  # kernel {(0,0),(1,1),(2,2)}
    assert Sab.form == (1, 2)
    assert form_class(Sab, (0, 1)) == 2
    assert by_tuple[(0, 0)].form == (0, 0)  # the whole group, index 1


def test_form_is_surjective():
    # The form maps G onto Z/index, and each class is the homomorphism's
    # value divided by its step, eg/index.
    G = make_group(3, [9, 3])
    els = enumerate_elements(G)
    for S in genetic_basis_abelian(G):
        step = G.exponent // S.index
        classes = [form_class(S, x) for x in els]
        assert set(classes) == set(range(S.index))
        for x, c in zip(els, classes):
            assert c == oracles.hom_value(G, S.coeffs, x) // step


def test_kernel_size_matches_index():
    G = make_group(3, [27, 3])
    els = enumerate_elements(G)
    for S in genetic_basis_abelian(G):
        kernel = frozenset(x for x in els if form_class(S, x) == 0)
        assert len(kernel) * S.index == G.order
        # The kernel of the form is the kernel of the homomorphism.
        assert kernel == frozenset(x for x in els if oracles.hom_value(G, S.coeffs, x) == 0)


def test_form_definition():
    # The form is the homomorphism's weights divided by the step eg/index,
    # times a unit: the one that makes its first coordinate prime to p 1.
    for p, orders in [(3, [9, 3]), (3, [27, 27]), (5, [25, 25, 5]), (7, [49, 7])]:
        G = make_group(p, orders)
        eg = G.exponent
        for S in genetic_basis_abelian(G):
            weights = tuple((eg // o) * s % eg for o, s in zip(G.orders, S.coeffs))
            step = eg // S.index
            assert all(w % step == 0 for w in weights)
            assert all(0 <= f < S.index for f in S.form)
            if S.index == 1:
                assert S.form == (0,) * len(orders)
                continue
            lead = next(i for i, f in enumerate(S.form) if f % p)
            assert S.form[lead] == 1
            # form = (weights // step) * u^-1 for the unit u = weights[lead] // step.
            u = weights[lead] // step
            assert u % p
            assert tuple(f * u % S.index for f in S.form) == tuple(w // step for w in weights)


@pytest.mark.parametrize(
    "p,orders",
    [
        (3, [9, 3]), (3, [3, 3, 3]), (3, [27, 27]), (3, [27, 9, 3]), (3, [81, 81]),
        (3, [243, 243]), (5, [25, 5]), (5, [125, 125]), (7, [49, 49]),
    ],
)
def test_basis_matches_kernel_mask_oracle(p, orders):
    # Deduping by normalized forms must keep the same members, the same
    # first-wins tuples and the same order as comparing explicit kernels.
    G = make_group(p, orders)
    got = [(S.coeffs, S.index, S.form) for S in genetic_basis_abelian(G)]
    assert got == oracles.genetic_basis_by_kernel_masks(G)


@pytest.mark.parametrize(
    "p,orders",
    [
        (3, [9, 3]), (3, [3, 3, 3]), (3, [3] * 5), (3, [27, 9, 3]), (3, [81, 81]),
        (3, [243, 243]), (3, [729, 729]), (3, [2187, 2187]),
        (5, [25, 5]), (5, [125, 125]), (7, [49, 49]), (17, [289, 289]),
        (19, [361, 361]), (11, [121, 11]), (13, [169, 169]), (3, [3**15]),
    ],
)
def test_basis_matches_unit_form_oracle(p, orders):
    # The array pass must keep the members, the first-wins tuples, the
    # forms and the order of the per-homomorphism loop.
    G = make_group(p, orders)
    got = [(S.coeffs, S.index, S.form) for S in genetic_basis_abelian(G)]
    assert got == oracles.genetic_basis_by_unit_forms(G)


def test_basis_guard_bounds_tuples_times_generators():
    # C_{3^15} has more than 10^7 elements but only 16 coefficient tuples.
    G = make_group(3, [3**15])
    assert G.order > ENUMERATION_LIMIT
    basis = genetic_basis_abelian(G)
    assert [S.index for S in basis] == [3**i for i in range(16)]
    # C_3^14 has fewer than 10^7 elements, but 2 * 3^13 tuples x 14
    # generators exceed the guard.
    G = make_group(3, [3] * 14)
    assert G.order <= ENUMERATION_LIMIT
    with pytest.raises(TooLarge, match="enumeration guard"):
        genetic_basis_abelian(G)


@pytest.mark.parametrize(
    "p,orders", [(3, [9, 3]), (3, [27, 27]), (3, [27, 9, 3]), (17, [289, 289])]
)
def test_basis_arrays_build_the_members(p, orders):
    # The basis is its arrays; iterating or indexing builds the members, with
    # plain int fields, in (index, tuple) order.
    G = make_group(p, orders)
    basis = genetic_basis_abelian(G)
    want = oracles.genetic_basis_by_unit_forms(G)
    if orders == [9, 3]:
        assert want == [
            ((0, 0), 1, (0, 0)), ((0, 1), 3, (0, 1)), ((3, 0), 3, (1, 0)),
            ((3, 1), 3, (1, 1)), ((3, 2), 3, (1, 2)), ((1, 0), 9, (1, 0)),
            ((1, 1), 9, (1, 3)), ((1, 2), 9, (1, 6)),
        ]
    members = list(basis)
    assert [(S.coeffs, S.index, S.form) for S in members] == want
    assert all(type(S) is GeneticSubgroupA and S.group == G for S in members)
    assert all(type(c) is int for S in members for c in (*S.coeffs, S.index, *S.form))
    assert len(basis) == len(want)
    assert basis[0].index == 1
    assert [basis[i] for i in range(len(basis))] == members == list(basis)
    assert basis[-1] == members[-1] and basis[np.int64(1)] == members[1]
    k = len(orders)
    assert basis.coeffs.shape == basis.form.shape == (len(want), k)
    assert basis.coeffs.dtype == basis.index.dtype == basis.form.dtype == np.int64
    # A slice or a mask gives a sub-basis of the same members.
    assert list(basis[1:]) == members[1:]
    assert list(basis[basis.index > 1]) == members[1:]
    assert basis[1:] == basis[basis.index > 1] != basis


def test_basis_arrays_are_read_only():
    basis = genetic_basis_abelian(make_group(3, [27, 9]))
    for sub in (basis, basis[1:], basis[basis.index > 3]):
        for a in (sub.coeffs, sub.index, sub.form):
            with pytest.raises(ValueError):
                a[0] = 1
    assert basis[1].index == 3


def _battery():
    """Every group with p in {3, 5, 7}, at most 3 factors and |G| <= 10^5,
    then larger and wider groups."""
    out = []
    for p in (3, 5, 7):
        top = 0
        while p ** (top + 1) <= 10**5:
            top += 1
        for a in range(1, top + 1):
            for b in range(0, min(a, top - a) + 1):
                for c in range(0, min(b, top - a - b) + 1):
                    out.append((p, [p**x for x in (a, b, c) if x]))
    return out + [
        (17, [289, 289]), (19, [361, 361]), (3, [6561, 6561]), (13, [169] * 3),
        (3, [27, 27, 3, 3]), (3, [9] * 4), (11, [121, 11, 11]), (3, [3] * 12),
        (5, [5] * 7), (3, [3**15]),
    ]


@pytest.mark.parametrize(
    "p,orders", _battery(), ids=lambda x: ",".join(map(str, x)) if isinstance(x, list) else str(x)
)
def test_closed_form_basis_is_the_tuple_pass(p, orders):
    # The listing must give byte for byte the arrays of the pass over every
    # coefficient tuple: values, dtype, shape, layout and read-only flags.
    G = make_group(p, orders)
    got, want = genetic_basis_abelian(G), oracles.genetic_basis_by_tuple_pass(G)
    for a, b in ((got.coeffs, want.coeffs), (got.index, want.index), (got.form, want.form)):
        assert a.dtype == b.dtype == np.int64
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable and not b.flags.writeable
        assert a.flags.c_contiguous and b.flags.c_contiguous


def test_battery_covers_the_small_groups():
    groups = _battery()
    assert len(groups) == len({(p, tuple(o)) for p, o in groups}) == 121
    assert (3, [3**4, 3**3, 3**3]) in groups and (7, [7**5]) in groups


@pytest.mark.parametrize(
    "p,orders,index,form,coeffs",
    [
        # F_0 = 6 = 3*2 fixes t_0 = 9 and u = 2 mod 3; the lead then takes
        # the least allowed value, 2, not 1 (that would need u = 1).
        (3, [27, 27], 9, (6, 1), (9, 6)),
        # F_0 = 0 leaves u free until F_1 = 3*2, which takes 3 with u = 2.
        (3, [9, 9, 9], 9, (0, 6, 1), (0, 3, 2)),
        # The one lead-2 member: o_2 = 3 admits no higher level.
        (3, [9, 3, 3], 3, (0, 0, 1), (0, 0, 1)),
        # o_2 = 3 < 9 = q: F_2 is a multiple of q/o_2 = 3, t_2 = 6*3/9.
        (3, [27, 27, 3], 9, (6, 1, 3), (9, 6, 2)),
        (3, [27, 3], 27, (1, 9), (1, 1)),
    ],
)
def test_first_tuple_of_a_listed_form(p, orders, index, form, coeffs):
    G = make_group(p, orders)
    (S,) = [S for S in genetic_basis_abelian(G) if (S.index, S.form) == (index, form)]
    assert S.coeffs == coeffs
    # No tuple earlier in enumeration order has this kernel.
    first = next(t for t in enumerate_cyclic_homs(G) if oracles.normalised_form(G, t) == (index, form))
    assert first == coeffs
