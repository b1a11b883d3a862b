"""Tests for modular metacyclic groups and their SK1 pipeline."""

import random
from functools import lru_cache

import numpy as np
import pytest

import oracles
from sk1.errors import BadParams, DomainViolation, TooLarge
from oracles import (
    distinct_rows,
    meta_centralizer,
    meta_closure,
    meta_element_order,
    meta_elements,
    meta_inverse,
    meta_members,
    meta_mul,
    meta_power,
)
from sk1.metacyclic import (
    DEFAULT_MAX_ORDER,
    MetacyclicGroup,
    MetaGeneticSubgroup,
    _member_columns,
    _relation_rows,
    _row_pairs,
    genetic_basis_metacyclic,
    make_metacyclic,
    relation_component,
    sk1_metacyclic,
)
from sk1.snf import cokernel_decomposition


def conjugate(G, g, x):
    return meta_mul(G, meta_mul(G, g, x), meta_inverse(G, g))


def conjugacy_class(G, S):
    # The orbit of the subgroup S under conjugation by a and b.
    orbit, todo = {S}, [S]
    while todo:
        T = todo.pop()
        for x in (G.gen_a(), G.gen_b()):
            U = frozenset(conjugate(G, x, s) for s in T)
            if U not in orbit:
                orbit.add(U)
                todo.append(U)
    return orbit


def brute_normalizer(G, members):
    out = []
    for g in meta_elements(G):
        if all(conjugate(G, g, s) in members for s in members):
            out.append(g)
    return frozenset(out)


def test_make_examples():
    G = make_metacyclic(3, 3)
    assert (G.order, G.a_order, G.twist) == (27, 9, 4)
    G = make_metacyclic(3, 4)
    assert (G.order, G.a_order, G.twist) == (81, 27, 10)
    G = make_metacyclic(5, 3)
    assert (G.order, G.a_order, G.twist) == (125, 25, 6)
    assert make_metacyclic(3, 4.0) == make_metacyclic(3, 4)
    G = make_metacyclic(3.0, 4)
    assert G == make_metacyclic(3, 4)
    assert type(G.prime) is int and str(G) == "M_4(3)"
    assert sk1_metacyclic(G).divisors == (3,) * 4


@pytest.mark.parametrize(
    "p,n", [(2, 3), (3, 2), (9, 3), (1, 4), (15, 3), (3, 0), (3, 4.5), (3.5, 4), (5.5, 3)]
)
def test_make_rejects_bad_params(p, n):
    with pytest.raises(BadParams):
        make_metacyclic(p, n)


@pytest.mark.parametrize(
    "p,n",
    [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (5, 5), (5, 6), (7, 3)],
)
def test_presentation_relations(p, n):
    G = make_metacyclic(p, n)
    a, b = G.gen_a(), G.gen_b()
    assert meta_power(G, a, G.a_order) == G.identity()
    assert meta_power(G, b, p) == G.identity()
    assert meta_element_order(G, a) == G.a_order
    assert meta_element_order(G, b) == p
    # b a b^-1 = a^twist
    lhs = meta_mul(G, meta_mul(G, b, a), meta_inverse(G, b))
    assert lhs == (G.twist % G.a_order, 0)
    assert meta_mul(G, a, b) != meta_mul(G, b, a)  # the group is not abelian


def test_elements_enumeration():
    G = make_metacyclic(3, 3)
    els = meta_elements(G)
    assert len(els) == 27
    assert els[0] == (0, 0)
    assert els[1] == (0, 1)
    assert els[-1] == (8, 2)
    assert els == sorted(els)


def test_group_axioms_random():
    rng = random.Random(31)
    for p, n in ((3, 4), (5, 3)):
        G = make_metacyclic(p, n)
        els = meta_elements(G)
        e = G.identity()
        for _ in range(300):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert meta_mul(G, meta_mul(G, x, y), z) == meta_mul(G, x, meta_mul(G, y, z))
            assert meta_mul(G, x, meta_inverse(G, x)) == e
            assert meta_mul(G, e, x) == x
            t = rng.randint(-8, 8)
            acc = e
            step = x if t >= 0 else meta_inverse(G, x)
            for _ in range(abs(t)):
                acc = meta_mul(G, acc, step)
            assert meta_power(G, x, t) == acc


def test_element_orders_divide_group_order():
    G = make_metacyclic(3, 4)
    for x in meta_elements(G):
        o = meta_element_order(G, x)
        assert G.order % o == 0
        assert meta_power(G, x, o) == G.identity()


def test_centralizer_sizes():
    G = make_metacyclic(3, 4)
    assert len(meta_centralizer(G, (3, 0))) == 81  # central element
    assert len(meta_centralizer(G, (0, 1))) == 27  # b-type element
    assert len(meta_centralizer(G, (3, 1))) == 27
    assert len(meta_centralizer(G, (1, 0))) == 27  # generates <a>


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4)])
def test_centralizer_classification(p, n):
    # The three-way split used to pick row generators must match the
    # brute-force centralizer for every element.
    G = make_metacyclic(p, n)
    whole = frozenset(meta_elements(G))
    middle = meta_closure(G, [(p, 0), G.gen_b()])
    for h in meta_elements(G):
        hi, hj = h
        if hi % p == 0 and hj == 0:
            want = whole
        elif hi % p == 0:
            want = middle
        else:
            want = meta_closure(G, [h])
        assert meta_centralizer(G, h) == want


@pytest.mark.parametrize(
    "p,n,count",
    [(3, 3, 6), (3, 4, 9), (3, 5, 12), (3, 6, 15), (5, 3, 8), (5, 4, 13), (7, 3, 10)],
)
def test_basis_count(p, n, count):
    G = make_metacyclic(p, n)
    assert len(genetic_basis_metacyclic(G)) == count == (n - 2) * p + 3


def test_basis_labels_and_orders_m5_3():
    G = make_metacyclic(3, 5)
    basis = genetic_basis_metacyclic(G)
    assert [S.label for S in basis] == [
        "G",
        "<a>",
        "<a*b>", "<a^2*b>", "<a^3,b>",
        "<a^3*b>", "<a^6*b>", "<a^9,b>",
        "<a^9*b>", "<a^18*b>", "<a^27,b>",
        "<b>",
    ]
    assert [S.quotient_order for S in basis] == [1, 3, 3, 3, 3, 9, 9, 9, 27, 27, 27, 27]
    assert [S.normal for S in basis] == [True] * 11 + [False]
    # Cyclic-section orders, as a multiset over the nontrivial columns.
    tally = {}
    for S in basis[1:]:
        tally[S.quotient_order] = tally.get(S.quotient_order, 0) + 1
    assert tally == {3: 4, 9: 3, 27: 4}


def test_basis_member_sets_m4_3():
    G = make_metacyclic(3, 4)
    by_label = {S.label: S for S in genetic_basis_metacyclic(G)}
    assert meta_members(by_label["<b>"]) == frozenset({(0, 0), (0, 1), (0, 2)})
    assert meta_members(by_label["<a>"]) == frozenset((i, 0) for i in range(27))
    assert meta_members(by_label["<a^3,b>"]) == frozenset(
        (i, j) for i in range(0, 27, 3) for j in range(3)
    )
    ab = meta_members(by_label["<a*b>"])
    assert (1, 1) in ab and len(ab) == 27


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (3, 5), (5, 3)])
def test_normality_flags_and_section_orders(p, n):
    # quotient_order must equal |N(S)| / |S| for every member: the full
    # quotient when S is normal, the cyclic section otherwise.
    G = make_metacyclic(p, n)
    middle = meta_closure(G, [(p, 0), G.gen_b()])
    for S in genetic_basis_metacyclic(G):
        N = brute_normalizer(G, meta_members(S))
        is_normal = len(N) == G.order
        assert S.normal == is_normal
        assert S.quotient_order == len(N) // len(meta_members(S))
        if not is_normal:
            # the only non-normal member is <b>; its normalizer is <a^p, b>
            assert N == middle


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 3)])
def test_conjugates_of_the_nonnormal_member(p, n):
    # <b> has p conjugates; their nonidentity elements are exactly the
    # pairs (i, j) with j != 0 and i divisible by p^(n-2).
    G = make_metacyclic(p, n)
    basis = genetic_basis_metacyclic(G)
    B = meta_members(basis[-1])
    conjugates = {frozenset(conjugate(G, g, s) for s in B) for g in meta_elements(G)}
    assert len(conjugates) == p
    middle = meta_closure(G, [(p, 0), G.gen_b()])
    for c in conjugates:
        assert c <= middle
    seen = set().union(*conjugates) - {G.identity()}
    want = {
        (i, j)
        for i, j in meta_elements(G)
        if j != 0 and i % p ** (n - 2) == 0
    }
    assert seen == want


def test_relation_component_normal_columns_m5_3():
    G = make_metacyclic(3, 5)
    by_label = {S.label: S for S in genetic_basis_metacyclic(G)}
    Sa = by_label["<a>"]
    e, a, b = G.identity(), G.gen_a(), G.gen_b()
    assert relation_component(G, Sa, e, b) == 1
    assert relation_component(G, Sa, e, (0, 2)) == 2
    assert relation_component(G, Sa, e, a) == 0
    assert relation_component(G, Sa, a, a) == 0  # class of a is trivial in G/<a>
    assert relation_component(G, Sa, b, b) == 0  # b does not lie in <a>
    S3 = by_label["<a^3,b>"]
    assert relation_component(G, S3, e, a) == 1
    assert relation_component(G, S3, e, (2, 0)) == 2
    assert relation_component(G, S3, e, b) == 0


def test_relation_component_b_column_m5_3():
    G = make_metacyclic(3, 5)
    B = genetic_basis_metacyclic(G)[-1]
    e, a, b = G.identity(), G.gen_a(), G.gen_b()
    assert relation_component(G, B, e, a) == 1
    assert relation_component(G, B, e, b) == 18
    assert relation_component(G, B, b, (3, 0)) == 1
    assert relation_component(G, B, b, b) == 0
    # (27, 1) generates a conjugate of <b>; (3, 1) does not.
    assert relation_component(G, B, (27, 1), (3, 0)) == 1
    assert relation_component(G, B, (3, 1), (3, 0)) == 0


def test_relation_component_rejects_uncentralized_pairs():
    G = make_metacyclic(3, 5)
    basis = genetic_basis_metacyclic(G)
    B = basis[-1]
    with pytest.raises(DomainViolation):
        relation_component(G, B, (0, 1), (1, 0))  # a does not centralize b
    with pytest.raises(DomainViolation):
        relation_component(G, basis[1], (1, 0), (0, 1))  # b outside <a>
    # Every pair (h, g) of M_4(3) and M_3(5): DomainViolation exactly when
    # g is not in the brute-force centralizer of h, in a normal column
    # and in the column of <b>.
    for p, n in ((3, 4), (5, 3)):
        G = make_metacyclic(p, n)
        basis = genetic_basis_metacyclic(G)
        columns = (basis[1], basis[-1])
        for h in meta_elements(G):
            C = meta_centralizer(G, h)
            for k, g in enumerate(meta_elements(G)):
                S = columns[k % 2]
                if g in C:
                    relation_component(G, S, h, g)
                else:
                    with pytest.raises(DomainViolation):
                        relation_component(G, S, h, g)


def test_relation_component_is_exact_beyond_int64():
    # |a| = 3^24: products of the entry routine pass 2^63, so it works
    # on Python integers; the pipeline refuses such a group by the Smith
    # form's modulus limit, q = 3^23 with q**2 >= 2**63.
    G = make_metacyclic(3, 25)
    basis = genetic_basis_metacyclic(G)
    top = basis[-2]  # <a^(3^23), b>, form (1, 0) mod 3^23
    assert top.form == (1, 0) and top.quotient_order == 3**23
    e, x = G.identity(), (G.a_order - 1, 2)
    assert relation_component(G, top, e, x) == (G.a_order - 1) % 3**23
    assert relation_component(G, top, (3**23, 1), (3**22, 0)) == 3**22
    B = basis[-1]
    assert relation_component(G, B, e, x) == (G.a_order - 1 + 2 * 2 * 3**22) % 3**23
    assert relation_component(G, B, (3**23, 1), (3**22, 0)) == 3**21
    with pytest.raises(DomainViolation):
        relation_component(G, B, (1, 0), (0, 1))
    with pytest.raises(TooLarge):
        sk1_metacyclic(G, max_order=G.order)


def test_relation_component_rejects_full_group_column():
    G = make_metacyclic(3, 4)
    whole = genetic_basis_metacyclic(G)[0]
    with pytest.raises(ValueError):
        relation_component(G, whole, G.identity(), G.gen_a())


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 3)])
def test_identity_rows_are_additive(p, n):
    # With h = 1 every g is allowed and the column entry is a class in a
    # cyclic group, so entries must add under multiplication.
    G = make_metacyclic(p, n)
    rng = random.Random(p * 100 + n)
    els = meta_elements(G)
    e = G.identity()
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    for _ in range(60):
        g1, g2 = rng.choice(els), rng.choice(els)
        g12 = meta_mul(G, g1, g2)
        for S in cols:
            lhs = relation_component(G, S, e, g12)
            rhs = relation_component(G, S, e, g1) + relation_component(G, S, e, g2)
            assert lhs == (rhs % S.quotient_order)


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 3)])
def test_nonnormal_column_is_additive_on_the_centralizer(p, n):
    # With h = b the allowed g run over <a^p, b> and the column entry is
    # (i // p) mod p^(n-2), which must also add under multiplication.
    G = make_metacyclic(p, n)
    rng = random.Random(p * 10 + n)
    b = G.gen_b()
    dom = sorted(meta_closure(G, [(p, 0), b]))
    B = genetic_basis_metacyclic(G)[-1]
    for _ in range(60):
        g1, g2 = rng.choice(dom), rng.choice(dom)
        g12 = meta_mul(G, g1, g2)
        lhs = relation_component(G, B, b, g12)
        rhs = relation_component(G, B, b, g1) + relation_component(G, B, b, g2)
        assert lhs == (rhs % B.quotient_order)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_normal_column_classes_are_balanced(p, n):
    # The class map G -> Z/q of a normal member hits every value exactly
    # |S| times and vanishes exactly on S.
    G = make_metacyclic(p, n)
    e = G.identity()
    for S in genetic_basis_metacyclic(G):
        if not S.normal or S.quotient_order == 1:
            continue
        q = S.quotient_order
        tally = {}
        for g in meta_elements(G):
            v = relation_component(G, S, e, g)
            tally[v] = tally.get(v, 0) + 1
            assert (v == 0) == (g in meta_members(S))
        assert tally == {t: G.order // q for t in range(q)}


@pytest.mark.parametrize(
    "p,n",
    [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 3), (7, 4), (11, 3)],
)
def test_normal_columns_match_coset_oracle(p, n):
    # The linear class forms must give the coset walk's class exponents:
    # on every g for h = 1, and on the pairs of central and middle-layer
    # h, where membership of h in S decides.  relation_component evaluates
    # each (pair, column) on Python integers.
    G = make_metacyclic(p, n)
    a, b, e = G.gen_a(), G.gen_b(), G.identity()
    cols = [S for S in genetic_basis_metacyclic(G) if S.normal and S.quotient_order > 1]
    pairs = [(e, g) for g in meta_elements(G)]
    for h in meta_elements(G):
        if h[0] % p == 0:
            pairs += [(h, g) for g in ((a, b) if h[1] == 0 else ((p, 0), b))]
    for S in cols:
        want = oracles.quotient_exponents_by_cosets(G, S)
        members = meta_members(S)
        expected = [want[g] if h in members else 0 for h, g in pairs]
        assert [relation_component(G, S, h, g) for h, g in pairs] == expected


SK1_CASES = [
    (3, 3, {1: 2}),
    (3, 4, {1: 4}),
    (3, 5, {1: 6}),
    (3, 6, {1: 8}),
    (5, 3, {1: 4}),
    (5, 4, {1: 8}),
]

# Beyond the default guard: SK1 = C_p^((n-2)(p-1)), the paper's theorem.
LARGE_SK1_CASES = [
    (p, n, {1: (n - 2) * (p - 1)})
    for p, n in [(3, 7), (3, 8), (3, 9), (7, 4), (7, 5), (5, 6), (11, 4), (13, 4)]
    + [(3, 12), (3, 16), (3, 20), (5, 14), (7, 12), (11, 9), (13, 9)]
]


@pytest.mark.parametrize("p,n,expected", SK1_CASES + LARGE_SK1_CASES)
def test_sk1_values(p, n, expected):
    G = make_metacyclic(p, n)
    dec = sk1_metacyclic(G, max_order=max(G.order, DEFAULT_MAX_ORDER))
    assert dec.prime_power_multiplicities(p) == expected


ROW_GROUPS = (
    [(3, n) for n in range(3, 10)]
    + [(5, n) for n in range(3, 7)]
    + [(7, n) for n in range(3, 6)]
    + [(11, 4), (13, 4)]
)


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7, 11, 13) for n in range(3, 9)])
def test_relation_rows_never_repeat(p, n):
    # Observed, not proved: the lattice keeps the row of every visited
    # pair, and no row, seeds included, equals another.  Only the speed of
    # the lattice assembly rests on this.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    lattice = _relation_rows(G, genetic_basis_metacyclic(G)).lattice()
    assert lattice.shape[0] == len(cols) + len(_row_pairs(G))
    assert oracles.repeated_rows(lattice) == 0


@pytest.mark.parametrize("p,n", ROW_GROUPS)
def test_rows_match_element_loop_oracle(p, n):
    # The rows, whose reference elements ``_row_pairs`` takes
    # as one generator per cyclic subgroup of <a^p, b>, and which skip the
    # pairs (h, b) that row(h, h) = 0 makes redundant, must be rows of the
    # entry-by-entry loop over every (h, g) of the whole group, with the
    # seeds first, no row twice and the same cokernel.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    dense = np.asarray(_relation_rows(G, genetic_basis_metacyclic(G)))
    rows = [tuple(r) for r in dense.tolist()]
    want = oracles.metacyclic_rows_by_elements(G, cols)
    c = len(cols)
    assert rows[:c] == want[:c]
    assert len(set(rows)) == len(rows)
    assert set(rows) <= set(want)
    assert cokernel_decomposition(rows) == cokernel_decomposition(want)


def test_sk1_guard():
    with pytest.raises(TooLarge):
        sk1_metacyclic(make_metacyclic(3, 7))
    with pytest.raises(TooLarge):
        sk1_metacyclic(make_metacyclic(3, 5), max_order=100)


def test_sk1_guard_compares_exponents():
    # |M_9100(3)| has more digits than Python prints; the guard still
    # refuses it, and admits |M_7(3)| = 2187 at exactly that limit.
    with pytest.raises(TooLarge, match=r"M_9100\(3\)"):
        sk1_metacyclic(make_metacyclic(3, 9100))
    with pytest.raises(TooLarge, match="order guard 2186"):
        sk1_metacyclic(make_metacyclic(3, 7), max_order=2186)
    assert sk1_metacyclic(make_metacyclic(3, 7), max_order=2187).divisors == (3,) * 10


# The largest n each prime admits, the last with q**2 < 2**63 for the
# Smith form's modulus q = p^(n-2), and the multiplicity of C_p in its SK1.
LARGEST_ADMITTED = [(3, 21, 38), (5, 15, 52), (7, 13, 66), (11, 11, 90), (13, 10, 96),
                    (1009, 5, 3024)]


@pytest.mark.parametrize("p,n,m", LARGEST_ADMITTED)
def test_largest_admitted_n_answers_and_the_next_is_refused(p, n, m):
    assert p ** (2 * (n - 2)) < 2**63 <= p ** (2 * (n - 1))
    G = make_metacyclic(p, n)
    assert m == (n - 2) * (p - 1)
    assert sk1_metacyclic(G, max_order=G.order).multiplicities() == {p: m}
    G = make_metacyclic(p, n + 1)
    with pytest.raises(TooLarge, match=r"q\*\*2 >= 2\*\*63"):
        sk1_metacyclic(G, max_order=G.order)


def test_int64_refusal_starts_at_m22_3(monkeypatch):
    # M_21(3) is the largest n for p = 3: its modulus 3^19 has q**2 < 2**63.
    # M_22(3) is refused past the order guard, before its rows are built,
    # and the Smith form refuses those rows by the same limit.
    from sk1 import metacyclic

    G = make_metacyclic(3, 22)
    rows = _relation_rows(G, genetic_basis_metacyclic(G))
    with pytest.raises(TooLarge, match=r"q\*\*2 >= 2\*\*63"):
        cokernel_decomposition(rows)

    def unreachable(*args):
        raise AssertionError("the rows were built past the limit")

    monkeypatch.setattr(metacyclic, "_relation_rows", unreachable)
    with pytest.raises(TooLarge, match=r"M_22\(3\): .*q\*\*2 >= 2\*\*63"):
        sk1_metacyclic(G, max_order=G.order)


def test_sk1_metacyclic_is_cached():
    G = make_metacyclic(3, 5)
    assert sk1_metacyclic(G) is sk1_metacyclic(G)
    assert genetic_basis_metacyclic(G) is genetic_basis_metacyclic(G)


def test_cache_hit_does_not_skip_the_guards():
    G = make_metacyclic(3, 5)
    assert sk1_metacyclic(G).divisors == (3,) * 6
    with pytest.raises(TooLarge):
        sk1_metacyclic(G, max_order=100)
    # The modulus limit runs inside the cached solve, and a refusal is
    # never cached: M_22(3) is refused on every call, also once M_21(3),
    # the largest p = 3 group admitted, is in the cache.
    assert sk1_metacyclic(make_metacyclic(3, 21), max_order=3**21).divisors == (3,) * 38
    G = make_metacyclic(3, 22)
    for _ in range(2):
        with pytest.raises(TooLarge, match=r"q\*\*2 >= 2\*\*63"):
            sk1_metacyclic(G, max_order=G.order)


def test_sk1_metacyclic_cache_drops_the_least_recently_used(monkeypatch):
    from sk1 import metacyclic

    # The defaults hold the 7 distinct metacyclic groups of the perfbench
    # sweep with room to spare.
    for cached in (metacyclic._solve, genetic_basis_metacyclic):
        assert cached.cache_info().maxsize == metacyclic.SK1_CACHE_SIZE >= 7
    solve = lru_cache(maxsize=2)(metacyclic._solve.__wrapped__)
    monkeypatch.setattr(metacyclic, "_solve", solve)

    def hits_and_misses():
        info = solve.cache_info()
        return info.hits, info.misses

    A, B, C = (make_metacyclic(p, n) for p, n in ((3, 3), (3, 4), (5, 3)))
    a, b = sk1_metacyclic(A), sk1_metacyclic(B)
    assert sk1_metacyclic(A) is a  # the hit makes A the most recent
    c = sk1_metacyclic(C)  # so B is dropped
    assert hits_and_misses() == (1, 3)
    assert sk1_metacyclic(A) is a and sk1_metacyclic(C) is c
    assert hits_and_misses() == (3, 3)
    again = sk1_metacyclic(B)  # solved anew, dropping A
    assert again == b and again is not b
    assert hits_and_misses() == (3, 4)
    assert sk1_metacyclic(C) is c  # C and B are held
    assert sk1_metacyclic(B) is again
    assert hits_and_misses() == (5, 4) and solve.cache_info().currsize == 2
    fresh = sk1_metacyclic(A)  # A was dropped
    assert fresh == a and fresh is not a
    assert hits_and_misses() == (5, 5)
    # A full cache still checks the guard before the lookup.
    with pytest.raises(TooLarge):
        sk1_metacyclic(B, max_order=10)
    assert hits_and_misses() == (5, 5)


@pytest.mark.parametrize(
    "p,n", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3), (7, 4)]
)
def test_row_pairs_take_one_generator_per_cyclic_subgroup(p, n):
    # The h of _row_pairs generate one cyclic subgroup of <a^p, b> from
    # each conjugacy class.  Each is paired with the generators of its
    # centralizer, except that an h with b-exponent != 0 skips b: its
    # other generator and h itself still generate the centralizer.
    G = make_metacyclic(p, n)
    pairs = _row_pairs(G)
    assert len(pairs) == 5 + (n - 3) * (p + 1)
    refs = list(dict.fromkeys(h for h, _ in pairs))
    assert len(refs) == 3 + (n - 3) * p

    A = meta_closure(G, [(p, 0), G.gen_b()])
    assert all(x in A for x in refs)
    listed = [meta_closure(G, [x]) for x in refs]
    classes = [conjugacy_class(G, S) for S in listed]
    for i, S in enumerate(listed):
        assert not any(S in c for c in classes[i + 1 :])
    for C in {meta_closure(G, [x]) for x in A}:
        assert sum(C in c for c in classes) == 1
    for x in refs:
        gens = [g for h, g in pairs if h == x]
        assert (G.gen_b() in gens) == (x[1] == 0)
        assert meta_closure(G, gens + [x]) == meta_centralizer(G, x)


def one_generator_per_cyclic_subgroup_pairs(G):
    # One generator of every cyclic subgroup of <a^p, b>, conjugates of <b>
    # included: 1, b and a^(p^(n-1-k)) b^y for k = 1..n-2, y = 0..p-1,
    # each with the generators of its centralizer, b skipped where the
    # b-exponent of h is nonzero.
    p, n = G.prime, G.n
    refs = [(0, 0), (0, 1)]
    refs += [(p ** (n - 1 - k), y) for k in range(1, n - 1) for y in range(p)]
    h = np.repeat(np.array(refs, dtype=np.int64), 2, axis=0)
    g = np.zeros_like(h)
    g[0::2, 0] = np.where(h[0::2, 1] == 0, 1, p)
    g[1::2, 1] = 1
    keep = (h[:, 1] == 0) | (g[:, 1] == 0)
    return h[keep], g[keep]


@pytest.mark.parametrize("p,n", ROW_GROUPS)
def test_rows_match_one_generator_per_cyclic_subgroup(p, n):
    # Dropping the p - 1 conjugates <a^(p^(n-2)) b^y> of <b> drops only
    # repeats of the row (b, a^p): with the same pairs (h, b) skipped, the
    # lattice is byte for byte the one built from a generator of every
    # cyclic subgroup of <a^p, b>.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    got = _relation_rows(G, genetic_basis_metacyclic(G)).lattice()
    orders = [S.quotient_order for S in cols]
    pairs = one_generator_per_cyclic_subgroup_pairs(G)
    want = distinct_rows(orders, oracles.metacyclic_entries(G, cols, *pairs))
    assert got.shape == want.shape
    for a, b in ((got.row, want.row), (got.col, want.col), (got.val, want.val)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def int64_admitted(p):
    # Every n >= 3 with 2 * p^(2(n-1)) < 2^63, the bound by which
    # sk1_metacyclic refused before the Smith form's modulus limit took
    # its place: the battery is kept as it was.
    n = 3
    while 2 * p ** (2 * (n - 1)) < 2**63:
        yield n
        n += 1


ORACLE_GROUPS = [(p, n) for p in (3, 5, 7, 11, 13, 17, 19) for n in int64_admitted(p)]
ORACLE_GROUPS += [(101, 3), (101, 4), (1009, 3), (1009, 4)]


@pytest.mark.parametrize("p,n", ORACLE_GROUPS)
def test_relation_rows_match_the_array_oracle(p, n):
    # The closed-form listing emits, byte for byte, the lattice of the
    # array pass that tests every (pair, column).  The dict rows it hands
    # to the Smith form read as that lattice and have its cokernel.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    rows = _relation_rows(G, genetic_basis_metacyclic(G))
    got = rows.lattice()
    want = oracles.metacyclic_rows_by_arrays(G, cols)
    assert got.shape == want.shape
    for a, b in ((got.row, want.row), (got.col, want.col), (got.val, want.val)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(rows) == len(got) and rows.shape == got.shape
    dense = np.asarray(rows)
    assert dense.dtype == np.int64 and np.array_equal(dense, np.asarray(got))
    assert cokernel_decomposition(rows) == cokernel_decomposition(got)


@pytest.mark.parametrize("p,n", ORACLE_GROUPS + [(10007, 3)])
def test_closed_form_basis_matches_the_class_forms(p, n):
    # The index and form tuples, listed in closed form, are those of the
    # members built one at a time from their generators, and an integer
    # index, a slice and iteration build those same labelled members.
    G = make_metacyclic(p, n)
    basis = genetic_basis_metacyclic(G)
    want = oracles.meta_basis_by_class_forms(G)
    assert type(basis.index) is tuple and type(basis.form) is tuple
    assert basis.index == tuple(S.quotient_order for S in want)
    assert basis.form == tuple(S.form for S in want)
    assert len(basis) == len(want) == (n - 2) * p + 3
    assert tuple(basis) == want
    assert basis[0] == want[0] and basis[-1] == want[-1]
    assert basis[1:] == want[1:] and basis[::-1] == want[::-1]
    with pytest.raises(IndexError):
        basis[len(want)]


def test_bases_of_equal_groups_are_equal():
    # The basis is a function of G: equal groups give equal bases with
    # equal hashes, built apart, and other groups give other bases.
    # make_metacyclic interns its groups, so the two are built directly.
    build = genetic_basis_metacyclic.__wrapped__
    A, B = build(MetacyclicGroup(5, 4)), build(MetacyclicGroup(5, 4))
    assert A is not B and A.group is not B.group
    assert A == B and hash(A) == hash(B)
    assert A != build(make_metacyclic(5, 5)) and A != build(make_metacyclic(7, 4))
    assert A != tuple(A)


def test_sk1_metacyclic_builds_no_labelled_member(monkeypatch):
    # The rows read the basis tuples, and the result cache hashes the basis
    # by its group: neither a solve nor a hit builds a member.
    from sk1 import metacyclic

    def refuse(*args):
        raise AssertionError("a labelled basis member was built")

    monkeypatch.setattr(metacyclic, "MetaGeneticSubgroup", refuse)
    basis = lru_cache(maxsize=2)(genetic_basis_metacyclic.__wrapped__)
    solve = lru_cache(maxsize=2)(metacyclic._solve.__wrapped__)
    monkeypatch.setattr(metacyclic, "genetic_basis_metacyclic", basis)
    monkeypatch.setattr(metacyclic, "_solve", solve)
    G = make_metacyclic(3, 7)
    cold = sk1_metacyclic(G, max_order=G.order)
    assert sk1_metacyclic(G, max_order=G.order) is cold
    assert cold.divisors == (3,) * 10
    assert basis.cache_info()[:2] == solve.cache_info()[:2] == (1, 1)


def test_sk1_metacyclic_hands_its_rows_to_the_elimination_as_dicts(monkeypatch):
    # No array pass sits between the rows stage and the elimination: the
    # seed orders and the dict rows reach it as they are built.
    from sk1 import metacyclic, snf

    def refuse(*args):
        raise AssertionError("the metacyclic rows went through a lattice")

    monkeypatch.setattr(snf, "_find_seeds", refuse)
    monkeypatch.setattr(snf, "seeds_first", refuse)
    monkeypatch.setattr(metacyclic, "_solve", metacyclic._solve.__wrapped__)
    G = make_metacyclic(3, 7)
    assert sk1_metacyclic(G, max_order=G.order).divisors == (3,) * 10


@pytest.mark.parametrize("p,n", ROW_GROUPS)
def test_factor_count_is_the_corank_mod_p(p, n):
    # The number of cyclic factors is the dimension of SK1/p, which is the
    # corank mod p of the rows: counted by a rank over GF(p), with no Smith
    # form, it is the paper's (n-2)(p-1).
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    rows = np.asarray(_relation_rows(G, genetic_basis_metacyclic(G)))
    factors = len(sk1_metacyclic(G, max_order=G.order).divisors)
    assert factors == len(cols) - oracles.rank_mod_p(rows, p) == (n - 2) * (p - 1)


@pytest.mark.parametrize("p,n", ROW_GROUPS)
def test_member_columns_match_the_member_sets(p, n):
    # The closed-form lists name exactly the normal columns whose explicit
    # member set holds the element: every reference element of _row_pairs,
    # and every element of the smaller groups.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    assert [S.normal for S in cols] == [True] * (len(cols) - 1) + [False]
    elements = list(dict.fromkeys(h for h, _ in _row_pairs(G)))
    if G.order <= 3**7:
        elements += meta_elements(G)
    for h in elements:
        want = [c for c, S in enumerate(cols[:-1]) if h in meta_members(S)]
        assert _member_columns(G, h) == want, h


@pytest.mark.parametrize("p,n", ROW_GROUPS)
def test_relation_component_matches_the_lattice(p, n):
    # relation_component, one pair and one column at a time, gives every
    # entry of every row that _relation_rows builds, zeros included.
    G = make_metacyclic(p, n)
    cols = [S for S in genetic_basis_metacyclic(G) if S.quotient_order > 1]
    dense = np.asarray(_relation_rows(G, genetic_basis_metacyclic(G))).tolist()
    pairs = _row_pairs(G)
    assert len(dense) == len(cols) + len(pairs)
    for row, (h, g) in zip(dense[len(cols) :], pairs):
        assert row == [relation_component(G, S, h, g) for S in cols]
