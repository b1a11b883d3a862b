"""Tests for Smith normal forms and cokernel decompositions.

``cokernel_decomposition`` runs one sparse elimination over Z/p^e.  It
is checked against the exact elimination over Z of ``oracles``
(``smith_divisors``), which is itself pinned against gcds of k x k
cofactor minors, additive-closure lattice indices and unimodular
invariance, and, where installed, against sympy.  Lattices outside the
elimination's precondition are refused with a ValueError naming the
condition; a unit seed row in every column gives the trivial answer.
"""

import math
import random

import numpy as np
import pytest

from sk1.snf import CyclicDecomposition, SparseRows, cokernel_decomposition, seeds_first

import oracles
from oracles import exact_cokernel, smith_divisors


def test_pinned_small_matrices():
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_divisors([[4, 0], [0, 6]]) == [2, 12]
    assert smith_divisors([[4, 2], [2, 4]]) == [2, 6]
    assert smith_divisors([[1, 2], [3, 4]]) == [1, 2]
    assert smith_divisors(np.eye(3, dtype=np.int64)) == [1, 1, 1]
    assert smith_divisors([[0, 0], [0, 0]]) == [0, 0]
    assert smith_divisors([[2, 4, 6]]) == [2]
    assert smith_divisors([[2], [4], [6]]) == [2]


def test_rejects_bad_shapes():
    # Each input would be a seeded lattice but for its shape.
    with pytest.raises(ValueError, match="non-empty"):
        cokernel_decomposition([])
    with pytest.raises(ValueError, match="non-empty"):
        cokernel_decomposition([[]])
    with pytest.raises(ValueError, match="same length"):
        cokernel_decomposition([[3, 0], [0, 3], [1]])
    with pytest.raises(ValueError, match="2-d"):
        cokernel_decomposition(np.array([3, 0, 3]))


def test_cokernel_pinned():
    dec = cokernel_decomposition([[3, 0], [0, 3], [1, 1]])
    assert dec.divisors == (3,)
    dec = cokernel_decomposition([[9, 0], [0, 9], [3, 3]])
    assert dec.divisors == (3, 9)
    dec = cokernel_decomposition([[1, 0], [0, 1]])
    assert dec.is_trivial
    assert str(dec) == "0"


def test_cokernel_matches_lattice_index_pinned():
    for rows, modulus in (
        ([[3, 0], [0, 3], [1, 1]], 3),
        ([[9, 0], [0, 9], [3, 3]], 9),
        ([[9, 0], [0, 3], [3, 1]], 9),
    ):
        assert cokernel_decomposition(rows).order == oracles.lattice_index(rows, modulus)


def test_infinite_cokernel():
    # A seed row in every column gives full rank, so a lattice with an
    # infinite cokernel lacks one and is refused.
    with pytest.raises(ValueError, match="column 1 has no seed row"):
        cokernel_decomposition([[1, 0]])  # fewer rows than columns
    with pytest.raises(ValueError, match="column 1 has no seed row"):
        cokernel_decomposition([[1, 0], [2, 0]])  # rank deficient
    with pytest.raises(ValueError, match="column 0 has no seed row"):
        cokernel_decomposition([[0, 0], [0, 0]])


def test_divisibility_chain_and_minor_gcds_random():
    rng = random.Random(20240811)
    for _ in range(150):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        scale = rng.choice((1, 1, 2, 3))
        mat = [
            [scale * rng.randint(-9, 9) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        divs = smith_divisors(mat)
        assert len(divs) == min(n_rows, n_cols)
        for a, b in zip(divs, divs[1:]):
            if b == 0:
                continue
            assert a != 0 and b % a == 0
        # d_1 * ... * d_k equals the gcd of all k x k minors.
        prod = 1
        for k, d in enumerate(divs, start=1):
            prod *= d
            assert prod == oracles.minor_gcd(mat, k)


def test_unimodular_row_and_column_ops_preserve_divisors():
    rng = random.Random(99)
    for _ in range(40):
        mat = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        want = smith_divisors(mat)
        work = [list(r) for r in mat]
        for _ in range(12):
            kind = rng.randrange(3)
            i, j = rng.sample(range(4), 2)
            c = rng.randint(-3, 3)
            if kind == 0:
                work[i] = [a + c * b for a, b in zip(work[i], work[j])]
            elif kind == 1:
                for r in work:
                    r[i] += c * r[j]
            else:
                work[i], work[j] = work[j], work[i]
        assert smith_divisors(work) == want


def test_random_cokernels_match_lattice_index():
    rng = random.Random(4242)
    for _ in range(30):
        c = rng.randint(1, 3)
        moduli = [rng.choice((3, 9, 27)) for _ in range(c)]
        modulus = math.lcm(*moduli)
        rows = [[moduli[i] if j == i else 0 for j in range(c)] for i in range(c)]
        for _ in range(rng.randint(1, 3)):
            rows.append([rng.randrange(modulus) for _ in range(c)])
        dec = cokernel_decomposition(rows)
        assert dec.order == oracles.lattice_index(rows, modulus)


def test_big_integer_entries_use_exact_arithmetic():
    big = 10**40
    assert smith_divisors([[big, 1], [0, big]]) == [1, big * big]
    # Scaling a matrix by a positive constant scales every divisor.
    rng = random.Random(5)
    for _ in range(20):
        mat = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)]
        base = smith_divisors(mat)
        scaled = smith_divisors([[big * v for v in row] for row in mat])
        assert scaled == [big * d if d else 0 for d in base]


def test_divisor_chain_shape_random_wide_range():
    rng = random.Random(88)
    for _ in range(100):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 8)
        mat = [
            [rng.randint(-50, 50) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        divs = smith_divisors(mat)
        assert len(divs) == min(n_rows, n_cols)
        assert all(d >= 0 for d in divs)
        nz = [d for d in divs if d]
        assert divs == nz + [0] * (len(divs) - len(nz))  # zeros come last
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def _random_local_lattice(rng, p, c):
    """Seed rows +-p^(e_c) in random places among rows with two or more
    nonzero entries of either sign, some at least the largest seed."""
    exps = [rng.randint(1, 4) for _ in range(c)]
    q = p ** max(exps)
    rows = [
        [rng.choice((1, -1)) * p**e if j == i else 0 for j in range(c)]
        for i, e in enumerate(exps)
    ]
    for _ in range(rng.randint(0, 2 * c)):
        row = [rng.choice((0, rng.randint(-3 * q, 3 * q))) for _ in range(c)]
        if sum(map(bool, row)) > 1:
            rows.append(row)
    rng.shuffle(rows)
    return rows


def test_fast_and_exact_paths_agree():
    from sk1.snf import _as_lattice, _local_lattice

    rng = random.Random(12)
    for _ in range(150):
        p = rng.choice((3, 5, 7))
        rows = _random_local_lattice(rng, p, rng.randint(1, 6))
        assert _local_lattice(_as_lattice(rows))[0] == p  # the seeds give q = p^e
        assert cokernel_decomposition(rows).divisors == exact_cokernel(rows)
        arr = np.array(rows, dtype=np.int64)
        assert cokernel_decomposition(arr).divisors == exact_cokernel(rows)


def test_a_row_skipped_in_a_phase_is_updated_by_a_later_pivot():
    # Over Z/9 phase 0 visits (3, 3) first, finds no unit entry and skips
    # it; the pivot of (1, 2) then turns it into (0, 6), which pivots in
    # phase 1.
    from sk1.snf import _as_lattice, _local_lattice

    rows = [[9, 0], [0, 9], [3, 3], [1, 2]]
    p, e, local, _, _ = _local_lattice(_as_lattice(rows))
    assert (p, e, local) == (3, 2, [{0: 3, 1: 3}, {0: 1, 1: 2}])
    want = tuple(sorted(oracles.cokernel_by_dense_elimination(rows, p, e)))
    assert cokernel_decomposition(rows).divisors == want == (3,)


def test_non_seed_entries_that_vanish_mod_their_seed_leave_only_seed_rows():
    # Every non-seed entry is a multiple of its column's seed gcd (9, 3 and
    # 27), so the walk over the triples makes no row, and the local rows
    # are the seeds {c: g_c} with g_c < q = 27.
    from sk1.snf import _as_lattice, _local_lattice

    rows = [[9, 0, 0], [0, 3, 0], [0, 0, 27], [18, 6, 0], [-9, 3, 54], [0, 0, 0], [27, -6, 27]]
    p, e, local, cols, mods = _local_lattice(_as_lattice(rows))
    assert (p, e, local, cols, mods) == (3, 3, [{0: 9}, {1: 3}], [{0}, {1}, set()], [9, 3, 27])
    want = tuple(sorted(oracles.cokernel_by_dense_elimination(rows, p, e)))
    assert cokernel_decomposition(rows).divisors == want == (3, 9, 27)


def _random_early_rank_lattice(rng, p, c):
    """Seed rows +-p^(e_c), e_c up to 6, then p^k times the rows of a
    c x c matrix invertible mod p, k below every e_c, and rows of
    multiples of p^k; no entry of a non-seed row is 0, so with c >= 2 none
    is a seed.  The non-seed rows reach full column rank in phase k."""
    exps = [rng.randint(2, 6) for _ in range(c)]
    k = rng.randint(0, min(exps) - 1)
    q = p ** max(exps)

    def entry():
        return rng.choice((1, -1)) * rng.randint(1, 3 * q)

    while True:
        unit = [[entry() for _ in range(c)] for _ in range(c)]
        if oracles.rank_mod_p(unit, p) == c:
            break
    rows = [
        [rng.choice((1, -1)) * p**e if j == i else 0 for j in range(c)]
        for i, e in enumerate(exps)
    ]
    rows += [[p**k * v for v in row] for row in unit]
    rows += [[p**k * entry() for _ in range(c)] for _ in range(rng.randint(0, c))]
    rng.shuffle(rows)
    return k, rows


def test_lattices_of_full_rank_in_an_early_phase():
    # The elimination stops once every column has a pivot: here after
    # phase k, with the exact cokernel over Z, C_(p^k)^c.  Phase k + 1
    # sorts no rows, nor does any later one, when k + 1 < e.
    from sk1 import snf

    rng = random.Random(27)
    calls = stopped = 0

    def counting_sorted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sorted(*args, **kwargs)

    for _ in range(60):
        p, c = rng.choice((3, 5, 7)), rng.randint(2, 5)
        k, rows = _random_early_rank_lattice(rng, p, c)
        want = exact_cokernel(rows)
        assert want == ((p**k,) * c if k else ())
        assert cokernel_decomposition(rows).divisors == want
        local = snf._local_lattice(snf._as_lattice(rows))
        calls = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snf, "sorted", counting_sorted, raising=False)
            got = snf._cokernel_mod_prime_power(*local)
        assert tuple(sorted(got)) == want and calls == k + 1
        stopped += k + 1 < local[1]
    assert stopped >= 30


def _random_rows_with_single_entries(rng, p, c):
    """SparseRows with seed orders +-p^(e_c), e_c up to 6, and dict rows,
    about half of them with a single entry."""
    exps = [rng.randint(1, 6) for _ in range(c)]
    q = p ** max(exps)
    orders = tuple(rng.choice((1, -1)) * p**e for e in exps)
    rows = []
    for _ in range(rng.randint(1, 2 * c)):
        width = 1 if rng.random() < 0.5 else rng.randint(1, c)
        row = {j: rng.choice((1, -1)) * rng.randint(1, 3 * q) for j in rng.sample(range(c), width)}
        rows.append(row)
    return SparseRows(orders, tuple(rows))


def test_lattices_with_single_entry_rows_that_are_not_seeds():
    # A pivot row with no other entry only drops its column from the rows
    # below it.  Single-entry dict rows stay rows, and the Lattice of the
    # same rows reads them as seeds: both give the exact cokernel.
    rng = random.Random(2027)
    for _ in range(120):
        rows = _random_rows_with_single_entries(rng, rng.choice((3, 5, 7)), rng.randint(1, 5))
        dense = np.asarray(rows)
        want = exact_cokernel(dense.tolist())
        assert cokernel_decomposition(rows).divisors == want
        assert cokernel_decomposition(dense).divisors == want


def test_elimination_stops_once_every_column_has_a_pivot(monkeypatch):
    # M_7(3) has e = 5 and pivots in every column by the end of phase 1, so
    # its rows are sorted for phases 0 and 1 only.
    from sk1 import snf
    from sk1.metacyclic import _relation_rows, genetic_basis_metacyclic, make_metacyclic

    G = make_metacyclic(3, 7)
    local = snf._local_rows(_relation_rows(G, genetic_basis_metacyclic(G)))
    assert local[:2] == (3, 5)
    calls = 0

    def counting_sorted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(snf, "sorted", counting_sorted, raising=False)
    assert snf._cokernel_mod_prime_power(*local) == [3] * 10
    assert calls == 2


def _with_non_seed_rows_permuted(lat, rng):
    """lat with its rows after the seed rows (the first lat.shape[1], as
    ``seeds_first`` puts them) in a random order."""
    from sk1.snf import Lattice

    k = lat.shape[1]
    new = np.arange(lat.shape[0])
    new[k:] = k + rng.permutation(lat.shape[0] - k)
    row = new[lat.row]
    order = np.lexsort((lat.col, row))
    return Lattice(row[order], lat.col[order], lat.val[order], lat.shape)


@pytest.mark.parametrize("p,orders", [(3, (243, 243)), (3, (27, 27, 3)), (3, (9, 9, 9))])
def test_row_order_changes_the_cost_not_the_answer(p, orders):
    # The elimination visits rows by (length, index), so the order of a
    # block's rows decides which pivots it takes, never the cokernel.
    from sk1.abelian import make_group
    from sk1.sk1_abelian import _torus_blocks, relation_matrix

    G = make_group(p, orders)
    rng = np.random.default_rng(2001)
    for _, block in _torus_blocks(G, relation_matrix(G, per_orbit=True)):
        want = cokernel_decomposition(block)
        for _ in range(3):
            assert cokernel_decomposition(_with_non_seed_rows_permuted(block, rng)) == want


@pytest.mark.parametrize(
    "rows,condition",
    [
        ([[2, 0], [0, 3], [1, 1]], "q = 6, which is not a prime power"),
        ([[4, 0], [0, 6], [2, 2], [2, 4]], "q = 12, which is not a prime power"),
        ([[9, 0], [1, 3], [2, -3]], "column 1 has no seed row"),
        ([[27, 0, 0], [0, 9, 0], [3, 3, 3], [0, 3, 6]], "column 2 has no seed row"),
        ([[3**20, 0], [0, 3**20], [3**7, 3**12]], r"q\*\*2 >= 2\*\*63"),
        ([[3**40, 0], [0, 3**40], [3**20, 3**39]], r"q\*\*2 >= 2\*\*63"),  # q beyond int64
        # Seed orders and dict rows, as the metacyclic rows reach the Smith form.
        (SparseRows((2, 3), ({0: 1, 1: 1},)), "q = 6, which is not a prime power"),
        (SparseRows((3**20, 3**20), ({0: 3**7, 1: 3**12},)), r"q\*\*2 >= 2\*\*63"),
        (SparseRows((9, 0), ({0: 3, 1: 3},)), "column 1 has no seed row"),
    ],
    ids=[f"rows{i}" for i in range(9)],
)
def test_inputs_outside_the_precondition_are_refused(rows, condition, monkeypatch):
    import sk1.snf

    def refuse(*args):
        raise AssertionError("the elimination ran outside its precondition")

    monkeypatch.setattr(sk1.snf, "_cokernel_mod_prime_power", refuse)
    with pytest.raises(ValueError, match=condition):
        cokernel_decomposition(rows)
    # The refusal is a contract, not a missing answer: the exact cokernel
    # of each input is finite.
    dense = np.asarray(rows).tolist() if isinstance(rows, SparseRows) else rows
    assert oracles.minor_gcd(dense, len(dense[0])) != 0


def _trivial_relation_rows():
    """Relation lattices whose seed rows give q = 1: C_3 and C_5, and
    C_p^2 for p up to 13 with both strategies."""
    from sk1.abelian import make_group
    from sk1.sk1_abelian import EXHAUSTIVE, REPRESENTATIVES, relation_matrix

    groups = [(p, [p]) for p in (3, 5)] + [(p, [p, p]) for p in (3, 5, 7, 11, 13)]
    for p, orders in groups:
        for strategy in (REPRESENTATIVES, EXHAUSTIVE):
            yield relation_matrix(make_group(p, orders), strategy=strategy).rows
    yield [[1, 0], [0, 1]]


def test_unit_seeds_in_every_column_give_the_trivial_cokernel(monkeypatch):
    import sk1.snf
    from sk1.snf import _as_lattice, _local_lattice

    def refuse(*args):
        raise AssertionError("an elimination ran with q = 1")

    monkeypatch.setattr(sk1.snf, "_cokernel_mod_prime_power", refuse)
    for rows in _trivial_relation_rows():
        assert _local_lattice(_as_lattice(rows))[:2] == (1, 0)  # q = 1^0
        assert cokernel_decomposition(rows).is_trivial
        assert exact_cokernel(np.asarray(rows).tolist()) == ()


def test_largest_modulus_inside_int64_takes_the_modular_route():
    from sk1.snf import _as_lattice, _local_lattice

    q = 3**19  # q**2 < 2**63 <= (3 * q)**2
    rows = [[q, 0], [0, q], [3**7, q - 1], [-(q + 5), 3**12]]
    assert _local_lattice(_as_lattice(rows))[:2] == (3, 19)
    assert cokernel_decomposition(rows).divisors == exact_cokernel(rows)


def _relation_rows_of(family, p, size):
    """The relation rows sk1 or sk1_metacyclic hands to the Smith form: a
    Lattice, or SparseRows for the metacyclic family."""
    from sk1.abelian import make_group
    from sk1.metacyclic import _relation_rows, genetic_basis_metacyclic, make_metacyclic
    from sk1.sk1_abelian import relation_matrix

    if family == "abelian":
        return relation_matrix(make_group(p, size)).rows
    G = make_metacyclic(p, size)
    return _relation_rows(G, genetic_basis_metacyclic(G))


_ORACLE_GROUPS = [
    ("abelian", 3, (243, 243)),
    ("abelian", 5, (125, 125)),
    ("abelian", 3, (27, 27, 3)),
    ("abelian", 17, (289, 289)),
    ("abelian", 19, (361, 361)),
    ("abelian", 7, (343, 343)),
    ("abelian", 5, (625, 625)),
    ("abelian", 3, (27, 9, 3)),
    ("metacyclic", 3, 7),
    ("metacyclic", 3, 8),
    ("metacyclic", 5, 5),
    ("metacyclic", 7, 4),
    ("metacyclic", 11, 4),
    ("metacyclic", 13, 4),
]


@pytest.mark.parametrize(
    "family,p,size",
    _ORACLE_GROUPS,
    ids=["x".join(f"C{o}" for o in s) if f == "abelian" else f"M{s}({p})" for f, p, s in _ORACLE_GROUPS],
)
def test_sparse_elimination_matches_dense_oracle(family, p, size):
    from sk1.snf import _cokernel_mod_prime_power, _local_lattice

    rows = _relation_rows_of(family, p, size)
    lattice = rows.lattice() if family == "metacyclic" else rows
    local = _local_lattice(lattice)
    assert local[0] == p  # the seeds give q = p^e
    want = sorted(oracles.cokernel_by_dense_elimination(lattice, *local[:2]))
    assert sorted(_cokernel_mod_prime_power(*local)) == want
    assert cokernel_decomposition(lattice).divisors == tuple(want)
    # The metacyclic rows also reach the elimination as they are built.
    assert cokernel_decomposition(rows).divisors == tuple(want)


def test_sympy_smith_form_agrees_on_relation_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    from sk1.abelian import make_group
    from sk1.sk1_abelian import relation_matrix

    rng = random.Random(7)
    mats = [
        np.asarray(relation_matrix(make_group(p, orders)).rows).tolist()
        for p, orders in (
            (3, [9, 3]), (3, [9, 9]), (3, [27, 9]), (3, [3, 3, 3]),
            (5, [25, 5]), (7, [7, 7]),
        )
    ]
    mats += [_random_local_lattice(rng, rng.choice((3, 5, 7)), 4) for _ in range(10)]
    for rows in mats:
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        want = sorted(abs(int(snf[i, i])) for i in range(len(rows[0])))
        assert cokernel_decomposition(rows).divisors == tuple(d for d in want if d > 1)


def test_int64_overflow_falls_back_to_exact():
    mat = [[3, 2**61], [2, 2**61]]
    want = [1, 2**61]
    assert smith_divisors(mat) == want
    assert smith_divisors(np.array(mat, dtype=np.int64)) == want
    # Unsigned entries above 2**63 - 1 are read as Python integers; a cast
    # to int64 would wrap 2**63 + 2 (1 mod 3) to -(2**63 - 2) (0 mod 3) and
    # give C_3 x C_3 instead of C_3.
    rows = [[3, 0], [0, 3], [2**63 + 2, 0]]
    assert cokernel_decomposition(np.array(rows, dtype=np.uint64)).divisors == (3,)
    assert exact_cokernel(rows) == (3,)
    rows = [[9, 0], [0, 3], [3, 1]]
    want = cokernel_decomposition(rows).divisors
    assert cokernel_decomposition(np.array(rows, dtype=np.uint64)).divisors == want
    assert want == exact_cokernel(rows) == (9,)


def test_non_integral_entries_are_rejected():
    # int() would truncate 9.9 to 9 and 3.2 to 3.
    with pytest.raises(ValueError):
        cokernel_decomposition([[9.9, 0], [0, 3.2]])
    with pytest.raises(ValueError):
        cokernel_decomposition(np.array([[9.9, 0], [0, 3.2]]))
    assert cokernel_decomposition(np.array([[9.0, 0], [0, 3.0]])).divisors == (3, 9)


def test_seeds_first_keeps_every_row_in_order():
    # The seed rows diag(orders), then each row as given, repeats and a
    # zero row included, from a dense matrix or from a Lattice.
    from sk1.snf import Lattice

    rows = np.array([[1, 2], [0, 0], [1, 2], [0, 3]])
    want = [[3, 0], [0, 9], [1, 2], [0, 0], [1, 2], [0, 3]]
    out = seeds_first([3, 9], rows)
    assert out.shape == (6, 2) and np.asarray(out).tolist() == want
    assert out.row.dtype == out.col.dtype == out.val.dtype == np.int64
    assert (np.diff(out.row * 2 + out.col) > 0).all()
    given = Lattice(out.row[2:] - 2, out.col[2:], out.val[2:], (4, 2))
    assert np.asarray(seeds_first([3, 9], given)).tolist() == want
    with pytest.raises(ValueError):
        seeds_first([3, 3], np.array([[1, 2, 0]]))


def test_decomposition_normalizes_and_renders():
    dec = CyclicDecomposition((9, 3, 3))
    assert dec.divisors == (3, 3, 9)
    assert dec.order == 81
    assert dec.multiplicities() == {3: 2, 9: 1}
    assert dec.prime_power_multiplicities(3) == {1: 2, 2: 1}
    assert str(dec) == "(C3)^2 x (C9)^1"
    assert str(CyclicDecomposition()) == "0"
    assert CyclicDecomposition().order == 1


def test_decomposition_rejects_bad_divisors():
    with pytest.raises(ValueError):
        CyclicDecomposition((1, 3))
    with pytest.raises(ValueError):
        CyclicDecomposition((0,))
    with pytest.raises(ValueError):
        CyclicDecomposition((3.5, 9))
    assert CyclicDecomposition((9.0, 3)).divisors == (3, 9)
    with pytest.raises(ValueError):
        CyclicDecomposition((6,)).prime_power_multiplicities(3)


@pytest.mark.parametrize("p", [0, 1])
def test_prime_power_multiplicities_rejects_base_below_two(p):
    with pytest.raises(ValueError):
        CyclicDecomposition((3, 9)).prime_power_multiplicities(p)
