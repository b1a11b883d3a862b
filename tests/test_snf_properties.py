"""Property tests of ``cokernel_decomposition`` on random sparse local lattices.

A local lattice here has a seed row +-p^(e_c) e_c for every column c, so
it contains q*Z^cols for q = p^max(e_c) and meets the precondition of
the sparse elimination over Z/q.  Unimodular row and column operations
leave the cokernel unchanged up to isomorphism, and the exact
elimination over Z of ``oracles.smith_divisors`` must give the same
divisors.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sk1.snf import _as_lattice, _find_seeds, _local_rows, cokernel_decomposition  # noqa: E402
from oracles import exact_cokernel  # noqa: E402


@st.composite
def local_lattices(draw):
    """(p, q, rows): seeds in random places among sparse rows with two or
    more nonzero entries of every valuation, some at least q in absolute
    value."""
    p = draw(st.sampled_from((3, 5, 7)))
    c = draw(st.integers(1, 6))
    exps = draw(st.lists(st.integers(1, 4), min_size=c, max_size=c))
    q = p ** max(exps)
    rows = [
        [draw(st.sampled_from((1, -1))) * p**e if j == i else 0 for j in range(c)]
        for i, e in enumerate(exps)
    ]
    entry = st.one_of(
        st.just(0),
        st.integers(-3 * q, 3 * q),
        st.builds(lambda k, u: p**k * u, st.integers(0, max(exps)), st.integers(-q, q)),
    )
    extra = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=2 * c))
    rows += [r for r in extra if sum(map(bool, r)) > 1]
    order = draw(st.permutations(range(len(rows))))
    return p, q, [rows[i] for i in order]


# (kind, i, j, t): add t times row (column) j to row (column) i, swap
# them, or negate row i.
unimodular_ops = st.lists(
    st.tuples(
        st.sampled_from(("row_add", "col_add", "row_swap", "col_swap", "row_neg")),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(-3, 3),
    ),
    max_size=12,
)


def _apply(rows, ops):
    work = [list(r) for r in rows]
    n_rows, n_cols = len(work), len(work[0])
    for kind, i, j, t in ops:
        if kind.startswith("row"):
            i, j = i % n_rows, j % n_rows
        else:
            i, j = i % n_cols, j % n_cols
        if kind == "row_add" and i != j:
            work[i] = [a + t * b for a, b in zip(work[i], work[j])]
        elif kind == "col_add" and i != j:
            for r in work:
                r[i] += t * r[j]
        elif kind == "row_swap":
            work[i], work[j] = work[j], work[i]
        elif kind == "col_swap":
            for r in work:
                r[i], r[j] = r[j], r[i]
        elif kind == "row_neg":
            work[i] = [-a for a in work[i]]
    return work


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(local_lattices(), unimodular_ops)
def test_cokernel_is_invariant_under_unimodular_operations(lattice, ops):
    p, q, rows = lattice
    assert _local_rows(_find_seeds(_as_lattice(rows)))[0] == p  # the seeds give q = p^e
    want = cokernel_decomposition(rows).divisors
    assert want == exact_cokernel(rows)
    # Column operations mix the seed rows; q*e_c lies in every lattice
    # that contains q*Z^cols, so appending it keeps the span and the
    # precondition.
    work = _apply(rows, ops)
    n_cols = len(work[0])
    work += [[q if j == c else 0 for j in range(n_cols)] for c in range(n_cols)]
    assert _local_rows(_find_seeds(_as_lattice(work)))[0] == p
    assert cokernel_decomposition(work).divisors == want
    assert cokernel_decomposition(np.array(work, dtype=np.int64)).divisors == want
