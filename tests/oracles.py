"""Independent brute-force oracles used to pin derived expectations.

Everything here works from first principles (repeated multiplication,
set closure, cofactor determinants, Euclidean elimination over Z) and
deliberately avoids the library code paths it is used to check.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np

from sk1.abelian import ENUMERATION_LIMIT, AbelianPGroup, Element, _p_power_exponent, guard_order
from sk1.errors import DomainViolation
from sk1.genetic import GeneticBasis, _key_code, enumerate_cyclic_homs, genetic_basis_abelian
from sk1.metacyclic import MElement, MetacyclicGroup, MetaGeneticSubgroup
from sk1.sk1_abelian import (
    EXHAUSTIVE,
    REPRESENTATIVES,
    TargetProduct,
    _references,
    _teichmuller_unit,
    _torus,
)
from sk1.snf import Lattice, seeds_first

# The strategies of ``sk1`` and ``relation_matrix``.
STRATEGIES = (REPRESENTATIVES, EXHAUSTIVE)


def enumerate_elements(G: AbelianPGroup) -> list[Element]:
    """All elements in lexicographic coordinate order, up to
    ``ENUMERATION_LIMIT`` of them."""
    guard_order(G, ENUMERATION_LIMIT, "enumeration guard")
    return list(product(*(range(o) for o in G.orders)))


def target_product(G: AbelianPGroup, basis=None) -> TargetProduct:
    """The columns of G's relation lattice, as ``relation_matrix`` builds
    them: the basis members with nontrivial quotient."""
    if basis is None:
        basis = genetic_basis_abelian(G)
    return TargetProduct(basis[basis.index > 1])


def column_orders(target: TargetProduct) -> tuple[int, ...]:
    """The order of each column of ``target``, its member's index."""
    return tuple(target.columns.index.tolist())


def mul(G: AbelianPGroup, x: Element, y: Element) -> Element:
    """Componentwise sum modulo the factor orders."""
    return tuple((a + b) % o for a, b, o in zip(x, y, G.orders))


def order_by_iteration(G: AbelianPGroup, x: Element) -> int:
    """Multiply x by itself until the identity comes back."""
    t, y = 1, x
    e = G.identity()
    y = tuple(c % o for c, o in zip(x, G.orders))
    if y == e:
        return 1
    acc = y
    while acc != e:
        acc = mul(G, acc, y)
        t += 1
    return t


def cyclic_subgroup(G: AbelianPGroup, x: Element) -> frozenset[Element]:
    out = {G.identity()}
    y = tuple(c % o for c, o in zip(x, G.orders))
    acc = y
    while acc not in out:
        out.add(acc)
        acc = mul(G, acc, y)
    return frozenset(out)


def cyclic_subgroups(G: AbelianPGroup) -> set[frozenset[Element]]:
    return {cyclic_subgroup(G, x) for x in enumerate_elements(G)}


def torus_orbits_of_cyclic_subgroups(G: AbelianPGroup) -> dict[Element, int]:
    """Map each element h to a label of the orbit of <h> under the maps
    diag(1, u_2, ..., u_k), every u_i a (p-1)-th root of unity modulo
    the exponent, found by trial."""
    p, eg = G.prime, G.exponent
    roots = [u for u in range(1, eg) if pow(u, p - 1, eg) == 1]
    assert len(roots) == p - 1
    subgroup = {h: cyclic_subgroup(G, h) for h in enumerate_elements(G)}
    label: dict[frozenset[Element], int] = {}
    for S in subgroup.values():
        if S in label:
            continue
        n = len(set(label.values()))
        for us in product(roots, repeat=len(G.orders) - 1):
            u = (1, *us)
            label[frozenset(tuple(x * c % o for x, c, o in zip(y, u, G.orders)) for y in S)] = n
    return {h: label[S] for h, S in subgroup.items()}


def subgroup_closure(G: AbelianPGroup, gens) -> frozenset[Element]:
    seen = {G.identity()}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(G, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


def two_generated_subgroups(G: AbelianPGroup) -> set[frozenset[Element]]:
    """All subgroups generated by at most two elements.

    For a group with at most two cyclic factors this is every subgroup.
    """
    els = enumerate_elements(G)
    return {subgroup_closure(G, (x, y)) for x in els for y in els}


def has_cyclic_quotient(G: AbelianPGroup, S: frozenset[Element]) -> bool:
    q = G.order // len(S)
    for x in enumerate_elements(G):
        t, acc = 1, x
        while acc not in S:
            acc = mul(G, acc, x)
            t += 1
        if t == q:
            return True
    return False


def determinant(rows) -> int:
    """Cofactor-expansion determinant for small square integer matrices."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    sign = 1
    for c in range(n):
        if rows[0][c]:
            minor = [[r[j] for j in range(n) if j != c] for r in rows[1:]]
            total += sign * rows[0][c] * determinant(minor)
        sign = -sign
    return total


def minor_gcd(rows, k: int) -> int:
    """Gcd of all k x k minors (0 when every minor vanishes).

    Stops early once the gcd hits 1, which cannot change further.
    """
    from math import gcd

    n_rows, n_cols = len(rows), len(rows[0])
    g = 0
    for ri in combinations(range(n_rows), k):
        for ci in combinations(range(n_cols), k):
            d = determinant([[rows[i][j] for j in ci] for i in ri])
            g = gcd(g, d)
            if g == 1:
                return 1
    return g


def lattice_index(rows, modulus: int) -> int:
    """Index of the row span in Z^c, for a lattice containing modulus*Z^c.

    Closes the row images additively inside (Z/modulus)^c; the index is
    modulus^c divided by the closure size.
    """
    c = len(rows[0])
    gens = {tuple(v % modulus for v in r) for r in rows}
    gens.discard((0,) * c)
    seen = {(0,) * c}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % modulus for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return modulus**c // len(seen)


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by dense Gaussian elimination."""
    a = np.asarray(rows, dtype=np.int64) % p
    rank = 0
    for c in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, c])
        if not len(nonzero):
            continue
        pivot = rank + nonzero[0]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, c])
        a[below, c:] = (a[below, c:] - a[below, c, None] * a[rank, c:]) % p
        rank += 1
    return rank


def rank_mod_p_sparse(lat: Lattice, p: int) -> int:
    """Rank over GF(p) of a Lattice, by elimination on dict rows {column:
    entry mod p} with an index from each column to its rows.

    Every nonzero entry is a unit mod p, so there are no valuation phases:
    the rows are visited once, shortest first, each pivots in its column
    with the fewest entries and clears that column from the other rows.
    """
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in zip(lat.row.tolist(), lat.col.tolist(), (lat.val % p).tolist()):
        if v:
            rows.setdefault(r, {})[c] = v
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    rank = 0
    for r in sorted(rows, key=lambda r: len(rows[r])):
        row = rows.pop(r)
        if not row:
            continue
        for c in row:
            cols[c].discard(r)
        pivot = min(row, key=lambda c: len(cols[c]))
        inv = pow(row.pop(pivot), -1, p)
        scaled = [(c, v * inv % p) for c, v in row.items()]
        for s in cols.pop(pivot):
            other = rows[s]
            f = other.pop(pivot)
            for c, v in scaled:
                w = (other.get(c, 0) - f * v) % p
                if w:
                    if c not in other:
                        cols.setdefault(c, set()).add(s)
                    other[c] = w
                elif c in other:
                    del other[c]
                    cols[c].discard(s)
        rank += 1
    return rank


def cokernel_by_dense_elimination(rows, p: int, e: int) -> list[int]:
    """Cyclic orders > 1 of Z^cols modulo the row span of rows, which must
    contain q*Z^cols for q = p^e, by elimination over Z/q on a dense
    int64 matrix (q**2 < 2**63 keeps every product inside int64).

    The pivot is an entry of least p-adic valuation k, and k never
    decreases; scaling the pivot row by the inverse of the pivot's unit
    part makes the pivot p^k, and one rank-1 update clears its column.
    Each pivot contributes p^k, and each column without a pivot q.
    """
    q = p**e
    A = (np.asarray(rows) % q).astype(np.int64)
    n_cols = A.shape[1]
    orders: list[int] = []
    k, pk, pk1 = 0, 1, p  # least valuation of the active block, p^k, p^(k+1)
    for t in range(n_cols):
        # Candidate pivots have valuation exactly k.  Look in the leading
        # column first; when it has none, move every column of the active
        # block that has one to the front, raising k while there is none.
        cand = np.flatnonzero(A[t:, t] % pk1)
        if not cand.size:
            while not (live := (A[t:, t:] % pk1).any(axis=0)).any():
                k, pk, pk1 = k + 1, pk1, pk1 * p
                if k == e:
                    # The active block is zero mod q: each column left is a C_q.
                    return orders + [q] * (n_cols - t)
            A[t:, t:] = A[t:, t:][:, np.argsort(~live, kind="stable")]
            cand = np.flatnonzero(A[t:, t] % pk1)
        # The sparsest candidate row makes the least fill-in.
        i = t + int(cand[np.argmin(np.count_nonzero(A[t + cand, t:], axis=1))])
        if i != t:
            A[[t, i]] = A[[i, t]]
        A[t, t:] = A[t, t:] * pow(int(A[t, t]) // pk, -1, q) % q
        below = t + 1 + np.flatnonzero(A[t + 1 :, t])
        if below.size:
            f = A[below, t] // pk
            A[below, t + 1 :] = (A[below, t + 1 :] - f[:, None] * A[t, t + 1 :]) % q
        if pk > 1:
            orders.append(pk)
    return orders


def smith_divisors(mat) -> list[int]:
    """Diagonal invariants d_1 | d_2 | ... of an integer matrix, by an
    exact elimination on unbounded Python integers.

    The list has length min(rows, cols); zeros (rank deficiency) come
    last.  Accepts a rectangular nest of integers or a 2-d integer
    ndarray.
    """
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    rows = [[int(v) for v in r] for r in mat]
    return _divisor_chain(_diagonalize_exact(rows), min(len(rows), len(rows[0])))


def exact_cokernel(rows) -> tuple[int, ...]:
    """Nontrivial invariants of Z^cols / rowspan, ascending, from
    ``smith_divisors``."""
    return tuple(sorted(d for d in smith_divisors(rows) if d > 1))


def _divisor_chain(diagonal: list[int], slots: int) -> list[int]:
    """Rebalance a diagonal multiset into the invariant-factor chain."""
    vals = [abs(v) for v in diagonal if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals) - 1):
            a, b = vals[i], vals[i + 1]
            if b % a:
                g = math.gcd(a, b)
                vals[i], vals[i + 1] = g, a // g * b
                changed = True
    return vals + [0] * (slots - len(vals))


def _diagonalize_exact(rows: list[list[int]]) -> list[int]:
    """Reduce rows to diagonal form over Z; return the diagonal entries.

    Pivots on the smallest nonzero entry of the remaining block and
    clears its row and column by Euclidean steps, on unbounded integers.
    """
    M = [list(r) for r in rows]
    n_rows, n_cols = len(M), len(M[0])
    diagonal: list[int] = []
    t = 0
    while t < n_rows and t < n_cols:
        best = None
        bi = bj = -1
        for i in range(t, n_rows):
            Mi = M[i]
            for j in range(t, n_cols):
                v = Mi[j]
                if v:
                    a = -v if v < 0 else v
                    if best is None or a < best:
                        best, bi, bj = a, i, j
        if best is None:
            break
        M[t], M[bi] = M[bi], M[t]
        if bj != t:
            for r in M:
                r[t], r[bj] = r[bj], r[t]
        if M[t][t] < 0:
            M[t] = [-v for v in M[t]]
        while True:
            pivot = M[t][t]
            Mt = M[t]
            dirty = -1
            for i in range(t + 1, n_rows):
                Mi = M[i]
                v = Mi[t]
                if v:
                    q = v // pivot
                    if q:
                        for j in range(t, n_cols):
                            Mi[j] -= q * Mt[j]
                    if Mi[t] and (dirty < 0 or Mi[t] < M[dirty][t]):
                        dirty = i
            if dirty >= 0:
                M[t], M[dirty] = M[dirty], M[t]
                continue
            rowdirty = -1
            for j in range(t + 1, n_cols):
                v = Mt[j]
                if v:
                    v %= pivot
                    Mt[j] = v
                    if v and (rowdirty < 0 or v < Mt[rowdirty]):
                        rowdirty = j
            if rowdirty >= 0:
                for r in M:
                    r[t], r[rowdirty] = r[rowdirty], r[t]
                continue
            break
        diagonal.append(M[t][t])
        t += 1
    return diagonal


def hom_weights(G: AbelianPGroup, coeffs) -> tuple[int, ...]:
    """Values in Z/eg of the generators under the homomorphism of a
    coefficient tuple: generator i goes to (eg/o_i)*coeffs[i]."""
    eg = G.exponent
    return tuple((eg // o) * c % eg for o, c in zip(G.orders, coeffs))


def hom_value(G: AbelianPGroup, coeffs, x: Element) -> int:
    """Image of x in Z/eg under the homomorphism of a coefficient tuple."""
    return sum(w * c for w, c in zip(hom_weights(G, coeffs), x)) % G.exponent


def normalised_form(G: AbelianPGroup, coeffs) -> tuple[int, tuple[int, ...]]:
    """(index, form) of the homomorphism of a coefficient tuple: its weights
    divided by the step, the gcd of the weights and eg, are a form onto
    Z/index; times pow(u, -1, index) for its first coordinate u coprime to
    index, that coordinate becomes 1.  A unit coordinate exists: the
    coordinates are coprime to the prime power index (and in Z/1 every
    value is a unit)."""
    eg = G.exponent
    weights = hom_weights(G, coeffs)
    step = math.gcd(eg, *weights)
    index = eg // step
    v = [w // step for w in weights]
    u = pow(next(c for c in v if math.gcd(c, index) == 1), -1, index)
    return index, tuple(c * u % index for c in v)


def genetic_basis_by_kernel_masks(G: AbelianPGroup) -> list[tuple]:
    """(coeffs, index, form) per genetic basis member, deduplicated by kernel.

    Every homomorphism's kernel is packed as a bitmask over all |G|
    elements; the first tuple in enumeration order wins, and members are
    sorted by (index, coeffs).  The form is ``normalised_form``'s.
    """
    k = len(G.orders)
    coords = np.indices(G.orders, dtype=np.int64).reshape(k, -1).T
    eg = G.exponent
    chosen = {}
    for coeffs in enumerate_cyclic_homs(G):
        w = np.asarray(hom_weights(G, coeffs), dtype=np.int64)
        key = np.packbits((coords @ w) % eg == 0).tobytes()
        chosen.setdefault(key, coeffs)
    out = [(coeffs, *normalised_form(G, coeffs)) for coeffs in chosen.values()]
    return sorted(out, key=lambda t: (t[1], t[0]))


def genetic_basis_by_unit_forms(G: AbelianPGroup) -> list[tuple]:
    """(coeffs, index, form) per genetic basis member, one homomorphism at
    a time: the kernel is keyed by (index, form) of ``normalised_form``.

    Same contract as ``genetic_basis_by_kernel_masks`` without listing
    any element, so it reaches groups whose kernels are too large to
    mask.
    """
    chosen = {}
    for coeffs in enumerate_cyclic_homs(G):
        key = normalised_form(G, coeffs)
        chosen.setdefault(key, (coeffs, *key))
    return sorted(chosen.values(), key=lambda t: (t[1], t[0]))


def _unit_inverse(a: np.ndarray, p: int, eg: int) -> np.ndarray:
    """a**(phi(eg) - 1) mod eg, elementwise: the inverse of every unit in
    a, by square and multiply (products stay below eg**2)."""
    out = np.ones_like(a)
    n = eg // p * (p - 1) - 1
    while n:
        if n & 1:
            out = out * a % eg
        a = a * a % eg
        n >>= 1
    return out


def genetic_basis_by_tuple_pass(G: AbelianPGroup) -> GeneticBasis:
    """The basis as the library built it before it listed the forms in
    closed form: one numpy pass over all (e+1)*prod(o_i, i > 0)
    coefficient tuples of ``enumerate_cyclic_homs``.  Each tuple's form
    onto Z/index is scaled by the inverse of its first unit coordinate,
    ``_key_code`` keys the kernel, the first tuple of each key wins, and
    the members are sorted by (index, coeffs)."""
    p, eg, k = G.prime, G.exponent, len(G.orders)
    e = _p_power_exponent(eg, p)
    n_tuples = (e + 1) * math.prod(G.orders[1:])
    # coeffs[:, t] is tuple t of enumerate_cyclic_homs (odometer order).
    coeffs = np.indices((e + 1, *G.orders[1:]), dtype=np.int64).reshape(k, -1)
    coeffs[0] = np.array([pow(p, x, eg) for x in range(e + 1)])[coeffs[0]]
    weights = coeffs * (eg // np.array(G.orders))[:, None] % eg
    step = np.gcd(np.gcd.reduce(weights, axis=0), eg)
    index = eg // step
    form = weights // step
    # Only the zero tuple has index 1, and its form is 0 whatever its lead.
    lead = form[(form % p != 0).argmax(axis=0), np.arange(n_tuples)]
    form = (form * (_unit_inverse(lead, p, eg) % index) % index).T
    _, first = np.unique(_key_code(G, index, form), return_index=True)
    first = first[np.lexsort((*coeffs[::-1, first], index[first]))]
    return GeneticBasis(G, coeffs.T[first], index[first], form[first])


def relation_rows(G: AbelianPGroup, basis, refs, gens) -> list[list[list[int]]]:
    """Per reference h of refs, one row per element gen of gens: an entry
    per nontrivial column, the class of gen in G/S when h lies in S, else 0.

    Membership and classes come from each member's coefficient tuple, not
    from the member's stored form: h lies in S when its homomorphism maps
    h to 0, and the class of gen is its value under ``normalised_form``.
    Each member's weights and form are computed once, and each reference's
    membership once for all of gens.
    """
    eg = G.exponent
    columns = [(hom_weights(G, S.coeffs), *normalised_form(G, S.coeffs)) for S in basis]
    columns = [col for col in columns if col[1] > 1]
    out = []
    for h in refs:
        inside = [sum(w * c for w, c in zip(weights, h)) % eg == 0 for weights, _, _ in columns]
        out.append([
            [
                sum(f * c for f, c in zip(form, gen)) % index if hit else 0
                for hit, (_, index, form) in zip(inside, columns)
            ]
            for gen in gens
        ])
    return out


def relation_rows_by_remainder(G: AbelianPGroup, strategy: str, per_orbit: bool) -> Lattice:
    """The rows of ``relation_matrix(G, strategy, per_orbit=per_orbit)``
    with its membership test written as the int64 remainder
    ``refs @ F.T % q == 0`` over every column at once, walked by the 2-d
    ``np.nonzero``: how the library tested membership before its
    division-free test, and the reference the tests compare it with.  The
    representatives, the torus and the row assembly are the library's;
    the exhaustive elements come from ``enumerate_elements``."""
    basis = genetic_basis_abelian(G)
    target = target_product(G, basis)
    torus = _torus(G, target) if per_orbit else None
    q, F = target.columns.index, target.columns.form
    if strategy == REPRESENTATIVES:
        refs = _references(basis, torus)
    else:
        refs = np.array(enumerate_elements(G), dtype=np.int64)
        signature = np.packbits(refs @ F.T % q == 0, axis=1)
        signature = signature.view(np.dtype((np.void, signature.shape[1]))).ravel()
        refs = refs[np.sort(np.unique(signature, return_index=True)[1])]
    n_gens = len(G.orders)
    unit = refs % G.prime != 0
    kept = np.ones((len(refs), n_gens), dtype=bool)
    kept[np.arange(len(refs)), unit.argmax(axis=1)] = ~unit.any(axis=1)
    kept = kept.ravel()
    renumber = np.cumsum(kept) - 1
    ref, col = np.nonzero(refs @ F.T % q == 0)
    at, gen = np.nonzero(F[col])
    slot = ref[at] * n_gens + gen
    keep = kept[slot]
    row, col, val = renumber[slot[keep]], col[at[keep]], F[col[at[keep]], gen[keep]]
    order = np.argsort(row * len(q) + col)
    rows = Lattice(row[order], col[order], val[order], (int(kept.sum()), len(q)))
    return rows if per_orbit else seeds_first(q, rows)


def distinct_rows(orders, rows) -> Lattice:
    """Relation lattice of the seed rows diag(orders), then each row of
    ``rows`` at its first occurrence; duplicates are dropped.

    ``rows`` is a Lattice of candidate rows or a 2-d integer array.  Rows
    are keyed by the int64 bytes of their (column, value) pairs, so equal
    rows meet whatever dtype they came in.  An array that does not cast
    exactly to int64 raises TypeError.  This is how the library assembled
    its whole relation lattices before it kept every row, and the
    reference the tests compare that assembly with.
    """
    if not isinstance(rows, Lattice):
        rows = np.asarray(rows)
        if not np.can_cast(rows.dtype, np.int64):
            raise TypeError(f"relation rows of dtype {rows.dtype} do not cast exactly to int64")
        r, c = np.nonzero(rows)
        rows = Lattice(r, c, rows[r, c].astype(np.int64), rows.shape)
    orders = np.asarray(orders, dtype=np.int64)
    k = len(orders)
    if rows.shape[1] != k:
        raise ValueError(f"rows have {rows.shape[1]} columns, expected {k}")
    seeds = np.arange(k)
    row = np.concatenate([seeds, rows.row + k])
    col = np.concatenate([seeds, rows.col])
    val = np.concatenate([orders, rows.val.astype(np.int64)])
    n = k + len(rows)
    # Row i's key is the bytes of its (column, value) pairs.
    keys = np.stack([col, val], axis=1).tobytes()
    width = 2 * val.itemsize
    starts = (np.searchsorted(row, np.arange(n + 1)) * width).tolist()
    first: dict[bytes, int] = {}
    for i, (a, b) in enumerate(zip(starts, starts[1:])):
        first.setdefault(keys[a:b], i)
    renumber = np.full(n, -1)
    renumber[list(first.values())] = np.arange(len(first))
    row = renumber[row]
    keep = row >= 0
    return Lattice(row[keep], col[keep], val[keep], (len(first), k))


def repeated_rows(lattice: Lattice) -> int:
    """How many rows of ``lattice`` equal an earlier row, seed rows and
    zero rows included, keyed by the int64 bytes of their (column, value)
    pairs."""
    starts = np.searchsorted(lattice.row, np.arange(lattice.shape[0] + 1)).tolist()
    pairs = np.stack([lattice.col, lattice.val], axis=1).astype(np.int64)
    keys = {pairs[a:b].tobytes() for a, b in zip(starts, starts[1:])}
    return lattice.shape[0] - len(keys)


def rows_up_to_roots_of_unity(lattice: Lattice, p: int) -> Lattice:
    """A relation lattice whose rows differ by a (p-1)-th root of unity
    made equal: each non-seed row is scaled by the inverse Teichmuller lift
    of its first entry's unit part, then ``distinct_rows`` drops repeats.

    ``lattice`` is a Lattice with its seed rows first, as ``seeds_first``
    builds it; its seeds give the column orders.  The lift of a unit u mod
    Q = p^E is u^(Q/p) mod Q, which depends only on u mod p.
    """
    k = lattice.shape[1]
    q = lattice.val[:k]
    assert np.array_equal(lattice.row[:k], np.arange(k))
    assert np.array_equal(lattice.col[:k], np.arange(k))
    Q = int(q.max(initial=1))
    row, col = lattice.row[k:] - k, lattice.col[k:]
    val = lattice.val[k:] % q[col]
    first = np.flatnonzero(np.diff(row, prepend=-1))
    unit = val[first]
    while (div := unit % p == 0).any():
        unit = np.where(div, unit // p, unit)
    lift_inv = [0] + [pow(pow(u, Q // p, Q), -1, Q) for u in range(1, p)]
    counts = np.diff(first, append=len(row))
    val = val * np.repeat(np.array(lift_inv, dtype=np.int64)[unit % p], counts) % q[col]
    row = np.repeat(np.arange(len(first)), counts)
    return distinct_rows(q, Lattice(row, col, val, (len(first), k)))


def torus_by_permutations(G: AbelianPGroup, target, chars: np.ndarray) -> SimpleNamespace:
    """The action of T' = {diag(1, w^m_2, ..., w^m_k)} on the columns of
    ``target``, and the components of the characters ``chars``, from the
    whole group table: every element's permutation of the columns,
    composed from those of the generators t_j, and its stabiliser pairs.

    Returns reps and orbit (as ``_Torus``), keep[a, o] when the stabiliser
    of orbit o's representative acts on it by character a, and coef[c, a]
    = a(s) w^-m_s[lead[c]] for an element s mapping the representative to
    column c.  This is how the library built the torus before its closed
    form; it holds (p-1)^(k-1) rows per column.
    """
    p, eg, k = G.prime, G.exponent, len(G.orders)
    w = _teichmuller_unit(p, eg)
    q, F = target.columns.index, target.columns.form
    n = len(q)
    lead = (F % p != 0).argmax(axis=1)
    codes = _key_code(G, q, F)
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    P = np.arange(n)[None]
    m = np.zeros((1, k), dtype=np.int64)
    for j in range(1, k):
        # t_j scales coordinate j by w^-1; a form led at j is then rescaled
        # by w to lead 1 again.
        image = F.copy()
        image[:, j] = image[:, j] * pow(w, -1, eg) % q
        at = lead == j
        image[at] = image[at] * w % q[at, None]
        image = _key_code(G, q, image)
        pos = np.minimum(np.searchsorted(sorted_codes, image), n - 1)
        if not np.array_equal(sorted_codes[pos], image):
            raise ValueError(f"the torus maps a column of {G} outside the target")
        perm = by_code[pos]
        cycle = [np.arange(n)]
        for _ in range(p - 2):
            cycle.append(perm[cycle[-1]])
        # Row a * len(P) + b of the new P is t_j^a s_b.
        P = np.stack(cycle)[:, P].reshape(-1, n)
        m = np.tile(m, (p - 1, 1))
        m[:, j] = np.repeat(np.arange(p - 1), len(m) // (p - 1))
    rep = P.min(axis=0)
    reps = np.flatnonzero(rep == np.arange(n))
    orbit = np.empty(n, dtype=np.int64)
    orbit[reps] = np.arange(len(reps))
    elem = np.empty(n, dtype=np.int64)
    elem[P[:, reps]] = np.arange(len(P))[:, None]
    fix_r, fix_s = np.nonzero((P[:, reps] == reps).T)
    # An orbit is in the component unless a stabiliser element acts on its
    # representative by another value than a.
    lead_r = lead[reps][fix_r]
    off = (m[fix_s] @ chars.T - m[fix_s, lead_r][:, None]) % (p - 1) != 0
    keep = ~np.logical_or.reduceat(off, np.flatnonzero(np.diff(fix_r, prepend=-1))).T
    powers = np.array([pow(w, j, eg) for j in range(p - 1)], dtype=np.int64)
    coef = powers[(m[elem] @ chars.T - m[elem, lead][:, None]) % (p - 1)]
    return SimpleNamespace(reps=reps, orbit=orbit[rep], keep=keep, coef=coef)


def meta_mul(G: MetacyclicGroup, x: MElement, y: MElement) -> MElement:
    """(a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2*twist^j1) b^(j1 + j2), since
    b^j a b^-j = a^(twist^j), and twist has order p modulo |a|."""
    i1, j1 = x
    i2, j2 = y
    q = G.a_order
    return ((i1 + i2 * pow(G.twist, j1, q)) % q, (j1 + j2) % G.prime)


def meta_inverse(G: MetacyclicGroup, x: MElement) -> MElement:
    """(a^i b^j)^-1 = b^-j a^-i = a^(-i*twist^-j) b^-j."""
    i, j = x
    q = G.a_order
    return ((-i * pow(G.twist, -j, q)) % q, -j % G.prime)


def meta_power(G: MetacyclicGroup, x: MElement, t: int) -> MElement:
    """x^t by square and multiply; negative t uses the inverse."""
    result = G.identity()
    base = x if t >= 0 else meta_inverse(G, x)
    t = abs(t)
    while t:
        if t & 1:
            result = meta_mul(G, result, base)
        base = meta_mul(G, base, base)
        t >>= 1
    return result


def meta_element_order(G: MetacyclicGroup, x: MElement) -> int:
    """Multiply x by itself until the identity comes back."""
    t, y = 1, x
    while y != G.identity():
        y = meta_mul(G, y, x)
        t += 1
    return t


def meta_elements(G: MetacyclicGroup) -> list[MElement]:
    """All p^n elements in lexicographic (i, j) order."""
    return [(i, j) for i in range(G.a_order) for j in range(G.prime)]


def meta_centralizer(G: MetacyclicGroup, h: MElement) -> frozenset[MElement]:
    """Set of the elements commuting with h."""
    return frozenset(
        g for g in meta_elements(G) if meta_mul(G, g, h) == meta_mul(G, h, g)
    )


def meta_closure(G: MetacyclicGroup, gens) -> frozenset[MElement]:
    """Subgroup generated by gens, closed breadth first."""
    seen = {G.identity()}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = meta_mul(G, x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return frozenset(seen)


@cache
def meta_members(S: MetaGeneticSubgroup) -> frozenset[MElement]:
    """Member set of a basis member, closed from its generators once per
    member: the tests ask for the same member's set again and again."""
    return meta_closure(S.group, S.gens)


def meta_basis_by_class_forms(G: MetacyclicGroup) -> tuple[MetaGeneticSubgroup, ...]:
    """The metacyclic basis member by member, as the library built it
    before it listed the basis in closed form: each normal member's form
    is the form (alpha, beta) that its generators are the kernel of,
    scaled mod q by a unit so that the canonical generator maps to 1.

    That generator, the least element whose class has full order, is b =
    (0, 1) when beta is a unit, and otherwise a = (1, 0), since every (0,
    j) then lands in a proper subgroup of Z/q.
    """
    p, n = G.prime, G.n
    a, b = G.gen_a(), G.gen_b()

    def normal(label, gens, q, alpha, beta):
        u = pow(beta if beta % p else alpha, -1, q)
        return MetaGeneticSubgroup(label, G, gens, q, (alpha * u % q, beta * u % q))

    def power(k):
        return "a" if k == 1 else f"a^{k}"

    out = [MetaGeneticSubgroup("G", G, (a, b), 1, (0, 0))]
    out.append(normal("<a>", (a,), p, 0, 1))
    for i in range(n - 2):
        q = p ** (i + 1)
        for j in range(1, p):
            k = j * p**i
            out.append(normal(f"<{power(k)}*b>", ((k, 1),), q, 1, -k))
        out.append(normal(f"<{power(q)},b>", ((q, 0), b), q, 1, 0))
    out.append(MetaGeneticSubgroup("<b>", G, (b,), p ** (n - 2), None))
    return tuple(out)


def quotient_exponents_by_cosets(G, S) -> dict:
    """For a normal metacyclic basis member S: class exponent of every
    element in G/S, relative to the coset of maximal order whose least
    member is smallest.  Walks every coset of the explicit member set.
    """
    members = meta_members(S)
    rep = {}
    for x in meta_elements(G):
        if x in rep:
            continue
        coset = [meta_mul(G, x, s) for s in members]
        r = min(coset)
        for y in coset:
            rep[y] = r
    q = G.order // len(members)

    def coset_order(r):
        t, y = 1, r
        while y not in members:
            y = meta_mul(G, y, r)
            t += 1
        return t

    gen = min(r for r in set(rep.values()) if coset_order(r) == q)
    by_rep = {}
    cur = rep[G.identity()]
    for t in range(q):
        by_rep[cur] = t
        cur = rep[meta_mul(G, cur, gen)]
    assert len(by_rep) == q
    return {x: by_rep[r] for x, r in rep.items()}


def metacyclic_rows_by_elements(G, cols) -> list[tuple[int, ...]]:
    """Seed rows, then the relation row of every (h, g) over the whole
    group, each row at its first occurrence.

    h runs over every element in (i, j) order and g over the generators
    of its centralizer: a and b for central h, a^p and b on the middle
    layer (p | i, j != 0), h itself otherwise.  Entries are computed one
    at a time: a normal column gives the class of g under its form when
    h lies in the explicit member set and 0 otherwise; the column of <b>
    follows the closed determinant rules.
    """
    p, n = G.prime, G.n
    section = p ** (n - 2)

    def entry(S, members, h, g):
        (hi, hj), (gi, gj) = h, g
        if S.normal:
            alpha, beta = S.form
            return (alpha * gi + beta * gj) % S.quotient_order if h in members else 0
        if h == G.identity():
            return (gi + gj * (p - 1) * p ** (n - 3)) % section
        if hj != 0 and hi % section == 0:
            return (gi // p) % section
        return 0

    rows = []
    for c, S in enumerate(cols):
        seed = [0] * len(cols)
        seed[c] = S.quotient_order
        rows.append(tuple(seed))
    seen = set(rows)
    member_sets = [meta_members(S) if S.normal else None for S in cols]
    for h in meta_elements(G):
        hi, hj = h
        if hi % p == 0 and hj == 0:
            gens = (G.gen_a(), G.gen_b())
        elif hi % p == 0:
            gens = ((p, 0), G.gen_b())
        else:
            gens = (h,)
        for g in gens:
            row = tuple(entry(S, M, h, g) for S, M in zip(cols, member_sets))
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return rows


def metacyclic_entries(G, cols, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Relation entries of the pairs (h[k], g[k]), one column per member,
    in one array pass over every (pair, column).

    h and g are (pairs, 2) int64 arrays of reduced elements, each g[k]
    centralizing h[k] (DomainViolation otherwise).  A normal column takes
    one membership product h @ F.T and one class product g @ F.T modulo
    the column orders; the column of <b> takes its closed determinant
    rules elementwise.  Every product stays below 2 * |a|**2, so the
    groups that ``sk1_metacyclic`` admits fit int64.  This is how the
    library built its metacyclic rows before it listed each reference
    element's columns, and the reference the tests compare that listing
    with.
    """
    p, n, q = G.prime, G.n, G.a_order
    twist = np.array([pow(G.twist, j, q) for j in range(p)], dtype=np.int64)
    (hi, hj), (gi, gj) = h.T, g.T
    commute = (gi + hi * twist[gj]) % q == (hi + gi * twist[hj]) % q
    if not commute.all():
        k = int(np.argmin(commute))
        raise DomainViolation(
            f"{tuple(map(int, g[k]))} is not in the centralizer of {tuple(map(int, h[k]))}"
        )
    out = np.zeros((len(h), len(cols)), dtype=np.int64)
    normal = [c for c, S in enumerate(cols) if S.normal]
    if normal:
        F = np.array([cols[c].form for c in normal], dtype=np.int64)
        orders = np.array([cols[c].quotient_order for c in normal], dtype=np.int64)
        out[:, normal] = np.where(h @ F.T % orders == 0, g @ F.T % orders, 0)
    section = p ** (n - 2)
    whole = (gi + gj * ((p - 1) * p ** (n - 3))) % section
    conjugate = np.where((hj != 0) & (hi % section == 0), gi // p % section, 0)
    for c, S in enumerate(cols):
        if not S.normal:
            out[:, c] = np.where((hi == 0) & (hj == 0), whole, conjugate)
    return out


def metacyclic_row_pair_arrays(G) -> tuple[np.ndarray, np.ndarray]:
    """The (h, g) pairs of ``sk1.metacyclic._row_pairs`` as two (pairs, 2)
    int64 arrays, built by masking a repeated array of the reference
    elements: each h with g = a (a^p on the middle layer) and then g = b,
    the pair (h, b) dropped where the b-exponent of h is nonzero."""
    p, n = G.prime, G.n
    refs = [(0, 0), (0, 1), (p ** (n - 2), 0)]
    refs += [(p ** (n - 1 - k), y) for k in range(2, n - 1) for y in range(p)]
    h = np.repeat(np.array(refs, dtype=np.int64), 2, axis=0)
    g = np.zeros_like(h)
    g[0::2, 0] = np.where(h[0::2, 1] == 0, 1, p)
    g[1::2, 1] = 1
    keep = (h[:, 1] == 0) | (g[:, 1] == 0)
    return h[keep], g[keep]


def metacyclic_rows_by_arrays(G, cols) -> Lattice:
    """Seed rows, then the dense entries of every pair of
    ``metacyclic_row_pair_arrays``, by ``seeds_first``."""
    orders = [S.quotient_order for S in cols]
    return seeds_first(orders, metacyclic_entries(G, cols, *metacyclic_row_pair_arrays(G)))
