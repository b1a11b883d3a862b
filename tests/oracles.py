"""Independent brute-force oracles used to pin derived expectations.

Everything here works from first principles (repeated multiplication,
set closure, cofactor determinants, Euclidean elimination over Z) and
deliberately avoids the library code paths it is used to check.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, product

import numpy as np

from sk1.abelian import AbelianPGroup, Element, enumerate_elements
from sk1.genetic import enumerate_cyclic_homs
from sk1.metacyclic import MElement, MetacyclicGroup, MetaGeneticSubgroup


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


def genetic_basis_by_kernel_masks(G: AbelianPGroup) -> list[tuple]:
    """(coeffs, index, form) per genetic basis member, deduplicated by kernel.

    Every homomorphism's kernel is packed as a bitmask over all |G|
    elements; the first tuple in enumeration order wins, and members are
    sorted by (index, coeffs).  The form is the weights divided by the
    step, the gcd of the weights and eg.
    """
    k = len(G.orders)
    coords = np.indices(G.orders, dtype=np.int64).reshape(k, -1).T
    eg = G.exponent
    chosen = {}
    for coeffs in enumerate_cyclic_homs(G):
        w = np.asarray(hom_weights(G, coeffs), dtype=np.int64)
        key = np.packbits((coords @ w) % eg == 0).tobytes()
        chosen.setdefault(key, coeffs)
    out = []
    for coeffs in chosen.values():
        weights = hom_weights(G, coeffs)
        step = math.gcd(eg, *weights)
        out.append((coeffs, eg // step, tuple(w // step for w in weights)))
    return sorted(out, key=lambda t: (t[1], t[0]))


def genetic_basis_by_unit_forms(G: AbelianPGroup) -> list[tuple]:
    """(coeffs, index, form) per genetic basis member, one homomorphism at
    a time: the kernel is keyed by the form weights // step scaled to make
    its first unit coordinate 1.

    Same contract as ``genetic_basis_by_kernel_masks`` without listing
    any element, so it reaches groups whose kernels are too large to
    mask.
    """
    eg = G.exponent
    chosen = {}
    for coeffs in enumerate_cyclic_homs(G):
        weights = hom_weights(G, coeffs)
        step = math.gcd(eg, *weights)
        index = eg // step
        v = tuple(w // step for w in weights)
        # A unit coordinate exists: the coordinates are coprime to the
        # prime power index (and in Z/1 every value is a unit).
        u = pow(next(c for c in v if math.gcd(c, index) == 1), -1, index)
        key = (index, tuple(c * u % index for c in v))
        chosen.setdefault(key, (coeffs, index, v))
    return sorted(chosen.values(), key=lambda t: (t[1], t[0]))


def relation_row(G: AbelianPGroup, basis, h: Element, gen: Element) -> list[int]:
    """Entry per nontrivial column: class of gen in G/S when h lies in S,
    else 0.

    Membership and classes come from each member's coefficient tuple
    through its homomorphism into Z/eg, not from the member's stored
    form: h lies in S when it maps to 0, and the class of gen is its
    image divided by eg/index.
    """
    eg = G.exponent
    row = []
    for S in basis:
        if S.index == 1:
            continue
        inside = hom_value(G, S.coeffs, h) == 0
        row.append(hom_value(G, S.coeffs, gen) // (eg // S.index) if inside else 0)
    return row


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
