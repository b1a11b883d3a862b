"""SK1 of the integral group ring of a finite abelian p-group, p odd.

The target has one column per nontrivial cyclic quotient of the genetic
basis, its member's normalised linear form onto that quotient (first
coordinate prime to p equal to 1).  The relation rows
are diagonal seeds, the column orders, and for each reference element h
the classes of the generators (the entries of the forms) in every
quotient whose subgroup contains h.  Their cokernel is the result.

The row of h is a homomorphism g -> row(h, g) into the target that
kills h, as h has class 0 in every quotient whose subgroup contains it.
So sum_i h_i * row(h, e_i) = 0 modulo the seeds, and a reference
element with a coordinate prime to p skips the generator of the first
such coordinate: its row is in the span of the others.

The cokernel is split before its Smith form.  The diagonal torus T of
Teichmuller units, diag(u_1, ..., u_k) with u_i^(p-1) = 1, acts on G and
on the columns: t maps the kernel of the form F to that of F * u^-1,
and its normalised form to F * u^-1 times u_l, l the first coordinate
of F prime to p.  So t maps column S to u_l times column tS.  The
lattice is stable under every automorphism (the reference elements
generate every cyclic subgroup) and |T| is prime to p, so the cokernel
is the direct sum of its components over the characters of T (Serre,
Linear Representations of Finite Groups, GTM 42, for the idempotents).
Scalars act on a column by their own value, so only characters a with
sum(a) = 1 mod p - 1 occur, read off the subtorus
T' = {diag(1, u_2, ..., u_k)}.  The T'-orbit of a column is read off
its form F in closed form (``_torus``): scaling each nonzero F_j by a
root of unity makes its unit part 1 mod p, which gives the orbit's
principal column, and the stabiliser of F is scalar on the set N of
coordinates where F is nonzero and free off it (but for u_1 = 1), so
the orbit has (p-1)^(|N|-1) columns.  A component has one coordinate per T'-orbit on
whose representative the stabiliser acts by the character, which holds
exactly when a_j = 0 mod p - 1 for every j off N.  A row enters it
through its entries weighted by the character, and the rows of one
T'-orbit give one projected row up to a root of unity.  The rows of h
depend only on <h>, and t<c(S)> = <c(t^-1 S)> for the reference c(S)
of column S (its tuple): c(t^-1 S) and t c(S) define homomorphisms with
one kernel, so differ by a unit.  So the split needs the rows of the identity and of
one column's reference per T'-orbit.  A permutation of equal-order
factors maps the a-component isomorphically onto that of the permuted
a, so one character per orbit of such permutations is solved, its
divisors repeated by the orbit's size.  For C_{p^n} x C_{p^n} no character is
swap-fixed (2a = 1 has no solution mod the even p - 1), so half the
components are eliminated, each about half the lattice when p = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from types import SimpleNamespace

import numpy as np

from .abelian import (
    DEFAULT_MAX_ORDER,
    ENUMERATION_LIMIT,
    SK1_CACHE_SIZE,
    AbelianPGroup,
    guard_order,
)
from .genetic import GeneticBasis, _key_code, genetic_basis_abelian
from .snf import CyclicDecomposition, Lattice, SparseRows, cokernel_decomposition

REPRESENTATIVES = "representatives"
EXHAUSTIVE = "exhaustive"

# Columns per membership pass of ``relation_matrix``: its transient arrays
# are (reference elements) x COLUMN_CHUNK.
COLUMN_CHUNK = 256
# Elements per block of the exhaustive signature pass: its transient
# arrays are ELEMENT_BLOCK x COLUMN_CHUNK, and the signatures of one bit
# per (element, column) ELEMENT_BLOCK rows, whatever |G|.
ELEMENT_BLOCK = 4096


@dataclass(frozen=True)
class TargetProduct:
    """Columns of the relation lattice: one cyclic quotient per basis
    member with nontrivial quotient."""

    columns: GeneticBasis


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Relation rows over a target product: the relation lattice, or with
    ``torus`` the per-orbit rows that it projects (``relation_matrix``)."""

    target: TargetProduct
    rows: SparseRows | Lattice
    torus: _Torus | None = None


def _references(G: AbelianPGroup, strategy: str, basis, torus=None) -> np.ndarray:
    """Every element, in lexicographic order, under ``exhaustive``; else
    the basis tuples or, given ``torus``, those of the identity basis[0]
    and of the column-orbit representatives (the columns are basis[1:]).
    ``relation_matrix`` streams the exhaustive elements instead
    (``_first_of_each_signature``)."""
    if strategy == EXHAUSTIVE:
        guard_order(G, ENUMERATION_LIMIT, "enumeration guard")
        return _elements(G, 0, G.order)
    if strategy != REPRESENTATIVES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if torus is not None:
        return basis.coeffs[np.concatenate(([0], 1 + torus.reps))]
    return basis.coeffs


def _elements(G: AbelianPGroup, lo: int, hi: int) -> np.ndarray:
    """Elements lo..hi-1 of G in lexicographic order, as int64 rows: an
    odometer over the trailing factors of at most ELEMENT_BLOCK elements
    (``np.indices``) under each prefix of leading coordinates in range."""
    orders, k = G.orders, len(G.orders)
    t, span = k, 1
    while t and span * orders[t - 1] <= ELEMENT_BLOCK:
        t -= 1
        span *= orders[t]
    tail = np.indices(orders[t:], dtype=np.int64).reshape(k - t, span).T
    if not t:
        return tail[lo:hi]
    first, last = lo // span, (hi - 1) // span + 1
    out = np.empty((last - first, span, k), dtype=np.int64)
    out[:, :, t:] = tail
    out[:, :, :t] = np.column_stack(np.unravel_index(np.arange(first, last), orders[:t]))[:, None]
    return out.reshape(-1, k)[lo - first * span : hi - first * span]


def _first_of_each_signature(G: AbelianPGroup, inside, n_cols: int) -> np.ndarray:
    """The first element, in lexicographic order, of each membership
    signature: the bits of the n_cols columns that contain it, read by
    ``inside(elements, columns)``.  Every element is tested, up to
    ``ENUMERATION_LIMIT``, in blocks of ELEMENT_BLOCK; each block keeps
    the first element of each signature that no earlier block has seen,
    so only one block and the distinct signatures, one per cyclic
    subgroup, are held at a time."""
    guard_order(G, ENUMERATION_LIMIT, "enumeration guard")
    chunks = [slice(lo, lo + COLUMN_CHUNK) for lo in range(0, n_cols, COLUMN_CHUNK)]
    seen, kept = None, []
    for lo in range(0, G.order, ELEMENT_BLOCK):
        block = _elements(G, lo, min(lo + ELEMENT_BLOCK, G.order))
        signature = np.hstack([np.packbits(inside(block, c), axis=1) for c in chunks])
        signature = signature.view(np.dtype((np.void, signature.shape[1]))).ravel()
        # The distinct signatures seen so far go first: the first index of
        # each of them lies before the block, so only new ones index it.
        n_seen = 0 if seen is None else len(seen)
        if n_seen:
            signature = np.concatenate((seen, signature))
        first = np.sort(np.unique(signature, return_index=True)[1])
        seen = signature[first]
        kept.append(block[first[n_seen:] - n_seen])
    return np.concatenate(kept)


@lru_cache(maxsize=SK1_CACHE_SIZE)
def _divisibility_table(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every q = p^j with q^2 < 2^63, which holds for each column order
    that ``guard_int64`` admits: q (int64), and the constants of
    ``_divisible``, q^-1 mod 2^64 and floor((2^64 - 1) / q) (uint64)."""
    q, inverse, p_inverse = [1], [1], pow(p, -1, 2**64)
    while (q[-1] * p) ** 2 < 2**63:
        q.append(q[-1] * p)
        inverse.append(inverse[-1] * p_inverse % 2**64)
    return (
        np.array(q, dtype=np.int64),
        np.array(inverse, dtype=np.uint64),
        np.array([(2**64 - 1) // x for x in q], dtype=np.uint64),
    )


def _divisible(x: np.ndarray, inverse: np.ndarray, top: np.ndarray) -> np.ndarray:
    """x % q == 0 elementwise without a division, for odd q given by
    ``inverse`` = q^-1 mod 2^64 and ``top`` = floor((2^64 - 1) / q), both
    broadcast against x.  Multiplying by q^-1 permutes Z/2^64 and maps the
    multiples k*q below 2^64 to k, that is onto 0..top (Granlund and
    Montgomery, PLDI 1994), so x must be an int64 array with entries in
    [0, 2^63).  x is overwritten."""
    x = x.view(np.uint64)
    x *= inverse
    return x <= top


def relation_matrix(
    G: AbelianPGroup, strategy: str = REPRESENTATIVES, *, per_orbit: bool = False
) -> RelationSet:
    """One relation row per (reference element h, generator e_i) pair,
    except the pair of the first coordinate of h prime to p (see the
    module docstring); an h with none, the identity among them, keeps all.

    ``representatives`` uses one reference element per basis member, its
    defining tuple (the identity for the zero tuple), one generator of
    each cyclic subgroup.  ``exhaustive`` runs every group element, up to
    ``ENUMERATION_LIMIT``, through the membership test and keeps the first
    of each membership signature: elements with one signature generate
    one cyclic subgroup (each subgroup is the intersection of the columns
    that contain it), so they give equal rows.  ``sk1`` holds the order
    guard of that strategy.

    The default is the relation lattice, SparseRows of the column orders
    and these rows.  Its rows are observed never to repeat, so none is
    dropped.  ``per_orbit`` gives the input of ``_torus_blocks``: the
    torus and the rows without seeds; ``representatives`` then keeps the
    identity and one reference per T'-orbit of cyclic subgroups (see the
    module docstring).
    """
    basis = genetic_basis_abelian(G)
    target = TargetProduct(basis[basis.index > 1])
    torus = _torus(G, target) if per_orbit else None
    # Column c is its member's form F[c] onto Z/q[c]: F[c, i] is the class
    # of e_i, and h is in the kernel iff F[c].h = 0 mod q[c].  Both are
    # non-negative, so guard_int64 keeps refs @ F.T in [0, 2^63).
    q, F = target.columns.index, target.columns.form
    powers, inverse, top = _divisibility_table(G.prime)
    at_q = np.searchsorted(powers, q)
    inverse, top = inverse[at_q], top[at_q]

    def inside(refs: np.ndarray, c: slice) -> np.ndarray:
        return _divisible(refs @ F[c].T, inverse[c], top[c])

    if strategy == EXHAUSTIVE:
        refs = _first_of_each_signature(G, inside, len(q))
    else:
        refs = _references(G, strategy, basis, torus)
    chunks = [slice(lo, lo + COLUMN_CHUNK) for lo in range(0, len(q), COLUMN_CHUNK)]
    n_gens = len(G.orders)
    # Slot r * n_gens + i is (reference r, generator i): its entry in column
    # c is F[c, i] where refs[r] is in the kernel of column c.  The slot of
    # the first coordinate of refs[r] prime to p, which argmax finds, is
    # dropped (a reference with no such coordinate keeps every slot), and
    # the kept slots are renumbered in order.
    unit = refs % G.prime != 0
    skip = np.where(unit.any(axis=1), unit.argmax(axis=1), n_gens)
    kept = (np.arange(n_gens) != skip[:, None]).ravel()
    renumber = np.cumsum(kept) - 1
    parts = []
    for c in chunks:
        mask = inside(refs, c)
        ref, col = np.divmod(np.flatnonzero(mask), mask.shape[1])
        col += c.start
        at, gen = np.nonzero(F[col])
        slot = ref[at] * n_gens + gen
        keep = kept[slot]
        col, gen = col[at[keep]], gen[keep]
        parts.append((renumber[slot[keep]], col, F[col, gen]))
    row, col, val = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(row * len(q) + col)
    rows = Lattice(row[order], col[order], val[order], (int(kept.sum()), len(q)))
    if per_orbit:
        return RelationSet(target, rows, torus)
    return RelationSet(target, SparseRows(q, rows))


# Below this many (column, generator) pairs, about the lattice's rows, the
# split costs more than it saves: the measured crossover (README "Library").
SPLIT_MIN_PAIRS = 140


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _teichmuller_unit(p: int, eg: int) -> int:
    """w = g^(eg/p) mod eg for the least primitive root g mod p, a
    generator of the (p-1)-th roots of unity in Z/eg.  Raises ValueError
    unless w has order exactly p - 1 mod eg."""
    factors = _prime_factors(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors))
    w = pow(g, eg // p, eg)
    if pow(w, p - 1, eg) != 1 or any(pow(w, (p - 1) // r, eg) == 1 for r in factors):
        raise ValueError(f"{w} does not have order {p - 1} mod {eg}")
    return w


class _Torus(SimpleNamespace):
    """The torus T' = {diag(1, w^m_2, ..., w^m_k)} on the columns, built by
    ``_torus``; powers[j] is w^j mod eg.

    Column c is in the orbit of its lowest column reps[orbit[c]], which
    the element of exponents m[c] maps to c; zero[o] marks where the forms
    of orbit o vanish.  lead[c] is the first coordinate of column c's form
    prime to p, where the normalised form is 1.  So element s maps basis
    vector c to w^m_s[lead[c]] times vector s . c.
    """


def _torus(G: AbelianPGroup, target: TargetProduct) -> _Torus:
    """The action of T' on the columns of ``target``, in closed form.

    t = diag(u) maps the column of form F to the one of form F * u^-1
    scaled to lead 1.  On the coordinates N where F is nonzero, F_j is p^v
    times a unit of log d_j base w mod p (w = g mod p; d_l = 0 at the lead
    l, where F_l = 1, and d_j = 0 off N).  The principal column
    F_j w^-d_j, every unit part 1 mod p, labels the orbit, and
    m_j = d_0 - d_j on N, 0 off N, maps it to F.  As w has order p - 1
    mod every power of p, F is fixed by the elements with m_j = m_l on N:
    (p-1)^(k-|N|) of them, so its orbit has (p-1)^(|N|-1) columns.  Raises
    ValueError when a principal column or another column of an orbit is
    not in ``target``.
    """
    p, eg, k = G.prime, G.exponent, len(G.orders)
    w = _teichmuller_unit(p, eg)
    powers = np.array([pow(w, j, eg) for j in range(p - 1)], dtype=np.int64)
    q, F = target.columns.index, target.columns.form
    n = len(q)
    log = np.zeros(p, dtype=np.int64)
    log[powers % p] = np.arange(p - 1)
    # F // gcd(F, eg) is the unit part of F, and 0 where F is.
    d = log[F // np.gcd(F, eg) % p]
    codes = _key_code(G, q, F)
    by_code = np.argsort(codes)
    principal = _key_code(G, q, F * powers[-d % (p - 1)] % q[:, None])
    label = by_code[np.minimum(np.searchsorted(codes[by_code], principal), n - 1)]
    if (codes[label] != principal).any():
        raise ValueError(f"a principal column of {G} is outside the target")
    # Each orbit is relabelled by its lowest column.
    low = np.full(n, n)
    np.minimum.at(low, label, np.arange(n))
    is_rep = low[label] == np.arange(n)
    reps = np.flatnonzero(is_rep)
    orbit = (np.cumsum(is_rep) - 1)[low[label]]
    zero = F[reps] == 0
    if (np.bincount(orbit) != (p - 1) ** (k - 1 - zero.sum(axis=1))).any():
        raise ValueError(f"the torus maps a column of {G} outside the target")
    m = np.where(F != 0, d[:, :1] - d, 0)
    m = (m - m[reps[orbit]]) % (p - 1)
    return _Torus(p=p, q=q, powers=powers, m=m, reps=reps, orbit=orbit, zero=zero,
                  lead=(F % p != 0).argmax(axis=1))


def _characters(G: AbelianPGroup) -> tuple[np.ndarray, np.ndarray]:
    """The characters a of the diagonal torus T with sum(a) = 1 mod p - 1,
    as rows, and for each the size of its orbit under the permutations of
    equal-order factors when a is that orbit's member sorted within each
    run of equal orders, else 0 (see the module docstring)."""
    p, k = G.prime, len(G.orders)
    rest = np.indices((p - 1,) * (k - 1), dtype=np.int64).reshape(k - 1, (p - 1) ** (k - 1)).T
    chars = np.column_stack([(1 - rest.sum(axis=1)) % (p - 1), rest])
    # Sort each run of equal orders; the orbit of a is the characters with
    # its sorted form, read as a number in base p - 1.
    canon = chars.copy()
    lo = 0
    for _, run in groupby(G.orders):
        hi = lo + len(list(run))
        canon[:, lo:hi].sort(axis=1)
        lo = hi
    code = canon @ (p - 1) ** np.arange(k, dtype=np.int64)
    size = np.bincount(code)[code]
    mult = np.where((canon == chars).all(axis=1), size, 0)
    return chars, mult


def _components(torus: _Torus, chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """keep[a, o] when character a has a coordinate on orbit o, and
    coef[c, a] the coefficient of column c in it.  The stabiliser of a
    representative (``_torus``) has m_j = m_l on N and m_j free off N but
    m_0 = 0, so a(s) = w^m_l on all of it iff a_j = 0 mod p - 1 off N (at
    0, through sum(a) = 1).  Column c enters with a(s) w^-m_s[lead[c]] for s = m[c]; any other s
    mapping the representative to c differs by the stabiliser.
    """
    m = torus.m
    keep = chars @ torus.zero.T == 0
    coef = torus.powers[(m @ chars.T - m[np.arange(len(m)), torus.lead][:, None]) % (torus.p - 1)]
    return keep, coef


def _project(torus: _Torus, rows: Lattice, char_sets: list[np.ndarray]) -> list[SparseRows]:
    """One relation lattice per array of characters in ``char_sets``, of
    the components of its characters and block-diagonal with one block
    per character: rows projected by each character's idempotent onto
    the orbits its ``_components`` keep.  Each is SparseRows of the seed
    orders q_coords and every nonzero projection, in (character, row)
    order; exact repeats stay.
    """
    q = torus.q
    # The entries of a row in one orbit sum into one coordinate per
    # character: group them by (row, orbit of the column), once.
    n_orbits = len(torus.reps)
    group = rows.row * n_orbits + torus.orbit[rows.col]
    order = np.argsort(group, kind="stable")
    group = group[order]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    row, orb = np.divmod(group[starts], n_orbits)
    col, val = rows.col[order], rows.val[order, None]
    blocks = []
    for chars in char_sets:
        keep, coef = _components(torus, chars)
        coord = (np.cumsum(keep) - 1).reshape(keep.shape)
        q_coords = np.tile(q[torus.reps], len(chars))[keep.ravel()]
        sums = np.add.reduceat(val * coef[col] % q[col, None], starts)
        sums %= q[torus.reps[orb], None]
        # Row a * len(rows) + r projects row r onto character a; nonzero
        # walks the characters in turn, each in (row, orbit) order, so the
        # keys never decrease.  Zero projections are skipped and the rest
        # numbered in order.
        a, at = np.nonzero(keep[:, orb] & (sums != 0).T)
        first = np.diff(a * len(rows) + row[at], prepend=-1) != 0
        projected = Lattice(np.cumsum(first) - 1, coord[a, orb[at]], sums[at, a],
                            (int(first.sum()), len(q_coords)))
        blocks.append(SparseRows(q_coords, projected))
    return blocks


def _torus_blocks(G: AbelianPGroup, rel: RelationSet) -> list[tuple[int, SparseRows]]:
    """The rows of ``relation_matrix(..., per_orbit=True)`` split over the
    characters of the diagonal torus, as (multiplicity, block-diagonal
    lattice) pairs: one lattice per orbit size of the equal-order factor
    permutations, holding one character of each orbit of that size."""
    chars, mult = _characters(G)
    sizes = sorted(set(mult.tolist()) - {0})
    return list(zip(sizes, _project(rel.torus, rel.rows, [chars[mult == s] for s in sizes])))


def sk1(
    G: AbelianPGroup,
    strategy: str = REPRESENTATIVES,
    max_order: int = DEFAULT_MAX_ORDER,
) -> CyclicDecomposition:
    """Cyclic decomposition of the torsion part of the Whitehead group of G.

    The last SK1_CACHE_SIZE results are cached per (group, strategy); the
    computation is pure, so a repeated call is free.  The ``exhaustive``
    order guard, which only this entry point holds, is checked before the
    cache, so a hit never answers a call the guard refuses.  Every other
    refusal belongs to the basis, which ``_solve`` asks for first: a
    refused call raises there, and an exception is never cached.
    """
    if strategy == EXHAUSTIVE:
        guard_order(G, max_order, "exhaustive-strategy guard")
    return _solve(G, strategy)


@lru_cache(maxsize=SK1_CACHE_SIZE)
def _solve(G: AbelianPGroup, strategy: str) -> CyclicDecomposition:
    """The cokernel of G's relation lattice; ``sk1`` has checked the
    exhaustive guard.

    The basis comes first: its guards (int64 and the tuple count) refuse
    before any long step, and its columns, every member but the index-1
    one, place the gate.  Below SPLIT_MIN_PAIRS (column, generator) pairs
    the relation lattice is eliminated whole.  Above, the per-orbit rows
    are split over the torus, and each block's divisors count once per
    character of its orbit size.  ``genetic_basis_abelian``,
    ``relation_matrix`` and ``cokernel_decomposition`` are looked up as
    module globals, where the perfbench tracer wraps them.
    """
    if (len(genetic_basis_abelian(G)) - 1) * len(G.orders) < SPLIT_MIN_PAIRS:
        rel = relation_matrix(G, strategy=strategy)
        return cokernel_decomposition(rel.rows)
    rel = relation_matrix(G, strategy=strategy, per_orbit=True)
    divisors: list[int] = []
    for size, block in _torus_blocks(G, rel):
        divisors += cokernel_decomposition(block).divisors * size
    return CyclicDecomposition(divisors)
