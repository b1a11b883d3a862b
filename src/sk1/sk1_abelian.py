"""SK1 of the integral group ring of a finite abelian p-group, p odd.

The target is the product of the nontrivial cyclic quotients attached to
the genetic basis, one column per subgroup, and each column is its
member's linear form onto that quotient.  Relation rows come in two
flavours: diagonal seeds recording the column orders, and rows
recording, for a reference element h, the classes of the distinguished
generators (the entries of the forms) in every quotient whose subgroup
contains h.  The cokernel of the combined rows is the computed
decomposition.

The row of h is a homomorphism g -> row(h, g) into the target that
kills h, since h has class 0 in every quotient whose subgroup contains
it.  So sum_i h_i * row(h, e_i) = 0 modulo the seed rows, and when some
coordinate h_j is prime to p, row(h, e_j) is already in the span of the
others: every reference element with such a coordinate skips the
generator of the first one.

The cokernel is split before its Smith form.  The diagonal torus T of
Teichmuller units, diag(u_1, ..., u_k) with u_i^(p-1) = 1, acts on G and
so on the columns: t maps the kernel of the form F to the kernel of
F * u^-1, and its form to a unit multiple of F * u^-1.  The lattice is
stable under every automorphism, since the reference elements generate
every cyclic subgroup of G, and |T| is prime to p, so the cokernel is
the direct sum of its components over the characters of T (Serre,
Linear Representations of Finite Groups, GTM 42, for the idempotents).
Scalars act on every column by their own value, so only characters
a with sum(a) = 1 mod p - 1 occur, and they are read off the subtorus
T' = {diag(1, u_2, ..., u_k)}.  A component has one coordinate per
T'-orbit of columns on whose representative the stabiliser acts by the
character; a row enters it through its entries, each weighted by the
character, and the rows of one T'-orbit give one projected row up to a
root of unity.  The rows of h depend only on <h>, and t<c(S)> =
<c(t^-1 S)> for the reference c(S) of column S (its coefficient tuple):
c(t^-1 S) and t c(S) define homomorphisms with one kernel, so they differ
by a unit.  So the split needs the rows of the identity and of one
column's reference per T'-orbit only.  A permutation of equal-order
factors maps the a-component isomorphically onto the component of the
permuted a, so one character per orbit of such permutations is solved
and its divisors are repeated by the orbit's size.  For C_{p^n} x C_{p^n}
no character is fixed by the swap (2a = 1 has no solution mod the even
p - 1), so half the components are eliminated, each about half the size
of the lattice when p = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from types import SimpleNamespace

import numpy as np

from .abelian import (
    DEFAULT_MAX_ORDER,
    AbelianPGroup,
    _p_power_exponent,
    enumerate_elements,
    guard_order,
)
from .genetic import GeneticSubgroupA, _unit_inverse, cyclic_quotients, genetic_basis_abelian
from .snf import CyclicDecomposition, Lattice, cokernel_decomposition, distinct_rows

REPRESENTATIVES = "representatives"
EXHAUSTIVE = "exhaustive"
STRATEGIES = (REPRESENTATIVES, EXHAUSTIVE)

# Columns per membership pass of ``relation_matrix``: its transient arrays
# are (reference elements) x COLUMN_CHUNK.
COLUMN_CHUNK = 256


@dataclass(frozen=True)
class TargetProduct:
    """Columns of the relation lattice: one cyclic quotient per basis
    member with nontrivial quotient."""

    columns: tuple[GeneticSubgroupA, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(S.index for S in self.columns)


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Relation rows over a target product: the relation lattice, or with
    ``torus`` the per-orbit rows that it projects (``relation_matrix``)."""

    target: TargetProduct
    rows: Lattice
    torus: _Torus | None = None


def target_product(G: AbelianPGroup, basis=None) -> TargetProduct:
    if basis is None:
        basis = genetic_basis_abelian(G)
    return TargetProduct(tuple(S for S in basis if S.index > 1))


def _check_strategy(G: AbelianPGroup, strategy: str, max_order: int) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == EXHAUSTIVE:
        guard_order(G, max_order, "exhaustive-strategy guard")


def _references(G: AbelianPGroup, strategy: str, basis, torus=None) -> np.ndarray:
    """Every element under ``exhaustive``; else the coefficient tuples of
    the basis members or, given ``torus``, of the identity basis[0] and of
    the column-orbit representatives (the columns are basis[1:])."""
    if strategy == EXHAUSTIVE:
        return np.array(enumerate_elements(G), dtype=np.int64)
    if torus is not None:
        basis = [basis[0], *(basis[1 + r] for r in torus.reps)]
    return np.array([S.coeffs for S in basis], dtype=np.int64)


def relation_matrix(
    G: AbelianPGroup,
    strategy: str = REPRESENTATIVES,
    max_order: int = DEFAULT_MAX_ORDER,
    *,
    per_orbit: bool = False,
) -> RelationSet:
    """One relation row per (reference element h, generator e_i) pair,
    except the pair of the first coordinate of h prime to p.

    Skipping it leaves the row span as it is (see the module docstring).
    An h with every coordinate divisible by p, the identity among them,
    keeps all its rows.

    ``representatives`` uses one reference element per basis member, the
    element whose coordinates equal the member's defining tuple (the
    identity for the zero tuple).  ``exhaustive`` runs every group
    element through, guarded by ``max_order``.

    The default form is the relation lattice: seeds first, duplicates
    removed.  ``per_orbit`` gives the input of ``_torus_blocks``: the
    torus, and the rows without seeds in reversed (reference, generator)
    order, which the blocks' Smith form favours (README "Library");
    ``representatives`` then keeps the identity and one reference per
    T'-orbit of cyclic subgroups (see the module docstring).
    """
    _check_strategy(G, strategy, max_order)
    basis = genetic_basis_abelian(G)
    target = target_product(G, basis)
    torus = _torus(G, target) if per_orbit else None
    refs = _references(G, strategy, basis, torus)
    # Column c is its member's form F[c] onto Z/q[c]: F[c, i] is the class
    # of e_i, and h is in the kernel iff F[c].h = 0 mod q[c].
    q = np.array(target.orders, dtype=np.int64)
    F = np.array([S.form for S in target.columns], dtype=np.int64)
    n_gens = len(G.orders)
    # Slot r * n_gens + i is (reference r, generator i): its entry in column
    # c is F[c, i] where refs[r] is in the kernel of column c.  The slot of
    # the first coordinate of refs[r] prime to p, which argmax finds, is
    # dropped (a reference with no such coordinate keeps every slot), and
    # the kept slots are renumbered in order, or in reverse for the split.
    unit = refs % G.prime != 0
    kept = np.ones((len(refs), n_gens), dtype=bool)
    kept[np.arange(len(refs)), unit.argmax(axis=1)] = ~unit.any(axis=1)
    kept = kept.ravel()
    renumber = np.cumsum(kept) - 1
    if per_orbit:
        renumber = renumber[-1] - renumber
    parts = []
    for lo in range(0, len(q), COLUMN_CHUNK):
        hi = lo + COLUMN_CHUNK
        ref, col = np.nonzero(refs @ F[lo:hi].T % q[lo:hi] == 0)
        col += lo
        at, gen = np.nonzero(F[col])
        slot = ref[at] * n_gens + gen
        keep = kept[slot]
        col, gen = col[at[keep]], gen[keep]
        parts.append((renumber[slot[keep]], col, F[col, gen]))
    row, col, val = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(row * len(q) + col)
    candidates = Lattice(row[order], col[order], val[order], (int(kept.sum()), len(q)))
    if per_orbit:
        return RelationSet(target, candidates, torus)
    return RelationSet(target, distinct_rows(q, candidates))


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
    generator of the (p-1)-th roots of unity in Z/eg.

    Raises ValueError unless w has order exactly p - 1 mod eg.
    """
    factors = _prime_factors(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors))
    w = pow(g, eg // p, eg)
    if pow(w, p - 1, eg) != 1 or any(pow(w, (p - 1) // r, eg) == 1 for r in factors):
        raise ValueError(f"{w} does not have order {p - 1} mod {eg}")
    return w


class _Torus(SimpleNamespace):
    """The torus T' = {diag(1, w^m_2, ..., w^m_k)} acting on the columns,
    built by ``_torus``; powers[j] is w^j mod eg.

    Element s has exponents m[s] (m[s, 0] = 0).  Column c lies in the
    orbit of its lowest column, reps[orbit[c]], and elem[c] is an element
    s with s . reps[orbit[c]] = c.  The pairs (fix_s[i], reps[fix_r[i]]), sorted
    by fix_r, are the elements that fix each representative.

    lead[c] is the first coordinate of column c's form prime to p, and
    scale[c] the inverse of that coordinate's value.  In the frame that
    scales column c by scale[c], element s maps basis vector c to
    w^m[s, lead[c]] times basis vector s . c.
    """


def _torus(G: AbelianPGroup, target: TargetProduct) -> _Torus:
    """The action of T' on the columns of ``target``.

    t = diag(u) maps column S to the column keyed by the form
    F[S] * u^-1 scaled to lead 1, the key the basis uses.  Raises
    ValueError when that key is not a column.
    """
    p, eg, k = G.prime, G.exponent, len(G.orders)
    w = _teichmuller_unit(p, eg)
    q = np.array(target.orders, dtype=np.int64)
    n = len(q)
    F = np.array([S.form for S in target.columns], dtype=np.int64).reshape(n, k)
    lead = (F % p != 0).argmax(axis=1)
    scale = _unit_inverse(F[np.arange(n), lead], p, eg) % q
    key = F * scale[:, None] % q[:, None]
    # A key as one integer: its index exponent, then coordinate i as a
    # digit below min(q, o_i) (o_i e_i = 0 makes it a multiple of
    # q / min(q, o_i)).  The codes stay below (e + 1)|G| = (e + 1) o_2 ...
    # o_k eg, which the basis guards (at most 10^7 tuples, eg^2 < 2^63)
    # keep below 2^55.
    o = np.array(G.orders, dtype=np.int64)
    step = q[:, None] // np.minimum(q[:, None], o)
    exps = np.searchsorted(p ** np.arange(_p_power_exponent(eg, p) + 1, dtype=np.int64), q)
    radix = np.cumprod(o[::-1])[::-1] // o  # place value of digit i

    def code(key):
        return exps * G.order + (key // step) @ radix

    codes = code(key)
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    P = np.arange(n)[None]
    m = np.zeros((1, k), dtype=np.int64)
    for j in range(1, k):
        # t_j = diag(1, .., w, .., 1) scales coordinate j by w^-1; a key led
        # at j is then rescaled by w to lead 1 again.
        image = key.copy()
        image[:, j] = image[:, j] * pow(w, -1, eg) % q
        at = lead == j
        image[at] = image[at] * w % q[at, None]
        image = code(image)
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
    return _Torus(
        p=p, q=q, powers=np.array([pow(w, j, eg) for j in range(p - 1)], dtype=np.int64),
        m=m, reps=reps, orbit=orbit[rep], elem=elem, lead=lead, scale=scale,
        fix_s=fix_s, fix_r=fix_r,
    )


def _characters(G: AbelianPGroup) -> tuple[np.ndarray, np.ndarray]:
    """The characters a of the diagonal torus T with sum(a) = 1 mod p - 1,
    as rows, and for each the size of its orbit under the permutations of
    equal-order factors when a is that orbit's member sorted within each
    run of equal orders, else 0.

    Scalars act on every column by their own value, so only these
    characters have nonzero components, and each is fixed by its values
    on T'.  A permutation maps the a-component isomorphically onto the
    component of the permuted a.
    """
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


def _project(torus: _Torus, rows: Lattice, chars: np.ndarray) -> Lattice:
    """The relation lattice of the components of ``chars``, block-diagonal
    with one block per character: rows projected by each character's
    idempotent, then normalised and deduplicated by ``distinct_rows``.

    Character a has one coordinate per orbit whose stabiliser acts on its
    representative by a, and column c = s . rep[c] enters it with
    coefficient a(s) w^-m[s, lead] times the frame scale of c.
    """
    p, q = torus.p, torus.q
    # An orbit is in the component unless a stabiliser element acts on
    # its representative by another value than a.
    lead = torus.lead[torus.reps][torus.fix_r]
    off = (torus.m[torus.fix_s] @ chars.T - torus.m[torus.fix_s, lead][:, None]) % (p - 1) != 0
    valid = ~np.logical_or.reduceat(off, np.flatnonzero(np.diff(torus.fix_r, prepend=-1))).T
    coord = (np.cumsum(valid) - 1).reshape(valid.shape)
    n_coords = int(valid.sum())
    q_coords = np.tile(q[torus.reps], len(chars))[valid.ravel()]
    s = torus.elem
    kappa = (torus.m[s] @ chars.T - torus.m[s, torus.lead][:, None]) % (p - 1)
    coef = torus.powers[kappa] * torus.scale[:, None] % q[:, None]
    # The entries of a row in one orbit sum into one coordinate per
    # character: group them by (row, orbit of the column).
    n_orbits = len(torus.reps)
    group = rows.row * n_orbits + torus.orbit[rows.col]
    order = np.argsort(group, kind="stable")
    group = group[order]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    row, orb = np.divmod(group[starts], n_orbits)
    col = rows.col[order]
    sums = np.add.reduceat(rows.val[order, None] * coef[col] % q[col, None], starts)
    sums %= q[torus.reps[orb], None]
    # Row a * len(rows) + r projects row r onto character a; nonzero walks
    # the characters in turn, each in (row, orbit) order.
    a, at = np.nonzero(valid[:, orb] & (sums != 0).T)
    val = sums[at, a]
    prow = a * len(rows) + row[at]
    pcol = coord[a, orb[at]]
    # Scale each row by the inverse Teichmuller lift of its first entry's
    # unit part: rows that differ by a root of unity then coincide.
    first = np.flatnonzero(np.diff(prow, prepend=-1))
    unit = val[first]
    while (div := unit % p == 0).any():
        unit = np.where(div, unit // p, unit)
    lift_inv = np.zeros(p, dtype=np.int64)
    lift_inv[torus.powers % p] = torus.powers[-np.arange(p - 1)]
    counts = np.diff(first, append=len(prow))
    val = val * np.repeat(lift_inv[unit % p], counts) % q_coords[pcol]
    prow = np.repeat(np.arange(len(first)), counts)
    return distinct_rows(q_coords, Lattice(prow, pcol, val, (len(first), n_coords)))


def _torus_blocks(G: AbelianPGroup, rel: RelationSet) -> list[tuple[int, Lattice]]:
    """The rows of ``relation_matrix(..., per_orbit=True)`` split over the
    characters of the diagonal torus, as (multiplicity, block-diagonal
    lattice) pairs: one lattice per orbit size of the equal-order factor
    permutations, holding one character of each orbit of that size."""
    chars, mult = _characters(G)
    return [
        (int(size), _project(rel.torus, rel.rows, chars[mult == size]))
        for size in sorted(set(mult.tolist()) - {0})
    ]


# The most recent results of sk1, keyed by (group, strategy).
SK1_CACHE_SIZE = 128


def sk1(
    G: AbelianPGroup,
    strategy: str = REPRESENTATIVES,
    max_order: int = DEFAULT_MAX_ORDER,
) -> CyclicDecomposition:
    """Cyclic decomposition of the torsion part of the Whitehead group of G.

    The last SK1_CACHE_SIZE results are cached per (group, strategy); the
    computation is pure, so a repeated call is free.  The strategy and
    its guard are checked before the cache, so a hit never answers a call
    the guard refuses.
    """
    _check_strategy(G, strategy, max_order)
    return _solve(G, strategy)


@lru_cache(maxsize=SK1_CACHE_SIZE)
def _solve(G: AbelianPGroup, strategy: str) -> CyclicDecomposition:
    """The cokernel of G's relation lattice; ``sk1`` has checked the guard.

    Below SPLIT_MIN_PAIRS (column, generator) pairs, the columns counted
    by ``cyclic_quotients`` before the basis, the relation lattice is
    eliminated whole.  Above, the per-orbit rows are split over the torus
    (see the module docstring), and each block's divisors count once per
    character of its orbit size.  ``relation_matrix`` and
    ``cokernel_decomposition`` are looked up as module globals, where the
    perfbench tracer wraps them.
    """
    exponents = [_p_power_exponent(o, G.prime) for o in G.orders]
    if cyclic_quotients(G.prime, exponents) * len(G.orders) < SPLIT_MIN_PAIRS:
        rel = relation_matrix(G, strategy=strategy, max_order=G.order)
        return cokernel_decomposition(rel.rows)
    rel = relation_matrix(G, strategy=strategy, max_order=G.order, per_orbit=True)
    divisors: list[int] = []
    for size, block in _torus_blocks(G, rel):
        divisors += cokernel_decomposition(block).divisors * size
    return CyclicDecomposition(divisors)
