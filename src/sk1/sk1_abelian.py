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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .abelian import DEFAULT_MAX_ORDER, AbelianPGroup, enumerate_elements, guard_order
from .genetic import GeneticSubgroupA, genetic_basis_abelian
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
    """Relation rows over a target product: seeds first, duplicates removed."""

    target: TargetProduct
    rows: Lattice


def target_product(G: AbelianPGroup, basis=None) -> TargetProduct:
    if basis is None:
        basis = genetic_basis_abelian(G)
    return TargetProduct(tuple(S for S in basis if S.index > 1))


def _check_strategy(G: AbelianPGroup, strategy: str, max_order: int) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == EXHAUSTIVE:
        guard_order(G, max_order, "exhaustive-strategy guard")


def relation_matrix(
    G: AbelianPGroup,
    strategy: str = REPRESENTATIVES,
    max_order: int = DEFAULT_MAX_ORDER,
) -> RelationSet:
    """Seed rows plus one relation row per (reference element h, generator
    e_i) pair, except the pair of the first coordinate of h prime to p.

    That row is -h_j^-1 * sum_{i != j} h_i * row(h, e_i) modulo the seed
    rows (see the module docstring), so skipping it leaves the row span,
    and every cokernel, as it is.  An h with every coordinate divisible
    by p, the identity among them, keeps all its rows.

    ``representatives`` uses one reference element per basis member, the
    element whose coordinates equal the member's defining tuple (the
    identity for the zero tuple).  ``exhaustive`` runs every group
    element through, guarded by ``max_order``.
    """
    _check_strategy(G, strategy, max_order)
    basis = genetic_basis_abelian(G)
    target = target_product(G, basis)
    if strategy == EXHAUSTIVE:
        refs = np.array(enumerate_elements(G), dtype=np.int64)
    else:
        refs = np.array([S.coeffs for S in basis], dtype=np.int64)
    # Column c is its member's form F[c] onto Z/q[c]: F[c, i] is the class
    # of e_i, and h is in the kernel iff F[c].h = 0 mod q[c].
    q = np.array(target.orders, dtype=np.int64)
    F = np.array([S.form for S in target.columns], dtype=np.int64)
    n_gens = len(G.orders)
    # Slot r * n_gens + i is (reference r, generator i): its entry in column
    # c is F[c, i] where refs[r] is in the kernel of column c.  The slot of
    # the first coordinate of refs[r] prime to p, which argmax finds, is
    # dropped (a reference with no such coordinate keeps every slot), and
    # the kept slots are renumbered in order.
    unit = refs % G.prime != 0
    kept = np.ones((len(refs), n_gens), dtype=bool)
    kept[np.arange(len(refs)), unit.argmax(axis=1)] = ~unit.any(axis=1)
    kept = kept.ravel()
    renumber = np.cumsum(kept) - 1
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
    return RelationSet(target, distinct_rows(q, candidates))


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
    # ``sk1`` has checked the guard already.
    rel = relation_matrix(G, strategy=strategy, max_order=G.order)
    return cokernel_decomposition(rel.rows)
