"""Modular metacyclic groups of order p^n (p odd, n >= 3) and their SK1.

Elements are pairs (i, j) meaning a^i b^j with i mod p^(n-1) and j mod p,
multiplied so that b a b^-1 = a^(p^(n-2) + 1).  The cyclic-section
subgroup family is built from generators, and relation rows split into
a normal case and the single non-normal member.

Every normal member contains [G, G] = <a^(p^(n-2))>, so its column is a
linear form (alpha, beta) on G^ab = C_{p^(n-2)} x C_p: the class of
a^i b^j in the cyclic quotient G/S is alpha*i + beta*j.  The normal
members are the genetic basis of G^ab pulled back to G, and each form is
read off the generators of its member.  The non-normal member's column
follows closed determinant rules on a p-dimensional induced module.

The relation rows are computed in one numpy pass over arrays of (h, g)
pairs, g a generator of the centralizer of h.  The normal columns take
one membership product h @ F.T and one class product g @ F.T modulo the
column orders; the column of <b> takes its closed rules elementwise.
Only h in A = <a^p, b> = {a^i b^j : p | i} can give a nonzero row:
every other h generates its own centralizer, so its only pair is
(h, h), and its row is zero.  Inside A a row depends on h only through
the subgroup <h>, up to conjugacy, so one generator of each conjugacy
class of cyclic subgroups of A is visited, 3 + (n-3)p elements.  Each
pairs with the generators of its centralizer, but an h with b-exponent
y != 0 skips b: row(h, h) = 0, and the rows are linear in g on A, so
y*row(h, b) lies in the span of row(h, a^p) and the seeds.  That leaves
5 + (n-3)(p+1) pairs (see ``_row_pairs``).  The abelian family, where
conjugacy is equality, takes its reference elements by the same rule
and drops its rows by the same identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .abelian import DEFAULT_MAX_ORDER, _is_odd_prime, guard_order
from .errors import BadParams, DomainViolation, TooLarge
from .sk1_abelian import SK1_CACHE_SIZE
from .snf import CyclicDecomposition, Lattice, cokernel_decomposition, distinct_rows

MElement = tuple[int, int]


@dataclass(frozen=True)
class MetacyclicGroup:
    prime: int
    n: int

    @property
    def twist(self) -> int:
        return self.prime ** (self.n - 2) + 1

    @property
    def order(self) -> int:
        return self.prime**self.n

    @property
    def a_order(self) -> int:
        return self.prime ** (self.n - 1)

    @cached_property
    def _twist_powers(self) -> tuple[int, ...]:
        out = [1]
        for _ in range(self.prime - 1):
            out.append(out[-1] * self.twist % self.a_order)
        return tuple(out)

    def identity(self) -> MElement:
        return (0, 0)

    def gen_a(self) -> MElement:
        return (1, 0)

    def gen_b(self) -> MElement:
        return (0, 1)

    def __str__(self) -> str:
        return f"M_{self.n}({self.prime})"


def make_metacyclic(p: int, n: int) -> MetacyclicGroup:
    """Group with presentation a^(p^(n-1)) = b^p = 1, b a b^-1 = a^(p^(n-2)+1)."""
    if not _is_odd_prime(p) or int(n) != n or n < 3:
        raise BadParams(f"need an odd prime and an integer n >= 3, got p={p}, n={n}")
    return MetacyclicGroup(int(p), int(n))


@dataclass(frozen=True)
class MetaGeneticSubgroup:
    """Basis member given by its generators, with its cyclic section order.

    ``quotient_order`` is the order of N(S)/S, which is the full quotient
    G/S for the normal members.  For those, ``form`` = (alpha, beta) gives
    the class of a^i b^j in G/S as (alpha*i + beta*j) mod quotient_order,
    relative to the canonical generator: the least element (in (i, j)
    order) whose class has full order.  S is exactly the kernel of the
    form.  The non-normal member has no form.
    """

    label: str
    group: MetacyclicGroup
    gens: tuple[MElement, ...]
    quotient_order: int
    form: tuple[int, int] | None

    @property
    def normal(self) -> bool:
        return self.form is not None


def _power_label(exponent: int) -> str:
    return "a" if exponent == 1 else f"a^{exponent}"


def _class_form(p: int, q: int, alpha: int, beta: int) -> tuple[int, int]:
    """Scale (alpha, beta) mod q so the canonical generator maps to 1.

    The least element whose class has full order is b = (0, 1) when
    beta is a unit, and otherwise a = (1, 0), since every (0, j) then
    lands in a proper subgroup of Z/q.
    """
    u = pow(beta if beta % p else alpha, -1, q)
    return (alpha * u % q, beta * u % q)


@lru_cache(maxsize=SK1_CACHE_SIZE)
def genetic_basis_metacyclic(G: MetacyclicGroup) -> tuple[MetaGeneticSubgroup, ...]:
    """The (n-2)p + 3 member family, labelled by generators, in canonical order.

    The last SK1_CACHE_SIZE bases are cached per group; a basis is a
    tuple of frozen members, so callers share it.
    """
    p, n = G.prime, G.n
    a, b = G.gen_a(), G.gen_b()

    def normal(label, gens, q, alpha, beta):
        form = _class_form(p, q, alpha, beta)
        return MetaGeneticSubgroup(label, G, gens, q, form)

    out = [MetaGeneticSubgroup("G", G, (a, b), 1, (0, 0))]
    out.append(normal("<a>", (a,), p, 0, 1))
    for i in range(n - 2):
        q = p ** (i + 1)
        for j in range(1, p):
            k = j * p**i
            out.append(normal(f"<{_power_label(k)}*b>", ((k, 1),), q, 1, -k))
        out.append(normal(f"<{_power_label(q)},b>", ((q, 0), b), q, 1, 0))
    out.append(MetaGeneticSubgroup("<b>", G, (b,), p ** (n - 2), None))
    return tuple(out)


def _reduced(G: MetacyclicGroup, x: MElement) -> MElement:
    return (x[0] % G.a_order, x[1] % G.prime)


def _int_dtype(G: MetacyclicGroup):
    """int64 while every product of the entry routine, below
    2 * a_order**2, fits; unbounded Python integers beyond."""
    return np.int64 if 2 * G.a_order**2 < 2**63 else object


def _require_centralized(G: MetacyclicGroup, h: np.ndarray, g: np.ndarray) -> None:
    """Raise DomainViolation unless g[k] * h[k] == h[k] * g[k] for every k.

    The b-exponents of both products are equal, so only the a-exponents
    are compared.
    """
    tw = np.array(G._twist_powers, dtype=h.dtype)
    (hi, hj), (gi, gj) = h.T, g.T
    gh = (gi + hi * tw[gj.astype(np.intp, copy=False)]) % G.a_order
    hg = (hi + gi * tw[hj.astype(np.intp, copy=False)]) % G.a_order
    commute = gh == hg
    if not commute.all():
        k = int(np.argmin(commute))
        raise DomainViolation(
            f"{tuple(map(int, g[k]))} is not in the centralizer of {tuple(map(int, h[k]))}"
        )


def _nonnormal_entries(G: MetacyclicGroup, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries of the column of <b>, by the closed determinant rules."""
    p, n = G.prime, G.n
    section = p ** (n - 2)
    (hi, hj), (gi, gj) = h.T, g.T
    whole = (gi + gj * ((p - 1) * p ** (n - 3))) % section
    conjugate = np.where((hj != 0) & (hi % section == 0), gi // p % section, 0)
    return np.where((hi == 0) & (hj == 0), whole, conjugate)


def _entries(
    G: MetacyclicGroup, cols, h: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Relation entries of the pairs (h[k], g[k]), one column per member.

    h and g are (pairs, 2) integer arrays of reduced elements, each g[k]
    centralizing h[k] (checked).  The normal columns are one membership
    product and one class product over all pairs at once.
    """
    _require_centralized(G, h, g)
    if any(S.quotient_order == 1 for S in cols):
        raise ValueError("the full group carries no column")
    out = np.zeros((len(h), len(cols)), dtype=h.dtype)
    normal = [c for c, S in enumerate(cols) if S.normal]
    if normal:
        F = np.array([cols[c].form for c in normal], dtype=h.dtype)
        q = np.array([cols[c].quotient_order for c in normal], dtype=h.dtype)
        out[:, normal] = np.where(h @ F.T % q == 0, g @ F.T % q, 0)
    for c, S in enumerate(cols):
        if not S.normal:
            out[:, c] = _nonnormal_entries(G, h, g)
    return out


def relation_component(
    G: MetacyclicGroup, S: MetaGeneticSubgroup, h: MElement, g: MElement
) -> int:
    """Exponent contributed by the pair (h, g) in the column of S.

    For normal S the value is the class of g in G/S when h lies in S and
    0 otherwise.  For the non-normal member the value follows the closed
    determinant rules: h = 1 sees the determinant of g on the whole
    induced module, a generator of a conjugate of the member sees the
    class of g in the section, and every other h contributes 0.
    """
    dtype = _int_dtype(G)
    pair = [np.array([_reduced(G, x)], dtype=dtype) for x in (h, g)]
    return int(_entries(G, [S], *pair)[0, 0])


def _row_pairs(G: MetacyclicGroup) -> tuple[np.ndarray, np.ndarray]:
    """(h, g) arrays over one generator h of each conjugacy class of
    cyclic subgroups of A = <a^p, b> = C_{p^(n-2)} x C_p: 1, b,
    a^(p^(n-2)), then a^(p^(n-1-k)) b^y for k = 2..n-2 and y = 0..p-1,
    in that order, 3 + (n-3)p of them.

    Each h pairs with the generators of its centralizer, a and b for
    central h (b-exponent 0), a^p and b on the middle layer, except that
    an h with b-exponent != 0 skips b: 5 + (n-3)(p+1) pairs.
    """
    # Any h outside A (p does not divide i) generates its own centralizer,
    # so its only pair is g = h, and its row is zero.  In a normal column
    # the entry is the class alpha*i + beta*j of h when that class is 0 (h
    # in S) and 0 otherwise.  In the column of <b>, h is not the identity,
    # and i is not divisible by p^(n-2) >= p, so h generates no conjugate
    # of <b>.  A zero row leaves the row span, and so the cokernel, as it
    # is.
    #
    # Inside A a row depends on h only through <h>.  A is abelian, so for
    # u prime to p, h^u = a^(u*i) b^(u*j) generates the same subgroup: h
    # and h^u lie in the same normal members, and they have the same
    # centralizer, since u*j is 0 exactly when j is.  They also agree on
    # the two tests of the column of <b>: h = 1, and "b-exponent != 0 and
    # p^(n-2) divides the a-exponent".  A cyclic subgroup of order p^k >=
    # p^2 has a generator whose a-exponent has order p^k, a unit power
    # brings that exponent to p^(n-1-k), and that leaves p subgroups, one
    # per y.  No two of these are conjugate: conjugation keeps the
    # b-exponent and moves the a-exponent by a multiple of p^(n-2), so a
    # unit power that brings the a-exponent back is 1 mod p and keeps y.
    #
    # Order p has the p + 1 subgroups <a^(p^(n-2))>, which is central, <b>
    # and <a^(p^(n-2)) b^y> for y != 0.  Since a^t b a^-t = a^(-t*p^(n-2)) b
    # and a^(p^(n-2)) is central, the last p - 1 are the conjugates of <b>.
    # A conjugate of h lies in the same normal members (G/S is abelian) and
    # passes the same tests of the column of <b>, and here it also has the
    # same centralizer <a^p, b>, so it gives the rows of b.  The distinct
    # rows are those of the whole of A in another order.
    #
    # An h with b-exponent y != 0 drops its pair (h, b).  For h = b that row
    # is zero: b has class 0 in every normal member that contains it, and
    # the column of <b> reads 0 off the a-exponent of b.  Every other such
    # h is a^(m*p) b^y on the middle layer, with centralizer A, and its
    # column of <b> is 0 for every g, since its a-exponent p^(n-1-k), k >=
    # 2, is not divisible by p^(n-2).  A normal column is a form on A,
    # linear in g, that kills h when h lies in its member, so row(h, h) =
    # m*row(h, a^p) + y*row(h, b) = 0 modulo the seed rows.  y is a unit
    # mod p, so row(h, b) = -m/y * row(h, a^p) is already in the span.
    p, n = G.prime, G.n
    refs = [(0, 0), (0, 1), (p ** (n - 2), 0)]
    refs += [(p ** (n - 1 - k), y) for k in range(2, n - 1) for y in range(p)]
    h = np.repeat(np.array(refs, dtype=np.int64), 2, axis=0)
    g = np.zeros_like(h)
    g[0::2, 0] = np.where(h[0::2, 1] == 0, 1, p)
    g[1::2, 1] = 1
    keep = (h[:, 1] == 0) | (g[:, 1] == 0)
    return h[keep], g[keep]


def _relation_rows(G: MetacyclicGroup, cols) -> Lattice:
    """Seed rows, then every distinct row of the visited (h, g) pairs."""
    orders = [S.quotient_order for S in cols]
    return distinct_rows(orders, _entries(G, cols, *_row_pairs(G)))


def sk1_metacyclic(
    G: MetacyclicGroup, max_order: int = DEFAULT_MAX_ORDER
) -> CyclicDecomposition:
    """Cyclic decomposition of the torsion part of the Whitehead group of G.

    Rows come from one reference element h per conjugacy class of cyclic
    subgroups of <a^p, b>, 3 + (n-3)p of them, one row per generator of
    the centralizer of h ({a, b} for central h, {a^p, b} on the middle
    layer), but none for b when the b-exponent of h is nonzero, since
    row(h, h) = 0 puts that row in the span of the others.  Every other h
    gives a zero row or repeats the rows of the reference element whose
    subgroup is conjugate to <h>.

    The last SK1_CACHE_SIZE results are cached per basis, as ``sk1``
    caches its own.  The order guard and the int64 refusal are checked
    before the lookup, so a hit never answers a call they refuse.
    """
    guard_order(G, max_order, "order guard")
    if _int_dtype(G) is not np.int64:
        raise TooLarge(f"|G| = {G.order}: relation entries would overflow int64")
    return _solve(genetic_basis_metacyclic(G))


@lru_cache(maxsize=SK1_CACHE_SIZE)
def _solve(basis: tuple[MetaGeneticSubgroup, ...]) -> CyclicDecomposition:
    """The cokernel of the relation lattice on ``basis``; ``sk1_metacyclic``
    has checked the guards.  The basis is the key, rather than G, so that
    every call still asks ``genetic_basis_metacyclic`` for it, through the
    module global that the perfbench tracer wraps."""
    G = basis[0].group
    cols = [S for S in basis if S.quotient_order > 1]
    return cokernel_decomposition(_relation_rows(G, cols))
