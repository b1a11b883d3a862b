"""Modular metacyclic groups of order p^n (p odd, n >= 3) and their SK1.

Elements are pairs (i, j) meaning a^i b^j with i mod p^(n-1) and j mod p,
multiplied so that b a b^-1 = a^(p^(n-2) + 1).  The cyclic-section
subgroup family is built explicitly, and relation rows split into a
normal case and the single non-normal member.

Every normal member contains [G, G] = <a^(p^(n-2))>, so its column is a
linear form (alpha, beta) on G^ab = C_{p^(n-2)} x C_p: the class of
a^i b^j in the cyclic quotient G/S is alpha*i + beta*j.  The normal
members are the genetic basis of G^ab pulled back to G, and each form is
read off the generators of its member.  The non-normal member's column
follows closed determinant rules on a p-dimensional induced module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .abelian import _is_odd_prime
from .errors import BadParams, DomainViolation, TooLarge
from .snf import CyclicDecomposition, cokernel_decomposition

DEFAULT_MAX_ORDER = 3**6

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
    if not _is_odd_prime(p) or n < 3:
        raise BadParams(f"need an odd prime and n >= 3, got p={p}, n={n}")
    return MetacyclicGroup(p, n)


def mul(G: MetacyclicGroup, x: MElement, y: MElement) -> MElement:
    i1, j1 = x
    i2, j2 = y
    return (
        (i1 + i2 * G._twist_powers[j1 % G.prime]) % G.a_order,
        (j1 + j2) % G.prime,
    )


def inverse(G: MetacyclicGroup, x: MElement) -> MElement:
    i, j = x
    jn = (-j) % G.prime
    return ((-i * G._twist_powers[jn]) % G.a_order, jn)


def power(G: MetacyclicGroup, x: MElement, t: int) -> MElement:
    result = G.identity()
    base = x if t >= 0 else inverse(G, x)
    t = abs(t)
    while t:
        if t & 1:
            result = mul(G, result, base)
        base = mul(G, base, base)
        t >>= 1
    return result


def element_order(G: MetacyclicGroup, x: MElement) -> int:
    t, y = 1, x
    while y != G.identity():
        y = mul(G, y, x)
        t += 1
    return t


def elements(G: MetacyclicGroup) -> list[MElement]:
    """All p^n elements in lexicographic (i, j) order."""
    return [(i, j) for i in range(G.a_order) for j in range(G.prime)]


def centralizer(G: MetacyclicGroup, h: MElement) -> frozenset[MElement]:
    """Brute-force set of elements commuting with h."""
    return frozenset(g for g in elements(G) if mul(G, g, h) == mul(G, h, g))


def _closure(G: MetacyclicGroup, gens) -> frozenset[MElement]:
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


@dataclass(frozen=True)
class MetaGeneticSubgroup:
    """Basis member with explicit member set and its cyclic section order.

    ``quotient_order`` is the order of N(S)/S, which is the full quotient
    G/S for the normal members.  For those, ``form`` = (alpha, beta) gives
    the class of a^i b^j in G/S as (alpha*i + beta*j) mod quotient_order,
    relative to the canonical generator: the least element (in (i, j)
    order) whose class has full order.  S is exactly the kernel of the
    form.  The non-normal member has no form.
    """

    label: str
    members: frozenset[MElement]
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


@lru_cache(maxsize=None)
def genetic_basis_metacyclic(G: MetacyclicGroup) -> tuple[MetaGeneticSubgroup, ...]:
    """The (n-2)p + 3 member family, labelled by generators, in canonical order."""
    p, n = G.prime, G.n
    a, b = G.gen_a(), G.gen_b()

    def normal(label, gens, q, alpha, beta):
        form = _class_form(p, q, alpha, beta)
        return MetaGeneticSubgroup(label, _closure(G, gens), q, form)

    out = [MetaGeneticSubgroup("G", frozenset(elements(G)), 1, (0, 0))]
    out.append(normal("<a>", [a], p, 0, 1))
    for i in range(n - 2):
        q = p ** (i + 1)
        for j in range(1, p):
            k = j * p**i
            out.append(normal(f"<{_power_label(k)}*b>", [(k, 1)], q, 1, -k))
        out.append(normal(f"<{_power_label(q)},b>", [(q, 0), b], q, 1, 0))
    out.append(MetaGeneticSubgroup("<b>", _closure(G, [b]), p ** (n - 2), None))
    return tuple(out)


def _reduced(G: MetacyclicGroup, x: MElement) -> MElement:
    return (x[0] % G.a_order, x[1] % G.prime)


def _require_centralized(G: MetacyclicGroup, h: MElement, g: MElement) -> None:
    p = G.prime
    hi, hj = h
    if hi % p == 0 and hj == 0:
        return  # h is central
    if hi % p == 0:
        if g[0] % p == 0:
            return  # centralizer is the abelian subgroup <a^p, b>
    else:
        y = G.identity()  # centralizer is <h>
        for _ in range(G.a_order):
            if y == g:
                return
            y = mul(G, y, h)
    raise DomainViolation(f"{g} is not in the centralizer of {h}")


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
    h = _reduced(G, h)
    g = _reduced(G, g)
    _require_centralized(G, h, g)
    if S.quotient_order == 1:
        raise ValueError("the full group carries no column")
    return _component(G, S, h, g)


def _component(
    G: MetacyclicGroup, S: MetaGeneticSubgroup, h: MElement, g: MElement
) -> int:
    """``relation_component`` for reduced h and g with g in C(h), S not G."""
    p, n = G.prime, G.n
    gi, gj = g
    hi, hj = h
    if S.normal:
        alpha, beta = S.form
        q = S.quotient_order
        if (alpha * hi + beta * hj) % q:
            return 0  # h lies outside S, the kernel of the form
        return (alpha * gi + beta * gj) % q
    section = p ** (n - 2)
    if h == G.identity():
        return (gi + gj * (p - 1) * p ** (n - 3)) % section
    if hj != 0 and hi % section == 0:
        return (gi // p) % section
    return 0


def sk1_metacyclic(
    G: MetacyclicGroup, max_order: int = DEFAULT_MAX_ORDER
) -> CyclicDecomposition:
    """Cyclic decomposition of the torsion part of the Whitehead group of G.

    Reference elements run over the whole group; each contributes one row
    per generator of its centralizer ({a, b} for central h, {a^p, b} on
    the middle layer, {h} otherwise).
    """
    if G.order > max_order:
        raise TooLarge(f"|G| = {G.order} exceeds the guard {max_order}")
    basis = genetic_basis_metacyclic(G)
    cols = [S for S in basis if S.quotient_order > 1]
    p = G.prime
    a, b, ap = G.gen_a(), G.gen_b(), (p, 0)
    rows: list[tuple[int, ...]] = []
    for idx, S in enumerate(cols):
        seed = [0] * len(cols)
        seed[idx] = S.quotient_order
        rows.append(tuple(seed))
    seen = set(rows)
    for h in elements(G):
        hi, hj = h
        if hi % p == 0 and hj == 0:
            gens = (a, b)
        elif hi % p == 0:
            gens = (ap, b)
        else:
            gens = (h,)
        for g in gens:
            _require_centralized(G, h, g)
            row = tuple(_component(G, S, h, g) for S in cols)
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return cokernel_decomposition([list(r) for r in rows])
