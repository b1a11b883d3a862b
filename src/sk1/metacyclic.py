"""Modular metacyclic groups of order p^n (p odd, n >= 3) and their SK1.

Elements are pairs (i, j) meaning a^i b^j with i mod p^(n-1) and j mod p,
multiplied so that b a b^-1 = a^(p^(n-2) + 1).  The cyclic-section
subgroup family is listed in closed form, and relation rows split into
a normal case and the single non-normal member.

Every normal member contains [G, G] = <a^(p^(n-2))>, so its column is a
linear form (alpha, beta) on G^ab = C_{p^(n-2)} x C_p: the class of
a^i b^j in the cyclic quotient G/S is alpha*i + beta*j.  The normal
members are the genetic basis of G^ab pulled back to G.  The basis is
built in closed form as two tuples, the quotient order and the form of
each member (``MetaGeneticBasis``), as the abelian basis keeps its
arrays; a labelled member with its generators is built only when one is
read.  The non-normal member's column follows closed determinant rules
on a p-dimensional induced module.

The relation rows are pairs (h, g), g a generator of the centralizer of
h.  Only h in A = <a^p, b> = {a^i b^j : p | i} can give a nonzero row:
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

The members are explicit, so the normal columns that contain each
reference element are listed in closed form (``_member_columns``), and
one Python pass keeps the nonzero classes of g on those columns and the
closed rules of the column of <b>, one dict {column: entry} per pair:
the work follows the nonzero entries, not pairs times columns.  The
seed orders and these dicts go to the Smith form as they are
(``snf.SparseRows``), with no array on the way.  ``relation_component``
evaluates the same rules on any one pair, on Python integers.

The rows are Python integers, so past the order guard the one numeric
limit is the Smith form's own: its modulus q = p^(n-2) needs q**2 <
2**63 (``snf.guard_modulus``), checked before the rows are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import DEFAULT_MAX_ORDER, SK1_CACHE_SIZE, _check_params, guard_order
from .errors import DomainViolation
from .snf import CyclicDecomposition, SparseRows, cokernel_decomposition, guard_modulus

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
    def log_order(self) -> int:
        return self.n

    @property
    def a_order(self) -> int:
        return self.prime ** (self.n - 1)

    def identity(self) -> MElement:
        return (0, 0)

    def gen_a(self) -> MElement:
        return (1, 0)

    def gen_b(self) -> MElement:
        return (0, 1)

    def __str__(self) -> str:
        return f"M_{self.n}({self.prime})"


def make_metacyclic(p: int, n: int) -> MetacyclicGroup:
    """Group with presentation a^(p^(n-1)) = b^p = 1, b a b^-1 = a^(p^(n-2)+1).

    The last SK1_CACHE_SIZE groups are kept per (p, n) as ints, under the
    lookup rule of ``make_group``: an int p and n go straight to the
    lookup, and any other argument is checked on every call (BadParams)."""
    if type(p) is not int or type(n) is not int:
        p, n = _check_params(p, n, 3)
    return _interned_metacyclic(p, n)


def _build_metacyclic(p, n) -> MetacyclicGroup:
    return MetacyclicGroup(*_check_params(p, n, 3))


_interned_metacyclic = lru_cache(maxsize=SK1_CACHE_SIZE)(_build_metacyclic)


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


@dataclass(frozen=True, eq=False)
class MetaGeneticBasis:
    """The (n-2)p + 3 member family of G in canonical order, as two tuples:
    G, <a>, then layer i = 0..n-3 (q = p^(i+1)) with <a^(j*p^i)*b> for j =
    1..p-1 and <a^q,b>, then <b>.

    ``index`` holds each member's ``quotient_order`` and ``form`` each
    member's form, None for <b>.  An integer index or iteration builds a
    labelled ``MetaGeneticSubgroup``, a slice a tuple of them; the
    relation rows read the tuples only.  The basis is a function of G,
    so equality and hash go by the group.
    """

    group: MetacyclicGroup
    index: tuple[int, ...]
    form: tuple[tuple[int, int] | None, ...]

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(len(self))[i])
        k = range(len(self))[i]
        G, q = self.group, self.index[k]
        a, b = G.gen_a(), G.gen_b()
        if k == 0:
            label, gens = "G", (a, b)
        elif k == 1:
            label, gens = "<a>", (a,)
        elif k == len(self) - 1:
            label, gens = "<b>", (b,)
        elif k % G.prime == 1:
            label, gens = f"<{_power_label(q)},b>", ((q, 0), b)
        else:
            # Layer member <a^(j*p^i)*b>, j = k - 1 - i*p and q = p^(i+1).
            x = (k - 1) % G.prime * (q // G.prime)
            label, gens = f"<{_power_label(x)}*b>", ((x, 1),)
        return MetaGeneticSubgroup(label, G, gens, q, self.form[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, MetaGeneticBasis):
            return NotImplemented
        return self.group == other.group

    def __hash__(self) -> int:
        return hash(self.group)


@lru_cache(maxsize=SK1_CACHE_SIZE)
def genetic_basis_metacyclic(G: MetacyclicGroup) -> MetaGeneticBasis:
    """The (n-2)p + 3 member family in canonical order, in closed form.

    Each normal form is scaled so that the least element whose class has
    full order maps to 1: that is b when beta is a unit mod p, and a
    otherwise.  So <a> has (0, 1); on layer 0, <a^j*b>, the kernel of i -
    j*y mod p, has ((-j)^-1 mod p, 1), the inverses by a recurrence in
    one pass; on layer i >= 1, <a^(j*p^i)*b> has
    (1, -j*p^i mod p^(i+1)); every <a^q,b> has (1, 0).  The last
    SK1_CACHE_SIZE bases are cached per group.
    """
    p, n = G.prime, G.n
    index = [1, p]
    form: list[tuple[int, int] | None] = [(0, 0), (0, 1)]
    for i in range(n - 2):
        pi = p**i
        index += [pi * p] * p
        if i == 0:
            # (-j)^-1 = p - j^-1, with j^-1 = -(p // j) * (p mod j)^-1 mod p
            # from p = (p // j) * j + p mod j: no modular pow per member.
            inv = [0, 1]
            for j in range(2, p):
                inv.append(-(p // j) * inv[p % j] % p)
            form += [(p - v, 1) for v in inv[1:]]
        else:
            form += [(1, (p - j) * pi) for j in range(1, p)]
        form.append((1, 0))
    index.append(p ** (n - 2))
    form.append(None)
    return MetaGeneticBasis(G, tuple(index), tuple(form))


def _reduced(G: MetacyclicGroup, x: MElement) -> MElement:
    return (int(x[0]) % G.a_order, int(x[1]) % G.prime)


def _nonnormal_entry(G: MetacyclicGroup, h: MElement, g: MElement) -> int:
    """Entry of the reduced pair (h, g) in the column of <b>, by the
    closed determinant rules."""
    p, n = G.prime, G.n
    section = p ** (n - 2)
    (hi, hj), (gi, gj) = h, g
    if hi == 0 and hj == 0:
        return (gi + gj * (p - 1) * p ** (n - 3)) % section
    if hj != 0 and hi % section == 0:
        return gi // p % section
    return 0


def relation_component(
    G: MetacyclicGroup, S: MetaGeneticSubgroup, h: MElement, g: MElement
) -> int:
    """Exponent contributed by the pair (h, g) in the column of S, on
    Python integers.

    Raises DomainViolation unless g centralizes h.  For normal S the value
    is the class of g in G/S when h lies in S and 0 otherwise.  For the
    non-normal member the value follows the closed determinant rules: h =
    1 sees the determinant of g on the whole induced module, a generator
    of a conjugate of the member sees the class of g in the section, and
    every other h contributes 0.
    """
    h, g = _reduced(G, h), _reduced(G, g)
    (hi, hj), (gi, gj) = h, g
    # The b-exponents of g*h and h*g are equal: compare the a-exponents.
    q = G.a_order
    if (gi + hi * pow(G.twist, gj, q)) % q != (hi + gi * pow(G.twist, hj, q)) % q:
        raise DomainViolation(f"{g} is not in the centralizer of {h}")
    if S.quotient_order == 1:
        raise ValueError("the full group carries no column")
    if not S.normal:
        return _nonnormal_entry(G, h, g)
    (alpha, beta), q = S.form, S.quotient_order
    return (alpha * gi + beta * gj) % q if (alpha * hi + beta * hj) % q == 0 else 0


def _row_pairs(G: MetacyclicGroup) -> list[tuple[MElement, MElement]]:
    """(h, g) pairs over one generator h of each conjugacy class of cyclic
    subgroups of A = <a^p, b> = C_{p^(n-2)} x C_p: 1, b, a^(p^(n-2)),
    then a^(p^(n-1-k)) b^y for k = 2..n-2 and y = 0..p-1, in that order,
    3 + (n-3)p of them.

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
    a, ap, b = (1, 0), (p, 0), (0, 1)
    pairs = [((0, 0), a), ((0, 0), b), ((0, 1), ap)]
    pairs += [((p ** (n - 2), 0), a), ((p ** (n - 2), 0), b)]
    for k in range(2, n - 1):
        x = p ** (n - 1 - k)
        pairs += [((x, 0), a), ((x, 0), b)]
        pairs += [((x, y), ap) for y in range(1, p)]
    return pairs


def _member_columns(G: MetacyclicGroup, h: MElement) -> list[int]:
    """Indices of the normal members that contain the reduced element h =
    a^x b^y, among the nontrivial members of ``genetic_basis_metacyclic``
    in its order, ascending.

    Column 0 is <a>; layer i = 0..n-3, with q = p^(i+1), holds <a^(j*p^i)
    b> at i*p + j for j = 1..p-1 and <a^q, b> at (i+1)*p; the column of
    <b>, which is not normal, comes last.  <a> contains h iff y = 0, <a^q,
    b> iff q | x, and <a^(j*p^i) b>, the kernel of x - j*p^i*y mod q, iff
    q | x when y = 0, and otherwise iff v_p(x) = i and j = (x/p^i)/y mod
    p.  So with m = min(v_p(x), n-2) (m = n-2 for x = 0), an h with y = 0
    lies in the columns 0..m*p, and one with y != 0 in <a^(p^(i+1)), b>
    for i < m and, when m < n-2, in one member of layer m.
    """
    p, n = G.prime, G.n
    x, y = h
    m = 0
    while m < n - 2 and x % p == 0:
        x //= p
        m += 1
    if y == 0:
        return list(range(m * p + 1))
    out = [i * p for i in range(1, m + 1)]
    if m < n - 2:
        out.append(m * p + x * pow(y, -1, p) % p)
    return out


def _relation_rows(G: MetacyclicGroup, basis: MetaGeneticBasis) -> SparseRows:
    """Seed rows, then the row of every (h, g) pair of ``_row_pairs``, as
    SparseRows, on the nontrivial members of ``basis`` =
    ``genetic_basis_metacyclic(G)``, read off its ``index`` and ``form``.

    One Python pass lists the normal columns that contain each h
    (``_member_columns``) and keeps only their nonzero classes of g, then
    the entry of the column of <b>, as one dict {column: entry} per pair,
    in ascending column order; no pair is tested against a column that
    does not contain it.  The rows are observed never to repeat, so none
    is dropped.
    """
    pairs = _row_pairs(G)
    forms, orders = basis.form[1:-1], basis.index[1:]
    classes = {
        (gi, gj): [(alpha * gi + beta * gj) % q for (alpha, beta), q in zip(forms, orders)]
        for gi, gj in dict.fromkeys(g for _, g in pairs)
    }
    members = {h: _member_columns(G, h) for h in dict.fromkeys(h for h, _ in pairs)}
    b_column = len(forms)
    rows = []
    for h, g in pairs:
        cls = classes[g]
        row = {c: cls[c] for c in members[h] if cls[c]}
        v = _nonnormal_entry(G, h, g)
        if v:
            row[b_column] = v
        rows.append(row)
    return SparseRows(orders, tuple(rows))


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

    Past the order guard, the one limit is the Smith form's: its modulus
    q = p^(n-2) needs q**2 < 2**63 (``snf.guard_modulus``), so M_21(3),
    M_15(5) and M_13(7) are the largest n their primes admit, and the
    next n raises TooLarge.

    The last SK1_CACHE_SIZE results are cached per basis, as ``sk1``
    caches its own.  The order guard is checked before the lookup, and
    the modulus limit inside the cached solve, so a hit never answers a
    call either refuses.
    """
    guard_order(G, max_order, "order guard")
    return _solve(genetic_basis_metacyclic(G))


@lru_cache(maxsize=SK1_CACHE_SIZE)
def _solve(basis: MetaGeneticBasis) -> CyclicDecomposition:
    """The cokernel of the relation lattice on ``basis``; ``sk1_metacyclic``
    has checked the order guard.  The basis is the key, rather than G, so that
    every call still asks ``genetic_basis_metacyclic`` for it, through the
    module global that the perfbench tracer wraps; it hashes and compares
    by its group, so a hit costs O(1).

    The Smith form's modulus, the largest column order p^(n-2), is
    checked before the rows are built: they hold about n^2 p entries, so
    at n in the thousands they alone would take gigabytes."""
    guard_modulus(max(basis.index), basis.group)
    return cokernel_decomposition(_relation_rows(basis.group, basis))
