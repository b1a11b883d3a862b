"""Genetic bases of abelian p-groups.

A subgroup of an abelian p-group has cyclic quotient exactly when it is
the kernel of a homomorphism into Z/eg, where eg is the group exponent.
Kernels come from a restricted family of coefficient tuples (first
coordinate ranges over powers of p modulo eg, the rest are free), and
each kernel is named by its normalised form: the homomorphism onto its
quotient Z/q, scaled so that its first coordinate prime to p is 1.  The
basis lists those forms directly, level q by level and lead coordinate
by lead coordinate, in one array pass, and gives each member the first
tuple of its kernel in closed form; no coefficient tuple and no group
element is enumerated.  The members are sorted by (quotient order,
defining tuple).  The relation rows and the torus split read the
normalised forms of the basis arrays as their columns.  The guard still
bounds the tuples times the generators, a contract kept from the pass
over every tuple that the listing replaced, not the group order, and
the arithmetic is refused when it could overflow int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .abelian import (
    ENUMERATION_LIMIT,
    SK1_CACHE_SIZE,
    AbelianPGroup,
    _is_odd_prime,
    _p_power_exponent,
)
from .errors import BadParams, TooLarge


@dataclass(frozen=True)
class GeneticSubgroupA:
    """A subgroup whose quotient is cyclic of order ``index``.

    It is the kernel of the homomorphism G -> Z/eg sending generator i to
    (eg/o_i)*coeffs[i].  ``form`` is that homomorphism divided by its step
    eg/index and scaled by the unit that makes its first coordinate prime
    to p equal to 1.  ``form[i]`` is the class of generator i in the
    quotient Z/index, so x lies in the subgroup exactly when
    sum(form[i]*x[i]) = 0 mod index.
    """

    group: AbelianPGroup
    coeffs: tuple[int, ...]
    index: int
    form: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class GeneticBasis:
    """The basis as read-only int64 arrays, one row per member; an integer
    index or iteration builds a member, a slice or index array a sub-basis."""

    group: AbelianPGroup
    coeffs: np.ndarray
    index: np.ndarray
    form: np.ndarray

    def __post_init__(self):
        for a in (self.coeffs, self.index, self.form):
            a.flags.writeable = False

    def __len__(self):
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            c, f = self.coeffs[i].tolist(), self.form[i].tolist()
            return GeneticSubgroupA(self.group, tuple(c), int(self.index[i]), tuple(f))
        return GeneticBasis(self.group, self.coeffs[i], self.index[i], self.form[i])

    def __eq__(self, other):
        if not isinstance(other, GeneticBasis):
            return NotImplemented
        # coeffs fix index and form.
        return self.group == other.group and np.array_equal(self.coeffs, other.coeffs)


def enumerate_cyclic_homs(G: AbelianPGroup) -> list[tuple[int, ...]]:
    """Coefficient tuples in odometer order.

    The first coordinate runs over {p**x mod eg : 0 <= x <= log_p eg}; a
    unit multiple of a tuple has its kernel, so this loses no subgroup.
    """
    eg = G.exponent
    e = _p_power_exponent(eg, G.prime) or 0
    first = [pow(G.prime, x, eg) for x in range(e + 1)]
    rest = [range(o) for o in G.orders[1:]]
    return list(product(first, *rest))


def guard_int64(G: AbelianPGroup) -> None:
    """Raise TooLarge unless len(orders) * eg**2 < 2**63.

    Every product of the basis (a form coordinate times a unit, both below
    eg) and every entry of ``refs @ F.T`` in the relation rows (a sum of
    len(orders) products below eg**2) then fits int64.  The same bound is
    the precondition of the relation rows' membership test, which has no
    division (``sk1_abelian._divisible``): the entries of ``refs @ F.T``
    are sums of non-negative products, so they lie in [0, 2^63).
    """
    if len(G.orders) * G.exponent**2 >= 2**63:
        raise TooLarge(
            f"{G}: {len(G.orders)} x exponent^2 >= 2^63, its entries would overflow int64"
        )


def _key_code(G: AbelianPGroup, index: np.ndarray, form: np.ndarray) -> np.ndarray:
    """One integer per kernel, from its index and its normalised form (one
    row of ``form`` each): the index's exponent, then coordinate i as a
    digit below min(index, o_i), since o_i e_i = 0 makes it a multiple of
    index / min(index, o_i).  The codes stay below (e + 1)|G|, the
    coefficient tuples times eg, which the basis guards (at most 10^7
    tuples, eg^2 < 2^63) keep below 2^55."""
    p, eg = G.prime, G.exponent
    o = np.array(G.orders, dtype=np.int64)
    step = index[:, None] // np.minimum(index[:, None], o)
    exps = np.searchsorted(p ** np.arange(_p_power_exponent(eg, p) + 1, dtype=np.int64), index)
    radix = np.cumprod(o[::-1])[::-1] // o  # place value of digit i
    return exps * G.order + (form // step) @ radix


def _lex_unit(prefix, p: int, j: int) -> int:
    """The unit u mod p^j that makes (u*F_i mod p^j) least, coordinate by
    coordinate, over the non-unit coordinates F_i in ``prefix``.

    A nonzero F = p^v*f gives u*F the values p^v*(u*f mod p^(j-v)).  When
    u is already fixed mod p^m, m >= j-v, that is one value; otherwise
    the least is r = u*f mod p^m (r = 1 when m = 0, nothing being fixed),
    which fixes u = r*f^-1 mod p^(j-v).  u is returned as its least
    positive residue mod the last such p^m: the value that the lead
    coordinate 1, which comes next, makes least."""
    fixed, u = 1, 1  # u is fixed mod p^m = fixed
    for F in prefix:
        if F:
            f, mod = F, p**j
            while f % p == 0:
                f //= p
                mod //= p
            if mod > fixed:
                r = u * f % fixed if fixed > 1 else 1
                fixed = mod
                u = r * pow(f, -1, mod) % mod
    return u


def _block_forms(table: np.ndarray, counts: list[int]) -> np.ndarray:
    """The forms of consecutive blocks, counts[b] rows for block b.  Row b
    of ``table`` holds the block's first row, then per coordinate the
    stride, the radix, the step and a lead flag: row r of the block has
    the digit (r - first) // stride % radix, times the step, plus the
    flag.  (The repeated table is freed on return.)"""
    k = (table.shape[1] - 1) // 4
    col = np.repeat(table, counts, axis=0)
    stride, radix, steps, lead = (col[:, 1 + i * k : 1 + (i + 1) * k] for i in range(4))
    form = (np.arange(len(col)) - col[:, 0])[:, None] // stride
    form %= radix
    form *= steps
    form += lead
    return form


@lru_cache(maxsize=SK1_CACHE_SIZE)
def genetic_basis_abelian(G: AbelianPGroup) -> GeneticBasis:
    """One subgroup per kernel, sorted by (index, defining tuple), listed
    by its normalised form.

    Divided by its step eg/index, a homomorphism is a linear form F onto
    Z/q, q = index, and two such surjections share a kernel exactly when
    they differ by a unit; scaled so that its first unit coordinate, the
    lead l, is 1, F names the kernel.  o_i e_i = 0 makes F_i a multiple
    of q/min(q, o_i), so the members are the zero form of index 1 and, for
    each level q = p^j <= o_l and lead l: F_l = 1, F_i for i < l (o_i >=
    q, as the orders descend) a multiple of p below q, and F_i for i > l
    any multiple of q/min(q, o_i) below q.  That grid is listed in one
    array pass, with no coefficient tuple enumerated.

    ``coeffs`` is the first tuple of the kernel in ``enumerate_cyclic_homs``
    order: the unit multiple u*F that is least coordinate by coordinate,
    written t_i = (u*F_i mod q)*o_i/q (t_0 = p^x, x least, is the least
    nonzero value of u*F_0).  u = 1 on lead 0 and on forms that are 0
    before their lead; otherwise u depends on the coordinates before the
    lead only (``_lex_unit``, one Python call per such prefix).

    Refuses with TooLarge when the coefficient tuples times the
    generators, (e+1)*prod(o_i, i > 0)*len(orders), exceed
    ``ENUMERATION_LIMIT``, a contract kept from the tuple pass this
    listing replaced, and when ``guard_int64`` does.  The last
    SK1_CACHE_SIZE bases are cached per group, and the arrays are
    read-only, so callers share them; the guards run inside, so a refused
    call is never cached.
    """
    guard_int64(G)
    p, eg, k = G.prime, G.exponent, len(G.orders)
    e = _p_power_exponent(eg, p)
    n_tuples = (e + 1) * math.prod(G.orders[1:])
    if n_tuples * k > ENUMERATION_LIMIT:
        raise TooLarge(
            f"{n_tuples} coefficient tuples x {k} generators exceed the "
            f"enumeration guard {ENUMERATION_LIMIT}"
        )
    # One block per level q = p^j and lead l after the zero form (j = 0):
    # coordinate i runs over radix[i] multiples of q // radix[i] below q,
    # in odometer order, and the lead's one value is 1.
    blocks = [(0, -1, [1] * k)]
    for j in range(1, e + 1):
        q = p**j
        blocks += [
            (j, l, [q // p] * l + [1] + [min(q, o) for o in G.orders[l + 1 :]])
            for l in range(k)
            if G.orders[l] >= q
        ]
    # A table row holds a block's sort offset j*|G|, q and first member,
    # then per coordinate the stride, the radix, the step and the lead flag.
    table, counts, units, n = [], [], [], 0
    for j, l, radix in blocks:
        q = p**j
        stride = [math.prod(radix[i + 1 :]) for i in range(k)]
        steps = [q // r for r in radix]
        table.append([j * G.order, q, n, *stride, *radix, *steps, *(int(i == l) for i in range(k))])
        if l > 0 and j > 1:
            # The prefix before the lead is the block's slowest digits: the
            # members that share it, and so their unit, are one run.
            prefixes = product(range(0, q, p), repeat=l)
            units.append((n, stride[l], [_lex_unit(f, p, j) for f in prefixes]))
        counts.append(stride[0] * radix[0])
        n += counts[-1]
    table = np.array(table, dtype=np.int64)
    form = _block_forms(table[:, 2:], counts)
    index = np.repeat(table[:, 1], counts)
    unit = np.ones(n, dtype=np.int64)
    for first, run, u in units:
        unit[first : first + run * len(u)] = np.repeat(u, run)
    coeffs = unit[:, None] * form
    coeffs %= index[:, None]
    coeffs *= G.orders
    coeffs //= index[:, None]
    # (index, coeffs) as one code: j*|G| plus coeffs in the radices o_i.
    order = np.argsort(np.repeat(table[:, 0], counts) + coeffs @ (G.order // np.cumprod(G.orders)))
    return GeneticBasis(G, coeffs[order], index[order], form[order])


def cyclic_quotients(p: int, exponents) -> int:
    """Number of nontrivial cyclic quotients of the product of the C_{p^a},
    a in ``exponents``: of order p^j, the N_j - N_(j-1) surjections onto
    Z/p^j up to their p^(j-1)(p-1) units, N_j = p^(sum_i min(a_i, j))."""
    total, prev = 0, 1
    for j in range(1, max(exponents, default=0) + 1):
        homs = p ** sum(min(a, j) for a in exponents)
        total += (homs - prev) // (p ** (j - 1) * (p - 1))
        prev = homs
    return total


def cyclic_quotient_count(p: int, n: int, m: int) -> int:
    """Number of cyclic-quotient subgroups of C_{p^n} x C_{p^m} for n <= m.

    Integral values such as 3.0 act as ints; 1.5 raises BadParams.
    """
    if not _is_odd_prime(p) or int(n) != n or int(m) != m or not 1 <= n <= m:
        raise BadParams(f"need an odd prime and integers 1 <= n <= m, got p={p}, n={n}, m={m}")
    return 1 + cyclic_quotients(int(p), (int(n), int(m)))
