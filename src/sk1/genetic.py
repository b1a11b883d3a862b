"""Genetic bases of abelian p-groups.

A subgroup of an abelian p-group has cyclic quotient exactly when it is
the kernel of a homomorphism into Z/eg, where eg is the group exponent.
Kernels come from a restricted family of coefficient tuples (first
coordinate ranges over powers of p modulo eg, the rest are free).  One
numpy pass over all tuples scales each linear form by the unit that
makes its first coordinate prime to p equal to 1, keys the kernel by
that normalised form, keeps the first tuple of each key, and sorts the
members by (quotient order, defining tuple); no group element is listed.
The relation rows and the torus split read the normalised forms of the
basis arrays as their columns.  The guard bounds that pass, tuples times
generators, not the group order, and the arithmetic is refused when it
could overflow int64.
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


def _key_code(G: AbelianPGroup, index: np.ndarray, form: np.ndarray) -> np.ndarray:
    """One integer per kernel, from its index and its normalised form (one
    row of ``form`` each): the index's exponent, then coordinate i as a
    digit below min(index, o_i), since o_i e_i = 0 makes it a multiple of
    index / min(index, o_i).  The codes stay below (e + 1)|G|, the tuples
    of the basis pass times eg, which its guards (at most 10^7 tuples,
    eg^2 < 2^63) keep below 2^55."""
    p, eg = G.prime, G.exponent
    o = np.array(G.orders, dtype=np.int64)
    step = index[:, None] // np.minimum(index[:, None], o)
    exps = np.searchsorted(p ** np.arange(_p_power_exponent(eg, p) + 1, dtype=np.int64), index)
    radix = np.cumprod(o[::-1])[::-1] // o  # place value of digit i
    return exps * G.order + (form // step) @ radix


@lru_cache(maxsize=SK1_CACHE_SIZE)
def genetic_basis_abelian(G: AbelianPGroup) -> GeneticBasis:
    """One subgroup per distinct kernel, sorted by (index, defining tuple).

    Divided by its step eg/index, the gcd of its values and eg, a
    homomorphism is a linear form onto Z/index, and two such surjections
    share a kernel exactly when they differ by a unit.  So each form is
    scaled to make its first unit coordinate 1, and ``_key_code`` of
    (index, that form) keys the kernel.  All tuples are keyed in one array
    pass; the first tuple in enumeration order wins, and its member keeps
    the normalised form.

    Refuses with TooLarge when the tuples times the generators, the
    entries of that pass, exceed ``ENUMERATION_LIMIT``, and when
    ``guard_int64`` does.  The last SK1_CACHE_SIZE bases are cached per
    group, and the arrays are read-only, so callers share them; the
    guards run inside, so a refused call is never cached.
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
    # coeffs[:, t] is tuple t of enumerate_cyclic_homs (odometer order).
    coeffs = np.indices((e + 1, *G.orders[1:]), dtype=np.int64).reshape(k, -1)
    coeffs[0] = np.array([pow(p, x, eg) for x in range(e + 1)])[coeffs[0]]
    weights = coeffs * (eg // np.array(G.orders))[:, None] % eg
    step = np.gcd(np.gcd.reduce(weights, axis=0), eg)
    index = eg // step
    form = weights // step
    # A unit coordinate exists when index > 1: the coordinates are coprime
    # to the prime power index.  A unit mod index is one mod eg, so its
    # inverse mod eg serves.  (Only the zero tuple has index 1, and its
    # form is 0 whatever its lead.)
    lead = form[(form % p != 0).argmax(axis=0), np.arange(n_tuples)]
    form = (form * (_unit_inverse(lead, p, eg) % index) % index).T
    _, first = np.unique(_key_code(G, index, form), return_index=True)
    first = first[np.lexsort((*coeffs[::-1, first], index[first]))]
    return GeneticBasis(G, coeffs.T[first], index[first], form[first])


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
