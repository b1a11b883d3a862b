"""Genetic bases of abelian p-groups.

A subgroup of an abelian p-group has cyclic quotient exactly when it is
the kernel of a homomorphism into Z/eg, where eg is the group exponent.
Kernels come from a restricted family of coefficient tuples (first
coordinate ranges over powers of p modulo eg, the rest are free).  One
numpy pass over all tuples keys each kernel by its linear form up to a
unit, keeps the first tuple of each key, and sorts the members by
(quotient order, defining tuple); no group element is listed.  Each
member keeps its form onto Z/index, which the relation rows read as the
member's column.  The guard bounds that pass, tuples times generators,
not the group order, and the arithmetic is refused when it could
overflow int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .abelian import (
    ENUMERATION_LIMIT,
    AbelianPGroup,
    _is_odd_prime,
    _p_power_exponent,
)
from .errors import BadParams, TooLarge


@dataclass(frozen=True)
class GeneticSubgroupA:
    """A subgroup whose quotient is cyclic of order ``index``.

    It is the kernel of the homomorphism G -> Z/eg sending generator i to
    (eg/o_i)*coeffs[i].  ``form[i]`` is the class of generator i in the
    quotient Z/index, so x lies in the subgroup exactly when
    sum(form[i]*x[i]) = 0 mod index.
    """

    group: AbelianPGroup
    coeffs: tuple[int, ...]
    index: int
    form: tuple[int, ...]


def enumerate_cyclic_homs(G: AbelianPGroup) -> list[tuple[int, ...]]:
    """Coefficient tuples in odometer order.

    The first coordinate runs over {p**x mod eg : 0 <= x <= log_p eg};
    unit rescaling of a tuple never changes the kernel, so this
    restriction loses no subgroups while trimming the search space.
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
    len(orders) products below eg**2) then fits int64.
    """
    eg = G.exponent
    if len(G.orders) * eg**2 >= 2**63:
        raise TooLarge(
            f"{G}: {len(G.orders)} x {eg}^2 >= 2^63, its entries would overflow int64"
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


def genetic_basis_abelian(G: AbelianPGroup) -> tuple[GeneticSubgroupA, ...]:
    """One subgroup per distinct kernel, sorted by (index, defining tuple).

    Divided by its step eg/index, the gcd of its values and eg, a
    homomorphism is a linear form onto Z/index, and two such surjections
    share a kernel exactly when they differ by a unit.  So the key is
    (index, the form scaled to make its first unit coordinate 1).  All
    tuples are keyed in one array pass, the first tuple in enumeration
    order wins, and its member keeps the unscaled form.

    Refuses with TooLarge when the tuples times the generators, the
    entries of that pass, exceed ``ENUMERATION_LIMIT``, and when
    ``guard_int64`` does.
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
    # inverse mod eg serves.  (Only the zero tuple has index 1, and its key
    # is 0 whatever its lead.)
    lead = form[(form % p != 0).argmax(axis=0), np.arange(n_tuples)]
    key = np.empty((n_tuples, k + 1), dtype=np.int64)
    key[:, 0] = index
    key[:, 1:] = (form * (_unit_inverse(lead, p, eg) % index) % index).T
    _, first = np.unique(key.view(np.dtype((np.void, key.strides[0]))), return_index=True)
    first = first[np.lexsort((*coeffs[::-1, first], index[first]))]
    return tuple(
        GeneticSubgroupA(G, tuple(c), i, tuple(f))
        for c, i, f in zip(
            coeffs[:, first].T.tolist(), index[first].tolist(), form[:, first].T.tolist()
        )
    )


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
