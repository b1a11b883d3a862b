"""Genetic bases of abelian p-groups.

A subgroup of an abelian p-group has cyclic quotient exactly when it is
the kernel of a homomorphism into Z/eg, where eg is the group exponent.
Kernels are enumerated from a restricted family of coefficient tuples
(first coordinate ranges over powers of p modulo eg, the rest are free),
deduplicated as linear forms up to a unit, without listing any element,
and returned sorted by (quotient order, defining tuple).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .abelian import (
    ENUMERATION_LIMIT,
    AbelianPGroup,
    Element,
    _is_odd_prime,
    _p_power_exponent,
    guard_order,
)
from .errors import BadParams


@dataclass(frozen=True)
class CyclicHom:
    """Homomorphism G -> Z/eg sending generator i to (eg/o_i)*coeffs[i]."""

    group: AbelianPGroup
    coeffs: tuple[int, ...]

    @cached_property
    def weights(self) -> tuple[int, ...]:
        eg = self.group.exponent
        return tuple((eg // o) * s % eg for o, s in zip(self.group.orders, self.coeffs))

    def __call__(self, x: Element) -> int:
        return sum(w * c for w, c in zip(self.weights, x)) % self.group.exponent


@dataclass(frozen=True)
class GeneticSubgroupA:
    """Kernel of ``hom``: a subgroup whose quotient is cyclic of order ``index``.

    ``step`` generates the image of ``hom`` inside Z/eg, so
    ``index * step == eg`` and every value of ``hom`` is a multiple of
    ``step``.
    """

    hom: CyclicHom
    index: int
    step: int

    def contains(self, x: Element) -> bool:
        return self.hom(x) == 0


def enumerate_cyclic_homs(G: AbelianPGroup) -> list[CyclicHom]:
    """Coefficient tuples in odometer order.

    The first coordinate runs over {p**x mod eg : 0 <= x <= log_p eg};
    unit rescaling of a tuple never changes the kernel, so this
    restriction loses no subgroups while trimming the search space.
    """
    eg = G.exponent
    e = _p_power_exponent(eg, G.prime) or 0
    first = [pow(G.prime, x, eg) for x in range(e + 1)]
    rest = [range(o) for o in G.orders[1:]]
    return [CyclicHom(G, t) for t in product(first, *rest)]


def genetic_basis_abelian(G: AbelianPGroup) -> tuple[GeneticSubgroupA, ...]:
    """One subgroup per distinct kernel, sorted by (index, defining tuple).

    Divided by its step, a homomorphism is a linear form onto Z/index,
    and two such surjections share a kernel exactly when they differ by a
    unit.  So the key is the form scaled to make its first unit
    coordinate 1.  The first tuple in enumeration order wins.
    """
    guard_order(G, ENUMERATION_LIMIT, "enumeration guard")
    eg = G.exponent
    chosen: dict[tuple, GeneticSubgroupA] = {}
    for hom in enumerate_cyclic_homs(G):
        step = math.gcd(eg, *hom.weights)
        index = eg // step
        v = [w // step for w in hom.weights]
        # A unit coordinate exists: the coordinates are coprime to the
        # prime power index (and in Z/1 every value is a unit).
        u = pow(next(c for c in v if math.gcd(c, index) == 1), -1, index)
        key = (index, tuple(c * u % index for c in v))
        if key not in chosen:
            chosen[key] = GeneticSubgroupA(hom, index=index, step=step)
    return tuple(sorted(chosen.values(), key=lambda S: (S.index, S.hom.coeffs)))


def quotient_dlog(S: GeneticSubgroupA, x: Element) -> int:
    """Position of x's class in the cyclic quotient, relative to the
    generator that maps to ``step``."""
    return S.hom(x) // S.step


def cyclic_quotient_count(p: int, n: int, m: int) -> int:
    """Number of cyclic-quotient subgroups of C_{p^n} x C_{p^m} for n <= m."""
    if not _is_odd_prime(p) or not 1 <= n <= m:
        raise BadParams(f"need an odd prime and 1 <= n <= m, got p={p}, n={n}, m={m}")
    p = int(p)
    return p**n * (m - n + 1) + 2 * (p**n - 1) // (p - 1)
