"""Finite abelian p-groups with p odd: construction and guards.

A group is a direct product of cyclic factors of p-power order, stored
as a descending tuple of factor orders.  Elements are exponent tuples,
one coordinate per factor, reduced modulo the factor order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonOddPrime, NotPPower, TooLarge

# Hard ceiling on brute-force element enumeration: fail fast instead of
# thrashing on groups sized beyond desk scale.
ENUMERATION_LIMIT = 10**7
# Default order guard of the exhaustive strategy and of sk1_metacyclic.
DEFAULT_MAX_ORDER = 3**6
# Entries of every cache: the interned groups of make_group and
# make_metacyclic, the genetic bases (genetic_basis_abelian,
# genetic_basis_metacyclic), the SK1 results of both families (the _solve
# of sk1_abelian per (group, strategy), of metacyclic per basis), and the
# divisibility tables of sk1_abelian per prime.
SK1_CACHE_SIZE = 128

Element = tuple[int, ...]


def _is_odd_prime(p) -> bool:
    """True when p is an odd prime.  An integral value such as 3.0 counts
    (callers then use int(p)); 3.5 and non-numbers do not."""
    try:
        if int(p) != p:
            return False
    except (TypeError, ValueError, OverflowError):
        return False
    p = int(p)
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _p_power_exponent(value: int, p: int) -> int | None:
    """Return e >= 1 with value == p**e, or None if value is not such a power."""
    if value < p:
        return None
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e if value == 1 else None


def guard_order(G, limit: int, guard: str) -> None:
    """Raise TooLarge when |G| = p^n exceeds limit; ``guard`` names the
    check.  n is compared with the largest exponent the limit admits, so
    |G| is never built (p^n takes seconds at n = 10^7) nor printed (Python
    refuses to print an int past 4300 digits)."""
    top, power = 0, G.prime
    while power <= limit:
        top, power = top + 1, power * G.prime
    if G.log_order > top:
        raise TooLarge(f"|{G}| exceeds the {guard} {limit}")


@dataclass(frozen=True)
class AbelianPGroup:
    prime: int
    orders: tuple[int, ...]

    @property
    def exponent(self) -> int:
        return self.orders[0]

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def log_order(self) -> int:
        """n with |G| = p^n."""
        return sum(_p_power_exponent(o, self.prime) for o in self.orders)

    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def generators(self) -> list[Element]:
        k = len(self.orders)
        return [tuple(int(i == j) for j in range(k)) for i in range(k)]

    def __str__(self) -> str:
        return "x".join(_factor_name(self.prime, o) for o in self.orders)


def _factor_name(p: int, o: int) -> str:
    """C{o}, or C{p}^{e} for o = p^e past the digits Python prints (4300
    by default), so that a message can name any group."""
    try:
        return f"C{o}"
    except ValueError:
        return f"C{p}^{_p_power_exponent(o, p)}"


def make_group(p: int, orders) -> AbelianPGroup:
    """Build the product of cyclic groups of the given p-power orders.

    Orders are normalized to descending order, so the first factor always
    realizes the group exponent.  The prime is checked first; then the
    last SK1_CACHE_SIZE groups are kept per (p, orders as a tuple), so a
    repeated call returns the same frozen group without checking its
    orders again.  Orders that do not hash are checked on every call.
    """
    if not _is_odd_prime(p):
        raise NonOddPrime(f"p must be an odd prime, got {p}")
    orders = tuple(orders)
    try:
        return _interned_group(int(p), orders)
    except TypeError:
        return _build_group(int(p), orders)


def _build_group(p: int, orders: tuple) -> AbelianPGroup:
    if not orders:
        raise ValueError("at least one cyclic factor is required")
    for o in orders:
        if int(o) != o or _p_power_exponent(int(o), p) is None:
            raise NotPPower(f"{o} is not a positive power of {p}")
    return AbelianPGroup(p, tuple(sorted(map(int, orders), reverse=True)))


_interned_group = lru_cache(maxsize=SK1_CACHE_SIZE)(_build_group)
