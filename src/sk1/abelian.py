"""Finite abelian p-groups with p odd: construction and guards.

A group is a direct product of cyclic factors of p-power order, stored
as a descending tuple of factor orders.  Elements are exponent tuples,
one coordinate per factor, reduced modulo the factor order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadParams, NonOddPrime, NotPPower, TooLarge

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


def _integral(x) -> int | None:
    """int(x) when that equals x, else None: 3.0, numpy integers and 0-d
    arrays count; 3.5, nan, inf, None, "3", [3] and every complex value
    do not.  A numpy value is read as its Python scalar first, so that
    int() never drops an imaginary part."""
    if type(x) is int:
        return x
    if hasattr(x, "ndim"):
        if x.ndim:
            return None
        x = x.item()
    try:
        i = int(x)
    except (TypeError, ValueError, ArithmeticError):
        return None
    return i if i == x else None


def _is_odd_prime(p) -> bool:
    """True when p is an odd prime; an integral value such as 3.0 counts."""
    p = _integral(p)
    if p is None or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_params(p, n, n_min: int) -> tuple[int, int]:
    """(p, n) as ints; BadParams unless p is an odd prime and n an integer >= n_min."""
    m = _integral(n)
    if not _is_odd_prime(p) or m is None or m < n_min:
        raise BadParams(f"need an odd prime and an integer n >= {n_min}, got p={p}, n={n}")
    return int(p), m


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
    refuses to print an int past 4300 digits).  n is kept on the group
    after its first read."""
    top, power = 0, G.prime
    while power <= limit:
        top, power = top + 1, power * G.prime
    if G.log_order > top:
        raise TooLarge(f"|{G}| exceeds the {guard} {limit}")


@dataclass(frozen=True)
class AbelianPGroup:
    prime: int
    orders: tuple[int, ...]
    # log_order, summed on its first read, so that a group built directly
    # with orders that are not powers of p still constructs.
    _log_order: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def exponent(self) -> int:
        return self.orders[0]

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def log_order(self) -> int:
        """n with |G| = p^n."""
        n = self._log_order
        if n is None:
            n = sum(_p_power_exponent(o, self.prime) for o in self.orders)
            object.__setattr__(self, "_log_order", n)
        return n

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
    realizes the group exponent.  The last SK1_CACHE_SIZE groups are kept
    per (p, orders) as ints.  An int p with int orders goes straight to
    that lookup, and is checked only when a group is built; any other
    argument (3.0, a numpy integer) is checked on every call, then finds
    the group of its ints.  So a lookup never decides a refusal.  Orders
    that are not iterable raise after the prime is checked.
    """
    try:
        orders = tuple(orders)
    except Exception:
        _check_prime(p)
        raise
    if type(p) is int:
        for o in orders:  # a loop: any() over a generator doubles a hit's cost
            if type(o) is not int:
                break
        else:
            return _interned_group(p, orders)
    p = _build_group(p, orders).prime
    return _interned_group(p, tuple(map(_integral, orders)))


def _check_prime(p) -> None:
    if not _is_odd_prime(p):
        raise NonOddPrime(f"p must be an odd prime, got {p}")


def _build_group(p, orders: tuple) -> AbelianPGroup:
    _check_prime(p)
    p = int(p)
    if not orders:
        raise ValueError("at least one cyclic factor is required")
    exact = [_integral(o) for o in orders]
    for o, e in zip(orders, exact):
        if e is None or _p_power_exponent(e, p) is None:
            raise NotPPower(f"{o} is not a positive power of {p}")
    return AbelianPGroup(p, tuple(sorted(exact, reverse=True)))


_interned_group = lru_cache(maxsize=SK1_CACHE_SIZE)(_build_group)
