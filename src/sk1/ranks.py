"""Free ranks of Whitehead groups via closed formulas.

Each rank function has a companion representation-count function; the
rank must always equal (number of irreducible real representations)
minus (number of irreducible rational representations), which the test
suite checks.  All divisions are exact by construction, and a non-exact
division is a hard internal error rather than a rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import _is_odd_prime
from .errors import BadParams


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}: formula transcription bug")
    return q


def _check(p: int, n: int, n_min: int) -> tuple[int, int]:
    """(p, n) as ints; BadParams unless p is an odd prime and n an integer >= n_min."""
    if not _is_odd_prime(p) or int(n) != n or n < n_min:
        raise BadParams(f"need an odd prime and an integer n >= {n_min}, got p={p}, n={n}")
    return int(p), int(n)


@dataclass(frozen=True)
class IrrepCounts:
    """Numbers of irreducible complex / real / rational representations."""

    complex: int
    real: int
    rational: int


def irrep_counts_square_abelian(p: int, n: int) -> IrrepCounts:
    """Representation counts for C_{p^n} x C_{p^n}."""
    p, n = _check(p, n, 1)
    c = p ** (2 * n)
    real = _exact_div(c + 1, 2)
    rational = p**n + _exact_div(2 * (p**n - 1), p - 1)
    return IrrepCounts(c, real, rational)


def rank_square_abelian(p: int, n: int) -> int:
    """Free rank of the Whitehead group of C_{p^n} x C_{p^n}."""
    p, n = _check(p, n, 1)
    k = _exact_div(p - 1, 2)
    return _exact_div(k * p ** (2 * n) - (p + 1) * p**n + k + 2, p - 1)


def irrep_counts_metacyclic(p: int, n: int) -> IrrepCounts:
    """Representation counts for the modular metacyclic group of order p^n."""
    p, n = _check(p, n, 3)
    c = p ** (n - 3) * (p - 1) + p ** (n - 1)
    real = _exact_div(c + 1, 2)
    rational = (n - 2) * p + 3
    return IrrepCounts(c, real, rational)


def rank_metacyclic(p: int, n: int) -> int:
    """Free rank of the Whitehead group of the modular metacyclic group."""
    p, n = _check(p, n, 3)
    return _exact_div((p - 1) * p ** (n - 3) + p ** (n - 1) - 2 * (n - 2) * p - 5, 2)
