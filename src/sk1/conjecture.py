"""Predicted cyclic decompositions for SK1 of squares of cyclic p-groups.

The prediction gives, for the square of C_{p^n}, the multiplicity of
C_{p^i} for every 0 < i < n.  The closed form covers n >= 2i directly;
upper exponents fold back through i -> (n-i, 2(n-i)).  The top exponent
p^n never occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import ENUMERATION_LIMIT, _is_odd_prime
from .errors import BadParams, TooLarge
from .ranks import _check
from .snf import CyclicDecomposition


def predicted_multiplicity(p: int, i: int, n: int) -> int:
    """Predicted multiplicity of C_{p^i} in SK1 of the square of C_{p^n}.

    Valid for integers i >= 1 and n >= 2i; even i get a doubled leading
    term.  Integral floats act as ints.
    """
    if not _is_odd_prime(p) or int(i) != i or int(n) != n or i < 1 or n < 2 * i:
        raise BadParams(
            f"need an odd prime and integers i >= 1, n >= 2i, got p={p}, i={i}, n={n}"
        )
    return _multiplicity(int(p), int(i), int(n))


def _multiplicity(p: int, i: int, n: int) -> int:
    """The closed form of ``predicted_multiplicity`` on checked ints."""
    doubled = 2 if i % 2 == 0 else 1
    return (p - 1) * (doubled * p ** (n - (i // 2 + 2)) + (n - 2 * i) * p ** (i - 1))


@dataclass(frozen=True, eq=True)
class ConjecturePrediction:
    p: int
    n: int
    multiplicities: dict[int, int]

    def decomposition(self) -> CyclicDecomposition:
        """The predicted group as one cyclic factor per unit of
        multiplicity; raises TooLarge, before any factor is listed, when
        there are more than ``ENUMERATION_LIMIT`` of them."""
        count = sum(self.multiplicities.values())
        if count > ENUMERATION_LIMIT:
            raise TooLarge(
                f"the prediction for C_{{{self.p}^{self.n}}}^2 has {count} cyclic "
                f"factors, over the enumeration guard {ENUMERATION_LIMIT}"
            )
        divisors: list[int] = []
        for i, m in sorted(self.multiplicities.items()):
            divisors.extend([self.p**i] * m)
        return CyclicDecomposition(tuple(divisors))


def predicted_decomposition(p: int, n: int) -> ConjecturePrediction:
    """Multiplicity of C_{p^i} for every 0 < i < n; n is an integer >= 2.

    (p, n) is checked once, and each exponent evaluates the closed form
    directly.  Nothing is cached: the values grow like p^n, and each call
    returns a new prediction."""
    p, n = _check(p, n, 2)
    return ConjecturePrediction(p, n, _multiplicities(p, n))


def _multiplicities(p: int, n: int) -> dict[int, int]:
    """The closed form for every 0 < i < n, on checked ints: a new dict."""
    return {
        i: _multiplicity(p, i, n) if 2 * i <= n else _multiplicity(p, n - i, 2 * (n - i))
        for i in range(1, n)
    }


@dataclass(frozen=True, eq=True)
class VerifyReport:
    """Per-exponent comparison of predicted vs computed multiplicities."""

    p: int
    n: int
    predicted: dict[int, int]
    computed: dict[int, int]
    diffs: dict[int, tuple[int, int]]

    @property
    def match(self) -> bool:
        return not self.diffs


def verify(p: int, n: int, computed: CyclicDecomposition) -> VerifyReport:
    """Compare a computed decomposition against the prediction.

    ``diffs`` maps each disagreeing exponent to (predicted, computed).
    The closed form is evaluated as ``predicted_decomposition`` does,
    with no prediction built around it.
    """
    predicted = _multiplicities(*_check(p, n, 2))
    actual = computed.prime_power_multiplicities(p)
    diffs = {}
    for i in sorted(set(predicted) | set(actual)):
        want = predicted.get(i, 0)
        got = actual.get(i, 0)
        if want != got:
            diffs[i] = (want, got)
    return VerifyReport(p, n, predicted, actual, diffs)
