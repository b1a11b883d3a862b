"""The one input rule: every p, n, i, m, factor order and cyclic order
that comes from outside the program is an integer exactly when
``abelian._integral`` says so.

An integral value of another type (3.0, a numpy integer, a 0-d array)
acts as its int; any other value (3.5, nan, inf, None, "3", [3], and
every complex value, Python or numpy) raises the function's own error,
and the same error whether or not the group of the equal ints is kept.
"""

import math

import numpy as np
import pytest

from sk1 import (
    CyclicDecomposition,
    cyclic_quotient_count,
    irrep_counts_metacyclic,
    irrep_counts_square_abelian,
    make_group,
    make_metacyclic,
    predicted_decomposition,
    predicted_multiplicity,
    rank_metacyclic,
    rank_square_abelian,
    sk1,
    verify,
)
from sk1.abelian import _integral, _interned_group
from sk1.errors import BadParams, NonOddPrime, NotPPower
from sk1.metacyclic import _interned_metacyclic

ACCEPTED = {
    "float": float,
    "np.int64": np.int64,
    "np.float64": np.float64,
    "0-d array": np.array,
    "0-d float array": lambda v: np.array(float(v)),
}
REFUSED = {
    "half": lambda v: v + 0.5,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "None": lambda v: None,
    "str": str,
    "list": lambda v: [v],
    "complex": complex,
    "np.complex128": np.complex128,
    "0-d complex array": lambda v: np.array(complex(v)),
    "1-d array": lambda v: np.array([v]),
}


def test_integral_reads_integral_values_only():
    for make in ACCEPTED.values():
        assert _integral(make(27)) == 27 and type(_integral(make(27))) is int
    for make in REFUSED.values():
        assert _integral(make(27)) is None
    assert _integral(3**40) == 3**40 and _integral(-4.0) == -4


# (function, int arguments, its error on a refused argument).  Each
# argument slot in turn takes every value of ACCEPTED and REFUSED.
CASES = {
    "make_group p": (lambda p: make_group(p, [27, 9]), 3, NonOddPrime),
    "make_group order": (lambda o: make_group(3, [o, 9]), 27, NotPPower),
    "make_metacyclic p": (lambda p: make_metacyclic(p, 5), 3, BadParams),
    "make_metacyclic n": (lambda n: make_metacyclic(3, n), 5, BadParams),
    "rank_square_abelian p": (lambda p: rank_square_abelian(p, 2), 3, BadParams),
    "rank_square_abelian n": (lambda n: rank_square_abelian(3, n), 2, BadParams),
    "irrep_counts_square_abelian n": (lambda n: irrep_counts_square_abelian(5, n), 2, BadParams),
    "rank_metacyclic p": (lambda p: rank_metacyclic(p, 4), 5, BadParams),
    "rank_metacyclic n": (lambda n: rank_metacyclic(3, n), 4, BadParams),
    "irrep_counts_metacyclic p": (lambda p: irrep_counts_metacyclic(p, 4), 7, BadParams),
    "predicted_multiplicity p": (lambda p: predicted_multiplicity(p, 1, 3), 3, BadParams),
    "predicted_multiplicity i": (lambda i: predicted_multiplicity(3, i, 4), 2, BadParams),
    "predicted_multiplicity n": (lambda n: predicted_multiplicity(3, 1, n), 3, BadParams),
    "predicted_decomposition p": (lambda p: predicted_decomposition(p, 3).multiplicities, 3, BadParams),
    "predicted_decomposition n": (lambda n: predicted_decomposition(3, n).multiplicities, 3, BadParams),
    "verify p": (lambda p: verify(p, 3, sk1(make_group(3, [27, 27]))).match, 3, BadParams),
    "verify n": (lambda n: verify(3, n, sk1(make_group(3, [27, 27]))).match, 3, BadParams),
    "cyclic_quotient_count p": (lambda p: cyclic_quotient_count(p, 1, 2), 3, BadParams),
    "cyclic_quotient_count n": (lambda n: cyclic_quotient_count(3, n, 2), 1, BadParams),
    "cyclic_quotient_count m": (lambda m: cyclic_quotient_count(3, 1, m), 2, BadParams),
    "CyclicDecomposition divisor": (lambda d: CyclicDecomposition((d, 3)), 9, ValueError),
    "prime_power_multiplicities p": (
        lambda p: CyclicDecomposition((9, 3)).prime_power_multiplicities(p), 3, ValueError
    ),
}


def _forget_groups():
    _interned_group.cache_clear()
    _interned_metacyclic.cache_clear()


@pytest.mark.parametrize("value", list(ACCEPTED))
@pytest.mark.parametrize("case", list(CASES))
def test_an_integral_value_acts_as_its_int(case, value):
    call, v, _ = CASES[case]
    _forget_groups()
    got = call(ACCEPTED[value](v))
    want = call(v)
    assert got == want
    if case.startswith("make_"):
        assert got is want and call(ACCEPTED[value](v)) is want


@pytest.mark.parametrize("value", list(REFUSED))
@pytest.mark.parametrize("case", list(CASES))
def test_a_refused_value_raises_as_before_and_after_the_cache(case, value):
    # Cold, then once the result of the equal ints is kept: a lookup
    # never decides a refusal (3+0j == 3 and hashes as 3).
    call, v, error = CASES[case]
    _forget_groups()
    with pytest.raises(error):
        call(REFUSED[value](v))
    call(v)
    with pytest.raises(error):
        call(REFUSED[value](v))


@pytest.mark.parametrize("e", [34, 40])
def test_a_float_prime_counts_high_powers_exactly(e):
    # 3.0 reads as the int 3: a float cannot hold 3^34 exactly.
    dec = CyclicDecomposition((3**e, 9, 3))
    want = {1: 1, 2: 1, e: 1}
    assert dec.prime_power_multiplicities(3.0) == want
    assert dec.prime_power_multiplicities(np.float64(3)) == want
    assert dec.prime_power_multiplicities(3) == want
    assert list(dec._by_prime) == [3] and type(next(iter(dec._by_prime))) is int
