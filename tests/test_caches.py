"""The caches a repeated query is served from: the interned groups of
``make_group`` and ``make_metacyclic``, and the views of a
``CyclicDecomposition``, counted once and kept per prime.

A cached object is shared by every caller, so a dict that one caller
changes must never reach a later answer, and a cached group must still
meet every guard of the call that uses it.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sk1 import (
    CyclicDecomposition,
    make_group,
    make_metacyclic,
    predicted_decomposition,
    sk1,
    sk1_metacyclic,
    verify,
)
from sk1.errors import BadParams, NonOddPrime, NotPPower, TooLarge


def recount(divisors, p):
    """Exponent -> multiplicity of C_{p^e}, counted divisor by divisor;
    ValueError when a divisor is not a power of p."""
    out = Counter()
    for d in divisors:
        e, v = 0, d
        while v % p == 0:
            v //= p
            e += 1
        if v != 1:
            raise ValueError(f"{d} is not a power of {p}")
        out[e] += 1
    return dict(sorted(out.items()))


def test_changing_a_view_never_changes_a_later_answer():
    dec = sk1(make_group(3, [27, 27]))
    mult = dec.multiplicities()
    mult[3] = 99
    mult.clear()
    assert dec.multiplicities() == {3: 8, 9: 2}
    by_prime = dec.prime_power_multiplicities(3)
    by_prime[1] = 0
    by_prime[7] = 1
    assert dec.prime_power_multiplicities(3) == {1: 8, 2: 2}
    assert str(dec) == "(C3)^8 x (C9)^2"
    # The same object answers the next query of the group.
    assert sk1(make_group(3, [27, 27])) is dec
    assert dec.multiplicities() == {3: 8, 9: 2}
    assert dec.multiplicities() is not dec.multiplicities()
    assert dec.prime_power_multiplicities(3) is not dec.prime_power_multiplicities(3)


def test_changing_a_prediction_or_a_report_never_changes_a_later_one():
    prediction = predicted_decomposition(3, 4)
    want = dict(prediction.multiplicities)
    prediction.multiplicities[1] = 0
    assert predicted_decomposition(3, 4).multiplicities == want
    dec = sk1(make_group(3, [27, 27]))
    report = verify(3, 3, dec)
    assert report.match
    report.predicted[1] = 0
    report.computed[1] = 0
    report.diffs[5] = (1, 2)
    again = verify(3, 3, dec)
    assert again.match and again.predicted == again.computed == {1: 8, 2: 2}
    assert dec.prime_power_multiplicities(3) == {1: 8, 2: 2}


def test_a_refused_prime_raises_on_every_call():
    dec = CyclicDecomposition((9, 27))
    for _ in range(3):
        with pytest.raises(ValueError, match="27 is not a power of 9"):
            dec.prime_power_multiplicities(9)
        assert dec.prime_power_multiplicities(3) == {2: 1, 3: 1}
    with pytest.raises(ValueError, match="at least 2"):
        dec.prime_power_multiplicities(1)


def test_the_trivial_group_keeps_no_prime():
    # Every p answers the trivial group, so nothing is kept for it: the
    # memo of a nontrivial group holds only the p with a power equal to
    # its least divisor.
    dec = CyclicDecomposition()
    assert all(dec.prime_power_multiplicities(p) == {} for p in range(2, 200))
    assert dec._by_prime == {}
    dec = CyclicDecomposition((81, 81))
    for p in range(2, 100):
        try:
            dec.prime_power_multiplicities(p)
        except ValueError:
            pass
    assert sorted(dec._by_prime) == [3, 9, 81]


def test_a_prime_of_another_type_is_not_kept():
    # 3.0 divides as a float, which cannot hold 3^40 exactly, and 3.0 == 3:
    # were it kept, its answer would stand in for the int 3's.
    dec = CyclicDecomposition((3**40, 3))
    for _ in range(2):
        try:
            dec.prime_power_multiplicities(3.0)
        except ValueError:
            pass
    assert dec._by_prime == {}
    assert dec.prime_power_multiplicities(3) == {1: 1, 40: 1}
    assert [type(p) for p in dec._by_prime] == [int]


def test_the_views_leave_equality_hash_and_repr_alone():
    a, b = CyclicDecomposition((9, 3, 3)), CyclicDecomposition((3, 9, 3))
    a.prime_power_multiplicities(3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "CyclicDecomposition(divisors=(3, 3, 9))"


divisor_lists = st.lists(
    st.one_of(
        st.builds(pow, st.sampled_from([2, 3, 5, 9, 25]), st.integers(1, 6)),
        st.integers(2, 10**6),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(divisor_lists, st.lists(st.integers(2, 30), max_size=6))
def test_every_view_is_a_fresh_recount_of_the_divisors(divisors, primes):
    dec = CyclicDecomposition(tuple(divisors))
    # Each p is asked twice, so the second answer comes from the memo.
    for p in primes + primes + [3, 5]:
        try:
            want = recount(dec.divisors, p)
        except ValueError:
            with pytest.raises(ValueError):
                dec.prime_power_multiplicities(p)
        else:
            assert dec.prime_power_multiplicities(p) == want
            assert list(dec.prime_power_multiplicities(p)) == list(want)
    want = dict(sorted(Counter(dec.divisors).items()))
    assert dec.multiplicities() == want
    assert list(dec.multiplicities()) == list(want)
    assert str(dec) == (" x ".join(f"(C{d})^{m}" for d, m in want.items()) or "0")


# The refused inputs of test_abelian.py and test_metacyclic.py, and a
# prime that does not hash.  Each is asked twice, once after the group
# of a good input has been interned.
REFUSED_GROUPS = [
    *[(p, [p if p > 1 else 3], NonOddPrime) for p in [2, 4, 9, 1, -3, 15]],
    (3.5, [9, 3], NonOddPrime),
    ("3", [9, 3], NonOddPrime),
    ([3], [9, 3], NonOddPrime),
    *[(3, orders, NotPPower) for orders in [[6], [1], [9, 5], [0], [27, 2], [27.9, 27]]],
    (3, [], ValueError),
]
REFUSED_METACYCLIC = [
    (2, 3), (3, 2), (9, 3), (1, 4), (15, 3), (3, 0), (3, 4.5), (3.5, 4), (5.5, 3), ([3], 4),
]


@pytest.mark.parametrize("p,orders,error", REFUSED_GROUPS)
def test_make_group_refuses_as_before_the_cache(p, orders, error):
    for _ in range(2):
        with pytest.raises(error):
            make_group(p, orders)
        make_group(3, [9, 3])


@pytest.mark.parametrize("p,n", REFUSED_METACYCLIC)
def test_make_metacyclic_refuses_as_before_the_cache(p, n):
    for _ in range(2):
        with pytest.raises(BadParams):
            make_metacyclic(p, n)
        make_metacyclic(3, 4)


def test_constructors_intern_their_groups():
    G = make_group(3, [9, 27])
    assert make_group(3, (9, 27)) is G and make_group(3, iter([9, 27])) is G
    assert make_group(3.0, [9.0, 27]) is G
    assert G.orders == (27, 9) and type(G.prime) is int
    assert all(type(o) is int for o in G.orders)
    M = make_metacyclic(5, 4)
    assert make_metacyclic(5, 4) is M and make_metacyclic(5.0, 4.0) is M
    assert type(M.prime) is int and type(M.n) is int


def test_orders_that_do_not_hash_are_still_checked():
    # A 0-d array is an integral order but does not hash: it is checked
    # and built on every call, as before the cache.
    G = make_group(3, [np.array(27), 9])
    assert G == make_group(3, [27, 9]) and type(G.orders[0]) is int
    with pytest.raises(NotPPower):
        make_group(3, [np.array(6)])
    assert make_metacyclic(3, np.array(5)) == make_metacyclic(3, 5)
    with pytest.raises(BadParams):
        make_metacyclic(3, np.array(2))


def test_an_interned_group_still_trips_the_order_guard():
    G = make_metacyclic(3, 5)
    assert sk1_metacyclic(G, max_order=G.order).divisors == (3,) * 6
    H = make_metacyclic(3, 5)
    assert H is G
    with pytest.raises(TooLarge, match="order guard 100"):
        sk1_metacyclic(H, max_order=100)
    with pytest.raises(TooLarge):
        sk1_metacyclic(make_metacyclic(3, 7))
    G = make_group(3, [27, 27])
    assert sk1(G, "exhaustive").divisors == sk1(G).divisors
    with pytest.raises(TooLarge, match="exhaustive-strategy guard"):
        sk1(make_group(3, [27, 27]), "exhaustive", max_order=100)
