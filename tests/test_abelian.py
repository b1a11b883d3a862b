import random

import pytest

from sk1.abelian import make_group
from sk1.errors import NonOddPrime, NotPPower

import oracles
from oracles import enumerate_elements, mul


def test_make_group_normalizes_orders_descending():
    G = make_group(3, [3, 27])
    assert G.orders == (27, 3)
    assert G.exponent == 27
    assert G.order == 81


def test_make_group_square():
    G = make_group(3, [9, 9])
    assert G.orders == (9, 9)
    assert G.order == 81
    assert make_group(3, [9.0, 9]) == G


@pytest.mark.parametrize("p", [2, 4, 9, 1, -3, 15])
def test_make_group_rejects_non_odd_primes(p):
    with pytest.raises(NonOddPrime):
        make_group(p, [p if p > 1 else 3])


def test_make_group_takes_integral_primes_only():
    with pytest.raises(NonOddPrime):
        make_group(3.5, [9, 3])
    with pytest.raises(NonOddPrime):
        make_group("3", [9, 3])
    G = make_group(3.0, [9.0, 3])
    assert G == make_group(3, [9, 3])
    assert type(G.prime) is int


@pytest.mark.parametrize("orders", [[6], [1], [9, 5], [0], [27, 2], [27.9, 27]])
def test_make_group_rejects_non_p_powers(orders):
    with pytest.raises(NotPPower):
        make_group(3, orders)


def test_make_group_requires_a_factor():
    with pytest.raises(ValueError):
        make_group(3, [])


def test_mul_wraps_coordinates():
    G = make_group(3, [9, 3])
    assert mul(G, (8, 2), (1, 1)) == (0, 0)
    assert mul(G, (4, 1), (7, 2)) == (2, 0)


def test_element_order_examples():
    G = make_group(3, [27, 9])
    assert oracles.order_by_iteration(G, G.identity()) == 1
    assert oracles.order_by_iteration(G, (3, 3)) == 9
    assert oracles.order_by_iteration(G, (1, 0)) == 27
    assert oracles.order_by_iteration(G, (0, 3)) == 3


def test_enumeration_is_lexicographic():
    G = make_group(3, [3, 3])
    els = enumerate_elements(G)
    assert len(els) == 9
    assert els[0] == (0, 0)
    assert els[1] == (0, 1)
    assert els[-1] == (2, 2)
    assert els == sorted(els)


def test_enumeration_count():
    G = make_group(3, [9, 9])
    assert len(enumerate_elements(G)) == 81


def test_mul_is_associative_commutative_with_identity():
    rng = random.Random(7)
    for orders in ([9, 9], [27, 3], [3, 3, 3]):
        G = make_group(3, orders)
        els = enumerate_elements(G)
        e = G.identity()
        for _ in range(200):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert mul(G, x, y) == mul(G, y, x)
            assert mul(G, mul(G, x, y), z) == mul(G, x, mul(G, y, z))
            assert mul(G, x, e) == x


def test_group_names_print_orders_in_full_up_to_the_printable():
    assert str(make_group(3, [243, 3])) == "C243xC3"
    assert str(make_group(7, [117649, 117649])) == "C117649xC117649"
    assert str(make_group(3, [3**19])) == "C1162261467"
    # 3^9100 has more than the 4300 digits Python prints.
    assert str(make_group(3, [3**9100, 3**9100, 3])) == "C3^9100xC3^9100xC3"
