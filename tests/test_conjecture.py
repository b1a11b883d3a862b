"""Tests for predicted decompositions of SK1 for squares of cyclic p-groups."""

import pytest

from sk1.conjecture import (
    predicted_decomposition,
    predicted_multiplicity,
    verify,
)
from sk1.errors import BadParams
from sk1.snf import CyclicDecomposition


def test_multiplicity_closed_form():
    assert predicted_multiplicity(3, 1, 2) == 2
    assert predicted_multiplicity(3, 1, 3) == 8
    assert predicted_multiplicity(3, 1, 4) == 22
    assert predicted_multiplicity(3, 2, 4) == 12
    assert predicted_multiplicity(3, 2, 5) == 42
    assert predicted_multiplicity(5, 1, 2) == 4
    assert predicted_multiplicity(5, 2, 4) == 40


def test_multiplicity_of_smallest_cycle_closed_form():
    # The C_p multiplicity collapses to (p - 1) * (p^(n-2) + n - 2).
    for p in (3, 5, 7):
        for n in range(2, 8):
            want = (p - 1) * (p ** (n - 2) + n - 2)
            assert predicted_decomposition(p, n).multiplicities[1] == want


@pytest.mark.parametrize(
    "args", [(2, 1, 2), (9, 1, 2), (3, 0, 2), (3, -1, 2), (3, 1, 1), (3, 2, 3)]
)
def test_multiplicity_rejects_bad_params(args):
    with pytest.raises(BadParams):
        predicted_multiplicity(*args)


def test_predicted_decomposition_small():
    pred = predicted_decomposition(3, 2)
    assert pred.multiplicities == {1: 2}
    assert pred.decomposition() == CyclicDecomposition((3, 3))
    pred = predicted_decomposition(3, 3)
    assert pred.multiplicities == {1: 8, 2: 2}
    assert str(pred.decomposition()) == "(C3)^8 x (C9)^2"
    assert predicted_decomposition(5, 2).multiplicities == {1: 4}


def test_predicted_decomposition_n6():
    pred = predicted_decomposition(3, 6)
    assert pred.multiplicities == {1: 170, 2: 120, 3: 54, 4: 12, 5: 2}


def test_predicted_decomposition_folds_upper_exponents():
    # For i with 2i > n the prediction reuses the value at (n-i, 2(n-i)),
    # so the top proper exponent always carries multiplicity p - 1.
    for p in (3, 5, 7):
        for n in range(3, 9):
            pred = predicted_decomposition(p, n)
            assert sorted(pred.multiplicities) == list(range(1, n))
            assert pred.multiplicities[n - 1] == p - 1
            for i in range(1, n):
                if 2 * i > n:
                    want = predicted_multiplicity(p, n - i, 2 * (n - i))
                    assert pred.multiplicities[i] == want


def test_predicted_decomposition_rejects_bad_params():
    with pytest.raises(BadParams):
        predicted_decomposition(3, 1)
    with pytest.raises(BadParams):
        predicted_decomposition(2, 4)
    with pytest.raises(BadParams):
        predicted_decomposition(3.5, 4)
    with pytest.raises(BadParams):
        predicted_multiplicity(3.5, 1, 2)


def test_predicted_decomposition_takes_an_integral_float_prime():
    pred = predicted_decomposition(3.0, 3)
    assert pred == predicted_decomposition(3, 3)
    assert pred.decomposition().divisors == (3,) * 8 + (9,) * 2
    assert predicted_multiplicity(3.0, 1, 3) == predicted_multiplicity(3, 1, 3)


@pytest.mark.parametrize(
    "args", [(3, 1, 4.5), (3, 1.5, 4), (3, 2.5, 6), (3, 1, 2.000001)]
)
def test_multiplicity_rejects_non_integral_i_or_n(args):
    with pytest.raises(BadParams):
        predicted_multiplicity(*args)


@pytest.mark.parametrize("n", [4.5, 2.5, 3.000001])
def test_predicted_decomposition_rejects_non_integral_n(n):
    with pytest.raises(BadParams):
        predicted_decomposition(3, n)
    with pytest.raises(BadParams):
        verify(3, n, CyclicDecomposition((3,) * 8))


def test_integral_float_i_and_n_act_as_ints():
    m = predicted_multiplicity(3, 1.0, 4.0)
    assert m == predicted_multiplicity(3, 1, 4) == 22
    assert type(m) is int
    pred = predicted_decomposition(3, 4.0)
    assert pred == predicted_decomposition(3, 4)
    assert type(pred.n) is int
    assert all(type(m) is int for m in pred.multiplicities.values())


def test_verify_match():
    computed = CyclicDecomposition((3,) * 8 + (9,) * 2)
    report = verify(3, 3, computed)
    assert report.match
    assert report.diffs == {}
    assert report.predicted == {1: 8, 2: 2}
    assert report.computed == {1: 8, 2: 2}


def test_verify_mismatch_reports_disagreeing_exponents():
    report = verify(3, 3, CyclicDecomposition((3,) * 8))
    assert not report.match
    assert report.diffs == {2: (2, 0)}
    report = verify(3, 3, CyclicDecomposition((3,) * 8 + (9,) * 2 + (27,)))
    assert not report.match
    assert report.diffs == {3: (0, 1)}


def test_verify_rejects_foreign_torsion():
    with pytest.raises(ValueError):
        verify(3, 3, CyclicDecomposition((3, 5)))


# C_2187^2 = (3, 7) and C_3125^2 = (5, 5) lie past the paper's table; each
# solves in a few seconds on the sparse relation lattice.
@pytest.mark.parametrize(
    "p,n", [(5, 2), (5, 3), (5, 4), (5, 5), (7, 2), (7, 3), (7, 4), (3, 7)]
)
def test_verify_against_pipeline(p, n):
    from sk1 import sk1
    from sk1.abelian import make_group

    report = verify(p, n, sk1(make_group(p, [p**n, p**n])))
    assert report.match
