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


# Computed tables past the paper's table, as {i: multiplicity of C_{p^i}}
# in SK1(C_{p^n}^2), keyed by (p, n).  These are observed values (ROADMAP
# item 1 lists the independent checks); the tests below pin each one
# against a fresh solve.
OBSERVED_SQUARES = {
    (3, 8): {1: 1470, 2: 996, 3: 522, 4: 216, 5: 54, 6: 12, 7: 2},
    (5, 6): {1: 2516, 2: 1040, 3: 300, 4: 40, 5: 4},
    (7, 5): {1: 2076, 2: 630, 3: 84, 4: 6},
}


def test_c6561_squared_is_pinned_as_observed():
    # Past the paper's table the pipeline and the transcribed conjecture
    # disagree: 324 copies of C_81 are predicted and 216 computed.
    from sk1 import sk1
    from sk1.abelian import make_group

    dec = sk1(make_group(3, [6561, 6561]))
    assert dec.prime_power_multiplicities(3) == OBSERVED_SQUARES[3, 8]
    assert verify(3, 8, dec).diffs == {4: (324, 216)}


def test_c15625_squared_is_pinned_as_observed():
    # p = 5 disagrees at C_125: 500 copies are predicted and 300 computed.
    from sk1 import sk1
    from sk1.abelian import make_group

    dec = sk1(make_group(5, [15625, 15625]))
    assert dec.prime_power_multiplicities(5) == OBSERVED_SQUARES[5, 6]
    assert verify(5, 6, dec).diffs == {3: (500, 300)}


def test_c16807_squared_is_pinned_as_observed():
    # p = 7, n = 5 matches the transcribed conjecture.
    from sk1 import sk1
    from sk1.abelian import make_group

    dec = sk1(make_group(7, [16807, 16807]))
    assert dec.prime_power_multiplicities(7) == OBSERVED_SQUARES[7, 5]
    assert verify(7, 5, dec).match


# An unproven hypothesis, fitted to every computed square: the
# multiplicity of C_{p^i} in SK1(C_{p^n}^2), for n >= 2i, is
#     m(p, i, n) = (p - 1)(i * p^(n-i-1) + (n - 2i) * p^(i-1)),
# and the exponents i > n/2 fold to m(p, n - i, 2(n - i)), as in
# ``predicted_decomposition``.  It agrees with ``predicted_multiplicity``
# for i <= 2 at every p and for i = 3 only at p = 3.  Whether the
# transcribed conjecture or this fit is the paper's formula is open: the
# repository holds only the paper's abstract.  It stays here, not in the
# library, until it has a proof.
def fitted_multiplicity(p, i, n):
    return (p - 1) * (i * p ** (n - i - 1) + (n - 2 * i) * p ** (i - 1))


def fitted_decomposition(p, n):
    return {
        i: fitted_multiplicity(p, i, n) if 2 * i <= n
        else fitted_multiplicity(p, n - i, 2 * (n - i))
        for i in range(1, n)
    }


FITTED_SQUARES = (
    [(3, n) for n in range(2, 7)]
    + [(5, n) for n in range(2, 5)]
    + [(7, 2), (7, 3), (11, 2), (11, 3), (13, 2)]
)


@pytest.mark.parametrize("p,n", FITTED_SQUARES)
def test_fitted_hypothesis_matches_the_pipeline(p, n):
    from sk1 import sk1
    from sk1.abelian import make_group

    dec = sk1(make_group(p, [p**n, p**n]))
    assert dec.prime_power_multiplicities(p) == fitted_decomposition(p, n)


@pytest.mark.parametrize("p,n", sorted(OBSERVED_SQUARES))
def test_fitted_hypothesis_matches_the_observed_tables(p, n):
    assert fitted_decomposition(p, n) == OBSERVED_SQUARES[p, n]

