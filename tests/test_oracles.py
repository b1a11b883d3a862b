"""Tests of the reference constructions in ``oracles`` that no library
function mirrors any more."""

import numpy as np
import pytest

from oracles import distinct_rows, enumerate_elements, repeated_rows
from sk1.abelian import ENUMERATION_LIMIT, make_group
from sk1.errors import TooLarge
from sk1.snf import seeds_first


def test_enumeration_guard():
    G = make_group(3, [3] * 15)  # 3^15 > 10^7
    assert G.order > ENUMERATION_LIMIT
    with pytest.raises(TooLarge):
        enumerate_elements(G)


def test_distinct_rows_dedupes_across_integer_dtypes():
    # Seeds and rows are keyed in one dtype, so a narrow copy of a seed row
    # or of an earlier row is still a duplicate; the matrix is int64.
    for dtype in (np.uint8, np.int32, np.int64):
        rows = np.array([[3, 0], [1, 2], [1, 2], [0, 3]], dtype=dtype)
        out = np.asarray(distinct_rows([3, 3], rows))
        assert out.dtype == np.int64
        assert out.tolist() == [[3, 0], [0, 3], [1, 2]]
    out = distinct_rows([300], np.array([[44]], dtype=np.uint8))
    assert np.asarray(out).tolist() == [[300], [44]]
    with pytest.raises(TypeError):
        distinct_rows([3, 3], np.array([[1.5, 0.0]]))
    with pytest.raises(TypeError):
        distinct_rows([3, 3], np.array([[1, 0]], dtype=np.uint64))
    with pytest.raises(ValueError):
        distinct_rows([3, 3], np.array([[1, 2, 0]]))


def test_repeated_rows_counts_each_later_copy():
    rows = np.array([[1, 2], [0, 0], [1, 2], [3, 0], [0, 0], [1, 2]], dtype=np.int32)
    # The two later [1, 2], the second zero row and the copy of the seed
    # row [3, 0].
    assert repeated_rows(seeds_first([3, 3], rows)) == 4
    assert repeated_rows(seeds_first([3, 3], rows[:2])) == 0
