"""Constant predicates (the O'Neil–Quass bit-sliced comparison, one
constant at a time), vs the dict reference model."""
import operator

import pytest

from repro.bsi.bsi import BSI
from tests.test_bsi_arith import rand_dict, ref

OPS = {"lt": operator.lt, "le": operator.le, "eq": operator.eq,
       "ge": operator.ge, "gt": operator.gt, "ne": operator.ne}


def bmset(bm):
    return set(bm.to_array().tolist())


def cmp(b, op, k):
    return b.compare_const(op, [k])[0]


KS = [0, 1, 2, 3, 5, 7, 8, 31, 64, 100, 1023, 10**6]


@pytest.mark.parametrize("seed", [30, 31, 32])
@pytest.mark.parametrize("k", KS)
def test_const_predicates(seed, k):
    x = rand_dict(seed, vmax=200)
    bx = ref(x)
    for op, fn in OPS.items():
        assert bmset(cmp(bx, op, k)) == {p for p, v in x.items() if fn(v, k)}, op


def test_gt_zero_is_existence():
    x = rand_dict(33)
    bx = ref(x)
    assert cmp(bx, "gt", 0) == bx.existence()


@pytest.mark.parametrize("lo,hi", [(1, 1), (2, 5), (0, 100), (50, 40), (7, 63)])
def test_range_search(lo, hi):
    # a range as two predicates ANDed, as deep dive merges its filters
    x = rand_dict(34, vmax=100)
    got = bmset(cmp(ref(x), "ge", lo) & cmp(ref(x), "le", hi))
    assert got == {p for p, v in x.items() if lo <= v <= hi}


def test_cmp_with_zero_rows_excluded():
    # paper: a zero value is non-existing, so no predicate selects it,
    # not even "< 1" or "!= 5"
    bx = BSI.from_arrays([1, 2, 3], [3, 0, 4])
    for op in OPS:
        for k in (0, 1, 4, 5):
            assert bmset(cmp(bx, op, k)) <= {1, 3}


@pytest.mark.parametrize("k", [-5, -1, 0, 1, 6, 7, 8, 9, 2**70])
def test_const_predicates_edge_constants(k):
    # values up to 7 take 3 slices: k <= 0 lies below every value and
    # k >= 2**3 above every value, so both answer without a slice scan;
    # key 2 holds only value 1, one row, so k >= 2 lies above it there
    x = {1: 7, 2: 3, 70_000: 1, 70_001: 6, 140_000: 1, 200_000: 7}
    bx = ref(x)
    assert bx.nslices() == 3
    for op, fn in OPS.items():
        assert bmset(cmp(bx, op, k)) == {p for p, v in x.items() if fn(v, k)}, op
