"""BSI comparison operators (paper Algorithms 1-3 + derived ops) and
constant predicates, vs the dict reference model."""
import numpy as np
import pytest

from repro.bsi.bsi import BSI
from tests.test_bsi_arith import as_dict, rand_dict, ref

PAIRS = [
    ({}, {}),
    ({1: 5}, {1: 5}),
    ({1: 5}, {1: 7}),
    ({1: 7}, {1: 5}),
    ({1: 5, 2: 9}, {2: 9, 3: 4}),
    (rand_dict(20, vmax=50), rand_dict(21, vmax=50)),
    (rand_dict(22, vmax=100_000), rand_dict(23, vmax=100_000)),
    (rand_dict(24, n=4000, pmax=10_000, vmax=8), rand_dict(25, n=4000, pmax=10_000, vmax=8)),
]


def bmset(bm):
    return set(bm.to_array().tolist())


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_lt_le_gt_ge_eq_ne(x, y):
    bx, by = ref(x), ref(y)
    common = set(x) & set(y)
    assert bmset(bx.lt(by)) == {p for p in common if x[p] < y[p]}
    assert bmset(bx.le(by)) == {p for p in common if x[p] <= y[p]}
    assert bmset(bx.gt(by)) == {p for p in common if x[p] > y[p]}
    assert bmset(bx.ge(by)) == {p for p in common if x[p] >= y[p]}
    assert bmset(bx.eq(by)) == {p for p in common if x[p] == y[p]}
    assert bmset(bx.ne(by)) == {p for p in common if x[p] != y[p]}


KS = [0, 1, 2, 3, 5, 7, 8, 31, 64, 100, 1023, 10**6]


@pytest.mark.parametrize("seed", [30, 31, 32])
@pytest.mark.parametrize("k", KS)
def test_const_predicates(seed, k):
    x = rand_dict(seed, vmax=200)
    bx = ref(x)
    assert bmset(bx.lt_const(k)) == {p for p, v in x.items() if v < k}
    assert bmset(bx.le_const(k)) == {p for p, v in x.items() if v <= k}
    assert bmset(bx.gt_const(k)) == {p for p, v in x.items() if v > k}
    assert bmset(bx.ge_const(k)) == {p for p, v in x.items() if v >= k}
    assert bmset(bx.eq_const(k)) == {p for p, v in x.items() if v == k}
    assert bmset(bx.ne_const(k)) == {p for p, v in x.items() if v != k}


def test_gt_zero_is_existence():
    x = rand_dict(33)
    bx = ref(x)
    assert bx.gt_const(0) == bx.existence()


@pytest.mark.parametrize("lo,hi", [(1, 1), (2, 5), (0, 100), (50, 40), (7, 63)])
def test_range_search(lo, hi):
    x = rand_dict(34, vmax=100)
    got = bmset(ref(x).range_search(lo, hi))
    assert got == {p for p, v in x.items() if lo <= v <= hi}


def test_cmp_with_zero_rows_excluded():
    # paper: rows where either side is 0 never appear in comparison output
    x, y = {1: 3, 2: 4}, {2: 4, 3: 9}
    bx, by = ref(x), ref(y)
    for op in ("lt", "le", "gt", "ge", "eq", "ne"):
        assert bmset(getattr(bx, op)(by)) <= {2}


@pytest.mark.parametrize("k", [-5, -1, 0, 1, 6, 7, 8, 9, 2**70])
def test_const_predicates_edge_constants(k):
    # values up to 7 take 3 slices: k <= 0 lies below every value and
    # k >= 2**3 above every value, so both answer without a slice scan
    x = {1: 7, 2: 3, 70_000: 1, 70_001: 6, 200_000: 7}
    bx = ref(x)
    assert bx.nslices() == 3
    assert bmset(bx.lt_const(k)) == {p for p, v in x.items() if v < k}
    assert bmset(bx.le_const(k)) == {p for p, v in x.items() if v <= k}
    assert bmset(bx.gt_const(k)) == {p for p, v in x.items() if v > k}
    assert bmset(bx.ge_const(k)) == {p for p, v in x.items() if v >= k}
    assert bmset(bx.eq_const(k)) == {p for p, v in x.items() if v == k}
    assert bmset(bx.ne_const(k)) == {p for p, v in x.items() if v != k}
