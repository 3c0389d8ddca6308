"""In-BSI aggregates (sum, count, filtered sum) and sumBSI, the
paper's aggregate over BSIs that the pre-experiment pipeline runs."""
import numpy as np
import pytest

from repro.bsi.bsi import BSI, sum_bsi
from tests.test_bsi_arith import as_dict, rand_dict, ref

DICTS = [
    {1: 1},
    {1: 5, 9: 2, 100: 77},
    rand_dict(40, vmax=10),
    rand_dict(41, vmax=1000),
    rand_dict(42, n=3000, vmax=100_000),
    {i: 1 for i in range(1000)},
]


@pytest.mark.parametrize("d", DICTS, ids=range(len(DICTS)))
def test_sum_and_count(d):
    b = ref(d)
    assert b.sum() == sum(d.values())
    assert b.count() == len(d)


def test_sum_filtered():
    d = rand_dict(43)
    keep = {p for p in d if p % 3 == 0}
    from repro.bsi.bitmap import RoaringBitmap

    bm = RoaringBitmap.from_array(np.array(sorted(keep), dtype=np.uint32))
    assert ref(d).sum_filtered(bm) == sum(v for p, v in d.items() if p in keep)


def test_empty_aggregates():
    b = BSI.empty()
    assert b.sum() == 0 and b.count() == 0
    assert b.to_arrays()[0].size == 0 and not b.existence()


def test_sum_bsi_many():
    ds = [rand_dict(s) for s in (50, 51, 52, 53)]
    expect = {}
    for d in ds:
        for p, v in d.items():
            expect[p] = expect.get(p, 0) + v
    assert as_dict(sum_bsi(ref(d) for d in ds)) == expect
