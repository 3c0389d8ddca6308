"""Unit tests for RoaringBitmap against python-set semantics."""
import numpy as np
import pytest

from repro.bsi.bitmap import Probes, RoaringBitmap

SETS = [
    set(),
    {0},
    {1, 2, 3},
    {65535, 65536, 65537},  # container boundary
    set(range(0, 200_000, 17)),
    set(range(70_000, 75_000)),
    set(range(0, 66_000)),  # one full + one partial container
    {2**32 - 1, 0, 123456789},
    set(np.random.default_rng(7).integers(0, 1 << 20, 5000).tolist()),
]


def mk(s):
    return RoaringBitmap.from_array(np.fromiter(s, dtype=np.uint32, count=len(s)))


@pytest.mark.parametrize("i", range(len(SETS)))
@pytest.mark.parametrize("j", range(len(SETS)))
def test_ops_match_sets(i, j):
    a, b = SETS[i], SETS[j]
    ra, rb = mk(a), mk(b)
    assert set((ra & rb).to_array().tolist()) == (a & b)
    assert (ra & rb) == (rb & ra)


@pytest.mark.parametrize("i", range(len(SETS)))
def test_roundtrip_and_card(i):
    s = SETS[i]
    r = mk(s)
    assert r.cardinality() == len(s)
    assert set(r.to_array().tolist()) == s
    assert r.to_array().tolist() == sorted(s)  # sorted output


@pytest.mark.parametrize("i", range(len(SETS)))
def test_serde(i):
    r = mk(SETS[i])
    r2 = RoaringBitmap.deserialize(r.serialize())
    assert r == r2
    assert r.nbytes() == len(r.serialize())


@pytest.mark.parametrize("i", range(len(SETS)))
def test_contains_array(i):
    s = SETS[i]
    probes = np.array([0, 1, 65535, 65536, 2**32 - 1, 70_001], dtype=np.uint32)
    got = mk(s).contains_array(probes)
    assert got.tolist() == [int(p) in s for p in probes]


@pytest.mark.parametrize("i", range(len(SETS)))
def test_contains_array_out_of_range_is_no_member(i):
    s = SETS[i]
    probes = np.array(
        [-1, 0, -(2**32) + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33 + 70_001, 70_001],
        dtype=np.int64,
    )
    got = mk(s).contains_array(probes)
    assert got.tolist() == [int(p) in s for p in probes]
    assert not mk(s).contains_array(np.array([2**64 - 1], dtype=np.uint64)).any()


def test_probes_split_once_for_many_bitmaps():
    probes_arr = np.array([3, 2**32, 65_536, -7, 70_001, 0, 2**20 + 5], dtype=np.int64)
    probes = Probes(probes_arr)
    for s in SETS:
        assert mk(s).contains_array(probes).tolist() == [int(p) in s for p in probes_arr]


@pytest.mark.parametrize("pos", [
    [5, 0, 65535, 12],                                 # one key
    [3, 65_536, 70_001, 0, 2**20 + 5, 2**32 - 1, 3],   # several keys
    [],
])
def test_probes_of_uint32_split_as_the_wide_ids_do(pos):
    # uint32 probes hold no position outside [0, 2**32), so they are
    # split as they are: the same pieces as the int64 vector's
    narrow, wide = Probes(np.array(pos, dtype=np.uint32)), Probes(np.array(pos, dtype=np.int64))
    assert narrow.n == wide.n == len(pos)
    assert len(narrow.pieces) == len(wide.pieces)
    for (k, idx, lo), (k2, idx2, lo2) in zip(narrow.pieces, wide.pieces):
        assert k == k2 and lo.dtype == np.uint16 and np.array_equal(lo, lo2)
        assert np.array_equal(np.arange(len(pos))[idx], np.arange(len(pos))[idx2])
    for s in SETS:
        assert mk(s).contains_array(narrow).tolist() == [p in s for p in pos]


def test_equality():
    # equal as sets, whatever the containers' form
    a = mk(SETS[4])
    assert a == mk(SETS[4]) == RoaringBitmap.deserialize(a.serialize())
    assert a == mk(SETS[4]).densify()
    assert not (a == mk(SETS[4] | {999_999_999}))


def test_from_array_dedups():
    r = RoaringBitmap.from_array(np.array([5, 5, 5, 9], dtype=np.uint32))
    assert r.cardinality() == 2


def test_empty():
    e = RoaringBitmap.empty()
    assert not e and len(e) == 0 and e.to_array().size == 0
    assert (e & e) == e and (e & mk({1, 2})) == e
