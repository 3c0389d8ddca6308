"""The program API the frozen benchmark (``perfbench/``) calls: every
traced target resolves, ``container_kinds`` reads a blob's container
kinds as its slice bitmaps serialize them, and a decoded BSI answers
the replayed operations (``densify``, ``le_const``, ``eq_const``,
``sum_filtered``, ``to_arrays``, ``count``, ``sum``) as Python does.
A change that removes one of them fails here, not in a benchmark run."""
import struct
from collections import Counter

import numpy as np

from perfbench.run import trace_targets
from perfbench.workloads import container_kinds
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from tests.test_bsi_build import slices_of


def _sample() -> tuple[np.ndarray, np.ndarray]:
    # array, bitset and run containers over three keys
    rng = np.random.default_rng(11)
    pos = np.r_[np.arange(0, 30_000, 3), [70_000, 70_005], np.arange(140_000, 141_000)]
    return pos, rng.integers(1, 1000, len(pos))


def test_trace_targets_resolve():
    targets = trace_targets()
    assert targets
    for owner, name, label, _ in targets:
        assert callable(getattr(owner, name)), label


def _kinds_of(bm_blob: bytes) -> Counter:
    """Container kinds written in a serialized RoaringBitmap."""
    (n,) = struct.unpack_from("<I", bm_blob, 3)
    off, out = 7, Counter()
    for _ in range(n):
        _, kind, count = struct.unpack_from("<HBI", bm_blob, off)
        off += 7 + (2 * count, 8 * 1024, 4 * count)[kind]
        out[("array", "bitset", "run")[kind]] += 1
    return out


def test_container_kinds_match_the_reference_slices():
    pos, vals = _sample()
    want = Counter()
    for s in slices_of(pos.tolist(), vals.tolist()):
        want += _kinds_of(s.serialize())
    assert set(want) == {"array", "bitset", "run"}
    assert container_kinds(BSI.from_arrays(pos, vals).serialize()) == want


def test_replayed_operations_match_python():
    pos, vals = _sample()
    b = BSI.deserialize(BSI.from_arrays(pos, vals).serialize()).densify()
    flt = RoaringBitmap.from_array(pos[::7])
    keep = set(pos[::7].tolist())
    for k in (0, 1, 500, 999, 1000):
        assert b.le_const(k).to_array().tolist() == pos[vals <= k].tolist()
        assert b.eq_const(k).to_array().tolist() == pos[vals == k].tolist()
    assert b.sum_filtered(flt) == sum(int(v) for p, v in zip(pos, vals) if p in keep)
    got_pos, got_vals = b.to_arrays()
    assert got_pos.tolist() == pos.tolist() and got_vals.tolist() == vals.tolist()
    assert b.count() == len(pos) and b.sum() == int(vals.sum())
