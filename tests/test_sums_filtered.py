"""Differential test of the batched filtered-sum kernel
(:func:`repro.bsi.bsi.sums_filtered`) against a pure-Python sum over
``to_arrays()``, on random BSIs and filters that reach its edges:
several container keys, array and bitset filter containers (densified
or not), keys on only one side, empty filters, ``None`` values,
filters confined to the first or last word of a container, and values
up to 2**64 - 1; values built from arrays against the same values
decoded from their blobs; the filters' counts, which :func:`repro.core.scorecard.score_segment`
reports as exposed users."""
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi import bsi as B
from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI, sums_filtered
from repro.core.scorecard import score_segment

KEYS = st.integers(0, 3)
# (container key, first low position, count, step): runs of up to 6000
# positions, so one key can hold a bitset container (>= 4096 positions).
BLOCKS = st.lists(
    st.tuples(KEYS, st.integers(0, 65535), st.integers(1, 6000), st.integers(1, 3)),
    max_size=3,
)


def positions(blocks) -> np.ndarray:
    parts = [
        (k << 16) + np.arange(lo, min(lo + n * step, 1 << 16), step)
        for k, lo, n, step in blocks
    ]
    return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)


@st.composite
def value_bsis(draw):
    pos = positions(draw(BLOCKS))
    bits = draw(st.sampled_from([1, 7, 40, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    vals = rng.integers(1, (1 << bits) - 1, len(pos), dtype=np.uint64, endpoint=True)
    if len(vals):
        vals[0] = (1 << bits) - 1  # the widest value of this width
    b = BSI.from_arrays(pos, vals)
    return b if draw(st.booleans()) else BSI.deserialize(b.serialize())


@st.composite
def edge_filters(draw):
    """Bits only in word 0 or only in word 1023 of one container."""
    key, word = draw(KEYS), draw(st.sampled_from([0, 1023]))
    mask = draw(st.integers(1, 2**64 - 1))
    bits = [i for i in range(64) if (mask >> i) & 1]
    return (key << 16) + word * 64 + np.array(bits)


@st.composite
def filters(draw):
    pos = draw(st.one_of(BLOCKS.map(positions), edge_filters()))
    bm = RoaringBitmap.from_array(pos)
    return bm.densify() if draw(st.booleans()) else bm


def reference(value: BSI | None, flt: RoaringBitmap) -> int:
    if value is None:
        return 0
    pos, vals = value.to_arrays()
    keep = set(flt.to_array().tolist())
    return sum(int(v) for p, v in zip(pos.tolist(), vals) if p in keep)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(st.none(), value_bsis()), max_size=4),
    st.lists(filters(), max_size=4),
)
def test_sums_filtered_matches_python_sum(values, flts):
    got = sums_filtered(values, flts)
    assert got == [[reference(v, f) for v in values] for f in flts]
    assert all(type(t) is int for row in got for t in row)


def test_sums_filtered_wide_values_exact():
    # 2**64 - 1 at every position of a full bitset container: the total
    # needs 80 bits, past any fixed-width integer.
    pos = np.arange(1 << 16)
    b = BSI.from_arrays(pos, np.full(len(pos), 2**64 - 1, dtype=np.uint64))
    ones = RoaringBitmap.from_array(pos)
    assert sums_filtered([b], [ones, RoaringBitmap.empty()]) == [
        [(2**64 - 1) << 16], [0]
    ]


def test_sums_filtered_splits_into_blocks():
    # full-width containers (1024 words): a block holds 64 rows, so
    # three 64-slice values (192 rows) are split into row chunks, and
    # 40 filters over three 7-slice values (21 rows) into filter groups
    rng = np.random.default_rng(5)
    pos = np.unique(rng.integers(0, 1 << 17, 60_000))
    wide = [
        BSI.from_arrays(pos, rng.integers(1, 2**64 - 1, len(pos), dtype=np.uint64))
        for _ in range(3)
    ]
    narrow = [
        BSI.from_arrays(pos, rng.integers(64, 127, len(pos))) for _ in range(3)
    ]
    flts = [RoaringBitmap.from_array(rng.choice(pos, 5000)) for _ in range(40)]
    flts[0] = RoaringBitmap.from_array([0, (1 << 16) - 1, 1 << 16, (1 << 17) - 1])
    for values, fs in ((wide, flts[:3]), (narrow, flts)):
        assert sums_filtered(values, fs) == [[reference(v, f) for v in values] for f in fs]


@st.composite
def keyed_values(draw):
    """``(positions, values)`` whose value width differs per block, so
    the high slices of a wide block lack the keys of narrow blocks
    (zero rows in the packed matrix)."""
    pos, vals = [], []
    for k, lo, n, step in draw(BLOCKS):
        p = (k << 16) + np.arange(lo, min(lo + n * step, 1 << 16), step)
        bits = draw(st.sampled_from([1, 3, 17, 64]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        v = rng.integers(1, (1 << bits) - 1, len(p), dtype=np.uint64, endpoint=True)
        v[-1] = (1 << bits) - 1
        pos.append(p)
        vals.append(v)
    if not pos:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    pos, vals = np.concatenate(pos), np.concatenate(vals)
    pos, first = np.unique(pos, return_index=True)
    return pos, vals[first]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(keyed_values(), max_size=4),
    # filters may hold keys 4-5, which no value holds
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 65535), st.integers(1, 6000),
                           st.integers(1, 3)), max_size=3).map(positions),
        max_size=5,
    ),
    st.sampled_from([B._CHUNK_WORDS, 300, 1]),
)
def test_packed_equals_canonical_equals_python(columns, filter_pos, chunk_words):
    packed = [BSI.from_arrays(p, v) for p, v in columns]
    canonical = [BSI.deserialize(b.serialize()) for b in packed]
    flts = [RoaringBitmap.from_array(p) for p in filter_pos]
    want = [[reference(v, f) for v in canonical] for f in flts]
    with mock.patch.object(B, "_CHUNK_WORDS", chunk_words):  # forces block splits
        for values in (packed, canonical):
            got, counts = sums_filtered(values, flts, return_counts=True)
            assert got == want
            assert counts == [f.cardinality() for f in flts]
    for c, p in zip(canonical, packed):
        assert p == c
        assert p.serialize() == c.serialize()


def test_densify_packs_slices_into_one_matrix_per_key():
    # key 0 holds 3-bit values at the even positions below 9000 (words
    # 0-140), key 2 only value 1 at positions 0-9 (word 0): slices 1 and
    # 2 lack key 2, so its matrix has one row
    pos = np.r_[np.arange(0, 9000, 2), (2 << 16) + np.arange(10)]
    vals = np.r_[np.full(4500, 7), np.ones(10)].astype(np.uint64)
    blob = BSI.from_arrays(pos, vals).serialize()
    b = BSI.deserialize(blob).densify()  # the packed form deserialize built
    read = [RoaringBitmap.deserialize(s) for s in _slice_blobs(blob)]
    assert sorted(b._packed) == [0, 2]
    assert [(lo, m.shape) for lo, m in b._packed.values()] == [(0, (3, 141)), (0, (1, 1))]
    for k, (lo, m) in b._packed.items():
        assert m.flags.c_contiguous and m[:, 0].any() and m[:, -1].any() and m[-1].any()
        for i, s in enumerate(read):
            if k in s._c:
                want = C.array_to_bitset(C.to_positions(s._c[k]))
                assert np.array_equal(C.widen(lo, m[i]), want)
            else:
                assert i >= len(m) or not m[i].any()
    assert b.serialize() == blob and b.densify() is b
    assert BSI.deserialize(blob) == b == BSI.from_arrays(pos, vals)


def _slice_blobs(blob: bytes) -> list[bytes]:
    """The slice bitmaps' blobs inside a BSI blob."""
    out, off = [], 4
    for _ in range(blob[3]):
        (n,) = struct.unpack_from("<I", blob, off)
        out.append(blob[off + 4 : off + 4 + n])
        off += 4 + n
    return out


def test_serialize_and_nbytes_keep_packed_views():
    """Sizing and writing a BSI read its matrices in place; the bytes
    are those its slice bitmaps serialize to one by one."""
    pos = np.r_[np.arange(0, 9000, 2), (2 << 16) + np.arange(10)]
    vals = np.r_[np.full(4500, 7), np.ones(10)].astype(np.uint64)
    b = BSI.from_arrays(pos, vals)
    n, blob = b.nbytes(), b.serialize()
    assert _slice_blobs(blob) == [s.serialize() for s in b.slices]
    assert n == len(blob) == 4 + sum(4 + len(s.serialize()) for s in b.slices)
    assert BSI.deserialize(blob) == b


def test_counts_of_empty_and_array_filters():
    pos = np.arange(0, 70_000, 3)
    b = BSI.from_arrays(pos, pos % 5)
    flts = [
        RoaringBitmap.empty(),
        RoaringBitmap.from_array([3, 6, 65_538]),  # array containers
        RoaringBitmap.from_array(np.arange(1 << 16, 1 << 17)),  # a full container
    ]
    got, counts = sums_filtered([b, None], flts, return_counts=True)
    assert counts == [0, 3, 1 << 16]
    assert got == [[reference(b, f), 0] for f in flts]


def test_score_segment_exposed_is_cardinality():
    # two strategies over one segment, 4 buckets; strategy 2 exposes
    # nobody on the date and bucket 4 (stored as 5) holds nobody, so
    # those filters select no one and their rows are dropped
    rng = np.random.default_rng(9)
    pos = np.arange(5000)
    offset1 = BSI.from_arrays(pos, rng.integers(1, 4, len(pos)))
    offset2 = BSI.from_arrays(pos, np.full(len(pos), 7))
    bucket = BSI.from_arrays(pos, rng.integers(1, 4, len(pos), endpoint=True))
    metric = BSI.from_arrays(pos, rng.integers(0, 100, len(pos)))
    exposes = [(1, 1, offset1, bucket), (2, 1, offset2, bucket)]
    sums, exposed = score_segment(
        exposes, {(7, 2): metric}, dates=[2], metric_ids=[7, 8], n_buckets=5
    )
    assert sums.shape == (1, 2, 5, 2) and exposed.shape == (1, 2, 5)
    flt = offset1.le_const(2)
    want = {}
    for b in range(5):
        bm = bucket.eq_const(b + 1) & flt
        if bm.cardinality():
            want[(1, 7, b)] = (float(metric.sum_filtered(bm)), bm.cardinality())
            want[(1, 8, b)] = (0.0, bm.cardinality())
    assert len(want) == 8  # buckets 0-3 of strategy 1, both metrics
    got = {
        (exposes[s][0], mid, b): (sums[0, s, b, m], exposed[0, s, b])
        for s, b in zip(*np.nonzero(exposed[0]))
        for m, mid in enumerate([7, 8])
    }
    assert got == want
    assert not sums[0][exposed[0] == 0].any()
