"""Differential test of the batched filtered-sum kernel
(:func:`repro.bsi.bsi.sums_filtered`) against a pure-Python sum over
``to_arrays()``, on random BSIs and filters that reach its edges:
several container keys, array and bitset containers (densified or
not), keys on only one side, empty filters, ``None`` values, filters
confined to the first or last word of a container, and values up to
2**64 - 1."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI, sums_filtered

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
    return b.densify() if draw(st.booleans()) else b


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
        BSI.from_arrays(pos, rng.integers(1, 2**64 - 1, len(pos), dtype=np.uint64)).densify()
        for _ in range(3)
    ]
    narrow = [
        BSI.from_arrays(pos, rng.integers(64, 127, len(pos))).densify() for _ in range(3)
    ]
    flts = [RoaringBitmap.from_array(rng.choice(pos, 5000)) for _ in range(40)]
    flts[0] = RoaringBitmap.from_array([0, (1 << 16) - 1, 1 << 16, (1 << 17) - 1])
    for values, fs in ((wide, flts[:3]), (narrow, flts)):
        assert sums_filtered(values, fs) == [[reference(v, f) for v in values] for f in fs]
