"""Building BSIs and choosing container encodings: ``BSI.from_arrays``
(one position sort, slices built from sorted pieces) against a
slice-by-slice ``RoaringBitmap.from_array`` reference, and the
word-level run count of ``serialize`` against counting runs on the
decoded positions."""
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI

U64_MAX = (1 << 64) - 1


def _same_bitmap(a: RoaringBitmap, b: RoaringBitmap) -> bool:
    return a._c.keys() == b._c.keys() and all(
        a._c[k].dtype == b._c[k].dtype and np.array_equal(a._c[k], b._c[k]) for k in a._c
    )


def _reference(pos: list[int], vals: list[int]) -> list[RoaringBitmap]:
    """One from_array call per slice, over the positions holding bit i."""
    nbits = max(vals, default=0).bit_length()
    return [
        RoaringBitmap.from_array(
            np.array([p for p, v in zip(pos, vals) if v >> i & 1], dtype=np.uint32)
        )
        for i in range(nbits)
    ]


# positions over at least three container keys, in random order; each
# key's part is sparse (array containers) or dense (bitset containers).
# Hypothesis draws the shape; a seeded generator fills in the arrays.
@st.composite
def bsi_inputs(draw):
    keys = draw(st.lists(st.integers(0, 65535), min_size=3, max_size=5, unique=True))
    dense = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for k, d in zip(keys, dense):
        n = int(rng.integers(4000, 5536)) if d else int(rng.integers(1, 60))
        parts.append((k << 16) + rng.choice(65536, n, replace=False))
    pos = rng.permutation(np.concatenate(parts)).astype(np.uint32)
    # per position: zero, a small value, any uint64, or 2**64 - 1
    kind = rng.integers(0, 4, len(pos))
    vals = rng.integers(0, U64_MAX, len(pos), dtype=np.uint64, endpoint=True)
    vals[kind == 0] = 0
    vals[kind == 1] = rng.integers(1, 256, (kind == 1).sum(), dtype=np.uint64)
    vals[kind == 3] = U64_MAX
    return pos.tolist(), vals.tolist()


@settings(max_examples=60, deadline=None)
@given(bsi_inputs())
def test_from_arrays_matches_slice_by_slice_reference(inp):
    pos, vals = inp
    got = BSI.from_arrays(np.array(pos, dtype=np.uint32), np.array(vals, dtype=np.uint64))
    ref = BSI(_reference(pos, vals))
    assert len(got.slices) == len(ref.slices)
    for g, r in zip(got.slices, ref.slices):
        assert _same_bitmap(g, r)
        assert g.serialize() == r.serialize()
    assert got.serialize() == ref.serialize()


@pytest.mark.parametrize("n", [4095, 4096])
def test_from_arrays_container_kind_at_threshold(n):
    # array below 4096 positions per key, bitset from 4096 on
    pos = np.concatenate([np.arange(n), (1 << 16) + np.arange(0, 2 * n, 2), [5 << 16]])
    got = BSI.from_arrays(pos[::-1], np.ones(len(pos), dtype=np.uint64))
    kinds = {k: c.dtype for k, c in got.slices[0]._c.items()}
    want = np.uint16 if n < 4096 else np.uint64
    assert kinds == {0: want, 1: want, 5: np.uint16}


@settings(max_examples=40, deadline=None)
@given(bsi_inputs(), st.data())
def test_from_arrays_duplicate_positions_raise(inp, data):
    pos, vals = inp
    nz = [i for i, v in enumerate(vals) if v]
    if not nz:
        vals[0], nz = 1, [0]
    i = data.draw(st.sampled_from(nz))
    pos, vals = pos + [pos[i]], vals + [data.draw(st.integers(1, U64_MAX))]
    with pytest.raises(ValueError, match="duplicate positions"):
        BSI.from_arrays(np.array(pos, dtype=np.uint32), np.array(vals, dtype=np.uint64))


# -- serialize: runs counted on the words ----------------------------------
def _reference_encoding(c: np.ndarray) -> tuple[int, int, bytes]:
    """The encoding choice made on decoded positions."""
    pos = C.to_positions(c)
    runs = C.runs_from_positions(pos)
    if 4 * len(runs) < min(2 * len(pos), 8 * C.BITSET_WORDS):
        return 2, len(runs), runs.tobytes()
    if 2 * len(pos) <= 8 * C.BITSET_WORDS:
        return 0, len(pos), pos.tobytes()
    return 1, 0, (c if C.is_bitset(c) else C.array_to_bitset(pos)).tobytes()


runs_st = st.lists(
    st.tuples(
        # starts near word boundaries (multiples of 64) or anywhere
        st.one_of(st.integers(0, 1023).map(lambda w: 64 * w - 1), st.integers(0, 65535)),
        st.integers(1, 700),
    ),
    min_size=1, max_size=40,
)


@st.composite
def containers(draw):
    shape = draw(st.sampled_from(["random", "dense-prefix", "straddling"]))
    if shape == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        lows = set(rng.choice(65536, draw(st.integers(1, 6000)), replace=False).tolist())
    elif shape == "dense-prefix":
        n = draw(st.integers(1, 65536))
        lows = set(range(n)) | draw(st.sets(st.integers(0, 65535), max_size=50))
    else:
        lows = {p for s, n in draw(runs_st) for p in range(max(s, 0), min(s + n, 65536))}
    assume(lows)
    a = np.array(sorted(lows), dtype=np.uint16)
    return a, C.array_to_bitset(a)


@settings(max_examples=200, deadline=None)
@given(containers())
def test_encoding_matches_counting_on_positions(c):
    array, bitset = c
    ref = _reference_encoding(array)
    assert C.run_count(array) == C.run_count(bitset) == len(C.runs_from_positions(array))
    for form in (array, bitset):
        assert RoaringBitmap._encode_container(form) == ref
    bm = RoaringBitmap({7: C.normalize(bitset)})
    kind, count, payload = ref
    blob = b"RB1" + struct.pack("<I", 1) + struct.pack("<HBI", 7, kind, count) + payload
    assert bm.serialize() == blob
    assert bm.nbytes() == len(blob)
    assert RoaringBitmap.deserialize(blob) == bm


@pytest.mark.parametrize("lows", [
    [63, 64],                       # one run across a word boundary
    [0, 63, 64, 127, 128],          # runs touching both ends of words
    list(range(64, 128)),           # exactly one full word
    [65535],                        # the last bit of the last word
    list(range(65536)),             # full container: one run
])
def test_run_count_at_word_edges(lows):
    a = np.array(lows, dtype=np.uint16)
    assert C.run_count(C.array_to_bitset(a)) == len(C.runs_from_positions(a))
