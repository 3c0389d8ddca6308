"""Building BSIs and choosing container encodings: ``BSI.from_arrays``
(packed slice matrices written from the values' bit planes) against a
slice-by-slice ``RoaringBitmap.from_array`` reference and the blob its
slices serialize to, and the word-level run count of ``serialize``
against counting runs on the decoded positions."""
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap, encode_rows
from repro.bsi.bsi import BSI

U64_MAX = (1 << 64) - 1


def _same_positions(a: RoaringBitmap, b: RoaringBitmap) -> bool:
    return a._c.keys() == b._c.keys() and np.array_equal(a.to_array(), b.to_array())


def _assert_packed(b: BSI, ref: list[RoaringBitmap]) -> None:
    """Per key of the reference slices ``ref``, ``b`` holds one
    C-contiguous ``(rows, hi - lo)`` matrix of the words ``[lo, hi)``,
    minimal (its first and last columns and its last row are non-zero):
    row ``i`` widened to 1024 words is ``ref[i]``'s container there, a
    slice without the key has a zero row, and the slices above ``rows``
    lack the key."""
    assert b.nslices() == len(ref)
    assert set(b._packed) == set().union(*(s._c.keys() for s in ref))
    for k, (lo, m) in b._packed.items():
        assert m.dtype == np.uint64 and m.flags.c_contiguous
        assert 0 <= lo < lo + m.shape[1] <= C.BITSET_WORDS
        assert m[:, 0].any() and m[:, -1].any() and m[-1].any()
        assert all(k not in s._c for s in ref[len(m):])
        for s, row in zip(ref, m):
            c = s._c.get(k)
            if c is None:
                assert not row.any()
            else:
                assert np.array_equal(C.widen(lo, row), C.array_to_bitset(C.to_positions(c)))


def _kinds(bm_blob: bytes) -> dict[int, int]:
    """Container key -> kind byte (0 array, 1 bitset, 2 runs) of a
    serialized RoaringBitmap."""
    (n,) = struct.unpack_from("<I", bm_blob, 3)
    off, out = 7, {}
    for _ in range(n):
        k, kind, count = struct.unpack_from("<HBI", bm_blob, off)
        off += 7 + (2 * count, 8 * C.BITSET_WORDS, 4 * count)[kind]
        out[k] = kind
    return out


def slices_of(pos: list[int], vals: list[int]) -> list[RoaringBitmap]:
    """One from_array call per slice, over the positions holding bit i
    (values are Python ints, of any width)."""
    nbits = max(vals, default=0).bit_length()
    return [
        RoaringBitmap.from_array(
            np.array([p for p, v in zip(pos, vals) if v >> i & 1], dtype=np.uint32)
        )
        for i in range(nbits)
    ]


def blob_of(slices: list[RoaringBitmap]) -> bytes:
    """The BSI blob of these slices, assembled from their own
    ``RoaringBitmap.serialize``: magic, slice count, then each slice's
    blob after its length."""
    parts = [b"BS1", struct.pack("<B", len(slices))]
    for bm in slices:
        blob = bm.serialize()
        parts += [struct.pack("<I", len(blob)), blob]
    return b"".join(parts)


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
    ref = slices_of(pos, vals)
    _assert_packed(got, ref)
    assert len(got.slices) == len(ref)
    for g, r in zip(got.slices, ref):
        assert _same_positions(g, r)
        assert g.serialize() == r.serialize()
    assert got.serialize() == blob_of(ref)


@pytest.mark.parametrize("n", [4095, 4096])
def test_from_arrays_container_kind_at_threshold(n):
    # in memory every key is a packed matrix and a slice derived from it
    # holds bitsets; on disk the kind is chosen from the positions, as
    # the slice-by-slice reference (array below 4096 per key, bitset
    # from 4096) chooses it
    pos = np.concatenate([np.arange(n), (1 << 16) + np.arange(0, 2 * n, 2), [5 << 16]])
    got = BSI.from_arrays(pos[::-1], np.ones(len(pos), dtype=np.uint64))
    ref = RoaringBitmap.from_array(pos)
    assert {k: c.dtype for k, c in ref._c.items()} == {
        0: np.uint16 if n < 4096 else np.uint64, 1: np.uint16 if n < 4096 else np.uint64,
        5: np.uint16,
    }
    _assert_packed(got, [ref])
    assert {k: c.dtype for k, c in got.slices[0]._c.items()} == dict.fromkeys([0, 1, 5], np.uint64)
    blob = got.slices[0].serialize()
    assert blob == ref.serialize()
    # key 0 is one run; key 1 (every other position) is an array while
    # its 2n bytes fit the 8 KB of a bitset, which they do up to 4096
    assert _kinds(blob) == {0: 2, 1: 0, 5: 0}


@pytest.mark.parametrize("n, kind", [(4096, 0), (4097, 1)])
def test_serialized_kind_from_packed_rows(n, kind):
    # the array/bitset choice on disk, from a packed row: array up to
    # 4096 positions (8 KB), bitset past it
    pos = np.arange(0, 2 * n, 2)
    blob = BSI.from_arrays(pos, np.ones(n, dtype=np.uint64)).slices[0].serialize()
    assert _kinds(blob) == {0: kind}
    assert blob == RoaringBitmap.from_array(pos).serialize()


@pytest.mark.parametrize("order", ["increasing", "shuffled"])
def test_from_arrays_sorted_or_shuffled_input(order):
    # strictly increasing positions are taken without a sort; any other
    # order is sorted first; both give the reference BSI
    rng = np.random.default_rng(9)
    pos = np.sort(rng.choice(3 << 16, 9000, replace=False)).astype(np.uint32)
    vals = rng.integers(0, 1 << 40, len(pos), dtype=np.uint64)
    if order == "shuffled":
        perm = rng.permutation(len(pos))
        pos, vals = pos[perm], vals[perm]
    got = BSI.from_arrays(pos, vals)
    ref = slices_of(pos.tolist(), vals.tolist())
    _assert_packed(got, ref)
    blob = blob_of(ref)
    assert got.serialize() == blob and got == BSI.deserialize(blob)
    o = np.argsort(pos)
    keep = vals[o] != 0
    p, v = got.to_arrays()
    assert p.tolist() == pos[o][keep].tolist() and v.tolist() == vals[o][keep].tolist()


def test_from_arrays_increasing_with_one_duplicate_raises():
    pos = np.array([1, 5, 9, 9, 70000], dtype=np.uint32)
    with pytest.raises(ValueError, match="duplicate positions"):
        BSI.from_arrays(pos, np.arange(1, 6, dtype=np.uint64))
    # a duplicate whose value is zero is dropped with its row, not an error
    vals = np.array([1, 2, 0, 3, 4], dtype=np.uint64)
    assert BSI.from_arrays(pos, vals).to_arrays()[0].tolist() == [1, 5, 9, 70000]


def test_from_arrays_bounds_plane_blocks(monkeypatch):
    # bit planes built a few rows at a time give the same matrices
    import repro.bsi.bsi as B

    rng = np.random.default_rng(3)
    pos = rng.choice(1 << 18, 5000, replace=False)
    vals = rng.integers(1, U64_MAX, len(pos), dtype=np.uint64, endpoint=True)
    whole = BSI.from_arrays(pos, vals)
    monkeypatch.setattr(B, "_BUILD_WORDS", 3 * 1500)
    blocks = BSI.from_arrays(pos, vals)
    _assert_packed(blocks, slices_of(pos.tolist(), vals.tolist()))
    assert whole._packed.keys() == blocks._packed.keys()
    for k, (lo, m) in whole._packed.items():
        assert blocks._packed[k][0] == lo and np.array_equal(blocks._packed[k][1], m)


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
    assert encode_rows(bitset[None]) == [ref]
    bm = RoaringBitmap({7: C.normalize(bitset)})
    kind, count, payload = ref
    blob = b"RB1" + struct.pack("<I", 1) + struct.pack("<HBI", 7, kind, count) + payload
    assert bm.serialize() == blob
    assert bm.nbytes() == len(blob)
    assert RoaringBitmap.deserialize(blob) == bm


@settings(max_examples=60, deadline=None)
@given(st.lists(containers(), min_size=1, max_size=6), st.data())
def test_encode_rows_matches_each_container(rows, data):
    # a packed matrix's rows, zero rows among them, encode as their
    # containers do one by one
    m = np.stack([b for _, b in rows] + [np.zeros(C.BITSET_WORDS, np.uint64)])
    m = m[data.draw(st.permutations(range(len(m))))]
    want = [RoaringBitmap._encode_container(r) if r.any() else None for r in m]
    assert encode_rows(m) == want


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


# -- span-trimmed matrices: a key costs the words its positions use ---------
def test_sparse_keys_cost_what_they_hold():
    # 100 positions on 100 keys with 64-bit values: one word per key, so
    # 64 words of matrices per key, not 64 × 1024
    rng = np.random.default_rng(5)
    pos = (np.arange(100, dtype=np.uint32) << np.uint32(16)) + rng.integers(
        0, 65536, 100
    ).astype(np.uint32)
    vals = rng.integers(1 << 63, U64_MAX, 100, dtype=np.uint64, endpoint=True)
    got = BSI.from_arrays(pos, vals)
    ref = slices_of(pos.tolist(), vals.tolist())
    _assert_packed(got, ref)
    assert got.held_bytes() == 100 * 64 * 8 == 51_200
    blob = got.serialize()
    assert blob == blob_of(ref) and got.nbytes() == len(blob)
    # nothing derived is kept: decoding, comparing, the slice view and
    # the existence bitmap leave the matrices alone
    got.to_arrays()
    assert got == BSI.deserialize(blob)
    assert len(got.slices) == 64 and got.existence().cardinality() == 100
    assert got.held_bytes() == 51_200


# low bits at and next to word and container edges, in the first two and
# last two container keys: positions 0, 63, 64, 65535, 65536, 2**32 - 1
EDGE_LOWS = st.one_of(
    st.sampled_from([0, 1, 62, 63, 64, 65, 127, 128, 65471, 65472, 65534, 65535]),
    st.integers(0, 65535),
)
EDGE_POSITIONS = st.lists(
    st.tuples(st.sampled_from([0, 1, 65534, 65535]), EDGE_LOWS).map(lambda t: t[0] << 16 | t[1]),
    min_size=1, max_size=40, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(EDGE_POSITIONS, st.data())
def test_from_arrays_at_word_and_key_edges(pos, data):
    vals = data.draw(st.lists(
        st.one_of(st.integers(0, 3), st.integers(1, U64_MAX)), min_size=len(pos), max_size=len(pos)
    ))
    assume(any(vals))
    got = BSI.from_arrays(np.array(pos, dtype=np.uint32), np.array(vals, dtype=np.uint64))
    ref = slices_of(pos, vals)
    # minimal spans, zero rows for slices without the key, equal words
    _assert_packed(got, ref)
    blob = got.serialize()
    assert blob == blob_of(ref) and got.nbytes() == len(blob)
    back = BSI.deserialize(blob)
    assert back._packed.keys() == got._packed.keys()
    for k, (lo, m) in got._packed.items():
        assert back._packed[k][0] == lo and np.array_equal(back._packed[k][1], m)
