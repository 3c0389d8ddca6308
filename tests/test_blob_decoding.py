"""Corrupt or truncated blobs fail at decode with one ValueError that
names the defect, never with a numpy/struct error or a wrong result."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI


def sample_bsi() -> BSI:
    # array, bitset and run containers across three keys
    pos = np.concatenate([np.arange(0, 30_000, 3), [70_000, 70_005], np.arange(140_000, 141_000)])
    return BSI.from_arrays(pos, np.arange(1, len(pos) + 1))


def test_unknown_container_kind():
    blob = bytearray(RoaringBitmap.from_array([1, 5, 9]).serialize())
    # header: magic (3) + count (4); container: key u16, then kind u8
    assert blob[9] == 0
    blob[9] = 7
    with pytest.raises(ValueError, match="unknown RoaringBitmap container kind 7"):
        RoaringBitmap.deserialize(bytes(blob))


@pytest.mark.parametrize("decode,blob", [
    (RoaringBitmap.deserialize, RoaringBitmap.from_array([5, 70_000]).serialize()),
    (BSI.deserialize, sample_bsi().serialize()),
], ids=["bitmap", "bsi"])
def test_trailing_bytes(decode, blob):
    with pytest.raises(ValueError, match="3 trailing bytes"):
        decode(blob + b"xyz")


@pytest.mark.parametrize("decode,blob,what", [
    (RoaringBitmap.deserialize, RoaringBitmap.from_array(np.arange(0, 9000, 2)).serialize(),
     "RoaringBitmap"),
    (BSI.deserialize, sample_bsi().serialize(), "BSI"),
], ids=["bitmap", "bsi"])
def test_truncated(decode, blob, what):
    with pytest.raises(ValueError, match=f"truncated {what} blob"):
        decode(blob[:-1])


def test_truncated_slice_length():
    # a BSI whose one slice is cut inside its length prefix
    blob = b"BS1" + struct.pack("<B", 1) + b"\x10\x00"
    with pytest.raises(ValueError, match="truncated BSI blob"):
        BSI.deserialize(blob)


BLOBS = [
    RoaringBitmap.empty().serialize(),
    RoaringBitmap.from_array([1, 2, 3, 100_000]).serialize(),
    BSI.empty().serialize(),
    sample_bsi().serialize(),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BLOBS), st.data())
def test_every_truncation_raises_value_error(blob, data):
    cut = data.draw(st.integers(0, len(blob) - 1))
    decode = BSI.deserialize if blob[:3] == b"BS1" else RoaringBitmap.deserialize
    assert decode(blob) is not None
    with pytest.raises(ValueError, match="truncated"):
        decode(blob[:cut])


# -- containers no bitmap serializes to --------------------------------
def _blob(*containers) -> bytes:
    """A RoaringBitmap blob of (key, kind, count, payload) containers."""
    parts = [b"RB1", struct.pack("<I", len(containers))]
    for key, kind, count, payload in containers:
        parts += [struct.pack("<HBI", key, kind, count), payload]
    return b"".join(parts)


def _runs(*runs) -> tuple[int, bytes]:
    return len(runs), np.array(runs, dtype=np.uint16).tobytes()


def test_run_passing_65535():
    # (start 65530, length 10) used to decode to 65530..65535, 0..3
    blob = _blob((0, 2, *_runs((65530, 9))))
    with pytest.raises(ValueError, match="run passes 65535 \\(key 0\\)"):
        RoaringBitmap.deserialize(blob)


@pytest.mark.parametrize("runs", [((10, 5), (12, 3)), ((100, 0), (10, 0))],
                         ids=["overlap", "out-of-order"])
def test_runs_overlapping_or_out_of_order(runs):
    with pytest.raises(ValueError, match="runs overlap or are out of order"):
        RoaringBitmap.deserialize(_blob((0, 2, *_runs(*runs))))


@pytest.mark.parametrize("lows", [[5, 3, 9], [3, 3, 9]], ids=["unsorted", "duplicate"])
def test_array_payload_not_strictly_increasing(lows):
    blob = _blob((1, 0, 3, np.array(lows, dtype=np.uint16).tobytes()))
    with pytest.raises(ValueError, match="array container not sorted and unique \\(key 1\\)"):
        RoaringBitmap.deserialize(blob)


def _bsi_blob(*slices: bytes) -> bytes:
    """A BSI blob of these slice bitmap blobs."""
    return b"BS1" + bytes([len(slices)]) + b"".join(struct.pack("<I", len(b)) + b for b in slices)


EMPTY_CONTAINER = "empty RoaringBitmap container \\(key 4\\)"


@pytest.mark.parametrize("decode,blob,what", [
    (RoaringBitmap.deserialize, _blob((4, 0, 0, b"")), EMPTY_CONTAINER),
    (RoaringBitmap.deserialize, _blob((4, 2, 0, b"")), EMPTY_CONTAINER),
    (RoaringBitmap.deserialize, _blob((4, 1, 0, bytes(8 * 1024))), EMPTY_CONTAINER),
    # a BSI's top slice holds its largest values' top bit: never empty
    (BSI.deserialize, _bsi_blob(RoaringBitmap.from_array([1, 70_000]).serialize(),
                                RoaringBitmap.empty().serialize()),
     "empty top slice in a 2-slice BSI blob"),
], ids=["array", "run", "bitset", "bsi-top-slice"])
def test_empty_container(decode, blob, what):
    with pytest.raises(ValueError, match=what):
        decode(blob)


@pytest.mark.parametrize("keys", [(5, 5), (5, 2)], ids=["repeated", "decreasing"])
def test_keys_not_increasing(keys):
    one = np.array([7], dtype=np.uint16).tobytes()
    blob = _blob(*[(k, 0, 1, one) for k in keys])
    with pytest.raises(ValueError, match=f"container key {keys[1]} after key 5"):
        RoaringBitmap.deserialize(blob)


def test_valid_hand_made_blob_decodes():
    # the checks pass what serialize writes: adjacent runs, a single
    # run ending at 65535, an array, increasing keys
    blob = _blob(
        (0, 2, *_runs((0, 4), (5, 0), (65530, 5))),
        (3, 0, 2, np.array([1, 65535], dtype=np.uint16).tobytes()),
    )
    got = RoaringBitmap.deserialize(blob).to_array().tolist()
    assert got == [0, 1, 2, 3, 4, 5, *range(65530, 65536), 3 * 65536 + 1, 4 * 65536 - 1]
