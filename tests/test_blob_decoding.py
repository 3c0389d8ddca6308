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
