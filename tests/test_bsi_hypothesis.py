"""Property-based fuzzing of bitmap and BSI ops with hypothesis."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from tests.test_bsi_build import blob_of, slices_of

pos_sets = st.sets(st.integers(0, 1 << 18), max_size=300)
val_dicts = st.dictionaries(st.integers(0, 1 << 18), st.integers(1, 1 << 20), max_size=120)


def mk(s):
    return RoaringBitmap.from_array(np.array(sorted(s), dtype=np.uint32))


def mkb(d):
    ks = sorted(d)
    return BSI.from_arrays(
        np.array(ks, dtype=np.uint32), np.array([d[k] for k in ks], dtype=np.uint64)
    )


@settings(max_examples=150, deadline=None)
@given(pos_sets, pos_sets)
def test_bitmap_ops(a, b):
    ra, rb = mk(a), mk(b)
    assert set((ra & rb).to_array().tolist()) == a & b
    assert set((ra.densify() & rb).to_array().tolist()) == a & b
    assert RoaringBitmap.deserialize(ra.serialize()) == ra


@settings(max_examples=100, deadline=None)
@given(val_dicts, val_dicts)
def test_bsi_add_and_compare(x, y):
    bx, by = mkb(x), mkb(y)
    s = bx.add(by)
    pos, vals = s.to_arrays()
    got = dict(zip(pos.tolist(), vals.tolist()))
    assert got == {p: x.get(p, 0) + y.get(p, 0) for p in set(x) | set(y)}
    # the sum's predicates, at the operands' largest values
    for k in {max(x.values(), default=1), max(y.values(), default=1)}:
        assert set(s.le_const(k).to_array().tolist()) == {p for p, v in got.items() if v <= k}
        assert set(s.eq_const(k).to_array().tolist()) == {p for p, v in got.items() if v == k}


@settings(max_examples=100, deadline=None)
@given(val_dicts, st.integers(0, 1 << 21))
def test_bsi_const_predicates(x, k):
    bx = mkb(x)
    assert set(bx.le_const(k).to_array().tolist()) == {p for p, v in x.items() if v <= k}
    gt = bx.compare_const("gt", [k])[0]
    assert set(gt.to_array().tolist()) == {p for p, v in x.items() if v > k}
    assert set(bx.eq_const(k).to_array().tolist()) == {p for p, v in x.items() if v == k}


@settings(max_examples=100, deadline=None)
@given(val_dicts)
def test_bsi_aggregates_and_serde(x):
    bx = mkb(x)
    assert bx.sum() == sum(x.values())
    assert bx.count() == len(x)
    assert BSI.deserialize(bx.serialize()) == bx


# -- the packed adder: a ripple carry per container key ----------------
@st.composite
def operands(draw):
    """A {position: value} dict over container keys 0-3, in blocks whose
    spans within a key differ from draw to draw; any side may be empty
    or hold keys the other lacks. Values of up to 64 bits."""
    pos = set()
    for k, lo, n, step in draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 65535), st.integers(1, 300),
                  st.integers(1, 200)), max_size=3,
    )):
        pos.update((k << 16) + p for p in range(lo, min(lo + n * step, 1 << 16), step))
    bits = draw(st.sampled_from([1, 7, 33, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    vals = rng.integers(1, (1 << bits) - 1, len(pos), dtype=np.uint64, endpoint=True)
    return dict(zip(sorted(pos), map(int, vals)))


@settings(max_examples=150, deadline=None)
@example({}, {})
@example({}, {5: 3})  # an empty operand
@example({1: 1, 70_000: 2}, {(2 << 16) + 5: 7})  # disjoint keys
@example({0: 1, 640: 3}, {320: 1, 5000: 2**40})  # spans that differ within a key
@example({1: 2**64 - 1, 2: 1}, {1: 2**64 - 1, 3: 2**64 - 1})  # 64 + 64 bits
@given(operands(), operands())
def test_packed_add_matches_python_ints(x, y):
    want = {p: x.get(p, 0) + y.get(p, 0) for p in x.keys() | y.keys()}
    s = mkb(x).add(mkb(y))
    assert s.sum() == sum(want.values()) and s.count() == len(want)
    assert s.nslices() == max(want.values(), default=0).bit_length()
    # the bytes the slices of the Python sums serialize to
    assert s.serialize() == blob_of(slices_of(list(want), list(want.values())))
    if s.nslices() <= 64:
        pos, vals = s.to_arrays()
        assert dict(zip(pos.tolist(), vals.tolist())) == want
    # minimal spans and rows with no trim: every matrix has a non-zero
    # first column, last column and top row
    for lo, m in s._packed.values():
        assert m.flags.c_contiguous and m[:, 0].any() and m[:, -1].any() and m[-1].any()
    assert s == BSI.deserialize(s.serialize())
    assert s == mkb(y).add(mkb(x))
