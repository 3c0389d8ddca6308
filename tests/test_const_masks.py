"""Differential test of the vector constant predicates
(:meth:`repro.bsi.bsi.BSI.const_masks` and ``compare_const``) against
a pure-Python comparison over ``to_arrays()``: all six ops, constants
from below 1 to past ``2**nslices`` in any order and repeated, and
BSIs packed by ``from_arrays``, decoded from a blob, or built by
``add``, over one to three container keys."""
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi.bsi import BSI

OPS = {"lt": operator.lt, "le": operator.le, "eq": operator.eq,
       "ge": operator.ge, "gt": operator.gt, "ne": operator.ne}


@st.composite
def bsis(draw):
    keys = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
    pos = []
    for k in keys:
        lo = draw(st.integers(0, 65535))
        n = draw(st.integers(1, 5000))
        step = draw(st.integers(1, 3))
        pos.append((k << 16) + np.arange(lo, min(lo + n * step, 1 << 16), step))
    pos = np.concatenate(pos)
    bits = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    vals = rng.integers(1, 1 << bits, len(pos), dtype=np.uint64)
    form = draw(st.sampled_from(["packed", "decoded", "added"]))
    if form == "packed":
        return BSI.from_arrays(pos, vals)
    if form == "decoded":
        return BSI.deserialize(BSI.from_arrays(pos, vals).serialize())
    part = rng.integers(0, vals + 1, dtype=np.uint64)  # 0 <= part <= vals
    return BSI.from_arrays(pos, vals - part).add(BSI.from_arrays(pos, part))


@settings(max_examples=120, deadline=None)
@given(bsis(), st.data())
def test_vector_predicates_match_python(b, data):
    n = b.nslices()
    ks = data.draw(st.lists(st.integers(-5, (1 << n) + 3), min_size=1, max_size=6))
    ks += data.draw(st.lists(st.sampled_from(ks), max_size=3))  # repeats
    pos, vals = b.to_arrays()
    pairs = list(zip(pos.tolist(), vals.tolist()))
    for op, fn in OPS.items():
        got = b.compare_const(op, ks)
        assert len(got) == len(ks)
        for k, bm in zip(ks, got):
            assert bm.to_array().tolist() == [p for p, v in pairs if fn(v, k)], (op, k)
        for lo, w in b.const_masks(op, ks).values():
            assert w.shape[0] == len(ks) and 0 <= lo and lo + w.shape[1] <= 1024


def test_scalar_predicates_are_the_one_constant_case():
    pos = np.arange(0, 200_000, 7)
    b = BSI.from_arrays(pos, pos % 13 + 1)
    for op in ("le", "eq"):
        ks = [-1, 0, 1, 6, 13, 14, 16, 99]
        for k, bm in zip(ks, b.compare_const(op, ks)):
            assert getattr(b, f"{op}_const")(k) == bm


def test_empty_bsi_and_no_constants():
    assert BSI().compare_const("le", [1, 2]) == [BSI().le_const(1)] * 2
    assert not BSI().le_const(3)
    b = BSI.from_arrays([1, 2], [3, 4])
    assert b.compare_const("eq", []) == []
