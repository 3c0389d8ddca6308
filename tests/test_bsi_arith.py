"""BSI arithmetic vs a plain numpy/dict reference model.

The reference model is a python dict {position: value} with zeros
absent — exactly the paper's "zero means non-existing" convention.
"""
import numpy as np
import pytest

from repro.bsi.bsi import BSI


def ref(d):
    """dict -> BSI"""
    d = {p: v for p, v in d.items() if v != 0}
    if not d:
        return BSI.empty()
    pos = np.array(sorted(d), dtype=np.uint32)
    vals = np.array([d[p] for p in sorted(d)], dtype=np.uint64)
    return BSI.from_arrays(pos, vals)


def as_dict(b: BSI):
    pos, vals = b.to_arrays()
    return dict(zip(pos.tolist(), vals.tolist()))


def rand_dict(seed, n=500, vmax=1000, pmax=100_000):
    g = np.random.default_rng(seed)
    pos = np.unique(g.integers(0, pmax, n))
    vals = g.integers(0, vmax, len(pos))  # includes zeros -> dropped
    return {int(p): int(v) for p, v in zip(pos, vals) if v}


PAIRS = [
    ({}, {}),
    ({1: 5}, {}),
    ({1: 5}, {1: 7}),
    ({0: 1, 1: 1}, {0: 1, 2: 3}),
    ({i: i for i in range(1, 50)}, {i: 2 * i for i in range(25, 75)}),
    (rand_dict(0), rand_dict(1)),
    (rand_dict(2, vmax=10), rand_dict(3, vmax=100_000)),
    (rand_dict(4, n=5000, pmax=20_000), rand_dict(5, n=5000, pmax=20_000)),
]


@pytest.mark.parametrize("x,y", PAIRS, ids=range(len(PAIRS)))
def test_add(x, y):
    expect = {p: x.get(p, 0) + y.get(p, 0) for p in set(x) | set(y)}
    assert as_dict(ref(x).add(ref(y))) == expect


@pytest.mark.parametrize("x", [d for d, _ in PAIRS if d], ids=range(7))
@pytest.mark.parametrize("k", [1, 2, 7, 255, 256])
def test_add_const(x, k):
    # X + k at X's positions: the sum with a constant BSI of the same
    # positions, so both matrices share every span, and sums such as
    # 255 + 1 carry out of the top row
    expect = {p: v + k for p, v in x.items()}
    assert as_dict(ref(x).add(ref(dict.fromkeys(x, k)))) == expect


def test_roundtrip_from_to_arrays():
    x = rand_dict(12, vmax=1 << 40)
    assert as_dict(ref(x)) == x


def test_zero_values_dropped():
    b = BSI.from_arrays([1, 2, 3], [0, 5, 0])
    assert as_dict(b) == {2: 5}
    assert b.count() == 1


def test_duplicate_positions_rejected():
    with pytest.raises(ValueError):
        BSI.from_arrays([1, 1], [2, 3])


# a uint cast would store these silently as 2**64 - 1, 1 and 1
def test_negative_value_rejected():
    with pytest.raises(ValueError, match="negative value"):
        BSI.from_arrays(np.array([0, 1]), np.array([3, -1]))


def test_non_integral_value_rejected():
    with pytest.raises(ValueError, match="non-integral value"):
        BSI.from_arrays(np.array([0, 1]), np.array([2.0, 1.7]))


def test_position_beyond_uint32_rejected():
    with pytest.raises(ValueError, match="position too large"):
        BSI.from_arrays(np.array([0, 2**32 + 1]), np.array([1, 1]))


def test_integral_floats_and_top_position_accepted():
    b = BSI.from_arrays(np.array([0, 2**32 - 1]), np.array([2.0, 7.0]))
    assert as_dict(b) == {0: 2, 2**32 - 1: 7}


def test_serde_roundtrip():
    for d, _ in PAIRS:
        b = ref(d)
        b2 = BSI.deserialize(b.serialize())
        assert b == b2
        assert b.nbytes() == len(b.serialize())


def test_to_arrays_past_64_slices_raises():
    # (2**64 - 1) + (2**64 - 1) needs 65 slices: sum() stays exact, and
    # to_arrays() raises instead of wrapping the value to 2**64 - 2
    top = ref({7: 2**64 - 1})
    s = top.add(top)
    assert s.nslices() == 65 and s.sum() == 2**65 - 2 and s.count() == 1
    with pytest.raises(ValueError, match="65-slice BSI holds values past uint64"):
        s.to_arrays()
    assert as_dict(top) == {7: 2**64 - 1}
