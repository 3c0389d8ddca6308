"""Unit tests for roaring containers against python-set semantics."""
import numpy as np
import pytest

from repro.bsi import containers as C


def mk(vals):
    """Container from a python iterable of positions."""
    return C.normalize(np.array(sorted(set(vals)), dtype=np.uint16))


def setof(c):
    return set(C.to_positions(c).tolist())


CASES = [
    (set(), set()),
    ({1, 2, 3}, set()),
    (set(), {4, 5}),
    ({0}, {0}),
    ({0, 65535}, {65535}),
    ({1, 2, 3}, {2, 3, 4}),
    (set(range(100)), set(range(50, 150))),
    (set(range(0, 60000, 3)), set(range(0, 60000, 5))),  # bitset x bitset
    (set(range(0, 60000, 7)), {3, 14, 21}),  # bitset x array
    ({5, 10, 15}, set(range(0, 60000, 11))),  # array x bitset
    (set(range(4095)), set(range(4000, 8200))),  # threshold edges
    (set(range(65536)), {12345}),
    (set(range(65536)), set(range(65536))),
]


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_and(a, b):
    assert setof(C.c_and(mk(a), mk(b))) == (a & b)


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_or(a, b):
    assert setof(C.c_or(mk(a), mk(b))) == (a | b)


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_xor(a, b):
    assert setof(C.c_xor(mk(a), mk(b))) == (a ^ b)


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_andnot(a, b):
    assert setof(C.c_andnot(mk(a), mk(b))) == (a - b)


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_card_and_equal(a, b):
    ca, cb = mk(a), mk(b)
    assert C.card(ca) == len(a)
    assert C.c_equal(ca, cb) == (a == b)


@pytest.mark.parametrize("a,b", CASES, ids=range(len(CASES)))
def test_contains(a, b):
    probe = np.array(sorted(b | {0, 1, 65535}), dtype=np.uint16)
    got = C.contains(mk(a), probe)
    assert got.tolist() == [int(p) in a for p in probe]


@pytest.mark.parametrize("n", [0, 1, 10, 4095, 4096, 5000, 65536])
def test_representation_choice(n):
    c = mk(range(n))
    if n == 0:
        assert c is None
    elif n < C.ARRAY_THRESHOLD:
        assert C.is_array(c)
    else:
        assert C.is_bitset(c)


def test_normalize_roundtrip():
    a = mk(range(5000))
    arr = C.bitset_to_array(a)
    assert C.card(arr) == 5000
    assert C.c_equal(C.normalize(arr), a)


def test_ops_do_not_mutate_inputs():
    a, b = mk(range(0, 100, 2)), mk(range(0, 100, 3))
    sa, sb = setof(a), setof(b)
    bits = (C.array_to_bitset(a), C.array_to_bitset(b))
    for op in (C.c_and, C.c_or, C.c_xor, C.c_andnot):
        op(a, b)
        op(*bits)
    assert setof(a) == sa and setof(b) == sb
