"""Roaring-bitmap containers (§2.1 of the paper).

A container holds the low 16 bits of all set positions that share one
high-16-bit key. Two physical representations, as in roaring:

- **array container** — a sorted, unique ``np.uint16`` vector; used
  while cardinality < :data:`ARRAY_THRESHOLD` (4096, roaring's cutoff).
- **bitset container** — a 1024-element ``np.uint64`` vector (65536
  bits); bit ``i`` of word ``w`` (little-endian within the word) is
  position ``w * 64 + i``.

The representation is re-chosen after every operation (`normalize`),
so container size tracks data density exactly like roaring — this is
the compression property the paper's performance results rely on.

All functions are free functions over numpy arrays; the container kind
is encoded in the dtype (``uint16`` = array, ``uint64`` = bitset). An
empty container is represented by ``None`` and is never stored.
"""
from __future__ import annotations

import numpy as np

ARRAY_THRESHOLD = 4096
BITSET_WORDS = 1024  # 65536 bits
CONTAINER_BITS = 1 << 16

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _swar(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SWAR popcount of every uint64 word of ``x``, in place (``t`` is
    scratch of the same shape); returns ``x``, now one count per word."""
    np.right_shift(x, np.uint64(1), out=t)
    t &= _M1
    x -= t
    np.right_shift(x, np.uint64(2), out=t)
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, np.uint64(4), out=t)
    x += t
    x &= _M4
    x *= _H01
    x >>= np.uint64(56)
    return x


def popcount_rows(m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Row-wise popcount of a 2-D uint64 matrix — one numpy pass for a
    whole stack of bitset containers (the batched aggregate kernel
    :func:`repro.bsi.bsi.sums_filtered` relies on this). The SWAR runs
    in place: ``m`` is overwritten, ``scratch`` (a buffer of ``m``'s
    shape) is clobbered, and only the row sums are allocated."""
    return _swar(m, scratch).sum(axis=1)


def is_array(c: np.ndarray) -> bool:
    """True if ``c`` is an array container (sorted uint16 positions)."""
    return c.dtype == np.uint16


def is_bitset(c: np.ndarray) -> bool:
    """True if ``c`` is a bitset container (1024 uint64 words)."""
    return c.dtype == np.uint64


def card(c: np.ndarray | None) -> int:
    """Number of set positions in the container (0 for ``None``)."""
    if c is None:
        return 0
    if is_array(c):
        return len(c)
    return int(_swar(c.copy(), np.empty_like(c)).sum())


def array_to_bitset(a: np.ndarray) -> np.ndarray:
    """Convert an array container to a bitset container."""
    bits = np.zeros(CONTAINER_BITS, dtype=np.uint8)
    bits[a] = 1
    return np.packbits(bits, bitorder="little").view(np.uint64)


def bitset_to_array(b: np.ndarray) -> np.ndarray:
    """Convert a bitset container to a (sorted) array container."""
    bits = np.unpackbits(b.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.uint16)


def from_positions(pos: np.ndarray) -> np.ndarray | None:
    """Build a container from a vector of (not necessarily sorted,
    possibly duplicated) uint16-range positions."""
    if len(pos) == 0:
        return None
    a = np.unique(np.asarray(pos, dtype=np.uint16))
    if len(a) < ARRAY_THRESHOLD:
        return a
    return array_to_bitset(a)


def to_positions(c: np.ndarray | None) -> np.ndarray:
    """Sorted uint16 vector of the set positions."""
    if c is None:
        return np.empty(0, dtype=np.uint16)
    if is_array(c):
        return c
    return bitset_to_array(c)


def normalize(c: np.ndarray | None) -> np.ndarray | None:
    """Re-choose the representation by cardinality; ``None`` if empty.

    Used at build/compact time; op hot paths use :func:`_lazy`, which
    only detects emptiness (a cheap ``any()``) and otherwise keeps the
    incoming representation — real roaring makes the same trade, and
    :meth:`RoaringBitmap.compact` restores the strict form before
    serialization so storage numbers are unaffected."""
    n = card(c)
    if n == 0:
        return None
    if is_bitset(c) and n < ARRAY_THRESHOLD:
        return bitset_to_array(c)
    if is_array(c) and n >= ARRAY_THRESHOLD:
        return array_to_bitset(c)
    return c


def _lazy(c: np.ndarray | None) -> np.ndarray | None:
    """Emptiness-only normalisation for op results (no repr change)."""
    if c is None:
        return None
    if is_array(c):
        return c if len(c) else None
    return c if c.any() else None


def runs_from_positions(a: np.ndarray) -> np.ndarray:
    """RLE of a sorted position array: (n_runs, 2) uint16 of
    (start, length-1) pairs — roaring's run container encoding, used
    at serialization time when it is the smallest of the three forms
    (position encoding by engagement makes dense prefixes -> runs)."""
    if len(a) == 0:
        return np.empty((0, 2), dtype=np.uint16)
    a32 = a.astype(np.int64)
    breaks = np.flatnonzero(np.diff(a32) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(a) - 1]])
    out = np.empty((len(starts), 2), dtype=np.uint16)
    out[:, 0] = a[starts]
    out[:, 1] = (a32[ends] - a32[starts]).astype(np.uint16)
    return out


def positions_from_runs(runs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`runs_from_positions`."""
    if len(runs) == 0:
        return np.empty(0, dtype=np.uint16)
    lens = runs[:, 1].astype(np.int64) + 1
    base = np.repeat(runs[:, 0].astype(np.int64), lens)
    offs = np.arange(lens.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
    )
    return (base + offs).astype(np.uint16)


def contains(c: np.ndarray | None, pos: np.ndarray) -> np.ndarray:
    """Vectorised membership: bool vector, one entry per ``pos``."""
    pos = np.asarray(pos, dtype=np.uint16)
    if c is None or len(pos) == 0:
        return np.zeros(len(pos), dtype=bool)
    if is_array(c):
        idx = np.searchsorted(c, pos)
        idx_c = np.minimum(idx, len(c) - 1)
        return c[idx_c] == pos
    p = pos.astype(np.uint64)
    return ((c[p >> np.uint64(6)] >> (p & np.uint64(63))) & np.uint64(1)).astype(bool)


def c_and(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Intersection of two containers (containers are immutable —
    results may alias an operand, never modify a returned container)."""
    if a is None or b is None:
        return None
    if is_array(a) and is_array(b):
        r = np.intersect1d(a, b, assume_unique=True)
        return r if len(r) else None
    if is_bitset(a) and is_bitset(b):
        return _lazy(a & b)
    arr, bs = (a, b) if is_array(a) else (b, a)
    r = arr[contains(bs, arr)]
    return r if len(r) else None


def c_or(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Union of two containers."""
    if a is None:
        return b
    if b is None:
        return a
    if is_array(a) and is_array(b):
        r = np.union1d(a, b)
        return normalize(r.astype(np.uint16))
    if is_bitset(a) and is_bitset(b):
        return a | b  # card only grows; stays a bitset
    arr, bs = (a, b) if is_array(a) else (b, a)
    out = bs.copy()
    p = arr.astype(np.uint64)
    np.bitwise_or.at(out, p >> np.uint64(6), np.uint64(1) << (p & np.uint64(63)))
    return out


def c_xor(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Symmetric difference of two containers."""
    if a is None:
        return b
    if b is None:
        return a
    if is_array(a) and is_array(b):
        r = np.setxor1d(a, b, assume_unique=True)
        return normalize(r.astype(np.uint16))
    if is_bitset(a) and is_bitset(b):
        return _lazy(a ^ b)
    arr, bs = (a, b) if is_array(a) else (b, a)
    out = bs.copy()
    p = arr.astype(np.uint64)
    np.bitwise_xor.at(out, p >> np.uint64(6), np.uint64(1) << (p & np.uint64(63)))
    return _lazy(out)


def c_andnot(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Difference ``a \\ b``."""
    if a is None:
        return None
    if b is None:
        return a
    if is_array(a):
        r = a[~contains(b, a)]
        return r if len(r) else None
    if is_bitset(b):
        return _lazy(a & ~b)
    # a bitset, b array: clear b's bits in a copy of a.
    out = a.copy()
    p = b.astype(np.uint64)
    np.bitwise_and.at(out, p >> np.uint64(6), ~(np.uint64(1) << (p & np.uint64(63))))
    return _lazy(out)


def c_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Set equality of two containers (representation-agnostic, since
    lazily-normalised op results may hold small sets in bitset form)."""
    if a is None or b is None:
        return card(a) == card(b) == 0
    if is_array(a) == is_array(b):
        return bool(np.array_equal(a, b))
    return card(a) == card(b) and bool(
        np.array_equal(to_positions(a), to_positions(b))
    )
