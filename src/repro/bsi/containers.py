"""Roaring-bitmap containers (§2.1 of the paper).

A container holds the low 16 bits of all set positions that share one
high-16-bit key. Two physical representations, as in roaring:

- **array container** — a sorted, unique ``np.uint16`` vector; used
  while cardinality < :data:`ARRAY_THRESHOLD` (4096, roaring's cutoff).
- **bitset container** — a 1024-element ``np.uint64`` vector (65536
  bits); bit ``i`` of word ``w`` (little-endian within the word) is
  position ``w * 64 + i``.

A decoded container takes the representation its cardinality calls
for (`normalize`), so container size tracks data density exactly like
roaring — the compression property the paper's performance results
rely on.

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
    :func:`repro.bsi.bsi.grouped_sums` relies on this). The SWAR runs
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


def widen(lo: int, words: np.ndarray) -> np.ndarray:
    """A bitset container whose words ``[lo, lo + len(words))`` are
    ``words`` and whose other words are zero."""
    c = np.zeros(BITSET_WORDS, dtype=np.uint64)
    c[lo : lo + len(words)] = words
    return c


def span_words(c: np.ndarray) -> tuple[int, np.ndarray]:
    """``(lo, w)``: the words of a non-empty container from its first
    set word ``lo`` to its last, ``w[j]`` being word ``lo + j`` (a view
    of a bitset's words; built from an array's positions)."""
    if is_bitset(c):
        used = np.flatnonzero(c)
        lo = int(used[0])
        return lo, c[lo : int(used[-1]) + 1]
    lo, hi = int(c[0]) >> 6, (int(c[-1]) >> 6) + 1
    bits = np.zeros(64 * (hi - lo), dtype=np.uint8)
    bits[c - np.uint16(64 * lo)] = 1
    return lo, np.packbits(bits, bitorder="little").view(np.uint64)


def bitset_to_array(b: np.ndarray) -> np.ndarray:
    """Convert a bitset container to a (sorted) array container."""
    # a bool view: numpy finds the nonzeros of a bool vector fastest
    bits = np.unpackbits(b.view(np.uint8), bitorder="little").view(bool)
    return np.flatnonzero(bits).astype(np.uint16)


def to_positions(c: np.ndarray | None) -> np.ndarray:
    """Sorted uint16 vector of the set positions."""
    if c is None:
        return np.empty(0, dtype=np.uint16)
    if is_array(c):
        return c
    return bitset_to_array(c)


def normalize(c: np.ndarray | None) -> np.ndarray | None:
    """Re-choose the representation by cardinality; ``None`` if empty.

    Used at decode time and on array-array op results; a bitset op
    result only has its emptiness checked (:func:`_lazy`) and keeps
    its representation, as real roaring does. Serialization picks the
    encoding from the positions, so storage numbers are unaffected."""
    n = card(c)
    if n == 0:
        return None
    if is_bitset(c) and n < ARRAY_THRESHOLD:
        return bitset_to_array(c)
    if is_array(c) and n >= ARRAY_THRESHOLD:
        return array_to_bitset(c)
    return c


def _lazy(c: np.ndarray) -> np.ndarray | None:
    """Emptiness-only normalisation of a bitset op result: the result
    keeps its representation, as real roaring does."""
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


def _run_starts(x: np.ndarray) -> np.ndarray:
    """The first bit of every run of a bitset (or of each row of a
    bitset matrix): the set bits of ``x & ~((x << 1) | carry)``, the
    carry being the previous word's bit 63."""
    starts = np.empty_like(x)
    starts[..., 0] = 0
    np.right_shift(x[..., :-1], np.uint64(63), out=starts[..., 1:])
    starts |= x << np.uint64(1)
    np.bitwise_and(x, ~starts, out=starts)
    return starts


def run_count(c: np.ndarray) -> int:
    """Number of runs of consecutive positions in ``c``. A bitset's runs
    are counted on its words, as CRoaring does (:func:`_run_starts`)."""
    if is_array(c):
        return int(np.count_nonzero(np.diff(c.astype(np.int32)) != 1)) + (len(c) > 0)
    return int(_swar(_run_starts(c), np.empty_like(c)).sum())


def row_counts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cardinality and run count of every row of a bitset word matrix
    (whole containers, or a span of their words with zero words before
    it), each in one popcount pass over the whole matrix."""
    scratch = np.empty_like(m)
    return popcount_rows(m.copy(), scratch), popcount_rows(_run_starts(m), scratch)


def row_positions(m: np.ndarray, cards, word0: int = 0) -> list[np.ndarray]:
    """Sorted uint16 positions of every row of a bitset matrix (or of
    its words from ``word0`` on) whose row cardinalities are ``cards``:
    one unpack and one bool nonzero scan for all rows."""
    bits = np.unpackbits(
        np.ascontiguousarray(m).view(np.uint8), axis=1, bitorder="little"
    ).view(bool)
    j = np.flatnonzero(bits) % bits.shape[1] + 64 * word0
    return np.split(j.astype(np.uint16), np.cumsum(cards)[:-1])


def positions_from_runs(runs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`runs_from_positions`. The runs must be sorted,
    disjoint and end by 65535 (the blob decoder checks this)."""
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
    # one byte per bit (little-endian words): a probe is one index
    return np.unpackbits(c.view(np.uint8), bitorder="little").view(bool)[pos]


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
    op results and derived slices may hold small sets in bitset
    form)."""
    if a is None or b is None:
        return card(a) == card(b) == 0
    if is_array(a) == is_array(b):
        return bool(np.array_equal(a, b))
    return card(a) == card(b) and bool(
        np.array_equal(to_positions(a), to_positions(b))
    )
