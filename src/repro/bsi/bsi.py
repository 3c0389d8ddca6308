"""Bit-sliced index arithmetic (§2.2–§2.3, §4.1 of the paper).

A :class:`BSI` represents a non-negative integer column ``C`` over
encoded positions: ``C[j] = sum_i slice_i[j] * 2**i``. Zero values
are *treated as non-existing* (the paper's convention): a position
carries a value iff it is set in at least one slice.

A bit-sliced index is a bit matrix (O'Neil & Quass 1997), and that is
the one form a :class:`BSI` has: per container key (the high 16 bits
of a position), one uint64 matrix whose row ``i`` holds the words of
slice ``i`` there, cut to the words its positions use and to the
slices its values use (a sparse key costs what it holds, as a roaring
container does). Slice bitmaps are derived from it on demand
(:attr:`BSI.slices`), never stored.

Implemented operations, each on the matrices:

- ``add`` (sumBSI, §2.3; :func:`sum_bsi` over many), a ripple carry
  per container key;
- BSI-vs-constant predicates, the O'Neil–Quass bit-sliced comparison
  for a vector of constants in one pass (:meth:`BSI.const_masks`;
  ``compare_const`` as bitmaps, ``le_const``/``eq_const`` its
  one-constant case);
- ``sum``, ``count`` and ``sum_filtered``, and the grouped filtered sum
  :func:`grouped_sums` (each group of filters × its own value BSIs,
  one popcount pass per cache-sized block, the filters' own counts
  included) that the scorecard and ad-hoc kernels run on, with its
  one-group form over bitmaps, :func:`sums_filtered`;
- building from arrays, decoding to arrays, and the blob format.

Left out: the paper also names BSI×BSI comparisons (Algorithms 1–3),
subtraction, general multiplication, quantiles, maxBSI, mulBSI and
distinctPos. No measured workload (Tables 4–8) needs them, and deep
dive ANDs the bitmaps of constant predicates; one that a later
workload needs comes back with its caller.
"""
from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from repro.bsi import containers as C
from repro.bsi.bitmap import (
    RoaringBitmap,
    check_end,
    check_room,
    encode_rows,
    key_pieces,
    payload_size,
    row_kinds,
    write_containers,
)

_MAGIC = b"BS1"

#: Words of bit planes :meth:`BSI.from_arrays` holds at once (8 MB).
_BUILD_WORDS = 1 << 20

#: The constant comparisons of :meth:`BSI.const_masks`.
_CMP_OPS = ("lt", "le", "eq", "ge", "gt", "ne")

#: A packed set of bitmaps: per container key, ``(lo, w)``, where
#: ``w[..., j]`` holds word ``lo + j`` of each bitmap's container at the
#: key (uint64; zero words where a bitmap lacks the key). The leading
#: axes of ``w`` index the bitmaps; the kernel (:func:`grouped_sums`)
#: reads them as ``(group, filter)``.
Masks = dict[int, tuple[int, np.ndarray]]


#: One key's slices, packed: ``(lo, m)``, row ``i`` of the C-contiguous
#: ``(rows, hi - lo)`` uint64 matrix ``m`` holding words ``[lo, hi)`` of
#: slice ``i``'s container at the key (a zero row where the slice lacks
#: it). The first column, the last column and the last row are
#: non-zero: a key's slices above ``rows`` lack it.
Packed = tuple[int, np.ndarray]


def _pack(slices: Sequence[RoaringBitmap], k: int) -> Packed:
    """The slices' containers at key ``k``, which some slice holds, as
    a new packed matrix."""
    held = [(i, C.span_words(s._c[k])) for i, s in enumerate(slices) if k in s._c]
    lo = min(a for _, (a, _) in held)
    hi = max(a + len(w) for _, (a, w) in held)
    m = np.zeros((held[-1][0] + 1, hi - lo), dtype=np.uint64)
    for i, (a, w) in held:
        m[i, a - lo : a - lo + len(w)] = w
    return lo, m


def _pack_piece(lo: np.ndarray, values: np.ndarray) -> Packed:
    """The packed slice matrix of one container key, from its sorted,
    duplicate-free low 16 bits and their non-zero values: it spans the
    words from the first position's to the last's, and row ``i`` ORs
    bit ``i`` of each value into its position's bit. Values are cut
    into bit planes, ``(rows, len(lo))`` at a time with at most
    :data:`_BUILD_WORDS` words, and each plane is OR-reduced over the
    runs of positions that share a word."""
    nbits = int(values.max()).bit_length()
    word = lo >> 6
    starts = np.flatnonzero(word[1:] != word[:-1]) + 1
    starts = np.concatenate([[0], starts])
    shift = (lo & 63).astype(np.uint64)
    w0 = int(word[0])
    cols = word[starts] - np.uint16(w0)
    m = np.zeros((nbits, int(word[-1]) + 1 - w0), dtype=np.uint64)
    step = max(1, _BUILD_WORDS // len(lo))
    for i in range(0, nbits, step):
        planes = values >> np.arange(i, min(i + step, nbits), dtype=np.uint64)[:, None]
        planes &= np.uint64(1)
        planes <<= shift
        m[i : i + step, cols] = np.bitwise_or.reduceat(planes, starts, axis=1)
    return w0, m


def _add_packed(x: Packed, y: Packed) -> Packed:
    """The packed sum of two matrices of one key: a ripple carry over
    their words aligned on the union of their spans, row by row, the
    carry left after the top rows becoming one more row if any bit of
    it is set (only then is the sum copied into a taller matrix)."""
    (ax, mx), (ay, my) = x, y
    lo = min(ax, ay)
    span = max(ax + mx.shape[1], ay + my.shape[1]) - lo
    rows = max(len(mx), len(my))
    s = np.zeros((rows, span), dtype=np.uint64)  # x, then the sum
    s[: len(mx), ax - lo : ax - lo + mx.shape[1]] = mx
    b = np.zeros((rows, span), dtype=np.uint64)  # y, then x & y
    b[: len(my), ay - lo : ay - lo + my.shape[1]] = my
    carry, t = np.zeros(span, dtype=np.uint64), np.empty(span, dtype=np.uint64)
    for i in range(rows):
        np.bitwise_xor(s[i], b[i], out=t)
        b[i] &= s[i]
        np.bitwise_xor(t, carry, out=s[i])
        carry &= t  # carry' = (x & y) | (carry & (x ^ y))
        carry |= b[i]
    return lo, np.vstack([s, carry]) if carry.any() else s


def _as_uint(x, dtype, what: str) -> np.ndarray:
    """``x`` as a ``dtype`` array; raises ValueError if any element is
    negative, non-integral or too large for ``dtype``."""
    x = np.asarray(x)
    if len(x):
        if x.dtype.kind not in "buif":
            raise ValueError(f"{what}s must be numeric, got {x.dtype}")
        if x.dtype.kind == "f" and not (np.isfinite(x) & (np.trunc(x) == x)).all():
            raise ValueError(f"non-integral {what} in BSI input")
        if x.min() < 0:
            raise ValueError(f"negative {what} in BSI input")
        if int(x.max()) >> (8 * np.dtype(dtype).itemsize):
            raise ValueError(f"{what} too large for {np.dtype(dtype).name}")
    return x.astype(dtype)


class BSI:
    """Bit-sliced index over uint32 positions with non-negative integer
    values, held as packed slice matrices (see :data:`Packed`)."""

    __slots__ = ("_n", "_packed")

    def __init__(self, packed: dict[int, Packed] | None = None):
        # container key -> packed slice matrix, in increasing key order
        self._packed: dict[int, Packed] = packed or {}
        self._n = max((len(m) for _, m in self._packed.values()), default=0)

    @property
    def slices(self) -> list[RoaringBitmap]:
        """Slice ``i`` as a bitmap of bitset containers, derived from the
        matrices on each use and not kept."""
        out = [RoaringBitmap() for _ in range(self._n)]
        for k, (lo, m) in self._packed.items():
            for i in np.flatnonzero(m.any(axis=1)):
                out[i]._c[k] = C.widen(lo, m[i])
        return out

    # -- construction -------------------------------------------------
    @classmethod
    def empty(cls) -> "BSI":
        return cls()

    @classmethod
    def from_arrays(cls, positions, values) -> "BSI":
        """Build from parallel position/value vectors. Zero values are
        dropped (non-existing); duplicate positions are an error, and
        so are positions outside [0, 2**32) and negative or
        non-integral values, which a cast would silently wrap.

        Positions that arrive strictly increasing are taken as they
        are; others are sorted once. Each container key's slice matrix,
        spanning the words from its first position's to its last's and
        the slices of its largest value, is then written straight from
        the values' bit planes: per run of positions sharing a 64-bit
        word, one ``np.bitwise_or.reduceat`` ORs bit ``i`` of each
        value, shifted to its position's bit, into row ``i``. A key
        costs a word per row per word it spans: a thinly held key is
        cheap, a key of scattered positions costs up to 8 KB per
        slice."""
        positions = _as_uint(positions, np.uint32, "position")
        values = _as_uint(values, np.uint64, "value")
        if len(positions) != len(values):
            raise ValueError("positions and values must align")
        nz = values != 0
        positions, values = positions[nz], values[nz]
        if not (positions[1:] > positions[:-1]).all():
            order = np.argsort(positions)
            positions, values = positions[order], values[order]
            if (positions[1:] == positions[:-1]).any():
                raise ValueError("duplicate positions in BSI input")
        lo, spans = key_pieces(positions)
        return cls({k: _pack_piece(lo[a:b], values[a:b]) for k, a, b in spans})

    def densify(self) -> "BSI":
        """The BSI itself: the packed form is its only form."""
        return self

    # -- inspection ---------------------------------------------------
    def existence(self) -> RoaringBitmap:
        """Bitmap of positions holding a (non-zero) value: each key's
        matrix ORed down its rows."""
        return RoaringBitmap({
            k: C.widen(lo, np.bitwise_or.reduce(m, axis=0)) for k, (lo, m) in self._packed.items()
        })

    def held_bytes(self) -> int:
        """Bytes its packed slice matrices hold in memory."""
        return sum(m.nbytes for _, m in self._packed.values())

    def nslices(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode to (sorted positions uint32, values uint64), each key's
        matrix unpacked once. Raises ValueError past 64 slices, whose
        values a uint64 would wrap."""
        if self._n > 64:
            raise ValueError(f"a {self._n}-slice BSI holds values past uint64")
        pos, vals = [np.empty(0, np.uint32)], [np.empty(0, np.uint64)]
        for k, (lo, m) in self._packed.items():
            bits = np.unpackbits(m.view(np.uint8), axis=1, bitorder="little").view(bool)
            j = np.flatnonzero(bits.any(axis=0))
            v = np.zeros(len(j), dtype=np.uint64)
            for i, row in enumerate(bits):
                v |= row[j].astype(np.uint64) << np.uint64(i)
            pos.append(j.astype(np.uint32) + np.uint32((k << 16) + 64 * lo))
            vals.append(v)
        return np.concatenate(pos), np.concatenate(vals)

    def __eq__(self, other) -> bool:
        # the packed form is canonical: minimal spans and rows
        if not isinstance(other, BSI):
            return NotImplemented
        a, b = self._packed, other._packed
        return a.keys() == b.keys() and all(
            a[k][0] == b[k][0] and np.array_equal(a[k][1], b[k][1]) for k in a
        )

    def __hash__(self):
        raise TypeError("BSI is not hashable")

    def __repr__(self) -> str:
        return f"BSI(slices={self._n}, count={self.count()})"

    # -- arithmetic (§2.3) --------------------------------------------
    def add(self, other: "BSI") -> "BSI":
        """S = X + Y (Figure 2), per container key a ripple carry over
        both matrices (:func:`_add_packed`); a key held by one operand
        is shared as it is. The sum's spans and rows are minimal with
        no trim: it is non-zero exactly where an operand is, and its
        top row holds an operand's top bit or a carry out."""
        out = dict(self._packed)
        for k, y in other._packed.items():
            out[k] = y if k not in out else _add_packed(out[k], y)
        return BSI({k: out[k] for k in sorted(out)})

    # -- BSI-vs-constant predicates -----------------------------------
    def const_masks(self, op: str, ks: Sequence[int]) -> Masks:
        """The existing rows whose value ``op`` each constant of ``ks``
        holds (``op``: lt, le, eq, ge, gt or ne), in packed form: per
        container key, ``w[j]`` holds the answer for ``ks[j]``.

        The O'Neil–Quass bit-sliced comparison, run for every constant
        at once over each key's packed slice matrix, whose words are
        already cut to the key's span: one top-down pass over its rows
        keeps, per constant, the rows equal to it so far and the rows
        already below it, with the constants' bits as all-ones or
        all-zero words. Only ``lt``
        and ``eq`` are computed: ``x <= k`` is ``x < k + 1``, and
        ``ge``, ``gt`` and ``ne`` are the complements of ``lt``, ``le``
        and ``eq`` within the existing rows. A constant of at most 0
        holds no row equal or below; one of at least ``2**rows`` holds
        every row of a key with ``rows`` rows below and none equal."""
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison {op!r}; known: {_CMP_OPS}")
        ks = [int(k) + (op in ("le", "gt")) for k in ks]
        n = self._n
        klen = np.array([max(k, 0).bit_length() for k in ks], dtype=np.int64)
        # the bits of each constant in [1, 2**n); no value equals any other
        nbytes = (n + 7) // 8
        raw = b"".join((k if 0 < k < 1 << n else 0).to_bytes(nbytes, "little") for k in ks)
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(len(ks), nbytes), axis=1, bitorder="little"
        )
        # row i: all-ones words where bit i of the constant is set
        bits = np.negative(bits[:, :n].T.astype(np.uint64))[:, :, None]
        eq_side = op in ("eq", "ne")
        out = {}
        for key, (lo, m) in self._packed.items():
            ex = np.bitwise_or.reduce(m, axis=0)
            eq = np.repeat(ex[None], len(ks), axis=0)
            lt = np.zeros_like(eq)
            t = np.empty_like(eq)
            for i in range(len(m) - 1, -1, -1):
                np.bitwise_xor(m[i], bits[i], out=t)
                t &= eq  # equal so far, bit i differs from k's
                eq ^= t
                if not eq_side:  # ... and k's bit is 1: below k
                    t &= bits[i]
                    lt |= t
            w = eq if eq_side else lt
            w[klen > len(m)] = 0 if eq_side else ex  # k above every value at the key
            if op in ("ge", "gt", "ne"):
                w ^= ex
            out[key] = (lo, w)
        return out

    def compare_const(self, op: str, ks: Sequence[int]) -> list[RoaringBitmap]:
        """:meth:`const_masks` as one bitmap per constant, with bitset
        containers (a zero row holds no container)."""
        out = [RoaringBitmap() for _ in ks]
        for key, (lo, w) in self.const_masks(op, ks).items():
            full = np.zeros((len(ks), C.BITSET_WORDS), dtype=np.uint64)
            full[:, lo : lo + w.shape[1]] = w
            for bm, row, hit in zip(out, full, w.any(axis=1)):
                if hit:
                    bm._c[key] = row
        return out

    def le_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("le", [k])[0]

    def eq_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("eq", [k])[0]

    # -- in-BSI aggregates --------------------------------------------
    def sum(self) -> int:
        """Sum of all values: sum_i 2**i * card(slice_i)."""
        return int(self._totals()[0][0, 0, 0])

    def count(self) -> int:
        """Number of existing (non-zero) rows."""
        return int(self._totals()[1][0, 0])

    def _totals(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`grouped_sums` of this BSI under its own existence,
        each key's OR row over its span (no full-width container)."""
        own = {k: (lo, np.bitwise_or.reduce(m, axis=0)[None, None])
               for k, (lo, m) in self._packed.items()}
        return grouped_sums([[self]], own, 1)

    def sum_filtered(self, bm: RoaringBitmap) -> int:
        """Sum of values at positions in ``bm`` without materialising
        the filtered BSI: sum_i 2**i * card(slice_i AND bm)."""
        return sums_filtered([self], [bm])[0][0]

    # -- serde --------------------------------------------------------
    def serialize(self) -> bytes:
        """Magic, slice count, then each slice's bitmap blob, length
        first. Each key's slice matrix is encoded in one pass
        (:func:`~repro.bsi.bitmap.encode_rows`): the bytes of the slice
        bitmaps' own :meth:`~repro.bsi.bitmap.RoaringBitmap.serialize`."""
        enc: list[dict] = [{} for _ in range(self._n)]
        for k, (lo, m) in self._packed.items():
            for e, row in zip(enc, encode_rows(m, lo)):
                if row is not None:
                    e[k] = row
        parts = [_MAGIC, struct.pack("<B", self._n)]
        for b in map(write_containers, enc):
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, buf: bytes) -> "BSI":
        """Inverse of :meth:`serialize`. Raises ValueError on a bad
        magic, a truncated or corrupt slice, an empty top slice (which
        no BSI serializes to), or trailing bytes."""
        check_room(buf, 0, 4, "BSI")
        if buf[:3] != _MAGIC:
            raise ValueError("bad BSI magic")
        off = 4
        slices = []
        for _ in range(buf[3]):
            check_room(buf, off, 4, "BSI")
            (m,) = struct.unpack_from("<I", buf, off)
            off += 4
            check_room(buf, off, m, "BSI")
            slices.append(RoaringBitmap.deserialize(buf[off : off + m]))
            off += m
        check_end(buf, off, "BSI")
        if slices and not slices[-1]:
            raise ValueError(f"empty top slice in a {len(slices)}-slice BSI blob")
        keys = sorted(set().union(*(s._c.keys() for s in slices)))
        return cls({k: _pack(slices, k) for k in keys})

    def nbytes(self) -> int:
        """Serialized size in bytes (storage accounting, Table 4), each
        key's rows sized from their counts
        (:func:`~repro.bsi.bitmap.row_kinds`)."""
        n = 4 + 11 * self._n  # per slice: its length, the bitmap's magic and count
        for _, m in self._packed.values():
            n += sum(7 + payload_size(*k) for k in row_kinds(m)[0] if k is not None)
        return n


# -- aggregate functions over BSIs (§4.1.3) ---------------------------
#: Words ANDed and popcounted per pass of :func:`grouped_sums`: the
#: row chunk and two working buffers, 512 KB each at most, stay in a
#: core's L2 cache, where a stack of every value's slices at full
#: container width would not. Buffers no bigger also keep the heap
#: from fragmenting: stacking a full query's rows at once (1.8 MB)
#: raised the ad-hoc benchmark's peak RSS by 4%.
_CHUNK_WORDS = 1 << 16

#: Slice count up to which a value's per-container weighted sum fits an
#: int64: a row counts at most 2**16 bits, so sum_i count_i * 2**i is
#: below 2**(16 + nslices) <= 2**63. Wider values sum in Python ints.
_INT64_SLICES = 47


def masks_of(bitmaps: Sequence[RoaringBitmap]) -> Masks:
    """``bitmaps`` as a packed set, ``w`` of shape ``(len(bitmaps),
    span)``, each key cut to the words some bitmap sets there."""
    by_key: dict[int, list[tuple[int, np.ndarray]]] = {}
    for f, bm in enumerate(bitmaps):
        for k, c in bm._c.items():
            by_key.setdefault(k, []).append((f, c if C.is_bitset(c) else C.array_to_bitset(c)))
    out = {}
    for k, held in by_key.items():
        used = np.flatnonzero(np.bitwise_or.reduce([c for _, c in held], axis=0))
        if len(used):
            lo, hi = int(used[0]), int(used[-1]) + 1
            w = np.zeros((len(bitmaps), hi - lo), dtype=np.uint64)
            for f, c in held:
                w[f] = c[lo:hi]
            out[k] = (lo, w)
    return out


def sums_filtered(
    values: Sequence[BSI | None],
    filters: Sequence[RoaringBitmap],
    *,
    return_counts: bool = False,
):
    """``out[f][v]``: the exact sum of ``values[v]`` over the positions
    in ``filters[f]`` (0 for a ``None`` value), as Python ints. With
    ``return_counts`` it returns ``(out, counts)``, ``counts[f]`` being
    the cardinality of ``filters[f]``, taken in the same pass. The
    batched form of :meth:`BSI.sum_filtered`: :func:`grouped_sums` with
    one group."""
    masks = {k: (lo, w[None]) for k, (lo, w) in masks_of(filters).items()}
    sums, counts = grouped_sums([values], masks, len(filters))
    if return_counts:
        return sums[0].tolist(), counts[0].tolist()
    return sums[0].tolist()


def grouped_sums(
    values: Sequence[Sequence[BSI | None]], masks: Masks, n_filters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Filtered sums of groups of values, each group under its own
    filters: ``masks`` holds ``(groups, n_filters)`` filters and
    ``values`` one sequence of value BSIs per group (all of one length;
    ``None`` sums to 0). Returns ``(sums, counts)``: ``sums[g, f, v]``
    the exact sum of ``values[g][v]`` over filter ``(g, f)``, and
    ``counts[g, f]`` that filter's cardinality. ``sums`` is int64 while
    no total can reach 2**63 (up to 47 slices with one container key),
    else Python ints.

    Per container key of the masks, each value's packed slice matrix
    is cut to its span's overlap with the masks'
    span, ``[lo, hi)``, and laid into a block at its place there, the
    rest of its rows zero; row ``i`` of a value weighs ``2**i``. Each
    group's rows are led by an all-ones row, whose popcount under a
    filter is its count. A group's filters are ANDed with its own rows
    only and popcounted in blocks of at most :data:`_CHUNK_WORDS`
    words, in place, into buffers reused across blocks; per key, one
    ``np.add.reduceat`` then weighs the popcounts of every group's
    values."""
    # Reaches into the bitmaps' container dicts (same library;
    # containers are immutable and only the kernel's own buffers are
    # written).
    n_values = len(values[0]) if len(values) else 0
    widest = max((x.nslices() for vs in values for x in vs if x is not None), default=0)
    # a sum over n keys needs (n - 1).bit_length() bits more than one key's
    wide = widest + (len(masks) - 1).bit_length() > _INT64_SLICES
    sums = np.zeros((len(values), n_filters, n_values), dtype=object if wide else np.int64)
    counts = np.zeros((len(values), n_filters), dtype=np.int64)
    for key, (lo, w) in masks.items():
        span = w.shape[-1]
        hi = lo + span
        ones = (0, np.full((1, span), ~np.uint64(0)))
        # pieces of rows, (first column in the span, rows): each group's
        # ones row (value -1), then its values
        pieces, piece_g, piece_v = [], [], []
        for g, vs in enumerate(values):
            pieces.append(ones)
            piece_g.append(g)
            piece_v.append(-1)
            for v, x in enumerate(vs):
                packed = x._packed.get(key) if x is not None else None
                if packed is None:
                    continue
                a, m = packed
                c0, c1 = max(lo, a), min(hi, a + m.shape[1])
                if c0 < c1:
                    pieces.append((c0 - lo, m[:, c0 - a : c1 - a]))
                    piece_g.append(g)
                    piece_v.append(v)
        pops = _popcounts(pieces, piece_g, w)
        nrows = np.array([len(p) for _, p in pieces])
        starts = np.cumsum(nrows) - nrows
        shifts = np.arange(nrows.sum()) - np.repeat(starts, nrows)
        piece_g, piece_v = np.array(piece_g), np.array(piece_v)
        count = piece_v < 0
        counts[piece_g[count]] += pops[:, starts[count]].T
        if count.all():
            continue
        if wide:
            pops, shifts = pops.astype(object), shifts.astype(object)
        weighed = np.add.reduceat(pops << shifts, starts, axis=1)
        sums[piece_g[~count], :, piece_v[~count]] += weighed[:, ~count].T
    return sums, counts


def _popcounts(
    pieces: list[tuple[int, np.ndarray]], piece_g: list[int], w: np.ndarray
) -> np.ndarray:
    """``pops[f, r]``: the popcount of row ``r`` of the stacked
    ``pieces`` ANDed with filter ``f`` of its piece's group
    (``w[piece_g[piece], f]``). A piece ``(c, p)`` holds the span's
    words ``[c, c + p.shape[1])``; its others are zero.

    Pieces are gathered into chunks of whole pieces of one group, at
    most ``per_block`` rows each (a piece wider than that is a chunk of
    its own); a block is a chunk times the filters that fit with it."""
    n_f, span = w.shape[1], w.shape[2]
    per_block = _CHUNK_WORDS // span
    chunks, start, n = [], 0, 0  # (first piece, end piece, rows)
    for i, (_, p) in enumerate(pieces):
        if n and (n + len(p) > per_block or piece_g[i] != piece_g[start]):
            chunks.append((start, i, n))
            start, n = i, 0
        n += len(p)
    chunks.append((start, len(pieces), n))
    f_steps = [max(1, min(n_f, per_block // n)) for _, _, n in chunks]
    mbuf = np.empty(max(n for _, _, n in chunks) * span, dtype=np.uint64)
    buf = np.empty(max(f * n for f, (_, _, n) in zip(f_steps, chunks)) * span, dtype=np.uint64)
    tmp = np.empty_like(buf)
    pops = np.empty((n_f, sum(n for _, _, n in chunks)), dtype=np.int64)
    r0 = 0
    for (i0, i1, n), f_step in zip(chunks, f_steps):
        m = mbuf[: n * span].reshape(n, span)
        r = 0
        for c, p in pieces[i0:i1]:
            rows, width = p.shape
            if width < span:
                m[r : r + rows, :c] = 0
                m[r : r + rows, c + width :] = 0
            m[r : r + rows, c : c + width] = p
            r += rows
        fw = w[piece_g[i0]]
        for f0 in range(0, n_f, f_step):
            f1 = min(f0 + f_step, n_f)
            out = buf[: (f1 - f0) * n * span].reshape(f1 - f0, n, span)
            np.bitwise_and(m[None], fw[f0:f1, None], out=out)
            pops[f0:f1, r0 : r0 + n] = C.popcount_rows(
                out.reshape(-1, span), tmp[: out.size].reshape(-1, span)
            ).reshape(f1 - f0, n)
        r0 += n
    return pops


def sum_bsi(bsis: Iterable[BSI]) -> BSI:
    """sumBSI: add all BSIs together (row-wise)."""
    acc = BSI()
    for b in bsis:
        acc = acc.add(b)
    return acc
