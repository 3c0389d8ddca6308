"""Bit-sliced index arithmetic (§2.2–§2.3, §4.1 of the paper).

A :class:`BSI` represents a non-negative integer column ``C`` over
encoded positions: ``C[j] = sum_i slices[i][j] * 2**i``. Zero values
are *treated as non-existing* (the paper's convention): a position
carries a value iff it is set in at least one slice, and the
existence bitmap is the OR of all slices.

Implemented operations:

- arithmetic: ``add`` (ripple carry over bitmap ops), ``subtract``
  (borrow), ``multiply_binary`` (linear, the only multiplication the
  paper needs hot), ``multiply`` (general shift-and-add, O(s1*s2)),
  ``add_const``;
- BSI-vs-BSI comparisons per the paper's Algorithms 1–3 plus the
  derived ``le``/``gt``/``ge`` — all return a binary bitmap restricted
  to rows where both operands are non-zero;
- BSI-vs-constant predicates — the O'Neil–Quass bit-sliced predicate
  evaluation, for a vector of constants in one pass over the packed
  slice matrices (:meth:`BSI.const_masks`; ``lt_const`` .. ``ne_const``
  are its one-constant case) — and ``range_search``;
- in-BSI aggregates: ``sum``, ``count``, ``mean``, ``min``, ``max``,
  ``rank_value`` / ``quantile`` / ``median``;
- aggregates over BSIs (§4.1.3): :func:`sum_bsi`, :func:`max_bsi`,
  :func:`mul_bsi`, :func:`distinct_pos`;
- the grouped filtered sum :func:`grouped_sums` (each group of
  filters × its own value BSIs, one popcount pass per cache-sized
  block, the filters' own counts included), which the scorecard
  kernel runs on, and its one-group form over bitmaps,
  :func:`sums_filtered`, which ``sum`` and ``sum_filtered`` run on;
- the packed compute form (:meth:`BSI.densify`): per container key,
  one bit matrix whose row ``i`` is slice ``i``, cut to the words its
  positions use (a sparse key costs what it holds, as a roaring
  container does, not 8 KB per slice).
"""
from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from repro.bsi import containers as C
from repro.bsi.bitmap import (
    Probes,
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
_EMPTY = RoaringBitmap.empty()

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


#: One key's slices, packed: ``(lo, m)``, row ``i`` of the ``(nslices,
#: hi - lo)`` uint64 matrix ``m`` holding words ``[lo, hi)`` of slice
#: ``i``'s container at the key (a zero row where the slice lacks it);
#: the first and the last column are non-zero.
Packed = tuple[int, np.ndarray]


def _pack(slices: Sequence[RoaringBitmap], k: int) -> Packed | None:
    """The slices' containers at key ``k`` as a new packed matrix, or
    ``None`` if no slice holds the key."""
    held = [(i, C.span_words(s._c[k])) for i, s in enumerate(slices) if k in s._c]
    if not held:
        return None
    lo = min(a for _, (a, _) in held)
    hi = max(a + len(w) for _, (a, w) in held)
    m = np.zeros((len(slices), hi - lo), dtype=np.uint64)
    for i, (a, w) in held:
        m[i, a - lo : a - lo + len(w)] = w
    return lo, m


def _pack_piece(lo: np.ndarray, values: np.ndarray, nbits: int) -> Packed:
    """The packed ``nbits``-row slice matrix of one container key, from
    its sorted, duplicate-free low 16 bits and their non-zero values:
    it spans the words from the first position's to the last's, and
    row ``i`` ORs bit ``i`` of each value into its position's bit.
    Values are cut into bit planes, ``(rows, len(lo))`` at a time with
    at most :data:`_BUILD_WORDS` words, and each plane is OR-reduced
    over the runs of positions that share a word."""
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
    """Bit-sliced index over uint32 positions with uint64 values."""

    __slots__ = ("_slices", "_n", "_ex", "_packed")

    def __init__(self, slices: list[RoaringBitmap] | None = None):
        slices = list(slices) if slices else []
        while slices and not slices[-1]:
            slices.pop()
        self._slices: list[RoaringBitmap] | None = slices
        self._n = len(slices)
        self._ex: RoaringBitmap | None = None
        # container key -> packed slice matrix; set by from_arrays or
        # densify
        self._packed: dict[int, Packed] | None = None

    @property
    def slices(self) -> list[RoaringBitmap]:
        """Slice ``i`` as a bitmap, for the bitmap-op paths. A BSI built
        packed (:meth:`from_arrays`) has none until the first use; they
        are then derived from its matrices once, as bitset containers.
        The kernels, serialization and sizing never need them."""
        if self._slices is None:
            self._slices = [RoaringBitmap() for _ in range(self._n)]
            for k, (lo, m) in self._packed.items():
                for i in np.flatnonzero(m.any(axis=1)):
                    self._slices[i]._c[k] = C.widen(lo, m[i])
        return self._slices

    # -- construction -------------------------------------------------
    @classmethod
    def empty(cls) -> "BSI":
        return cls()

    @classmethod
    def from_arrays(cls, positions, values) -> "BSI":
        """Build from parallel position/value vectors, in packed compute
        form (:meth:`densify`). Zero values are dropped (non-existing);
        duplicate positions are an error, and so are positions outside
        [0, 2**32) and negative or non-integral values, which a cast
        would silently wrap.

        Positions that arrive strictly increasing are taken as they
        are; others are sorted once. Each container key's slice matrix,
        spanning the words from its first position's to its last's, is
        then written straight from the values' bit planes: per run of
        positions sharing a 64-bit word, one ``np.bitwise_or.reduceat``
        ORs bit ``i`` of each value, shifted to its position's bit,
        into row ``i``. No slice bitmap is built (see :attr:`slices`);
        :meth:`serialize` reads the words, so blobs do not depend on
        the form. A key costs ``nslices`` words per word it spans: a
        thinly held key is cheap, a key of scattered positions costs up
        to 8 KB per slice."""
        positions = _as_uint(positions, np.uint32, "position")
        values = _as_uint(values, np.uint64, "value")
        if len(positions) != len(values):
            raise ValueError("positions and values must align")
        nz = values != 0
        positions, values = positions[nz], values[nz]
        if len(values) == 0:
            return cls()
        if not (positions[1:] > positions[:-1]).all():
            order = np.argsort(positions)
            positions, values = positions[order], values[order]
            if (positions[1:] == positions[:-1]).any():
                raise ValueError("duplicate positions in BSI input")
        out = cls()
        out._n = int(values.max()).bit_length()
        out._slices = None
        lo, spans = key_pieces(positions)
        out._packed = {k: _pack_piece(lo[a:b], values[a:b], out._n) for k, a, b in spans}
        return out

    @classmethod
    def from_bitmap(cls, bm: RoaringBitmap) -> "BSI":
        """Binary-valued BSI (value 1 at every set position)."""
        return cls([bm.copy()]) if bm else cls()

    def copy(self) -> "BSI":
        return BSI([s.copy() for s in self.slices])

    def densify(self) -> "BSI":
        """Packed bitset compute form; semantics unchanged.

        Per container key, the slices' containers become the rows of
        one C-contiguous ``(nslices, hi - lo)`` uint64 matrix of the
        words ``[lo, hi)`` from the first word some slice sets to the
        last, row ``i`` holding slice ``i`` (a zero row where the slice
        lacks the key). A bit-sliced index is a bit matrix (O'Neil &
        Quass 1997): the filtered-sum kernel (:func:`grouped_sums`) and
        the constant predicates (:meth:`const_masks`) read a value's
        rows at a key as one slice of it, while every other bitmap op
        runs on the slices, which keep the containers they were read
        with; serialization reads the words, so blobs are the same
        bytes as before packing."""
        if self._packed is None:
            keys = sorted(set().union(*(s._c.keys() for s in self.slices)))
            self._packed = {k: _pack(self.slices, k) for k in keys}
        return self

    def _matrix(self, k: int) -> Packed | None:
        """The packed slice matrix at key ``k``, or ``None`` if no slice
        holds the key. An unpacked BSI packs its slices into a fresh
        matrix, for the caller's use only."""
        if self._packed is not None:
            return self._packed.get(k)
        return _pack(self.slices, k)

    # -- inspection ---------------------------------------------------
    def existence(self) -> RoaringBitmap:
        """Bitmap of positions holding a (non-zero) value; cached. A
        packed BSI ORs each key's matrix down its rows."""
        if self._ex is None:
            if self._packed is not None:
                self._ex = RoaringBitmap({
                    k: C.widen(lo, np.bitwise_or.reduce(m, axis=0))
                    for k, (lo, m) in self._packed.items()
                })
            else:
                ex = RoaringBitmap.empty()
                for s in self.slices:
                    ex = ex | s
                self._ex = ex
        return self._ex

    def held_bytes(self) -> tuple[int, int]:
        """Bytes held in memory: ``(matrices, bitmaps)``, its packed
        slice matrices and the containers of the slice and existence
        bitmaps it holds."""
        mats = sum(m.nbytes for _, m in self._packed.values()) if self._packed is not None else 0
        bitmaps = [*(self._slices or ()), *(() if self._ex is None else (self._ex,))]
        return mats, sum(bm.held_bytes() for bm in bitmaps)

    def slice_at(self, i: int) -> RoaringBitmap:
        return self.slices[i] if i < len(self.slices) else _EMPTY

    def nslices(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode to (sorted positions uint32, values uint64)."""
        pos = self.existence().to_array()
        vals = np.zeros(len(pos), dtype=np.uint64)
        probes = Probes(pos)
        for i, s in enumerate(self.slices):
            vals += s.contains_array(probes).astype(np.uint64) << np.uint64(i)
        return pos, vals

    def __eq__(self, other) -> bool:
        if not isinstance(other, BSI):
            return NotImplemented
        if self._n != other._n:
            return False
        return all(a == b for a, b in zip(self.slices, other.slices))

    def __hash__(self):
        raise TypeError("BSI is not hashable")

    def __repr__(self) -> str:
        return f"BSI(slices={self._n}, count={self.count()})"

    # -- arithmetic (§2.3) --------------------------------------------
    def add(self, other: "BSI") -> "BSI":
        """S = X + Y by ripple-carry over bitmap ops (Figure 2).

        Uses the half/full-adder identity carry' = (x AND y) OR
        (carry AND (x XOR y)) — 4 bitmap ops per slice instead of the
        naive majority form's 5."""
        n = max(len(self.slices), len(other.slices))
        out: list[RoaringBitmap] = []
        carry = _EMPTY
        for i in range(n):
            x, y = self.slice_at(i), other.slice_at(i)
            sxy = x ^ y
            if carry:
                out.append(sxy ^ carry)
                carry = (x & y) | (sxy & carry)
            else:
                out.append(sxy)
                carry = x & y
        if carry:
            out.append(carry)
        return BSI(out)

    def subtract(self, other: "BSI") -> "BSI":
        """D = X - Y via borrow logic, defined where X >= Y pointwise.

        The universe for bit complement is ex(X) | ex(Y). A borrow out
        of the top slice marks exactly the positions where X < Y, whose
        difference would wrap: ValueError then, instead of a wrapped
        result (the paper never subtracts a larger value).
        """
        universe = self.existence() | other.existence()
        n = max(len(self.slices), len(other.slices))
        out: list[RoaringBitmap] = []
        borrow = _EMPTY
        for i in range(n):
            x, y = self.slice_at(i), other.slice_at(i)
            out.append(x ^ y ^ borrow)
            not_x = universe.andnot(x)
            borrow = (not_x & (y | borrow)) | (x & y & borrow)
        if borrow:
            raise ValueError(
                f"BSI.subtract: X < Y at {borrow.cardinality()} positions"
            )
        return BSI(out)

    def multiply_binary(self, bm: RoaringBitmap) -> "BSI":
        """X * b with b binary (a filter): AND every slice with b.
        Linear in the slice count — the hot multiplication in §2.3."""
        return BSI([s & bm for s in self.slices])

    def shift_left(self, k: int) -> "BSI":
        """X * 2**k (prepend k empty slices)."""
        if not self.slices or k == 0:
            return self.copy()
        return BSI([_EMPTY] * k + [s.copy() for s in self.slices])

    def multiply(self, other: "BSI") -> "BSI":
        """General multiplication, shift-and-add: O(s1*s2) slice ops."""
        acc = BSI()
        for i, yi in enumerate(other.slices):
            if not yi:
                continue
            acc = acc.add(self.multiply_binary(yi).shift_left(i))
        return acc

    def add_const(self, k: int) -> "BSI":
        """X + k on existing positions only (zeros stay non-existing).
        A negative k is a :meth:`subtract`, so it raises ValueError if
        an existing value is below -k."""
        if k < 0:
            return self.subtract(BSI._const_like(self, -k))
        if k == 0:
            return self.copy()
        return self.add(BSI._const_like(self, k))

    @staticmethod
    def _const_like(x: "BSI", k: int) -> "BSI":
        ex = x.existence()
        return BSI([ex.copy() if (k >> i) & 1 else _EMPTY for i in range(k.bit_length())])

    # -- BSI-vs-BSI comparisons (Algorithms 1-3) ----------------------
    def _both_exist(self, other: "BSI") -> RoaringBitmap:
        return self.existence() & other.existence()

    def lt(self, other: "BSI") -> RoaringBitmap:
        """Algorithm 1: rows where X < Y (both non-zero)."""
        n = max(len(self.slices), len(other.slices))
        l = _EMPTY
        for i in range(n):
            x, y = self.slice_at(i), other.slice_at(i)
            l = (y | l).andnot(x) | (y & l)
        return l & self._both_exist(other)

    def eq(self, other: "BSI") -> RoaringBitmap:
        """Algorithm 2: rows where X == Y (both non-zero)."""
        e = self.existence().copy()
        n = max(len(self.slices), len(other.slices))
        for i in range(n):
            e = e.andnot(self.slice_at(i) ^ other.slice_at(i))
        return e

    def ne(self, other: "BSI") -> RoaringBitmap:
        """Algorithm 3: rows where X != Y (both non-zero)."""
        ne = _EMPTY
        n = max(len(self.slices), len(other.slices))
        for i in range(n):
            ne = ne | (self.slice_at(i) ^ other.slice_at(i))
        return ne & self._both_exist(other)

    def le(self, other: "BSI") -> RoaringBitmap:
        return self.lt(other) | self.eq(other)

    def gt(self, other: "BSI") -> RoaringBitmap:
        return other.lt(self)

    def ge(self, other: "BSI") -> RoaringBitmap:
        return other.lt(self) | self.eq(other)

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
        holds no row equal or below; one of at least ``2**nslices``
        holds every row below."""
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison {op!r}; known: {_CMP_OPS}")
        ks = [int(k) + (op in ("le", "gt")) for k in ks]
        n = self._n
        above = np.array([k >> n > 0 for k in ks], dtype=bool)  # every value is below k
        # the bits of each constant in [1, 2**n); no value equals any other
        nbytes = (n + 7) // 8
        raw = b"".join(
            (k if k > 0 and not a else 0).to_bytes(nbytes, "little") for k, a in zip(ks, above)
        )
        bits = np.unpackbits(
            np.frombuffer(raw, np.uint8).reshape(len(ks), nbytes), axis=1, bitorder="little"
        )
        # row i: all-ones words where bit i of the constant is set
        bits = np.negative(bits[:, :n].T.astype(np.uint64))[:, :, None]
        eq_side = op in ("eq", "ne")
        keys = self._packed if self._packed is not None else self.existence()._c
        out = {}
        for key in keys:
            lo, m = self._matrix(key)
            ex = np.bitwise_or.reduce(m, axis=0)
            eq = np.repeat(ex[None], len(ks), axis=0)
            lt = np.zeros_like(eq)
            t = np.empty_like(eq)
            for i in range(n - 1, -1, -1):
                np.bitwise_xor(m[i], bits[i], out=t)
                t &= eq  # equal so far, bit i differs from k's
                eq ^= t
                if not eq_side:  # ... and k's bit is 1: below k
                    t &= bits[i]
                    lt |= t
            w = eq if eq_side else lt
            if not eq_side:
                w[above] = ex
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

    def lt_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("lt", [k])[0]

    def le_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("le", [k])[0]

    def eq_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("eq", [k])[0]

    def ge_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("ge", [k])[0]

    def gt_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("gt", [k])[0]

    def ne_const(self, k: int) -> RoaringBitmap:
        return self.compare_const("ne", [k])[0]

    def range_search(self, lo: int, hi: int) -> RoaringBitmap:
        """Rows with lo <= value <= hi (existing rows only)."""
        return self.ge_const(lo) & self.le_const(hi)

    # -- in-BSI aggregates --------------------------------------------
    def sum(self) -> int:
        """Sum of all values: sum_i 2**i * card(slice_i)."""
        return sums_filtered([self], [self.existence()])[0][0]

    def count(self) -> int:
        """Number of existing (non-zero) rows."""
        return self.existence().cardinality()

    def sum_filtered(self, bm: RoaringBitmap) -> int:
        """Sum of values at positions in ``bm`` without materialising
        the filtered BSI: sum_i 2**i * card(slice_i AND bm)."""
        return sums_filtered([self], [bm])[0][0]

    def mean(self) -> float:
        n = self.count()
        return self.sum() / n if n else float("nan")

    def min(self) -> int:
        """Smallest existing value (raises on empty BSI)."""
        if not self.slices:
            raise ValueError("min of empty BSI")
        cand = self.existence()
        v = 0
        for i in range(len(self.slices) - 1, -1, -1):
            z = cand.andnot(self.slices[i])
            if z:
                cand = z
            else:
                v |= 1 << i
        return v

    def max(self) -> int:
        """Largest existing value (raises on empty BSI)."""
        if not self.slices:
            raise ValueError("max of empty BSI")
        cand = self.existence()
        v = 0
        for i in range(len(self.slices) - 1, -1, -1):
            o = cand & self.slices[i]
            if o:
                cand = o
                v |= 1 << i
        return v

    def rank_value(self, r: int) -> int:
        """The r-th smallest existing value (1-based rank)."""
        n = self.count()
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} out of range 1..{n}")
        cand = self.existence()
        v = 0
        for i in range(len(self.slices) - 1, -1, -1):
            zeros = cand.andnot(self.slices[i])
            nz = zeros.cardinality()
            if r <= nz:
                cand = zeros
            else:
                r -= nz
                cand = cand & self.slices[i]
                v |= 1 << i
        return v

    def quantile(self, q: float) -> int:
        """q-quantile (0 < q <= 1) of existing values, lower rounding."""
        n = self.count()
        if n == 0:
            raise ValueError("quantile of empty BSI")
        r = max(1, int(np.ceil(q * n)))
        return self.rank_value(r)

    def median(self) -> int:
        return self.quantile(0.5)

    # -- serde --------------------------------------------------------
    def serialize(self) -> bytes:
        """Magic, slice count, then each slice's bitmap blob, length
        first. A packed BSI encodes each key's slice matrix in one pass
        (:func:`~repro.bsi.bitmap.encode_rows`): the same bytes."""
        if self._packed is None:
            blobs = [s.serialize() for s in self.slices]
        else:
            enc: list[dict] = [{} for _ in range(self._n)]
            for k, (lo, m) in self._packed.items():
                for e, row in zip(enc, encode_rows(m, lo)):
                    if row is not None:
                        e[k] = row
            blobs = [write_containers(e) for e in enc]
        parts = [_MAGIC, struct.pack("<B", self._n)]
        for b in blobs:
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, buf: bytes) -> "BSI":
        """Inverse of :meth:`serialize`. Raises ValueError on a bad
        magic, a truncated or corrupt slice, or trailing bytes."""
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
        return cls(slices)

    def nbytes(self) -> int:
        """Serialized size in bytes (storage accounting, Table 4). A
        packed BSI sizes each key's rows from their counts
        (:func:`~repro.bsi.bitmap.row_kinds`)."""
        if self._packed is None:
            return 4 + sum(4 + s.nbytes() for s in self.slices)
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
    (:meth:`BSI.densify`) is cut to its span's overlap with the masks'
    span, ``[lo, hi)``, and laid into a block at its place there, the
    rest of its rows zero; row ``i`` of a value weighs ``2**i``. Each
    group's rows are led by an all-ones row, whose popcount under a
    filter is its count. A group's filters are ANDed with its own rows
    only and popcounted in blocks of at most :data:`_CHUNK_WORDS`
    words, in place, into buffers reused across blocks; per key, one
    ``np.add.reduceat`` then weighs the popcounts of every group's
    values. A value that was never densified is packed into a matrix
    for this call only."""
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
                packed = x._matrix(key) if x is not None else None
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


def max_bsi(x: BSI, y: BSI) -> BSI:
    """maxBSI(X, Y) := X * (X > Y) + Y * (X <= Y), plus the rows that
    exist on only one side (zeros are non-existing, so the max is the
    existing value there)."""
    both = x._both_exist(y)
    only_x = x.existence().andnot(both)
    only_y = y.existence().andnot(both)
    out = x.multiply_binary(x.gt(y)).add(y.multiply_binary(x.le(y)))
    return out.add(x.multiply_binary(only_x)).add(y.multiply_binary(only_y))


def mul_bsi(x: BSI, y: BSI) -> BSI:
    """mulBSI(X, Y) := X * Y (zero where either is missing)."""
    return x.multiply(y)


def distinct_pos(bsis: Iterable[BSI]) -> BSI:
    """distinctPos: binary BSI of positions holding a value in any
    input — the unique-visitor primitive (§4.2)."""
    acc = RoaringBitmap.empty()
    for b in bsis:
        acc = acc | b.existence()
    return BSI.from_bitmap(acc)
