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
- BSI-vs-constant predicates (``lt_const`` .. ``ne_const``) and
  ``range_search`` — the O'Neil–Quass bit-sliced predicate evaluation;
- in-BSI aggregates: ``sum``, ``count``, ``mean``, ``min``, ``max``,
  ``rank_value`` / ``quantile`` / ``median``;
- aggregates over BSIs (§4.1.3): :func:`sum_bsi`, :func:`max_bsi`,
  :func:`mul_bsi`, :func:`distinct_pos`;
- the batched filtered sum :func:`sums_filtered` (every filter ×
  every value BSI, one popcount pass per cache-sized block, the
  filters' own counts included), which ``sum``, ``sum_filtered`` and
  the scorecard kernel run on;
- the packed compute form (:meth:`BSI.densify`): per container key,
  one bit matrix whose row ``i`` is slice ``i``.
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
    write_containers,
)

_MAGIC = b"BS1"
_EMPTY = RoaringBitmap.empty()

#: Words of bit planes :meth:`BSI.from_arrays` holds at once (8 MB).
_BUILD_WORDS = 1 << 20


def _pack(slices: Sequence[RoaringBitmap], k: int) -> np.ndarray:
    """Every slice's container at key ``k`` as one row of a new
    ``(len(slices), 1024)`` uint64 matrix; zero where a slice lacks it."""
    m = np.zeros((len(slices), C.BITSET_WORDS), dtype=np.uint64)
    for row, s in zip(m, slices):
        c = s._c.get(k)
        if c is not None:
            row[:] = c if C.is_bitset(c) else C.array_to_bitset(c)
    return m


def _pack_piece(lo: np.ndarray, values: np.ndarray, nbits: int) -> np.ndarray:
    """The ``(nbits, 1024)`` slice matrix of one container key, from its
    sorted, duplicate-free low 16 bits and their values: row ``i`` ORs
    bit ``i`` of each value into its position's bit. Values are cut
    into bit planes, ``(rows, len(lo))`` at a time with at most
    :data:`_BUILD_WORDS` words, and each plane is OR-reduced over the
    runs of positions that share a word."""
    word = lo >> 6
    starts = np.flatnonzero(word[1:] != word[:-1]) + 1
    starts = np.concatenate([[0], starts])
    shift = (lo & 63).astype(np.uint64)
    m = np.zeros((nbits, C.BITSET_WORDS), dtype=np.uint64)
    step = max(1, _BUILD_WORDS // len(lo))
    for i in range(0, nbits, step):
        planes = values >> np.arange(i, min(i + step, nbits), dtype=np.uint64)[:, None]
        planes &= np.uint64(1)
        planes <<= shift
        m[i : i + step, word[starts]] = np.bitwise_or.reduceat(planes, starts, axis=1)
    return m


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

    __slots__ = ("slices", "_ex", "_packed")

    def __init__(self, slices: list[RoaringBitmap] | None = None):
        slices = list(slices) if slices else []
        while slices and not slices[-1]:
            slices.pop()
        self.slices = slices
        self._ex: RoaringBitmap | None = None
        # container key -> (nslices, 1024) slice matrix; set by from_arrays
        # or densify
        self._packed: dict[int, np.ndarray] | None = None

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
        are; others are sorted once. Each container key's
        ``(nslices, 1024)`` slice matrix is then written straight from
        the values' bit planes: per run of positions sharing a 64-bit
        word, one ``np.bitwise_or.reduceat`` ORs bit ``i`` of each
        value, shifted to its position's bit, into row ``i``. A slice's
        container at a key is a view of its row, so no array container
        is built only to be widened; :meth:`serialize` reads the words,
        so blobs do not depend on the form. Each key costs 8 KB per
        slice however few positions it holds: positions are meant to be
        dense, as the position encoding makes them."""
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
        nbits = int(values.max()).bit_length()
        lo, spans = key_pieces(positions)
        slices = [RoaringBitmap() for _ in range(nbits)]
        packed = {}
        for k, a, b in spans:
            packed[k] = m = _pack_piece(lo[a:b], values[a:b], nbits)
            held = int(np.bitwise_or.reduce(values[a:b]))
            for i in range(nbits):
                if held >> i & 1:
                    slices[i]._c[k] = m[i]
        out = cls(slices)
        out._packed = packed
        return out

    @classmethod
    def from_bitmap(cls, bm: RoaringBitmap) -> "BSI":
        """Binary-valued BSI (value 1 at every set position)."""
        return cls([bm.copy()]) if bm else cls()

    def copy(self) -> "BSI":
        return BSI([s.copy() for s in self.slices])

    def densify(self) -> "BSI":
        """Packed bitset compute form; semantics unchanged.

        Per container key, the slices' bitsets become the rows of one
        C-contiguous ``(nslices, 1024)`` uint64 matrix, row ``i``
        holding slice ``i`` (a zero row where the slice lacks the key),
        and each slice's container becomes a view of its row. A
        bit-sliced index is a bit matrix (O'Neil & Quass 1997): the
        filtered-sum kernel (:func:`sums_filtered`) cuts a value's
        rows at a key as one ``[:, lo:hi]`` slice of it, while every
        bitmap op still runs on the slices. Containers are immutable,
        so the views never change; serialization reads the words, so
        blobs are the same bytes as before packing."""
        if self._packed is None:
            keys = sorted(set().union(*(s._c.keys() for s in self.slices)))
            self._packed = {k: _pack(self.slices, k) for k in keys}
            for k, m in self._packed.items():
                for s, row in zip(self.slices, m):
                    if k in s._c:
                        s._c[k] = row
        return self

    def _matrix(self, k: int) -> np.ndarray | None:
        """The slice matrix at key ``k`` (packed form), or ``None`` if
        no slice holds the key. An unpacked BSI widens its slices into
        a fresh matrix, for the caller's use only."""
        if self._packed is not None:
            return self._packed.get(k)
        if any(k in s._c for s in self.slices):
            return _pack(self.slices, k)
        return None

    # -- inspection ---------------------------------------------------
    def existence(self) -> RoaringBitmap:
        """Bitmap of positions holding a (non-zero) value; cached."""
        if self._ex is None:
            ex = RoaringBitmap.empty()
            for s in self.slices:
                ex = ex | s
            self._ex = ex
        return self._ex

    def slice_at(self, i: int) -> RoaringBitmap:
        return self.slices[i] if i < len(self.slices) else _EMPTY

    def nslices(self) -> int:
        return len(self.slices)

    def __bool__(self) -> bool:
        return bool(self.slices)

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
        if len(self.slices) != len(other.slices):
            return False
        return all(a == b for a, b in zip(self.slices, other.slices))

    def __hash__(self):
        raise TypeError("BSI is not hashable")

    def __repr__(self) -> str:
        return f"BSI(slices={len(self.slices)}, count={self.count()})"

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
    def _cmp_const(self, k: int, side: str | None) -> tuple[RoaringBitmap, RoaringBitmap]:
        """``(eq, acc)`` vs constant k over existing rows: ``eq`` holds
        the rows == k and ``acc`` the rows < k (``side="lt"``), > k
        (``"gt"``) or none (``None``). Scanning slices from the top,
        only the accumulator asked for is built."""
        ex = self.existence()
        if k <= 0:  # every existing value is >= 1 > k
            return _EMPTY, ex.copy() if side == "gt" else _EMPTY
        if k.bit_length() > len(self.slices):  # every value < 2**nslices <= k
            return _EMPTY, ex.copy() if side == "lt" else _EMPTY
        eq, acc = ex, _EMPTY
        for i in range(len(self.slices) - 1, -1, -1):
            xi = self.slices[i]
            if (k >> i) & 1:
                if side == "lt":
                    acc = acc | eq.andnot(xi)
                eq = eq & xi
            else:
                if side == "gt":
                    acc = acc | (eq & xi)
                eq = eq.andnot(xi)
        return eq, acc

    def lt_const(self, k: int) -> RoaringBitmap:
        return self._cmp_const(k, "lt")[1]

    def eq_const(self, k: int) -> RoaringBitmap:
        return self._cmp_const(k, None)[0]

    def gt_const(self, k: int) -> RoaringBitmap:
        return self._cmp_const(k, "gt")[1]

    def le_const(self, k: int) -> RoaringBitmap:
        eq, lt = self._cmp_const(k, "lt")
        return lt | eq

    def ge_const(self, k: int) -> RoaringBitmap:
        eq, gt = self._cmp_const(k, "gt")
        return gt | eq

    def ne_const(self, k: int) -> RoaringBitmap:
        return self.existence().andnot(self.eq_const(k))

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
            enc: list[dict] = [{} for _ in self.slices]
            for k, m in self._packed.items():
                for e, row in zip(enc, encode_rows(m)):
                    if row is not None:
                        e[k] = row
            blobs = [write_containers(e) for e in enc]
        parts = [_MAGIC, struct.pack("<B", len(self.slices))]
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
        """Serialized size in bytes (storage accounting, Table 4)."""
        return 4 + sum(4 + s.nbytes() for s in self.slices)


# -- aggregate functions over BSIs (§4.1.3) ---------------------------
#: Words ANDed and popcounted per pass of :func:`sums_filtered`: the
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


def sums_filtered(
    values: Sequence[BSI | None],
    filters: Sequence[RoaringBitmap],
    *,
    return_counts: bool = False,
):
    """``out[f][v]``: the exact sum of ``values[v]`` over the positions
    in ``filters[f]`` (0 for a ``None`` value). With ``return_counts``
    it returns ``(out, counts)``, ``counts[f]`` being the cardinality of
    ``filters[f]``, taken in the same pass.

    The batched form of :meth:`BSI.sum_filtered`. Per container key of
    the filters, the filters' joint nonzero-word span ``[lo, hi)`` is
    taken once and each value's slice matrix (:meth:`BSI.densify`) is
    cut to it, ``[:, lo:hi]``: row ``i`` of a value weighs ``2**i``. An
    all-ones row goes first, so each filter's own popcount is its
    count. The rows are shared by all filters: each filter is ANDed
    with them and popcounted in blocks of at most :data:`_CHUNK_WORDS`
    words, in place, into buffers reused across blocks. A value that
    was never densified is widened into a matrix for this call only."""
    # Reaches into the bitmaps' container dicts (same library;
    # containers are immutable and only the kernel's own buffers are
    # written).
    totals = np.zeros((len(filters), len(values)), dtype=object)
    counts = np.zeros(len(filters), dtype=np.int64)
    by_key: dict[int, list[np.ndarray]] = {}
    fidx: dict[int, list[int]] = {}
    for f, bm in enumerate(filters):
        for k, fc in bm._c.items():
            by_key.setdefault(k, []).append(fc if C.is_bitset(fc) else C.array_to_bitset(fc))
            fidx.setdefault(k, []).append(f)
    for k, fbs in by_key.items():
        words = [w for fb in fbs if len(w := np.flatnonzero(fb))]
        if not words:
            continue
        lo = min(int(w[0]) for w in words)
        hi = max(int(w[-1]) for w in words) + 1
        span = hi - lo
        rows = [np.full((1, span), ~np.uint64(0))]  # the filter's own row
        vix = []
        for v, x in enumerate(values):
            m = x._matrix(k) if x is not None else None
            if m is not None:
                rows.append(m[:, lo:hi])
                vix.append(v)
        # row chunks of whole values, each at most ``per_block`` rows
        # (per_block >= 64 rows, the most a from_arrays value has; a
        # wider one, made by BSI arithmetic, is a chunk of its own); a
        # block is a chunk times the filters that fit with it
        per_block = _CHUNK_WORDS // span
        n_f = len(fbs)
        chunks, start, n = [], 0, 0  # (first piece, end piece, rows)
        for i, r in enumerate(rows):
            if n and n + len(r) > per_block:
                chunks.append((start, i, n))
                start, n = i, 0
            n += len(r)
        chunks.append((start, len(rows), n))
        f_steps = [min(n_f, max(1, per_block // n)) for _, _, n in chunks]
        mbuf = np.empty(max(n for _, _, n in chunks) * span, dtype=np.uint64)
        cap = max(f * n for f, (_, _, n) in zip(f_steps, chunks))
        buf = np.empty(cap * span, dtype=np.uint64)
        tmp = np.empty_like(buf)
        pops = np.empty((n_f, sum(len(r) for r in rows)), dtype=np.int64)
        r0 = 0
        for (i0, i1, n), f_step in zip(chunks, f_steps):
            m = mbuf[: n * span].reshape(n, span)
            np.concatenate(rows[i0:i1], out=m)
            for f0 in range(0, n_f, f_step):
                f1 = min(f0 + f_step, n_f)
                out = buf[: (f1 - f0) * n * span].reshape(f1 - f0, n, span)
                fblock = np.stack([fb[lo:hi] for fb in fbs[f0:f1]])
                np.bitwise_and(m[None], fblock[:, None], out=out)
                pops[f0:f1, r0 : r0 + n] = C.popcount_rows(
                    out.reshape(-1, span), tmp[: out.size].reshape(-1, span)
                ).reshape(f1 - f0, n)
            r0 += n
        counts[fidx[k]] += pops[:, 0]
        if not vix:
            continue
        nrows = [len(r) for r in rows[1:]]
        shifts = np.concatenate([np.arange(n) for n in nrows])
        starts = np.cumsum([0, *nrows[:-1]])
        pops = pops[:, 1:]
        if shifts.max() < _INT64_SLICES:
            sums = np.add.reduceat(pops << shifts, starts, axis=1).astype(object)
        else:
            sums = np.add.reduceat(
                pops.astype(object) << shifts.astype(object), starts, axis=1
            )
        totals[np.ix_(fidx[k], vix)] += sums
    if return_counts:
        return totals.tolist(), counts.tolist()
    return totals.tolist()


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
