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
  every value BSI, one popcount pass per cache-sized block), which
  ``sum``, ``sum_filtered`` and the scorecard kernel run on.
"""
from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap, check_end, check_room

_MAGIC = b"BS1"
_EMPTY = RoaringBitmap.empty()


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

    __slots__ = ("slices", "_ex")

    def __init__(self, slices: list[RoaringBitmap] | None = None):
        slices = list(slices) if slices else []
        while slices and not slices[-1]:
            slices.pop()
        self.slices = slices
        self._ex: RoaringBitmap | None = None

    # -- construction -------------------------------------------------
    @classmethod
    def empty(cls) -> "BSI":
        return cls()

    @classmethod
    def from_arrays(cls, positions, values) -> "BSI":
        """Build from parallel position/value vectors. Zero values are
        dropped (non-existing); duplicate positions are an error, and
        so are positions outside [0, 2**32) and negative or
        non-integral values, which a cast would silently wrap."""
        positions = _as_uint(positions, np.uint32, "position")
        values = _as_uint(values, np.uint64, "value")
        if len(positions) != len(values):
            raise ValueError("positions and values must align")
        nz = values != 0
        positions, values = positions[nz], values[nz]
        if len(np.unique(positions)) != len(positions):
            raise ValueError("duplicate positions in BSI input")
        if len(values) == 0:
            return cls()
        nbits = int(values.max()).bit_length()
        slices = []
        for i in range(nbits):
            mask = (values >> np.uint64(i)) & np.uint64(1) == 1
            slices.append(RoaringBitmap.from_array(positions[mask]))
        return cls(slices)

    @classmethod
    def from_bitmap(cls, bm: RoaringBitmap) -> "BSI":
        """Binary-valued BSI (value 1 at every set position)."""
        return cls([bm.copy()]) if bm else cls()

    def copy(self) -> "BSI":
        return BSI([s.copy() for s in self.slices])

    def densify(self) -> "BSI":
        """Bitset-container compute form for every slice (see
        :meth:`RoaringBitmap.densify`); semantics unchanged."""
        for s in self.slices:
            s.densify()
        return self

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
        for i, s in enumerate(self.slices):
            vals += s.contains_array(pos).astype(np.uint64) << np.uint64(i)
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

        The universe for bit complement is ex(X) | ex(Y); positions
        where X < Y produce wrapped garbage and must not be queried
        (the paper never subtracts a larger value in its workloads).
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
        """X + k on existing positions only (zeros stay non-existing)."""
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
        parts = [_MAGIC, struct.pack("<B", len(self.slices))]
        for s in self.slices:
            b = s.serialize()
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
    values: Sequence[BSI | None], filters: Sequence[RoaringBitmap]
) -> list[list[int]]:
    """``out[f][v]``: the exact sum of ``values[v]`` over the positions
    in ``filters[f]`` (0 for a ``None`` value).

    The batched form of :meth:`BSI.sum_filtered`. Per container key of
    the filters, every value's bitset slices for that key are gathered
    once, cut to the filters' joint nonzero-word span ``[lo, hi)``, and
    shared by all filters: each filter is ANDed with them and
    popcounted in blocks of at most :data:`_CHUNK_WORDS` words, in
    place, into buffers reused across blocks. Array slice containers
    are counted by membership instead."""
    # Reaches into the bitmaps' container dicts (same library;
    # containers are immutable and only the kernel's own buffers are
    # written).
    totals = np.zeros((len(filters), len(values)), dtype=object)
    by_key: dict[int, list[tuple[int, np.ndarray]]] = {}
    for f, bm in enumerate(filters):
        for k, fc in bm._c.items():
            by_key.setdefault(k, []).append(
                (f, fc if C.is_bitset(fc) else C.array_to_bitset(fc))
            )
    for k, fcs in by_key.items():
        rows, row_value, row_slice = [], [], []
        for v, x in enumerate(values):
            for i, s in enumerate(x.slices if x is not None else ()):
                c = s._c.get(k)
                if c is None:
                    continue
                if C.is_array(c):
                    for f, fb in fcs:
                        totals[f, v] += int(C.contains(fb, c).sum()) << i
                else:
                    rows.append(c)
                    row_value.append(v)
                    row_slice.append(i)
        words = [w for _, fb in fcs if len(w := np.flatnonzero(fb))]
        if not rows or not words:
            continue
        lo = min(int(w[0]) for w in words)
        span = max(int(w[-1]) for w in words) + 1 - lo
        n_f, n_r = len(fcs), len(rows)
        # a block is a chunk of rows times the filters that fit with it
        # (all rows and several filters, or fewer rows and one filter)
        per_block = max(1, _CHUNK_WORDS // span)
        r_step = min(n_r, per_block)
        f_step = min(n_f, max(1, per_block // n_r))
        buf = np.empty(f_step * r_step * span, dtype=np.uint64)
        tmp = np.empty_like(buf)
        counts = np.empty((n_f, n_r), dtype=np.int64)
        for r0 in range(0, n_r, r_step):
            r1 = min(r0 + r_step, n_r)
            m = np.stack([c[lo : lo + span] for c in rows[r0:r1]])
            for f0 in range(0, n_f, f_step):
                f1 = min(f0 + f_step, n_f)
                n = (f1 - f0) * (r1 - r0) * span
                out = buf[:n].reshape(f1 - f0, r1 - r0, span)
                fblock = np.stack([fb[lo : lo + span] for _, fb in fcs[f0:f1]])
                np.bitwise_and(m[None], fblock[:, None], out=out)
                counts[f0:f1, r0:r1] = C.popcount_rows(
                    out.reshape(-1, span), tmp[:n].reshape(-1, span)
                ).reshape(f1 - f0, r1 - r0)
        shifts = np.array(row_slice)
        row_value = np.array(row_value)
        starts = np.flatnonzero(np.diff(row_value, prepend=-1))
        if shifts.max() < _INT64_SLICES:
            sums = np.add.reduceat(counts << shifts, starts, axis=1).astype(object)
        else:
            sums = np.add.reduceat(
                counts.astype(object) << shifts.astype(object), starts, axis=1
            )
        totals[np.ix_([f for f, _ in fcs], row_value[starts])] += sums
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
