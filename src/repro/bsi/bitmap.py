"""RoaringBitmap: a compressed set of 32-bit positions (§2.1).

A two-level structure exactly as in the roaring paper: a sorted map
from the shared high 16 bits of positions to a container holding the
low 16 bits (see :mod:`repro.bsi.containers`). AND, the one bitmap op
the pipelines run (a filter ANDed onto another), is dispatched per
container pair.

Serialization is a compact custom format (`serialize`/`deserialize`),
stable across processes — used to ship bitmaps through Spark
``BinaryType`` columns and to measure storage for Table 4.
"""
from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from repro.bsi import containers as C

_MAGIC = b"RB1"


def check_room(buf: bytes, off: int, n: int, what: str) -> None:
    """Raise ValueError unless ``buf`` holds ``n`` bytes from ``off``."""
    if off + n > len(buf):
        raise ValueError(f"truncated {what} blob: {len(buf)} bytes, {off + n} needed")


def check_end(buf: bytes, off: int, what: str) -> None:
    """Raise ValueError unless the blob ends exactly at ``off``."""
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after the {what} blob")


def key_pieces(pos: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The low 16 bits of a sorted uint32 position vector, and the
    ``(key, start, end)`` piece of it that each high-16-bit key spans."""
    hi = pos >> np.uint32(16)
    lo = (pos & np.uint32(0xFFFF)).astype(np.uint16)
    bounds = [0, *(np.flatnonzero(hi[1:] != hi[:-1]) + 1).tolist(), len(pos)]
    return lo, [(int(hi[a]), a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def payload_size(kind: int, count: int) -> int:
    """Payload bytes of a serialized container: array, bitset, runs."""
    return (2 * count, 8 * C.BITSET_WORDS, 4 * count)[kind]


def _kind(n: int, runs: int) -> tuple[int, int]:
    """(kind, count field) of the smallest roaring encoding of a
    container of ``n`` positions in ``runs`` runs: 0=array (count:
    positions), 1=bitset (count 0), 2=runs (count: runs)."""
    if 4 * runs < min(2 * n, 8 * C.BITSET_WORDS):
        return 2, runs
    if 2 * n <= 8 * C.BITSET_WORDS:
        return 0, n
    return 1, 0


def row_kinds(m: np.ndarray) -> tuple[list[tuple[int, int] | None], np.ndarray]:
    """The ``(kind, count field)`` of each row of a bitset word matrix
    taken as a container (None for a zero row), and the rows'
    cardinalities: what sizing needs of :func:`encode_rows`."""
    cards, runs = C.row_counts(m)
    return [_kind(n, r) if n else None for n, r in zip(cards.tolist(), runs.tolist())], cards


def encode_rows(m: np.ndarray, lo: int = 0) -> list[tuple[int, int, bytes] | None]:
    """The ``(kind, count field, payload)`` a bitmap serializes for each
    row of a bitset word matrix taken as a container (None for a zero
    row): column ``j`` of ``m`` is word ``lo + j`` of the container,
    and the words outside ``m`` are zero. The same bytes as
    ``_encode_container`` of the widened row, with the counts and the
    positions taken for all rows at once over ``m``'s words only (the
    word before ``lo`` is zero, so no run starts across its edge)."""
    kinds, cards = row_kinds(m)
    need = [i for i, k in enumerate(kinds) if k is not None and k[0] != 1]
    lows = dict(zip(need, C.row_positions(m[need], cards[need], lo))) if need else {}
    out = []
    for i, k in enumerate(kinds):
        if k is None:
            out.append(None)
        elif k[0] == 1:
            out.append((1, 0, C.widen(lo, m[i]).tobytes()))
        elif k[0] == 0:
            out.append((0, k[1], lows[i].tobytes()))
        else:
            out.append((2, k[1], C.runs_from_positions(lows[i]).tobytes()))
    return out


def write_containers(encoded: dict[int, tuple[int, int, bytes]]) -> bytes:
    """A serialized bitmap from its containers' ``(kind, count field,
    payload)`` by key."""
    parts = [_MAGIC, struct.pack("<I", len(encoded))]
    for k in sorted(encoded):
        kind, count, payload = encoded[k]
        parts.append(struct.pack("<HBI", k, kind, count))
        parts.append(payload)
    return b"".join(parts)


class Probes:
    """Probe positions split once into container key and low 16 bits,
    for membership tests of one vector against many bitmaps (see
    :meth:`RoaringBitmap.contains_array`).

    ``pieces`` holds ``(key, index, low 16 bits)`` per container key
    the probes touch; ``index`` places a piece's answers in the output
    (a full slice when every probe falls in one key). The keys are
    found by counting, not sorting. A position outside [0, 2**32)
    belongs to no bitmap, so it joins no piece; a vector of at most
    32-bit unsigned ints holds none, and is split without a copy to a
    wider type."""

    __slots__ = ("n", "pieces")

    def __init__(self, pos):
        pos = np.asarray(pos)
        self.n = len(pos)
        self.pieces = []
        if not len(pos):
            return
        keep = None  # None: every probe is a valid position
        if pos.dtype.kind != "u" or pos.dtype.itemsize > 4:
            if pos.min() < 0 or pos.max() > 0xFFFFFFFF:
                keep = np.flatnonzero((pos >= 0) & (pos <= 0xFFFFFFFF))
                pos = pos[keep]
            pos = pos.astype(np.intp, copy=False)
        hi, lo = pos >> 16, (pos & 0xFFFF).astype(np.uint16)
        if not len(hi):
            return
        if hi.min() == hi.max():
            whole = slice(None) if keep is None else keep
            self.pieces = [(int(hi[0]), whole, lo)]
            return
        for k in np.flatnonzero(np.bincount(hi)):
            m = np.flatnonzero(hi == k)
            self.pieces.append((int(k), m if keep is None else keep[m], lo[m]))


class RoaringBitmap:
    """A set of uint32 positions stored in roaring containers."""

    __slots__ = ("_c",)

    def __init__(self, _c: dict[int, np.ndarray] | None = None):
        # _c maps high-16-bit key -> non-empty container.
        self._c: dict[int, np.ndarray] = _c if _c is not None else {}

    # -- construction -------------------------------------------------
    @classmethod
    def empty(cls) -> "RoaringBitmap":
        return cls()

    @classmethod
    def from_array(cls, pos) -> "RoaringBitmap":
        """Build from any integer vector of positions (deduplicated)."""
        lo, pieces = key_pieces(np.unique(np.asarray(pos, dtype=np.uint32)))
        return cls.from_sorted((k, lo[a:b]) for k, a, b in pieces)

    @classmethod
    def from_sorted(cls, pieces: Iterable[tuple[int, np.ndarray]]) -> "RoaringBitmap":
        """Build from ``(key, low 16 bits)`` pieces, each sorted and
        duplicate-free (not checked), no key twice; empty pieces are
        skipped. A piece becomes an array container below the 4096
        threshold, else a bitset, exactly as :meth:`from_array` makes
        it."""
        return cls({
            k: lo if len(lo) < C.ARRAY_THRESHOLD else C.array_to_bitset(lo)
            for k, lo in pieces
            if len(lo)
        })

    # -- inspection ---------------------------------------------------
    def cardinality(self) -> int:
        return sum(C.card(c) for c in self._c.values())

    def __len__(self) -> int:
        return self.cardinality()

    def __bool__(self) -> bool:
        return bool(self._c)

    def to_array(self) -> np.ndarray:
        """Sorted uint32 vector of all set positions."""
        if not self._c:
            return np.empty(0, dtype=np.uint32)
        parts = []
        for k in sorted(self._c):
            lo = C.to_positions(self._c[k]).astype(np.uint32)
            parts.append(lo + np.uint32(k << 16))
        return np.concatenate(parts)

    def contains_array(self, pos) -> np.ndarray:
        """Vectorised membership test: bool vector aligned with ``pos``,
        an integer vector or its :class:`Probes` split (made once to
        test one vector against many bitmaps). A position outside
        [0, 2**32) is no member."""
        probes = pos if isinstance(pos, Probes) else Probes(pos)
        out = np.zeros(probes.n, dtype=bool)
        for k, idx, lo in probes.pieces:
            c = self._c.get(k)
            if c is not None:
                out[idx] = C.contains(c, lo)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if self._c.keys() != other._c.keys():
            return False
        return all(C.c_equal(self._c[k], other._c[k]) for k in self._c)

    def __hash__(self):
        raise TypeError("RoaringBitmap is mutable-ish; not hashable")

    def __repr__(self) -> str:
        return f"RoaringBitmap(card={self.cardinality()}, containers={len(self._c)})"

    # -- AND ----------------------------------------------------------
    # NOTE: containers are immutable by convention; a result may alias
    # an operand's containers.
    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        if not self._c or not other._c:
            return RoaringBitmap()
        out: dict[int, np.ndarray] = {}
        small, big = (self, other) if len(self._c) <= len(other._c) else (other, self)
        for k, c in small._c.items():
            r = C.c_and(c, big._c.get(k))
            if r is not None:
                out[k] = r
        return RoaringBitmap(out)

    def densify(self) -> "RoaringBitmap":
        """Convert array containers to bitsets in place.

        Compute policy, not storage: numpy bitset ops (the SIMD
        analogue) are ~10x cheaper per container than sort-based array
        set ops, so hot pipelines densify their long-lived bitmaps.
        ``serialize()`` picks each container's encoding from its
        positions, not its form, so storage accounting is unaffected."""
        self._c = {
            k: (C.array_to_bitset(c) if C.is_array(c) else c)
            for k, c in self._c.items()
        }
        return self

    # -- serde --------------------------------------------------------
    @staticmethod
    def _encoding(c: np.ndarray) -> tuple[int, int]:
        """(kind, count field) of the smallest of the three roaring
        encodings (:func:`_kind`). Cardinality and runs are counted on
        a bitset's words, so no positions are built to choose."""
        return _kind(C.card(c), C.run_count(c))

    @classmethod
    def _encode_container(cls, c: np.ndarray) -> tuple[int, int, bytes]:
        """(kind, count_field, payload) of the smallest encoding;
        positions are built only when the array or run encoding wins."""
        kind, count = cls._encoding(c)
        if kind == 2:
            return kind, count, C.runs_from_positions(C.to_positions(c)).tobytes()
        if kind == 0:
            return kind, count, C.to_positions(c).tobytes()
        return kind, count, (c if C.is_bitset(c) else C.array_to_bitset(c)).tobytes()

    def serialize(self) -> bytes:
        """Compact byte encoding: magic, container count, then per
        container (key:u16, kind:u8, count:u32, payload). Kind picks
        the smallest of array / bitset / run encodings per container,
        exactly as roaring-with-runs does; it is read from the
        container's positions, so a bitset and an array container
        holding the same positions write the same bytes."""
        return write_containers({k: self._encode_container(c) for k, c in self._c.items()})

    @classmethod
    def deserialize(cls, buf: bytes) -> "RoaringBitmap":
        """Inverse of :meth:`serialize`. Raises ValueError on a bad
        magic, a truncated blob, an unknown container kind, trailing
        bytes, and on a container that no bitmap serializes to: keys
        not increasing, an empty container, an array payload not
        strictly increasing, or runs that overlap, are out of order or
        pass 65535."""
        check_room(buf, 0, 7, "RoaringBitmap")
        if buf[:3] != _MAGIC:
            raise ValueError("bad RoaringBitmap magic")
        (n,) = struct.unpack_from("<I", buf, 3)
        off = 7
        out: dict[int, np.ndarray] = {}
        prev = -1
        for _ in range(n):
            check_room(buf, off, 7, "RoaringBitmap")
            k, kind, m = struct.unpack_from("<HBI", buf, off)
            off += 7
            if kind > 2:
                raise ValueError(f"unknown RoaringBitmap container kind {kind} (key {k})")
            if k <= prev:
                raise ValueError(f"RoaringBitmap container key {k} after key {prev}")
            prev = k
            size = payload_size(kind, m)
            check_room(buf, off, size, "RoaringBitmap")
            if kind == 1:
                c = np.frombuffer(
                    buf, dtype=np.uint64, count=C.BITSET_WORDS, offset=off
                ).copy()
                if not c.any():
                    raise ValueError(f"empty RoaringBitmap container (key {k})")
            elif m == 0:
                raise ValueError(f"empty RoaringBitmap container (key {k})")
            elif kind == 0:
                c = np.frombuffer(buf, dtype=np.uint16, count=m, offset=off).copy()
                if (c[1:] <= c[:-1]).any():
                    raise ValueError(
                        f"RoaringBitmap array container not sorted and unique (key {k})"
                    )
            else:
                runs = np.frombuffer(
                    buf, dtype=np.uint16, count=2 * m, offset=off
                ).reshape(m, 2)
                ends = runs[:, 0].astype(np.int32) + runs[:, 1]
                if (runs[1:, 0] <= ends[:-1]).any():
                    raise ValueError(
                        f"RoaringBitmap runs overlap or are out of order (key {k})"
                    )
                if ends[-1] > 0xFFFF:  # ordered runs: the last ends last
                    raise ValueError(f"RoaringBitmap run passes 65535 (key {k})")
                c = C.normalize(C.positions_from_runs(runs))
            off += size
            out[k] = c
        check_end(buf, off, "RoaringBitmap")
        return cls(out)

    def held_bytes(self) -> int:
        """Bytes its containers hold in memory."""
        return sum(c.nbytes for c in self._c.values())

    def nbytes(self) -> int:
        """Size of the serialized form, used for storage accounting."""
        n = 7
        for c in self._c.values():
            kind, count = self._encoding(c)
            n += 7 + payload_size(kind, count)
        return n
