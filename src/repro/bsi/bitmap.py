"""RoaringBitmap: a compressed set of 32-bit positions (§2.1).

A two-level structure exactly as in the roaring paper: a sorted map
from the shared high 16 bits of positions to a container holding the
low 16 bits (see :mod:`repro.bsi.containers`). The four bitmap ops
(AND, OR, XOR, ANDNOT) are dispatched per container pair; containers
are renormalised after every op so the structure stays compressed.

Serialization is a compact custom format (`serialize`/`deserialize`),
stable across processes — used to ship bitmaps through Spark
``BinaryType`` columns and to measure storage for Table 4.
"""
from __future__ import annotations

import struct

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
        pos = np.asarray(pos, dtype=np.uint32)
        if len(pos) == 0:
            return cls()
        pos = np.unique(pos)
        hi = (pos >> np.uint32(16)).astype(np.int64)
        lo = (pos & np.uint32(0xFFFF)).astype(np.uint16)
        out: dict[int, np.ndarray] = {}
        # positions are sorted, so each key is one contiguous run
        keys, starts = np.unique(hi, return_index=True)
        bounds = list(starts) + [len(pos)]
        for i, k in enumerate(keys):
            seg = lo[bounds[i] : bounds[i + 1]]
            c = seg if len(seg) < C.ARRAY_THRESHOLD else C.array_to_bitset(seg)
            out[int(k)] = c
        return cls(out)

    def copy(self) -> "RoaringBitmap":
        return RoaringBitmap({k: v.copy() for k, v in self._c.items()})

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
        """Vectorised membership test: bool vector aligned with ``pos``."""
        pos = np.asarray(pos, dtype=np.uint32)
        out = np.zeros(len(pos), dtype=bool)
        if not self._c or len(pos) == 0:
            return out
        hi = pos >> np.uint32(16)
        lo = (pos & np.uint32(0xFFFF)).astype(np.uint16)
        for k in np.unique(hi):
            c = self._c.get(int(k))
            if c is None:
                continue
            m = hi == k
            out[m] = C.contains(c, lo[m])
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

    # -- the four bitmap ops ------------------------------------------
    # NOTE: containers are immutable by convention; op results may
    # alias operand containers, which is why the empty-operand paths
    # can return the other bitmap's container dict unchanged.
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

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        if not self._c:
            return RoaringBitmap(dict(other._c))
        if not other._c:
            return RoaringBitmap(dict(self._c))
        out: dict[int, np.ndarray] = {}
        for k in self._c.keys() | other._c.keys():
            r = C.c_or(self._c.get(k), other._c.get(k))
            if r is not None:
                out[k] = r
        return RoaringBitmap(out)

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        if not self._c:
            return RoaringBitmap(dict(other._c))
        if not other._c:
            return RoaringBitmap(dict(self._c))
        out: dict[int, np.ndarray] = {}
        for k in self._c.keys() | other._c.keys():
            r = C.c_xor(self._c.get(k), other._c.get(k))
            if r is not None:
                out[k] = r
        return RoaringBitmap(out)

    def andnot(self, other: "RoaringBitmap") -> "RoaringBitmap":
        if not self._c:
            return RoaringBitmap()
        if not other._c:
            return RoaringBitmap(dict(self._c))
        out: dict[int, np.ndarray] = {}
        for k, c in self._c.items():
            r = C.c_andnot(c, other._c.get(k))
            if r is not None:
                out[k] = r
        return RoaringBitmap(out)

    def densify(self) -> "RoaringBitmap":
        """Convert array containers to bitsets in place.

        Compute policy, not storage: numpy bitset ops (the SIMD
        analogue) are ~10x cheaper per container than sort-based array
        set ops, so hot pipelines densify their long-lived bitmaps.
        ``compact()``/``serialize()`` restore the canonical roaring
        representation, so storage accounting is unaffected."""
        self._c = {
            k: (C.array_to_bitset(c) if C.is_array(c) else c)
            for k, c in self._c.items()
        }
        return self

    def compact(self) -> "RoaringBitmap":
        """Strictly renormalise every container (emptiness + the 4096
        array/bitset threshold). Called before serialization so lazily
        normalised op results serialize at canonical size."""
        self._c = {
            k: c2
            for k, c in self._c.items()
            if (c2 := C.normalize(c)) is not None
        }
        return self

    # -- serde --------------------------------------------------------
    @staticmethod
    def _encode_container(c: np.ndarray) -> tuple[int, int, bytes]:
        """(kind, count_field, payload) choosing the smallest of the
        three roaring encodings: 0=array, 1=bitset, 2=runs."""
        pos = C.to_positions(c)
        runs = C.runs_from_positions(pos)
        array_bytes = 2 * len(pos)
        run_bytes = 4 * len(runs)
        if run_bytes < min(array_bytes, 8 * C.BITSET_WORDS):
            return 2, len(runs), runs.tobytes()
        if array_bytes <= 8 * C.BITSET_WORDS:
            return 0, len(pos), pos.tobytes()
        return 1, 0, (c if C.is_bitset(c) else C.array_to_bitset(pos)).tobytes()

    def serialize(self) -> bytes:
        """Compact byte encoding: magic, container count, then per
        container (key:u16, kind:u8, count:u32, payload). Kind picks
        the smallest of array / bitset / run encodings per container,
        exactly as roaring-with-runs does."""
        self.compact()
        parts = [_MAGIC, struct.pack("<I", len(self._c))]
        for k in sorted(self._c):
            kind, count, payload = self._encode_container(self._c[k])
            parts.append(struct.pack("<HBI", k, kind, count))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, buf: bytes) -> "RoaringBitmap":
        """Inverse of :meth:`serialize`. Raises ValueError on a bad
        magic, a truncated blob, an unknown container kind or trailing
        bytes."""
        check_room(buf, 0, 7, "RoaringBitmap")
        if buf[:3] != _MAGIC:
            raise ValueError("bad RoaringBitmap magic")
        (n,) = struct.unpack_from("<I", buf, 3)
        off = 7
        out: dict[int, np.ndarray] = {}
        for _ in range(n):
            check_room(buf, off, 7, "RoaringBitmap")
            k, kind, m = struct.unpack_from("<HBI", buf, off)
            off += 7
            if kind > 2:
                raise ValueError(f"unknown RoaringBitmap container kind {kind} (key {k})")
            size = (2 * m, 8 * C.BITSET_WORDS, 4 * m)[kind]  # array, bitset, runs
            check_room(buf, off, size, "RoaringBitmap")
            if kind == 0:
                c = np.frombuffer(buf, dtype=np.uint16, count=m, offset=off).copy()
            elif kind == 1:
                c = np.frombuffer(
                    buf, dtype=np.uint64, count=C.BITSET_WORDS, offset=off
                ).copy()
            else:
                runs = np.frombuffer(
                    buf, dtype=np.uint16, count=2 * m, offset=off
                ).reshape(m, 2)
                c = C.normalize(C.positions_from_runs(runs))
            off += size
            out[k] = c
        check_end(buf, off, "RoaringBitmap")
        return cls(out)

    def nbytes(self) -> int:
        """Size of the serialized form, used for storage accounting."""
        self.compact()
        n = 7
        for c in self._c.values():
            _, _, payload = self._encode_container(c)
            n += 7 + len(payload)
        return n
