"""Bit-sliced index (BSI) substrate built on a numpy roaring-bitmap.

Layering (bottom-up):

- :mod:`repro.bsi.containers` — roaring containers: sorted uint16
  array containers and 1024-word uint64 bitset containers, with AND
  dispatched per container pair.
- :mod:`repro.bsi.bitmap` — :class:`RoaringBitmap`, a dict of
  containers keyed by the high 16 bits of each 32-bit position.
- :mod:`repro.bsi.bsi` — :class:`BSI`, per container key one packed
  bit matrix of its slices, with sumBSI (§2.3), constant predicates
  and filtered sums (§4.1.3).

Spark ships BSIs as serialized blobs in BinaryType columns. The
scorecard, bucketed scorecard, pre-experiment, deep-dive and ad-hoc
pipelines all end in one kernel,
:func:`repro.core.scorecard.score_segment`. Per segment it takes the
exposed users from the constant predicate on the offset BSI, ANDs any
dimension filter onto them and splits them by bucket if asked. It then
sums each metric over them. Its grid contract is every (strategy,
bucket) with at least one exposed user, times every requested metric;
a metric with no BSI in the segment sums to 0.
"""
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI

__all__ = ["RoaringBitmap", "BSI"]
