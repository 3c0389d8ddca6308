"""In-process ad-hoc query engine — the ClickHouse substitute (§5.3).

The paper's topology: every segment lives on one node of a ClickHouse
cluster; a query runs locally per segment, in parallel, over cached
hot data; BSI ops are built into the engine. Here the same topology is
one process: a per-segment in-memory store, a thread pool fanning a
query out over segments, and two query methods sharing the store:

- ``query_bsi``      — the paper's BSI method: the scorecard kernel
  (:func:`repro.core.scorecard.score_segment`) per segment and date —
  expose-offset constant predicate -> filter bitmap ->
  ``sum_filtered`` on the value BSI.
- ``query_normal``   — the paper's pre-BSI method (§6.3): per-day
  exposed-user bitmaps cached per strategy; scan the normal-format
  metric rows, membership-filter by the bitmap, aggregate.

Both answer "for strategies S x metrics M x dates D: exposed count and
value sum per (s, m, d)", the Table 8 workload shape, with one row for
every requested (s, m, d).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import pandas as pd

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.core.scorecard import score_segment
from repro.platform import hashing as H
from repro.platform.encode import encoding_pandas


@dataclass
class _Segment:
    """One node's cache: BSI store + normal-format columnar store."""

    # BSI store
    metric_bsi: dict[tuple[int, int], BSI] = field(default_factory=dict)
    expose_bsi: dict[int, tuple[int, BSI]] = field(default_factory=dict)  # sid -> (min_date, offset)
    # normal store
    metric_rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )  # (metric, date) -> (user_ids, values)
    expose_day_bitmaps: dict[tuple[int, int], RoaringBitmap] = field(
        default_factory=dict
    )  # (sid, date) -> bitmap of user ids exposed by that day


class AdhocEngine:
    """Per-segment cached store + segment-parallel query execution."""

    def __init__(self, n_segments: int, workers: int | None = None):
        # workers defaults to 1: the numpy kernels are too fine-grained
        # for Python threads (GIL contention dominates); >1 is kept for
        # the paper's per-node-parallel topology and for tests.
        self.n_segments = n_segments
        self.segments = [_Segment() for _ in range(n_segments)]
        self.workers = workers or 1

    # -- loading ------------------------------------------------------
    @classmethod
    def from_logs(
        cls,
        *,
        users_pdf: pd.DataFrame,
        metric_pdf: pd.DataFrame,
        expose_pdf: pd.DataFrame,
        n_segments: int,
        dates: list[int],
        workers: int | None = None,
    ) -> "AdhocEngine":
        """Build both stores from raw logs (same encoding the Spark
        pipeline uses, so results agree bit-for-bit)."""
        eng = cls(n_segments, workers)
        u = users_pdf.copy()
        if "segment_id" not in u.columns:
            u["segment_id"] = H.segment_of(u["analysis_unit_id"].to_numpy(), n_segments)
        enc = encoding_pandas(u)
        pos_of = enc.set_index("analysis_unit_id")["position"]

        mp = metric_pdf[metric_pdf["date"].isin(dates)]
        for (seg, mid, d), grp in mp.groupby(["segment_id", "metric_id", "date"]):
            uids = grp["analysis_unit_id"].to_numpy()
            vals = grp["value"].to_numpy()
            s = eng.segments[int(seg)]
            s.metric_rows[(int(mid), int(d))] = (uids, vals)
            # hot cached compute form: bitset containers (§5.3 keeps
            # hot data resident; densify is our SIMD-op equivalent)
            s.metric_bsi[(int(mid), int(d))] = BSI.from_arrays(
                pos_of.loc[uids].to_numpy(), vals
            ).densify()

        for (seg, sid), grp in expose_pdf.groupby(["segment_id", "strategy_id"]):
            s = eng.segments[int(seg)]
            fed = grp["first_expose_date"].to_numpy()
            min_date = int(fed.min())
            pos = pos_of.loc[grp["analysis_unit_id"].to_numpy()].to_numpy()
            s.expose_bsi[int(sid)] = (
                min_date,
                BSI.from_arrays(pos, fed - min_date + 1).densify(),
            )
            uids = grp["analysis_unit_id"].to_numpy()
            for d in dates:
                s.expose_day_bitmaps[(int(sid), int(d))] = RoaringBitmap.from_array(
                    uids[fed <= d].astype(np.uint32)
                )
        return eng

    # -- queries ------------------------------------------------------
    def _fan_out(self, per_segment, strategy_ids, metric_ids, dates) -> pd.DataFrame:
        """Run ``per_segment`` over every segment and add up its
        ``(strategy_id, metric_id, date, value_sum, exposed)`` tuples
        onto the full requested grid."""
        if self.workers <= 1:
            parts = [per_segment(i) for i in range(self.n_segments)]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as ex:
                parts = list(ex.map(per_segment, range(self.n_segments)))
        grid = {key: [0.0, 0] for key in product(strategy_ids, metric_ids, dates)}
        for rows in parts:
            for sid, mid, d, v, n in rows:
                cell = grid[(sid, mid, d)]
                cell[0] += v
                cell[1] += n
        return pd.DataFrame(
            [(*key, v, n) for key, (v, n) in grid.items()],
            columns=["strategy_id", "metric_id", "date", "value_sum", "exposed"],
        )

    def query_bsi(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """BSI method: the scorecard kernel over each segment's store,
        once per date."""

        def per_segment(i: int) -> list[tuple]:
            s = self.segments[i]
            exposes = [
                (sid, *s.expose_bsi[sid], None)
                for sid in strategy_ids
                if sid in s.expose_bsi
            ]
            rows = []
            for d in dates:
                metrics = {
                    mid: s.metric_bsi[(mid, d)]
                    for mid in metric_ids
                    if (mid, d) in s.metric_bsi
                }
                rows += [
                    (sid, mid, d, v, n)
                    for sid, mid, _, v, n in score_segment(
                        exposes, metrics, date=d, metric_ids=metric_ids
                    )
                ]
            return rows

        return self._fan_out(per_segment, strategy_ids, metric_ids, dates)

    def query_normal(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """Normal method (§6.3): cached per-day exposed-user bitmaps;
        scan metric rows, membership-filter, aggregate."""

        def per_segment(i: int) -> list[tuple]:
            s = self.segments[i]
            rows = []
            for sid in strategy_ids:
                for d in dates:
                    bm = s.expose_day_bitmaps.get((sid, d))
                    if bm is None:
                        continue
                    exposed = bm.cardinality()
                    for mid in metric_ids:
                        rec = s.metric_rows.get((mid, d))
                        if rec is None:
                            rows.append((sid, mid, d, 0.0, exposed))
                            continue
                        uids, vals = rec
                        mask = bm.contains_array(uids)
                        rows.append((sid, mid, d, float(vals[mask].sum()), exposed))
            return rows

        return self._fan_out(per_segment, strategy_ids, metric_ids, dates)
