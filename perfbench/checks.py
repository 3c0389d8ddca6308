"""Correctness checks run outside the timed region.

Every check compares one operation's output with a reference computed
independently from the row-format logs with pandas/numpy, so a wrong
answer is pinned on the method that produced it. A missing, extra or
duplicated grid row fails the check.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.bsi.bsi import BSI
from repro.platform import hashing as H

SCORE_KEYS = ["strategy_id", "metric_id", "bucket_id"]
SCORE_VALUES = ["bucket_sum", "bucket_exposed"]
ADHOC_KEYS = ["strategy_id", "metric_id", "date"]
ADHOC_VALUES = ["value_sum", "exposed"]


def grid_matches(got: pd.DataFrame, want: pd.DataFrame, keys, values) -> bool:
    """True iff ``got`` has exactly ``want``'s keys, once each, with
    equal values (sums are integers held in doubles, so exact)."""
    if got.duplicated(keys).any():
        return False
    g = got[keys + values].astype({k: "int64" for k in keys})
    w = want[keys + values].astype({k: "int64" for k in keys})
    m = w.merge(g, on=keys, how="outer", suffixes=("_want", "_got"), indicator=True)
    if (m["_merge"] != "both").any():
        return False
    return all(
        np.array_equal(m[f"{v}_want"].to_numpy(float), m[f"{v}_got"].to_numpy(float))
        for v in values
    )


def scorecard_reference(
    expose: pd.DataFrame,
    metric: pd.DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
    bucket_col: str,
) -> pd.DataFrame:
    """Every exposed (strategy, bucket) x every requested metric: the
    bucket's value sum on ``date`` and its exposed-user count."""
    e = expose[
        expose["strategy_id"].isin(strategy_ids)
        & (expose["first_expose_date"] <= date)
    ]
    m = metric[(metric["date"] == date) & metric["metric_id"].isin(metric_ids)]
    exposed = (
        e.groupby(["strategy_id", bucket_col]).size().rename("bucket_exposed").reset_index()
    )
    sums = (
        e[["strategy_id", "analysis_unit_id", bucket_col]]
        .merge(m[["analysis_unit_id", "metric_id", "value"]], on="analysis_unit_id")
        .groupby(["strategy_id", "metric_id", bucket_col])["value"]
        .sum()
        .rename("bucket_sum")
        .reset_index()
    )
    grid = exposed.merge(pd.DataFrame({"metric_id": metric_ids}), how="cross")
    out = grid.merge(sums, on=["strategy_id", "metric_id", bucket_col], how="left")
    out["bucket_sum"] = out["bucket_sum"].fillna(0).astype(float)
    return out.rename(columns={bucket_col: "bucket_id"})[SCORE_KEYS + SCORE_VALUES]


class AdhocReference:
    """Exposed counts and value sums for every (strategy, metric, date)
    of the ad-hoc store, from which each query's expected grid is cut."""

    def __init__(self, expose, metric, *, n_users, strategy_ids, n_metrics, dates):
        uid = metric["analysis_unit_id"].to_numpy()
        day = metric["date"].to_numpy()
        idx = (metric["metric_id"].to_numpy() - 1) * len(dates) + (day - dates[0])
        val = metric["value"].to_numpy().astype(float)
        self.dates = list(dates)
        self.exposed = {}
        self.sums = {}
        for sid in strategy_ids:
            e = expose[expose["strategy_id"] == sid]
            fed = np.zeros(n_users + 1, dtype=np.int64)
            fed[e["analysis_unit_id"].to_numpy()] = e["first_expose_date"].to_numpy()
            for d in dates:
                self.exposed[(sid, d)] = int(((fed > 0) & (fed <= d)).sum())
            f = fed[uid]
            ok = (f > 0) & (f <= day)
            self.sums[sid] = np.bincount(
                idx[ok], weights=val[ok], minlength=n_metrics * len(dates)
            ).reshape(n_metrics, len(dates))

    def expected(self, strategy_ids, metric_ids, dates) -> pd.DataFrame:
        rows = [
            (s, m, d, self.sums[s][m - 1, d - self.dates[0]], self.exposed[(s, d)])
            for s in strategy_ids
            for m in metric_ids
            for d in dates
        ]
        return pd.DataFrame(rows, columns=ADHOC_KEYS + ADHOC_VALUES)


class ConversionReference:
    """What the normal→BSI conversion must store: per (segment, date,
    metric) the row count and value sum; per (segment, strategy) the
    min expose date and the (position, offset, bucket) of every unit."""

    def __init__(self, metric, expose, encoding, *, n_buckets):
        self.metric = (
            metric.groupby(["segment_id", "date", "metric_id"])["value"]
            .agg(["size", "sum"])
        )
        e = expose.merge(encoding, on=["analysis_unit_id", "segment_id"])
        self.expose = {}
        for (seg, sid), g in e.groupby(["segment_id", "strategy_id"]):
            g = g.sort_values("position")
            fed = g["first_expose_date"].to_numpy()
            self.expose[(int(seg), int(sid))] = (
                int(fed.min()),
                g["position"].to_numpy(np.uint32),
                (fed - fed.min() + 1).astype(np.uint64),
                (H.bucket_of(g["randomization_unit_id"].to_numpy(), n_buckets) + 1)
                .astype(np.uint64),
            )

    def blobs_match(self, metric_blobs: pd.DataFrame, expose_blobs: pd.DataFrame) -> bool:
        """Every blob decodes to its row-format group, and every group
        has exactly one blob."""
        keys = list(zip(metric_blobs["segment_id"], metric_blobs["date"],
                        metric_blobs["metric_id"]))
        if len(set(keys)) != len(keys) or set(keys) != set(self.metric.index):
            return False
        for key, blob in zip(keys, metric_blobs["value"]):
            b = BSI.deserialize(blob)
            n, s = self.metric.loc[key]
            if b.count() != n or b.sum() != s:
                return False
        ekeys = list(zip(expose_blobs["segment_id"], expose_blobs["strategy_id"]))
        if len(set(ekeys)) != len(ekeys) or set(ekeys) != set(self.expose):
            return False
        for key, mind, off, buck in zip(
            ekeys, expose_blobs["min_expose_date"], expose_blobs["offset"],
            expose_blobs["bucket"],
        ):
            want_min, pos, want_off, want_buck = self.expose[key]
            p1, v1 = BSI.deserialize(off).to_arrays()
            p2, v2 = BSI.deserialize(buck).to_arrays()
            if not (
                mind == want_min
                and np.array_equal(p1, pos) and np.array_equal(v1, want_off)
                and np.array_equal(p2, pos) and np.array_equal(v2, want_buck)
            ):
                return False
        return True
