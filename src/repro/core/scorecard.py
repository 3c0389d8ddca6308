"""Scorecard computation (§4.2): per-bucket metric sums + exposed
counts for strategy-metric pairs, in two interchangeable pipelines.

**BSI pipeline** — the paper's method, one kernel for every caller
(:func:`score_segment`). All BSIs of a segment are position-aligned by
construction (§4.1.1), so per segment and strategy the exposed users
are the constant predicate ``offset <= date - min_expose_date + 1``
on the offset BSI, evaluated for all requested dates in one pass,
optionally ANDed with a dimension filter (deep dive, §4.4) and split
by the bucket BSI (one ``eq`` pass for all buckets); the segment's
bucket values, ``sum(value * filter)`` evaluated directly on slices,
then come from one batched call
(:func:`repro.bsi.bsi.grouped_sums`) that sums each date's
(strategy, bucket) filters against that date's requested metrics.
The scorecard, the bucketed scorecard, the CUPED covariate (§4.3) and
the deep dive run it for one date through one cogroup by
``segment_id`` (:func:`score_frames`); the ad-hoc engine calls it
in-process, once per segment for all the query's dates.

**Normal pipeline** — the paper's pre-BSI baseline: plain Catalyst
join / filter / groupBy over the row-format logs, exactly the Spark
SQL shape printed in §4.2 (:func:`normal_grid` is its shared tail).

Both return the same schema so the statistical layer (:mod:`stats`)
and the tests can diff them row-for-row:

    strategy_id, metric_id, bucket_id, bucket_sum, bucket_exposed

Both produce the same grid: every (strategy, bucket) with at least one
exposed user, times every requested metric. A metric with no rows in
a bucket has ``bucket_sum`` 0 and the bucket's full exposed count.

In the common case the analysis unit is the randomization unit and
``bucket_id == segment_id`` (§3.3); the ``*_bucketed`` variant handles
the general case where buckets come from the randomization-unit hash.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bsi import containers as C
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI, grouped_sums

RESULT_SCHEMA = (
    "strategy_id long, metric_id long, bucket_id int, "
    "bucket_sum double, bucket_exposed long"
)
RESULT_COLUMNS = [
    "strategy_id", "metric_id", "bucket_id", "bucket_sum", "bucket_exposed"
]

#: one strategy of a segment: (strategy_id, min_expose_date, offset, bucket)
Expose = tuple[int, int, BSI, "BSI | None"]


# -- BSI pipeline -----------------------------------------------------
def score_segment(
    exposes: Sequence[Expose],
    metrics: Mapping[tuple[int, int], BSI],
    *,
    dates: Sequence[int],
    metric_ids: Sequence[int],
    extra_filter: RoaringBitmap | None = None,
    n_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One segment's cells of the scorecard grid on each of ``dates``,
    over decoded BSIs.

    ``metrics`` maps ``(metric_id, date)`` to the metric's value BSI on
    that date; a requested pair it lacks sums to 0. Per strategy, one
    pass of the constant predicate over its offset BSI
    (:meth:`~repro.bsi.bsi.BSI.const_masks`) gives its exposed users
    on every date, ``offset <= date - min_expose_date + 1``.
    ``extra_filter`` is ANDed onto them. With ``n_buckets`` they are
    split by the strategy's bucket BSI (which stores bucket + 1), its
    ``eq`` predicate taken for every bucket in one pass too; without
    it the segment is one bucket. One
    :func:`~repro.bsi.bsi.grouped_sums` call then sums each date's
    (strategy, bucket) filters against that date's metrics only, and
    counts each filter's users in the same popcount pass.

    Returns ``(sums, exposed)``: ``sums[d, s, b, m]`` (float64, each
    exact sum rounded once) for date ``dates[d]``, ``exposes[s]``,
    bucket ``b`` (0 without ``n_buckets``) and ``metric_ids[m]``, and
    ``exposed[d, s, b]`` (int64)."""
    n_d, n_s = len(dates), len(exposes)
    n_b = 1 if n_buckets is None else n_buckets
    parts: dict[int, list[tuple[int, int, np.ndarray]]] = {}  # key -> (strategy, lo, words)
    for s, (_, min_date, offset, bucket) in enumerate(exposes):
        split = {} if n_buckets is None else bucket.const_masks("eq", range(1, n_b + 1))
        for key, (lo, w) in offset.const_masks("le", [d - min_date + 1 for d in dates]).items():
            if extra_filter is not None:
                c = extra_filter._c.get(key)
                if c is None:
                    continue
                w &= (c if C.is_bitset(c) else C.array_to_bitset(c))[lo : lo + w.shape[1]]
            w = w[:, None]
            if n_buckets is not None:
                if key not in split:
                    continue
                lo_b, wb = split[key]
                a, z = max(lo, lo_b), min(lo + w.shape[2], lo_b + wb.shape[1])
                if a >= z:
                    continue
                w = w[:, :, a - lo : z - lo] & wb[None, :, a - lo_b : z - lo_b]
                lo = a
            parts.setdefault(key, []).append((s, lo, w))
    masks = {}
    for key, held in parts.items():
        lo = min(a for _, a, _ in held)
        hi = max(a + w.shape[2] for _, a, w in held)
        full = np.zeros((n_d, n_s, n_b, hi - lo), dtype=np.uint64)
        for s, a, w in held:
            full[:, s, :, a - lo : a - lo + w.shape[2]] = w
        masks[key] = (lo, full.reshape(n_d, n_s * n_b, hi - lo))
    sums, exposed = grouped_sums(
        [[metrics.get((mid, d)) for mid in metric_ids] for d in dates], masks, n_s * n_b
    )
    return (
        sums.astype(np.float64).reshape(n_d, n_s, n_b, len(metric_ids)),
        exposed.reshape(n_d, n_s, n_b),
    )


def score_frames(
    e: DataFrame,
    m: DataFrame,
    *,
    date: int,
    metric_ids: list[int],
    n_buckets: int | None = None,
) -> DataFrame:
    """Run :func:`score_segment` once per segment over BSI frames.

    ``e`` holds one segment's strategies (``segment_id, strategy_id,
    min_expose_date, offset``, plus ``bucket`` when ``n_buckets`` is
    given and an optional per-segment ``dim_filter`` bitmap blob); ``m``
    holds its metric blobs (``segment_id, metric_id, value``). The two
    are cogrouped by ``segment_id`` so each blob crosses the wire once
    per batch, not once per pair — the paper's 'each job computes a
    batch of pairs to better utilise network traffic'. A segment with
    no metric rows still yields its exposed buckets, with sum 0."""
    metric_ids = [int(x) for x in metric_ids]

    def per_segment(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if len(left) == 0:
            return pd.DataFrame(columns=RESULT_COLUMNS)
        exposes = [
            (
                int(r.strategy_id),
                int(r.min_expose_date),
                BSI.deserialize(r.offset),
                BSI.deserialize(r.bucket) if n_buckets is not None else None,
            )
            for r in left.itertuples(index=False)
        ]
        metrics = {
            (int(r.metric_id), date): BSI.deserialize(r.value)
            for r in right.itertuples(index=False)
        }
        extra = None
        if "dim_filter" in left.columns:
            extra = RoaringBitmap.deserialize(left["dim_filter"].iloc[0])
        sums, exposed = score_segment(
            exposes, metrics, dates=[date], metric_ids=metric_ids,
            extra_filter=extra, n_buckets=n_buckets,
        )
        s, b = np.nonzero(exposed[0])  # the cells with exposed users
        sids = np.array([e[0] for e in exposes], dtype=np.int64)
        bucket_ids = b if n_buckets is not None else np.full(len(s), left["segment_id"].iloc[0])
        n_m = len(metric_ids)
        return pd.DataFrame({
            "strategy_id": np.repeat(sids[s], n_m),
            "metric_id": np.tile(np.array(metric_ids, dtype=np.int64), len(s)),
            "bucket_id": np.repeat(bucket_ids.astype(np.int64), n_m),
            "bucket_sum": sums[0, s, b].ravel(),
            "bucket_exposed": np.repeat(exposed[0, s, b], n_m),
        })

    return (
        e.groupBy("segment_id")
        .cogroup(m.groupBy("segment_id"))
        .applyInPandas(per_segment, RESULT_SCHEMA)
    )


def _select(
    expose_bsi: DataFrame, metric_bsi: DataFrame, strategy_ids, metric_ids, date
) -> tuple[DataFrame, DataFrame]:
    e = expose_bsi.filter(F.col("strategy_id").isin([int(s) for s in strategy_ids]))
    m = metric_bsi.filter(
        (F.col("date") == date)
        & F.col("metric_id").isin([int(x) for x in metric_ids])
    )
    return e, m


def scorecard_bsi(
    expose_bsi: DataFrame,
    metric_bsi: DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
) -> DataFrame:
    """Single-day scorecard for a batch of strategy-metric pairs on the
    BSI representation (bucket == segment case)."""
    e, m = _select(expose_bsi, metric_bsi, strategy_ids, metric_ids, date)
    return score_frames(e.drop("bucket"), m, date=date, metric_ids=metric_ids)


def scorecard_bsi_bucketed(
    expose_bsi: DataFrame,
    metric_bsi: DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
    n_buckets: int,
) -> DataFrame:
    """General-case scorecard: buckets from the randomization-unit
    hash; per-segment partial bucket values merged across segments.
    ``n_buckets`` must match the bucket BSI's encoding."""
    e, m = _select(expose_bsi, metric_bsi, strategy_ids, metric_ids, date)
    per_segment = score_frames(
        e, m, date=date, metric_ids=metric_ids, n_buckets=n_buckets
    )
    return per_segment.groupBy("strategy_id", "metric_id", "bucket_id").agg(
        F.sum("bucket_sum").alias("bucket_sum"),
        F.sum("bucket_exposed").alias("bucket_exposed"),
    )


# -- normal-format pipeline (the paper's pre-BSI baseline) ------------
def normal_grid(
    e: DataFrame, m: DataFrame, metric_ids: list[int], bucket_col: str
) -> DataFrame:
    """Catalyst counts/sums/grid over already-filtered row logs.

    ``e`` holds the exposed users (``strategy_id, analysis_unit_id,
    bucket_col``); ``m`` their metric rows (``analysis_unit_id,
    metric_id, value``). The exposed count comes from the expose log
    alone (a metric mean is per exposed user, §4.2), the sum from the
    expose ⋈ metric join; every exposed (strategy, bucket) gets a row
    for each requested metric."""
    bucket = F.col(bucket_col).alias("bucket_id")
    sums = (
        e.join(m.select("analysis_unit_id", "metric_id", "value"), "analysis_unit_id")
        .groupBy("strategy_id", "metric_id", bucket)
        .agg(F.sum("value").cast("double").alias("bucket_sum"))
    )
    counts = e.groupBy("strategy_id", bucket).agg(F.count("*").alias("bucket_exposed"))
    grid = counts.withColumn(
        "metric_id", F.explode(F.array(*[F.lit(int(x)).cast("long") for x in metric_ids]))
    )
    return (
        grid.join(sums, ["strategy_id", "metric_id", "bucket_id"], "left")
        .fillna({"bucket_sum": 0.0})
        .select(*RESULT_COLUMNS)
    )


def scorecard_normal(
    expose_df: DataFrame,
    metric_df: DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
    bucket_col: str = "segment_id",
) -> DataFrame:
    """Catalyst join/filter/groupBy scorecard over row-format logs.

    ``bucket_col`` is ``segment_id`` in the common case; pass a
    precomputed bucket column for the general case."""
    e = expose_df.filter(
        F.col("strategy_id").isin([int(s) for s in strategy_ids])
        & (F.col("first_expose_date") <= date)
    )
    m = metric_df.filter(
        (F.col("date") == date)
        & F.col("metric_id").isin([int(x) for x in metric_ids])
    )
    return normal_grid(e, m, metric_ids, bucket_col)


# -- bridging to the stats layer --------------------------------------
def bucket_frame_to_arrays(
    result_pdf: pd.DataFrame, *, strategy_id: int, metric_id: int, n_buckets: int
) -> tuple[np.ndarray, np.ndarray]:
    """(sums, counts) dense over bucket ids 0..n_buckets-1 for one
    strategy-metric pair — empty buckets count as (0, 0) replicates."""
    sel = result_pdf[
        (result_pdf["strategy_id"] == strategy_id)
        & (result_pdf["metric_id"] == metric_id)
    ]
    sums = np.zeros(n_buckets)
    counts = np.zeros(n_buckets, dtype=np.int64)
    sums[sel["bucket_id"].to_numpy()] = sel["bucket_sum"].to_numpy()
    counts[sel["bucket_id"].to_numpy()] = sel["bucket_exposed"].to_numpy()
    return sums, counts
