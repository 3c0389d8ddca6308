"""Pre-experiment computation (§4.3): the CUPED covariate pipeline.

The covariate for a user is its metric sum over the C days preceding
the experiment start. On the BSI representation this is the sumBSI,
per segment, of the stored pre-aggregate tree nodes that cover those
days (:mod:`repro.platform.preagg`, Figure 6): at most 2·⌈log₂C⌉ blobs
per segment instead of C. It then runs through the scorecard kernel
(§4.2) as one metric on the expose date.

The normal baseline is the corresponding Catalyst pipeline on row
logs (aggregate pre-period per user, join expose, group by bucket).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bsi.bsi import BSI, sum_bsi
from repro.core import stats
from repro.core.scorecard import bucket_frame_to_arrays, normal_grid, score_frames
from repro.platform import preagg


def preperiod_sum_bsi(
    metric_tree: DataFrame,
    *,
    metric_id: int,
    pre_lo: int,
    pre_hi: int,
) -> DataFrame:
    """Per-segment sumBSI of a metric over days [pre_lo, pre_hi]: the
    fold of the stored tree nodes (``metric_tree``, as
    :func:`repro.platform.preagg.metric_tree` builds it) that cover
    the range. A segment with no rows in the range yields no row."""

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        acc = sum_bsi(BSI.deserialize(v) for v in pdf["value"])
        return pd.DataFrame(
            {
                "segment_id": [int(pdf["segment_id"].iloc[0])],
                "metric_id": [metric_id],
                "value": [acc.serialize()],
            }
        )

    nodes = preagg.cover_rows(metric_tree, metric_id=metric_id, lo=pre_lo, hi=pre_hi)
    return nodes.groupBy("segment_id").applyInPandas(
        fold, "segment_id int, metric_id long, value binary"
    )


def preexperiment_bsi(
    expose_bsi: DataFrame,
    metric_tree: DataFrame,
    *,
    strategy_ids: list[int],
    metric_id: int,
    pre_lo: int,
    pre_hi: int,
    expose_date: int,
) -> DataFrame:
    """Bucket values of the CUPED covariate for a strategy batch:
    same output schema as the scorecard, so the stats layer is shared."""
    cov = preperiod_sum_bsi(
        metric_tree, metric_id=metric_id, pre_lo=pre_lo, pre_hi=pre_hi
    )
    e = expose_bsi.filter(
        F.col("strategy_id").isin([int(s) for s in strategy_ids])
    ).drop("bucket")
    return score_frames(e, cov, date=expose_date, metric_ids=[metric_id])


def preexperiment_normal(
    expose_df: DataFrame,
    metric_df: DataFrame,
    *,
    strategy_ids: list[int],
    metric_id: int,
    pre_lo: int,
    pre_hi: int,
    expose_date: int,
) -> DataFrame:
    """Catalyst baseline: pre-period per-user sums joined to expose."""
    e = expose_df.filter(
        F.col("strategy_id").isin([int(s) for s in strategy_ids])
        & (F.col("first_expose_date") <= expose_date)
    )
    m = (
        metric_df.filter(
            (F.col("metric_id") == metric_id)
            & F.col("date").between(pre_lo, pre_hi)
        )
        .groupBy("analysis_unit_id", "metric_id")
        .agg(F.sum("value").alias("value"))
    )
    return normal_grid(e, m, [metric_id], "segment_id")


def cuped_analysis(
    scorecard_pdf: pd.DataFrame,
    covariate_pdf: pd.DataFrame,
    *,
    treatment_id: int,
    control_id: int,
    metric_id: int,
    n_buckets: int,
) -> dict:
    """End-to-end §4.3 analysis for one pair of strategies: raw t-test,
    CUPED-adjusted t-test and the achieved variance reduction."""
    ty, tn = bucket_frame_to_arrays(
        scorecard_pdf, strategy_id=treatment_id, metric_id=metric_id, n_buckets=n_buckets
    )
    cy, cn = bucket_frame_to_arrays(
        scorecard_pdf, strategy_id=control_id, metric_id=metric_id, n_buckets=n_buckets
    )
    tx, _ = bucket_frame_to_arrays(
        covariate_pdf, strategy_id=treatment_id, metric_id=metric_id, n_buckets=n_buckets
    )
    cx, _ = bucket_frame_to_arrays(
        covariate_pdf, strategy_id=control_id, metric_id=metric_id, n_buckets=n_buckets
    )
    raw = stats.ttest(ty, tn, cy, cn)
    theta, t_adj, c_adj = stats.cuped_two_sample(ty, tn, tx, cy, cn, cx)
    adj = stats.cuped_ttest(t_adj, c_adj)
    reduction = 1.0 - (adj.se**2) / (raw.se**2) if raw.se > 0 else 0.0
    return {
        "raw": raw,
        "adjusted": adj,
        "theta": theta,
        "variance_reduction": reduction,
    }
