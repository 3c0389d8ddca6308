"""Pre-experiment computation (§4.3): the CUPED covariate pipeline.

The covariate for a user is its metric sum over the C days preceding
the experiment start. On the BSI representation this is ``sumBSI`` of
the C daily value BSIs per segment — accelerated by the pre-aggregate
tree (:mod:`repro.platform.preagg`, Figure 6) — run through the
scorecard kernel (§4.2) as one metric on the expose date.

The normal baseline is the corresponding Catalyst pipeline on row
logs (aggregate pre-period per user, join expose, group by bucket).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bsi.bsi import BSI
from repro.core import stats
from repro.core.scorecard import bucket_frame_to_arrays, normal_grid, score_frames
from repro.platform.preagg import PreAggTree


def preperiod_sum_bsi(
    metric_bsi: DataFrame,
    *,
    metric_id: int,
    pre_lo: int,
    pre_hi: int,
    use_tree: bool = True,
) -> DataFrame:
    """Per-segment sumBSI of a metric over days [pre_lo, pre_hi].

    ``use_tree=True`` builds the Figure 6 pre-aggregate tree per
    segment and answers through covering nodes; ``False`` folds the
    days linearly (the unaccelerated §4.3 path). Results identical."""
    m = metric_bsi.filter(
        (F.col("metric_id") == metric_id)
        & F.col("date").between(pre_lo, pre_hi)
    )

    def agg(pdf: pd.DataFrame) -> pd.DataFrame:
        day_bsis = {
            int(r.date): BSI.deserialize(r.value) for r in pdf.itertuples(index=False)
        }
        if use_tree:
            tree = PreAggTree(
                day_bsis, first_day=pre_lo, n_days=pre_hi - pre_lo + 1
            )
            acc = tree.query(pre_lo, pre_hi)
        else:
            acc = BSI.empty()
            for b in day_bsis.values():
                acc = acc.add(b)
        return pd.DataFrame(
            {
                "segment_id": [int(pdf.iloc[0]["segment_id"])],
                "metric_id": [metric_id],
                "value": [acc.serialize()],
            }
        )

    return m.groupBy("segment_id").applyInPandas(
        agg, "segment_id int, metric_id long, value binary"
    )


def preexperiment_bsi(
    expose_bsi: DataFrame,
    metric_bsi: DataFrame,
    *,
    strategy_ids: list[int],
    metric_id: int,
    pre_lo: int,
    pre_hi: int,
    expose_date: int,
    use_tree: bool = True,
) -> DataFrame:
    """Bucket values of the CUPED covariate for a strategy batch:
    same output schema as the scorecard, so the stats layer is shared."""
    cov = preperiod_sum_bsi(
        metric_bsi, metric_id=metric_id, pre_lo=pre_lo, pre_hi=pre_hi,
        use_tree=use_tree,
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
    bucket_col: str = "segment_id",
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
    return normal_grid(e, m, [metric_id], bucket_col)


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
