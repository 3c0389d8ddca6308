"""Deep dive analysis (§4.4): scorecards over a dimension-filtered
exposed population (e.g. client-type = 1 AND client-version > 134).

BSI path: each predicate on a dimension BSI yields a binary filter
(``value = k`` / ``value > k`` ...); mulBSI of binary filters is their
AND; the merged per-segment filter rides on the expose rows into the
scorecard kernel, which ANDs it onto the expose filter before the usual
sum — the one extra multiplication the paper calls negligible.

Normal path: the Catalyst equivalent — semi-joins of the expose log
against the dimension rows satisfying each predicate, then the normal
scorecard.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.core.scorecard import scorecard_bsi, scorecard_normal

#: predicate op (a :meth:`BSI.compare_const` op) -> its SQL operator
_OPS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

Predicate = tuple[str, str, int]  # (dimension_name, op, constant)


def _check_predicates(predicates: list[Predicate]) -> None:
    """Raise ValueError, on the driver, unless there is at least one
    predicate and every op is known."""
    if not predicates:
        raise ValueError("a deep dive needs at least one predicate")
    for _, op, _ in predicates:
        if op not in _OPS:
            raise ValueError(f"unknown predicate op {op!r}; known: {sorted(_OPS)}")


def dim_filter_bsi(
    dim_bsi: DataFrame, *, predicates: list[Predicate], date: int
) -> DataFrame:
    """Per-segment merged dimension filter: (segment_id, dim_filter),
    the filter a serialized :class:`RoaringBitmap`.

    Each predicate produces a binary filter; they are AND-merged (mulBSI
    over binary BSIs, as in the §4.4 SQL's ``mulBSI(filter)``)."""
    _check_predicates(predicates)
    names = sorted({p[0] for p in predicates})
    d = dim_bsi.filter(
        (F.col("date") == date) & F.col("dimension_name").isin(names)
    )

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        by_name = {
            r.dimension_name: BSI.deserialize(r.value)
            for r in pdf.itertuples(index=False)
        }
        acc: RoaringBitmap | None = None
        for name, op, k in predicates:
            if name not in by_name:
                acc = RoaringBitmap.empty()
                break
            bm = by_name[name].compare_const(op, [int(k)])[0]
            acc = bm if acc is None else (acc & bm)
        return pd.DataFrame(
            {
                "segment_id": [int(pdf.iloc[0]["segment_id"])],
                "dim_filter": [acc.serialize()],
            }
        )

    return d.groupBy("segment_id").applyInPandas(
        build, "segment_id int, dim_filter binary"
    )


def deepdive_bsi(
    expose_bsi: DataFrame,
    metric_bsi: DataFrame,
    dim_bsi: DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
    predicates: list[Predicate],
) -> DataFrame:
    """Dimension-filtered scorecard on the BSI representation. A
    segment where no one passes the predicates yields no rows."""
    flt = dim_filter_bsi(dim_bsi, predicates=predicates, date=date)
    return scorecard_bsi(
        expose_bsi.join(flt, "segment_id"), metric_bsi,
        strategy_ids=strategy_ids, metric_ids=metric_ids, date=date,
    )


def deepdive_normal(
    expose_df: DataFrame,
    metric_df: DataFrame,
    dim_df: DataFrame,
    *,
    strategy_ids: list[int],
    metric_ids: list[int],
    date: int,
    predicates: list[Predicate],
    bucket_col: str = "segment_id",
) -> DataFrame:
    """Catalyst baseline: semi-join expose against each predicate's
    qualifying units, then the normal scorecard aggregation."""
    _check_predicates(predicates)
    e = expose_df
    for name, op, k in predicates:
        qualifying = dim_df.filter(
            (F.col("date") == date)
            & (F.col("dimension_name") == name)
            & F.expr(f"value {_OPS[op]} {int(k)}")
        ).select("analysis_unit_id")
        e = e.join(qualifying, "analysis_unit_id", "left_semi")
    return scorecard_normal(
        e, metric_df, strategy_ids=strategy_ids, metric_ids=metric_ids, date=date,
        bucket_col=bucket_col,
    )
