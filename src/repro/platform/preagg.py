"""Pre-aggregate tree over successive dates (§4.3, Figure 6), stored.

Days are 1-based. A node at level ``l`` covers days
``[k·2ˡ+1, (k+1)·2ˡ]`` and holds the sumBSI of the days the log has in
that range; level 0 is the day BSIs themselves. Levels stop at
:data:`TOP_LEVEL`. A node is stored exactly when its range holds a
day of the log, so every node a covering reads is either stored or
truly empty: a pre-period with missing days, or one that runs past the
log's last date, folds to the sum of the days the log has in it.

The conversion stores the tree as a frame ``(segment_id, metric_id,
date_lo, date_hi, value)`` (:func:`metric_tree`). A C-day pre-period
reads only the nodes of :func:`cover` (:func:`cover_rows`), at most
2·⌈log₂C⌉ blobs per segment instead of C (up to C = 349: past 32
days, every further 32 days adds one node) — the paper's example
folds days 1..7 from the nodes (1–4), (5–6) and (7).
"""
from __future__ import annotations

import operator
from functools import reduce

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bsi.bsi import BSI

#: Highest node level: a node spans at most 2**TOP_LEVEL = 32 days.
TOP_LEVEL = 5

_SCHEMA = "segment_id int, metric_id long, date_lo int, date_hi int, value binary"


def cover(lo: int, hi: int) -> list[tuple[int, int]]:
    """The ``(date_lo, date_hi)`` nodes that tile days ``[lo, hi]``,
    left to right: from each start, the largest aligned node that
    fits."""
    if not 1 <= lo <= hi:
        raise ValueError(f"day range [{lo}, {hi}] is not 1 <= lo <= hi")
    out = []
    d = lo - 1  # days before the next node
    while d < hi:
        level = 0
        while level < TOP_LEVEL and d % (2 << level) == 0 and d + (2 << level) <= hi:
            level += 1
        out.append((d + 1, d + (1 << level)))
        d += 1 << level
    return out


def upper_nodes(days: dict[int, BSI]) -> list[tuple[int, int, BSI]]:
    """``(date_lo, date_hi, sumBSI)`` of every stored node above level 0
    for one (segment, metric) whose day BSIs are ``days``. Each level
    adds the pairs of the level below, so N days cost at most N - 1
    adds."""
    out = []
    level = {d - 1: b for d, b in days.items()}  # node index -> BSI
    for lv in range(1, TOP_LEVEL + 1):
        up: dict[int, BSI] = {}
        for k in sorted(level):
            up[k >> 1] = up[k >> 1].add(level[k]) if k >> 1 in up else level[k]
        level = up
        out += [((k << lv) + 1, (k + 1) << lv, b) for k, b in level.items()]
    return out


def metric_tree(metric_bsi: DataFrame) -> DataFrame:
    """The stored tree of a metric BSI frame (``segment_id, date,
    metric_id, value``), built per (segment, metric): its day blobs,
    as they are, as level 0, then the upper nodes."""

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        dates = [int(d) for d in pdf["date"]]
        upper = upper_nodes(
            {d: BSI.deserialize(v) for d, v in zip(dates, pdf["value"])}
        )
        return pd.DataFrame(
            {
                "segment_id": int(pdf["segment_id"].iloc[0]),
                "metric_id": int(pdf["metric_id"].iloc[0]),
                "date_lo": dates + [lo for lo, _, _ in upper],
                "date_hi": dates + [hi for _, hi, _ in upper],
                "value": list(pdf["value"]) + [b.serialize() for _, _, b in upper],
            }
        )

    return metric_bsi.groupBy("segment_id", "metric_id").applyInPandas(build, _SCHEMA)


def cover_rows(tree: DataFrame, *, metric_id: int, lo: int, hi: int) -> DataFrame:
    """The stored nodes of ``cover(lo, hi)`` for one metric: at most one
    row per node and segment."""
    on_cover = reduce(
        operator.or_,
        ((F.col("date_lo") == a) & (F.col("date_hi") == b) for a, b in cover(lo, hi)),
    )
    return tree.filter((F.col("metric_id") == int(metric_id)) & on_cover)
