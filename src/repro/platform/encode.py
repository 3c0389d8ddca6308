"""Position encoding and normal→BSI conversion (§3.4, Table 2).

Position encoding assigns each analysis unit a dense position within
its segment, high-engagement users first (§3.4.1) — that is what makes
the roaring bitmaps under the BSI compact. It is computed once per
universe (:func:`encoding_pandas`).

Each segment converts on its own, as in the paper: a conversion is one
``cogroup`` of the log with the encoding by ``segment_id``, no join.
One call per segment maps the segment's unit ids to positions by one
``pd.Index.get_indexer`` over that segment's encoding rows and builds
every BSI of the segment, in sorted key order. A log row whose unit is
not encoded in its ``segment_id`` raises ValueError instead of being
dropped. The price is memory: a call holds the segment's rows of the
whole log being converted, not one BSI's rows (see :func:`log_to_bsi`).
:func:`full_bsi_conversion` hands the conversions its pandas inputs as
Arrow-backed frames, not as rows embedded in the plan.

Conversions produce the paper's Table 2 layouts, with each BSI shipped
as a serialized blob in a ``BinaryType`` column:

- metric log BSI:    segment_id, date, metric_id, value(BSI), and its
                     pre-aggregate tree (Figure 6): segment_id,
                     metric_id, date_lo, date_hi, value(BSI)
- dimension log BSI: segment_id, date, dimension_name, value(BSI)
- expose log BSI:    segment_id, strategy_id, min_expose_date,
                     offset(BSI), bucket(BSI)

``offset = first_expose_date - min_expose_date + 1`` (1-based so zero
keeps meaning "non-existing"), and the bucket BSI stores
``bucket_of(randomization_unit_id) + 1`` for the same reason (§3.4.2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bsi.bsi import BSI
from repro.platform import hashing as H
from repro.platform import preagg


def encoding_pandas(users_pdf: pd.DataFrame) -> pd.DataFrame:
    """(analysis_unit_id, engagement, segment_id) -> a dense 0-based
    ``position`` per segment, ordered by engagement desc (ties by id
    for determinism)."""
    df = users_pdf.sort_values(
        ["segment_id", "engagement", "analysis_unit_id"],
        ascending=[True, False, True],
    ).copy()
    df["position"] = df.groupby("segment_id").cumcount()
    return df[["analysis_unit_id", "segment_id", "position"]]


def _bsi_blob(pos: np.ndarray, vals: np.ndarray) -> bytes:
    return BSI.from_arrays(pos, vals).serialize()


def _positions(
    log: pd.DataFrame, enc: pd.DataFrame, segment: int, what: str
) -> np.ndarray:
    """Each log row's position, looked up in its segment's encoding
    rows by one ``get_indexer``; ValueError naming the first row whose
    unit is not encoded in ``segment`` (an unknown unit, or a
    ``segment_id`` that disagrees with the unit's encoded segment)."""
    uids = log["analysis_unit_id"].to_numpy()
    i = pd.Index(enc["analysis_unit_id"].to_numpy()).get_indexer(uids)
    if (i < 0).any():
        raise ValueError(
            f"{what} log row with analysis_unit_id {uids[i < 0][0]} is not "
            f"encoded in its segment_id {segment}"
        )
    return enc["position"].to_numpy()[i]


def _sorted_groups(cols: list[np.ndarray], pos: np.ndarray):
    """The row order that sorts by ``cols``, then by position, and the
    ``[start, end)`` run of each distinct ``cols`` tuple in that order,
    runs in sorted key order."""
    codes = [pd.factorize(c, sort=True)[0] for c in cols]
    order = np.lexsort([pos, *reversed(codes)])
    change = np.zeros(len(order), dtype=bool)
    change[:1] = True
    for c in codes:
        c = c[order]
        change[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(change)
    return order, starts, np.append(starts[1:], len(order))


def log_to_bsi(log_df: DataFrame, encoding: DataFrame, *, key: str) -> DataFrame:
    """Normal metric or dimension log -> (segment_id, date, ``key``,
    value BSI), ``key`` being the log's ``metric_id`` or
    ``dimension_name`` column; the key keeps its column type.

    One cogroup by segment: each call gets one segment's log rows and
    its encoding rows, and builds every (date, key) BSI of the segment
    in sorted order. A segment without log rows emits no row. A row
    whose unit is not encoded in its ``segment_id`` raises ValueError.
    A call holds its segment's rows of the whole log, not one BSI's:
    at the scorecard bench's size (40k users, 8 segments, 16 metrics,
    one day) up to 21k rows, under 1 MB; at the paper's (~10⁹ users
    over 1,024 segments, ~10⁶ units a segment) one metric-day alone is
    up to 10⁶ rows, so a log of many metric-days should be converted
    in slices of them to bound a call's memory."""
    key_type = log_df.schema[key].dataType.simpleString()

    def build(seg: tuple, log: pd.DataFrame, enc: pd.DataFrame) -> pd.DataFrame:
        segment = int(seg[0])
        pos = _positions(log, enc, segment, key.split("_")[0])
        date, k = log["date"].to_numpy(), log[key].to_numpy()
        order, starts, ends = _sorted_groups([date, k], pos)
        pos, vals = pos[order], log["value"].to_numpy()[order]
        return pd.DataFrame(
            {
                "segment_id": np.full(len(starts), segment, dtype=np.int32),
                "date": date[order][starts],
                key: k[order][starts],
                "value": [_bsi_blob(pos[a:b], vals[a:b]) for a, b in zip(starts, ends)],
            }
        )

    return (
        log_df.groupBy("segment_id")
        .cogroup(encoding.groupBy("segment_id"))
        .applyInPandas(
            build, schema=f"segment_id int, date int, {key} {key_type}, value binary"
        )
    )


def expose_log_to_bsi(
    expose_df: DataFrame, encoding: DataFrame, *, n_buckets: int
) -> DataFrame:
    """Normal expose log -> (segment_id, strategy_id, min_expose_date,
    offset BSI, bucket BSI). min_expose_date is per (segment, strategy),
    as in §3.4.2.

    One cogroup by segment, as in :func:`log_to_bsi`: each call builds
    every strategy's pair of BSIs of one segment, in strategy order,
    and holds the segment's expose rows of every strategy (at the
    scorecard bench's size up to 7.8k rows)."""

    def build(seg: tuple, log: pd.DataFrame, enc: pd.DataFrame) -> pd.DataFrame:
        segment = int(seg[0])
        pos = _positions(log, enc, segment, "expose")
        strategy = log["strategy_id"].to_numpy()
        order, starts, ends = _sorted_groups([strategy], pos)
        pos = pos[order]
        fed = log["first_expose_date"].to_numpy()[order]
        rid = log["randomization_unit_id"].to_numpy()[order]
        bucket = H.bucket_of(rid, n_buckets) + 1
        min_dates = [int(fed[a:b].min()) for a, b in zip(starts, ends)]
        return pd.DataFrame(
            {
                "segment_id": np.full(len(starts), segment, dtype=np.int32),
                "strategy_id": strategy[order][starts],
                "min_expose_date": np.array(min_dates, dtype=np.int32),
                "offset": [
                    _bsi_blob(pos[a:b], fed[a:b] - m + 1)
                    for a, b, m in zip(starts, ends, min_dates)
                ],
                "bucket": [
                    _bsi_blob(pos[a:b], bucket[a:b]) for a, b in zip(starts, ends)
                ],
            }
        )

    return (
        expose_df.groupBy("segment_id")
        .cogroup(encoding.groupBy("segment_id"))
        .applyInPandas(
            build,
            schema=(
                "segment_id int, strategy_id long, min_expose_date int, "
                "offset binary, bucket binary"
            ),
        )
    )


_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


def _arrow_frame(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """``pdf`` as a Spark frame whose rows travel as Arrow batches in an
    RDD, as a table scan's rows would. Below the session's local-relation
    threshold ``createDataFrame`` would instead embed every row in the
    logical plan, and Catalyst walks those rows in each rule of every
    plan built over the frame, the scorecard batch over the cached
    conversion included."""
    threshold = spark.conf.get(_LOCAL_RELATION_THRESHOLD)
    spark.conf.set(_LOCAL_RELATION_THRESHOLD, "0")
    try:
        return spark.createDataFrame(pdf)
    finally:
        spark.conf.set(_LOCAL_RELATION_THRESHOLD, threshold)


def full_bsi_conversion(
    spark: SparkSession,
    *,
    users_pdf: pd.DataFrame,
    metric_pdf: pd.DataFrame | None = None,
    expose_pdf: pd.DataFrame | None = None,
    dim_pdf: pd.DataFrame | None = None,
    n_segments: int,
    n_buckets: int | None = None,
) -> dict[str, DataFrame]:
    """Convenience: run the whole normal→BSI conversion pipeline.

    Returns a dict with whichever of ``encoding``, ``metric``,
    ``metric_tree``, ``expose``, ``dimension`` were requested, as Spark
    DataFrames. ``metric_tree`` is the Figure 6 pre-aggregate tree over
    the metric frame (:func:`repro.platform.preagg.metric_tree`), lazy
    like the rest: nothing computes it until a pre-period reads it.
    Every input frame is built by :func:`_arrow_frame`."""
    users_pdf = users_pdf.copy()
    if "segment_id" not in users_pdf.columns:
        users_pdf["segment_id"] = H.segment_of(
            users_pdf["analysis_unit_id"].to_numpy(), n_segments
        )
    encoding = _arrow_frame(spark, encoding_pandas(users_pdf))
    out: dict[str, DataFrame] = {"encoding": encoding}
    if metric_pdf is not None:
        out["metric"] = log_to_bsi(
            _arrow_frame(spark, metric_pdf), encoding, key="metric_id"
        )
        out["metric_tree"] = preagg.metric_tree(out["metric"])
    if expose_pdf is not None:
        out["expose"] = expose_log_to_bsi(
            _arrow_frame(spark, expose_pdf),
            encoding,
            n_buckets=n_buckets or n_segments,
        )
    if dim_pdf is not None:
        out["dimension"] = log_to_bsi(
            _arrow_frame(spark, dim_pdf), encoding, key="dimension_name"
        )
    return out
