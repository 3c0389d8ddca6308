"""Position encoding and normal→BSI conversion (§3.4, Table 2).

Position encoding assigns each analysis unit a dense position within
its segment, high-engagement users first (§3.4.1) — that is what makes
the roaring bitmaps under the BSI compact. It is computed once per
universe (:func:`encoding_pandas`) and joined into every log conversion.

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


def log_to_bsi(log_df: DataFrame, encoding: DataFrame, *, key: str) -> DataFrame:
    """Normal metric or dimension log -> (segment_id, date, ``key``,
    value BSI), ``key`` being the log's ``metric_id`` or
    ``dimension_name`` column; the key keeps its column type."""
    joined = log_df.join(encoding, ["analysis_unit_id", "segment_id"])
    key_type = joined.schema[key].dataType.simpleString()

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "segment_id": [int(pdf["segment_id"].iloc[0])],
                "date": [int(pdf["date"].iloc[0])],
                key: [pdf[key].iloc[0]],
                "value": [
                    _bsi_blob(pdf["position"].to_numpy(), pdf["value"].to_numpy())
                ],
            }
        )

    return joined.groupBy("segment_id", "date", key).applyInPandas(
        build, schema=f"segment_id int, date int, {key} {key_type}, value binary"
    )


def expose_log_to_bsi(
    expose_df: DataFrame, encoding: DataFrame, *, n_buckets: int
) -> DataFrame:
    """Normal expose log -> (segment_id, strategy_id, min_expose_date,
    offset BSI, bucket BSI). min_expose_date is per (segment, strategy),
    as in §3.4.2."""
    joined = expose_df.join(encoding, ["analysis_unit_id", "segment_id"])

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        head = pdf.iloc[0]
        fed = pdf["first_expose_date"].to_numpy()
        min_date = int(fed.min())
        pos = pdf["position"].to_numpy()
        offset = fed - min_date + 1
        bucket = (
            H.bucket_of(pdf["randomization_unit_id"].to_numpy(), n_buckets) + 1
        )
        return pd.DataFrame(
            {
                "segment_id": [int(head["segment_id"])],
                "strategy_id": [int(head["strategy_id"])],
                "min_expose_date": [min_date],
                "offset": [_bsi_blob(pos, offset)],
                "bucket": [_bsi_blob(pos, bucket)],
            }
        )

    return joined.groupBy("segment_id", "strategy_id").applyInPandas(
        build,
        schema=(
            "segment_id int, strategy_id long, min_expose_date int, "
            "offset binary, bucket binary"
        ),
    )


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
    like the rest: nothing computes it until a pre-period reads it."""
    users_pdf = users_pdf.copy()
    if "segment_id" not in users_pdf.columns:
        users_pdf["segment_id"] = H.segment_of(
            users_pdf["analysis_unit_id"].to_numpy(), n_segments
        )
    encoding = spark.createDataFrame(encoding_pandas(users_pdf))
    out: dict[str, DataFrame] = {"encoding": encoding}
    if metric_pdf is not None:
        out["metric"] = log_to_bsi(
            spark.createDataFrame(metric_pdf), encoding, key="metric_id"
        )
        out["metric_tree"] = preagg.metric_tree(out["metric"])
    if expose_pdf is not None:
        out["expose"] = expose_log_to_bsi(
            spark.createDataFrame(expose_pdf),
            encoding,
            n_buckets=n_buckets or n_segments,
        )
    if dim_pdf is not None:
        out["dimension"] = log_to_bsi(
            spark.createDataFrame(dim_pdf), encoding, key="dimension_name"
        )
    return out
