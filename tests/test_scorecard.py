"""Scorecard (§4.2): BSI pipeline == normal Catalyst pipeline == DuckDB
oracle, for single pairs, batches, and the segment!=bucket path."""
import numpy as np
import pandas as pd
import pytest

from repro.core import scorecard as SC
from repro.oracle import assert_equivalent
from repro.platform import hashing as H
from tests.conftest import (
    ALL_STRATEGIES,
    K1024_EXPERIMENT,
    K1024_N_BUCKETS,
    N_SEGMENTS,
    SPARSE_N_BUCKETS,
    SPARSE_N_SEGMENTS,
    SPARSE_SPEC,
)

# the sparse world's metrics, plus an id with no rows on any day
SPARSE_METRICS = [1, 2, 3, SPARSE_SPEC.metric_id, 99]


def _sorted(pdf):
    return pdf.sort_values(["strategy_id", "metric_id", "bucket_id"]).reset_index(
        drop=True
    )


ORACLE_SQL = """
WITH e AS (
  SELECT * FROM expose
  WHERE strategy_id IN ({strategies}) AND first_expose_date <= {date} {where}
), m AS (
  SELECT * FROM metric WHERE date = {date} AND metric_id IN ({metrics})
), counts AS (
  SELECT strategy_id, {bucket} AS bucket_id, COUNT(*) AS bucket_exposed
  FROM e GROUP BY 1, 2
), sums AS (
  SELECT e.strategy_id, m.metric_id, e.{bucket} AS bucket_id,
         CAST(SUM(m.value) AS DOUBLE) AS bucket_sum
  FROM e JOIN m ON e.analysis_unit_id = m.analysis_unit_id
  GROUP BY 1, 2, 3
), grid AS (
  SELECT c.strategy_id, mm.metric_id, c.bucket_id, c.bucket_exposed
  FROM counts c CROSS JOIN (VALUES {metric_rows}) mm(metric_id)
)
SELECT g.strategy_id, g.metric_id, g.bucket_id,
       COALESCE(s.bucket_sum, 0.0) AS bucket_sum,
       g.bucket_exposed
FROM grid g
LEFT JOIN sums s USING (strategy_id, metric_id, bucket_id)
"""


def oracle_sql(strategies, metrics, date, *, bucket="segment_id", where=""):
    """Every exposed (strategy, bucket) x every requested metric;
    ``where`` narrows the exposed users (an ``AND ...`` clause)."""
    return ORACLE_SQL.format(
        strategies=",".join(map(str, strategies)),
        metrics=",".join(map(str, metrics)),
        metric_rows=",".join(f"({int(m)})" for m in metrics),
        date=date,
        bucket=bucket,
        where=where,
    )


@pytest.mark.parametrize("strategy,metric,date", [
    (11, 1, 1), (11, 2, 3), (12, 3, 5), (21, 2, 2), (22, 3, 4),
])
def test_single_pair_bsi_vs_normal(world, strategy, metric, date):
    bsi = _sorted(
        SC.scorecard_bsi(
            world.expose_bsi, world.metric_bsi,
            strategy_ids=[strategy], metric_ids=[metric], date=date,
        ).toPandas()
    )
    normal = _sorted(
        SC.scorecard_normal(
            world.expose_sdf, world.metric_sdf,
            strategy_ids=[strategy], metric_ids=[metric], date=date,
        ).toPandas()
    )
    pd.testing.assert_frame_equal(
        bsi.astype("float64"), normal.astype("float64"), check_dtype=False
    )


@pytest.mark.parametrize("date", [1, 3, 5])
def test_normal_vs_duckdb_oracle(world, date):
    metrics = [1, 2, 3]
    out = SC.scorecard_normal(
        world.expose_sdf, world.metric_sdf,
        strategy_ids=ALL_STRATEGIES, metric_ids=metrics, date=date,
    )
    assert_equivalent(
        out,
        oracle_sql(ALL_STRATEGIES, metrics, date),
        expose=world.expose,
        metric=world.metric,
    )


def test_batch_bsi_vs_oracle(world, spark):
    out = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=ALL_STRATEGIES, metric_ids=[1, 2, 3], date=3,
    )
    assert_equivalent(
        out,
        oracle_sql(ALL_STRATEGIES, [1, 2, 3], 3),
        expose=world.expose,
        metric=world.metric,
    )


def test_bucketed_matches_hash_buckets(world, spark):
    """segment != bucket path: per-bucket values must equal a normal
    groupby on bucket_of(randomization_unit_id)."""
    got = _sorted(
        SC.scorecard_bsi_bucketed(
            world.expose_bsi, world.metric_bsi,
            strategy_ids=[11], metric_ids=[2], date=4, n_buckets=N_SEGMENTS,
        ).toPandas()
    )
    e = world.expose[
        (world.expose.strategy_id == 11) & (world.expose.first_expose_date <= 4)
    ].copy()
    e["bucket_id"] = H.bucket_of(e["randomization_unit_id"].to_numpy(), N_SEGMENTS)
    m = world.metric[(world.metric.date == 4) & (world.metric.metric_id == 2)]
    j = e.merge(m, on="analysis_unit_id")
    sums = j.groupby("bucket_id")["value"].sum()
    counts = e.groupby("bucket_id").size()
    exp = pd.DataFrame(
        {
            "bucket_id": counts.index,
            "bucket_sum": [float(sums.get(b, 0)) for b in counts.index],
            "bucket_exposed": counts.to_numpy(),
        }
    )
    assert (got["bucket_sum"].to_numpy() == exp["bucket_sum"].to_numpy()).all()
    assert (got["bucket_exposed"].to_numpy() == exp["bucket_exposed"].to_numpy()).all()


def test_bucketed_totals_match_segment_path(world, spark):
    a = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[12], metric_ids=[3], date=5,
    ).toPandas()
    # n_buckets must match the bucket BSI's encoding (N_SEGMENTS here)
    b = SC.scorecard_bsi_bucketed(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[12], metric_ids=[3], date=5, n_buckets=N_SEGMENTS,
    ).toPandas()
    assert a["bucket_sum"].sum() == b["bucket_sum"].sum()
    assert a["bucket_exposed"].sum() == b["bucket_exposed"].sum()


def test_bucket_frame_to_arrays(world):
    pdf = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[11], metric_ids=[1], date=2,
    ).toPandas()
    sums, counts = SC.bucket_frame_to_arrays(
        pdf, strategy_id=11, metric_id=1, n_buckets=N_SEGMENTS
    )
    assert len(sums) == N_SEGMENTS
    assert sums.sum() == pdf["bucket_sum"].sum()
    assert counts.sum() == pdf["bucket_exposed"].sum()


def _assert_sparse_metric_missing_in_most_segments(w, date):
    """The premise of the sparse tests: most segments with exposed users
    have no row of the sparse metric on ``date``."""
    m = w.metric[
        (w.metric.date == date) & (w.metric.metric_id == SPARSE_SPEC.metric_id)
    ]
    exposed = set(w.expose[w.expose.first_expose_date <= date]["segment_id"])
    assert len(exposed - set(m["segment_id"])) > SPARSE_N_SEGMENTS // 2


@pytest.mark.parametrize("date", [1, 4])
def test_sparse_bsi_equals_normal_equals_oracle(sparse_world, date):
    w = sparse_world
    _assert_sparse_metric_missing_in_most_segments(w, date)
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=SPARSE_METRICS, date=date)
    sql = oracle_sql(ALL_STRATEGIES, SPARSE_METRICS, date)
    bsi = SC.scorecard_bsi(w.expose_bsi, w.metric_bsi, **kw)
    normal = SC.scorecard_normal(w.expose_sdf, w.metric_sdf, **kw)
    assert_equivalent(bsi, sql, expose=w.expose, metric=w.metric)
    assert_equivalent(normal, sql, expose=w.expose, metric=w.metric)


def test_sparse_bucketed_equals_normal_equals_oracle(sparse_world, spark):
    """segment != bucket (32 segments, 12 buckets) on the sparse world."""
    w = sparse_world
    _assert_sparse_metric_missing_in_most_segments(w, 4)
    rand_ids = w.expose["randomization_unit_id"].to_numpy()
    expose = w.expose.assign(bucket_id=H.bucket_of(rand_ids, SPARSE_N_BUCKETS))
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=SPARSE_METRICS, date=4)
    sql = oracle_sql(ALL_STRATEGIES, SPARSE_METRICS, 4, bucket="bucket_id")
    bsi = SC.scorecard_bsi_bucketed(
        w.expose_bsi, w.metric_bsi, n_buckets=SPARSE_N_BUCKETS, **kw
    )
    normal = SC.scorecard_normal(
        spark.createDataFrame(expose), w.metric_sdf, bucket_col="bucket_id", **kw
    )
    assert_equivalent(bsi, sql, expose=expose, metric=w.metric)
    assert_equivalent(normal, sql, expose=expose, metric=w.metric)


@pytest.mark.parametrize("date", [1, 3])
def test_k1024_bucketed_equals_normal_equals_oracle(k1024_world, spark, date):
    """K = 1024 buckets, more than a strategy's exposed users in a
    segment: most bucket filters select nobody and must yield no row."""
    w = k1024_world
    strategies = list(K1024_EXPERIMENT.strategy_ids)
    metrics = [2, 3, 99]
    rand_ids = w.expose["randomization_unit_id"].to_numpy()
    expose = w.expose.assign(bucket_id=H.bucket_of(rand_ids, K1024_N_BUCKETS))
    exposed = expose[expose.first_expose_date <= date]
    n_cells = exposed.groupby(["strategy_id", "bucket_id"]).ngroups
    assert len(strategies) * K1024_N_BUCKETS // 4 < n_cells < len(strategies) * K1024_N_BUCKETS
    kw = dict(strategy_ids=strategies, metric_ids=metrics, date=date)
    sql = oracle_sql(strategies, metrics, date, bucket="bucket_id")
    bsi = SC.scorecard_bsi_bucketed(
        w.expose_bsi, w.metric_bsi, n_buckets=K1024_N_BUCKETS, **kw
    )
    normal = SC.scorecard_normal(
        spark.createDataFrame(expose), w.metric_sdf, bucket_col="bucket_id", **kw
    )
    assert bsi.count() == n_cells * len(metrics)
    assert_equivalent(bsi, sql, expose=expose, metric=w.metric)
    assert_equivalent(normal, sql, expose=expose, metric=w.metric)
