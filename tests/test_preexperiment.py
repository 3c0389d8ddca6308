"""Pre-experiment / CUPED (§4.3): BSI pipeline == normal == oracle,
also over missing days and past the log's last day, reading only the
stored tree nodes that cover the pre-period; end-to-end CUPED
sharpening."""
import numpy as np
import pandas as pd
import pytest

from repro.core import preexperiment as PE
from repro.core import scorecard as SC
from repro.oracle import assert_equivalent
from repro.platform import preagg
from tests.conftest import (
    ALL_STRATEGIES, N_DAYS, N_SEGMENTS, SPARSE_N_SEGMENTS, SPARSE_SPEC,
)

# the last runs past the log's last day; [1, 3] is also the single-range tests' range
RANGES = [(1, 3), (2, 5), (1, N_DAYS + 3)]


def _sorted(pdf):
    return pdf.sort_values(["strategy_id", "metric_id", "bucket_id"]).reset_index(
        drop=True
    )


def test_bsi_vs_normal(world):
    kw = dict(strategy_ids=[11, 12], metric_id=3, pre_lo=1, pre_hi=3, expose_date=5)
    bsi = _sorted(
        PE.preexperiment_bsi(world.expose_bsi, world.metric_tree, **kw).toPandas()
    )
    normal = _sorted(
        PE.preexperiment_normal(world.expose_sdf, world.metric_sdf, **kw).toPandas()
    )
    pd.testing.assert_frame_equal(
        bsi.astype("float64"), normal.astype("float64"), check_dtype=False
    )


PRE_SQL = """
WITH e AS (
  SELECT * FROM expose
  WHERE strategy_id IN ({strategies}) AND first_expose_date <= {expose_date}
), m AS (
  SELECT analysis_unit_id, SUM(value) AS pre_value
  FROM metric WHERE metric_id = {metric} AND date BETWEEN {pre_lo} AND {pre_hi}
  GROUP BY 1
), counts AS (
  SELECT strategy_id, segment_id AS bucket_id, COUNT(*) AS bucket_exposed
  FROM e GROUP BY 1, 2
), sums AS (
  SELECT e.strategy_id, e.segment_id AS bucket_id,
         CAST(SUM(m.pre_value) AS DOUBLE) AS bucket_sum
  FROM e JOIN m USING (analysis_unit_id) GROUP BY 1, 2
)
SELECT c.strategy_id, CAST({metric} AS BIGINT) AS metric_id, c.bucket_id,
       COALESCE(s.bucket_sum, 0.0) AS bucket_sum, c.bucket_exposed
FROM counts c LEFT JOIN sums s USING (strategy_id, bucket_id)
"""


def pre_sql(strategy_ids, metric_id, pre_lo, pre_hi, expose_date):
    return PRE_SQL.format(
        strategies=",".join(map(str, strategy_ids)), metric=metric_id,
        pre_lo=pre_lo, pre_hi=pre_hi, expose_date=expose_date,
    )


def test_normal_vs_duckdb_oracle(world):
    out = PE.preexperiment_normal(
        world.expose_sdf, world.metric_sdf,
        strategy_ids=[11, 12], metric_id=3, pre_lo=1, pre_hi=3, expose_date=5,
    )
    sql = pre_sql([11, 12], 3, 1, 3, 5)
    assert_equivalent(out, sql, expose=world.expose, metric=world.metric)


def test_sparse_bsi_equals_normal_equals_oracle(sparse_world):
    """A covariate with no pre-period rows in some segments still
    covers every exposed (strategy, segment), with sum 0 there."""
    w = sparse_world
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_id=SPARSE_SPEC.metric_id,
              pre_lo=1, pre_hi=3, expose_date=5)
    pre = w.metric[
        (w.metric.metric_id == SPARSE_SPEC.metric_id) & (w.metric.date <= 3)
    ]
    assert pre["segment_id"].nunique() < SPARSE_N_SEGMENTS
    sql = pre_sql(ALL_STRATEGIES, SPARSE_SPEC.metric_id, 1, 3, 5)
    bsi = PE.preexperiment_bsi(w.expose_bsi, w.metric_tree, **kw)
    normal = PE.preexperiment_normal(w.expose_sdf, w.metric_sdf, **kw)
    assert_equivalent(bsi, sql, expose=w.expose, metric=w.metric)
    assert_equivalent(normal, sql, expose=w.expose, metric=w.metric)


@pytest.mark.parametrize("pre_lo,pre_hi", RANGES[1:])
def test_ranges_bsi_equals_normal_equals_oracle(world, pre_lo, pre_hi):
    kw = dict(strategy_ids=[11, 12, 21], metric_id=2, pre_lo=pre_lo,
              pre_hi=pre_hi, expose_date=4)
    sql = pre_sql([11, 12, 21], 2, pre_lo, pre_hi, 4)
    bsi = PE.preexperiment_bsi(world.expose_bsi, world.metric_tree, **kw)
    normal = PE.preexperiment_normal(world.expose_sdf, world.metric_sdf, **kw)
    assert_equivalent(bsi, sql, expose=world.expose, metric=world.metric)
    assert_equivalent(normal, sql, expose=world.expose, metric=world.metric)


@pytest.mark.parametrize("pre_lo,pre_hi", RANGES[1:])
def test_sparse_ranges_bsi_equals_normal_equals_oracle(sparse_world, pre_lo, pre_hi):
    """Some segments have no covariate rows in the pre-period."""
    w = sparse_world
    mid = SPARSE_SPEC.metric_id
    pre = w.metric[(w.metric.metric_id == mid) & w.metric.date.between(pre_lo, pre_hi)]
    assert pre["segment_id"].nunique() < SPARSE_N_SEGMENTS
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_id=mid, pre_lo=pre_lo,
              pre_hi=pre_hi, expose_date=5)
    sql = pre_sql(ALL_STRATEGIES, mid, pre_lo, pre_hi, 5)
    bsi = PE.preexperiment_bsi(w.expose_bsi, w.metric_tree, **kw)
    normal = PE.preexperiment_normal(w.expose_sdf, w.metric_sdf, **kw)
    assert_equivalent(bsi, sql, expose=w.expose, metric=w.metric)
    assert_equivalent(normal, sql, expose=w.expose, metric=w.metric)


@pytest.mark.parametrize("pre_lo,pre_hi", RANGES)
def test_preperiod_reads_only_covering_nodes(world, pre_lo, pre_hi):
    """Per segment, the pre-period reads one row per covering node whose
    days the log has, and no other: at most 2·⌈log₂C⌉ blobs, not C."""
    nodes = preagg.cover(pre_lo, pre_hi)
    rows = preagg.cover_rows(
        world.metric_tree, metric_id=2, lo=pre_lo, hi=pre_hi
    ).toPandas()
    m = world.metric[world.metric.metric_id == 2]
    for seg in range(N_SEGMENTS):
        dates = set(m[m.segment_id == seg]["date"])
        want = sorted((a, b) for a, b in nodes if any(a <= d <= b for d in dates))
        got = rows[rows.segment_id == seg]
        assert sorted(zip(got["date_lo"], got["date_hi"])) == want
    c = pre_hi - pre_lo + 1
    assert rows.groupby("segment_id").size().max() <= 2 * np.ceil(np.log2(c))
    assert len(nodes) < c


def test_preperiod_sum_totals(world):
    agg = PE.preperiod_sum_bsi(
        world.metric_tree, metric_id=2, pre_lo=2, pre_hi=4
    ).toPandas()
    from repro.bsi.bsi import BSI

    total = sum(BSI.deserialize(b).sum() for b in agg["value"])
    raw = world.metric[
        (world.metric.metric_id == 2) & world.metric.date.between(2, 4)
    ]["value"].sum()
    assert total == raw


def test_cuped_analysis_aa_is_calibrated(world):
    """A/A world: CUPED must not fabricate an effect; covariate is the
    metric's own earlier days, so correlation is real and variance
    should not increase."""
    score = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[11, 12], metric_ids=[3], date=5,
    ).toPandas()
    cov = PE.preexperiment_bsi(
        world.expose_bsi, world.metric_tree,
        strategy_ids=[11, 12], metric_id=3, pre_lo=1, pre_hi=3, expose_date=5,
    ).toPandas()
    res = PE.cuped_analysis(
        score, cov, treatment_id=12, control_id=11, metric_id=3,
        n_buckets=N_SEGMENTS,
    )
    assert res["adjusted"].p_value > 0.001  # no false effect
    assert res["variance_reduction"] > -0.25
    assert np.isfinite(res["theta"])
