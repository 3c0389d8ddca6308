"""Deep dive (§4.4): dimension-filtered scorecards, BSI == normal ==
pandas reference, including the paper's exact predicate example."""
import pandas as pd
import pytest

from repro.core import deepdive as DD
from repro.oracle import assert_equivalent
from repro.platform import hashing as H
from tests.conftest import ALL_STRATEGIES, SPARSE_SPEC
from tests.test_scorecard import oracle_sql

# the §4.4 example: client-type = 1 AND client-version > 134
PAPER_PREDICATES = [("client-type", "eq", 1), ("client-version", "gt", 134)]
# about 2% of users: nobody passes in many of the sparse world's segments
RARE_PREDICATES = [("client-type", "eq", 5), ("client-version", "ge", 145)]
SQL_OPS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _sorted(pdf):
    return pdf.sort_values(["strategy_id", "metric_id", "bucket_id"]).reset_index(
        drop=True
    )


@pytest.mark.parametrize("predicates", [
    PAPER_PREDICATES,
    [("client-type", "eq", 3)],
    [("client-version", "le", 120)],
    [("client-type", "ne", 2), ("client-version", "ge", 110)],
])
def test_bsi_vs_normal(world, predicates):
    kw = dict(strategy_ids=[11, 12], metric_ids=[1, 3], date=3, predicates=predicates)
    bsi = _sorted(
        DD.deepdive_bsi(
            world.expose_bsi, world.metric_bsi, world.dim_bsi, **kw
        ).toPandas()
    )
    normal = _sorted(
        DD.deepdive_normal(
            world.expose_sdf, world.metric_sdf, world.dim_sdf, **kw
        ).toPandas()
    )
    pd.testing.assert_frame_equal(
        bsi.astype("float64"), normal.astype("float64"), check_dtype=False
    )


def test_normal_vs_duckdb_oracle(world):
    out = DD.deepdive_normal(
        world.expose_sdf, world.metric_sdf, world.dim_sdf,
        strategy_ids=[21, 22], metric_ids=[2], date=3,
        predicates=PAPER_PREDICATES,
    )
    sql = """
    WITH q1 AS (
      SELECT analysis_unit_id FROM dim
      WHERE date = 3 AND dimension_name = 'client-type' AND value = 1
    ), q2 AS (
      SELECT analysis_unit_id FROM dim
      WHERE date = 3 AND dimension_name = 'client-version' AND value > 134
    ), e AS (
      SELECT * FROM expose
      WHERE strategy_id IN (21, 22) AND first_expose_date <= 3
        AND analysis_unit_id IN (SELECT analysis_unit_id FROM q1)
        AND analysis_unit_id IN (SELECT analysis_unit_id FROM q2)
    ), m AS (
      SELECT * FROM metric WHERE date = 3 AND metric_id = 2
    ), counts AS (
      SELECT strategy_id, segment_id AS bucket_id, COUNT(*) AS bucket_exposed
      FROM e GROUP BY 1, 2
    ), sums AS (
      SELECT e.strategy_id, e.segment_id AS bucket_id,
             CAST(SUM(m.value) AS DOUBLE) AS bucket_sum
      FROM e JOIN m USING (analysis_unit_id) GROUP BY 1, 2
    )
    SELECT c.strategy_id, CAST(2 AS BIGINT) AS metric_id, c.bucket_id,
           COALESCE(s.bucket_sum, 0.0) AS bucket_sum, c.bucket_exposed
    FROM counts c LEFT JOIN sums s USING (strategy_id, bucket_id)
    """
    assert_equivalent(
        out, sql, expose=world.expose, metric=world.metric, dim=world.dim
    )


def test_dim_filter_counts(world):
    """The merged filter's cardinality equals the pandas predicate."""
    flt = DD.dim_filter_bsi(
        world.dim_bsi, predicates=PAPER_PREDICATES, date=3
    ).toPandas()
    from repro.bsi.bitmap import RoaringBitmap

    got = sum(RoaringBitmap.deserialize(b).cardinality() for b in flt["dim_filter"])
    d = world.dim[world.dim.date == 3]
    ct = d[(d.dimension_name == "client-type") & (d.value == 1)]["analysis_unit_id"]
    cv = d[(d.dimension_name == "client-version") & (d.value > 134)]["analysis_unit_id"]
    assert got == len(set(ct) & set(cv))


def test_filtered_population_subset_of_unfiltered(world):
    from repro.core import scorecard as SC

    full = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[11], metric_ids=[1], date=3,
    ).toPandas()
    dd = DD.deepdive_bsi(
        world.expose_bsi, world.metric_bsi, world.dim_bsi,
        strategy_ids=[11], metric_ids=[1], date=3,
        predicates=[("client-type", "eq", 1)],
    ).toPandas()
    assert dd["bucket_exposed"].sum() < full["bucket_exposed"].sum()
    assert dd["bucket_sum"].sum() <= full["bucket_sum"].sum()
    assert dd["bucket_exposed"].sum() > 0


@pytest.mark.parametrize("predicates", [PAPER_PREDICATES, RARE_PREDICATES])
def test_sparse_bsi_equals_normal_equals_oracle(sparse_world, predicates):
    w = sparse_world
    date = 3
    metrics = [1, SPARSE_SPEC.metric_id]
    where = " ".join(
        f"AND analysis_unit_id IN (SELECT analysis_unit_id FROM dim WHERE "
        f"date = {date} AND dimension_name = '{name}' AND value {SQL_OPS[op]} {k})"
        for name, op, k in predicates
    )
    sql = oracle_sql(ALL_STRATEGIES, metrics, date, where=where)
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=metrics, date=date,
              predicates=predicates)
    bsi = DD.deepdive_bsi(w.expose_bsi, w.metric_bsi, w.dim_bsi, **kw)
    normal = DD.deepdive_normal(w.expose_sdf, w.metric_sdf, w.dim_sdf, **kw)
    assert_equivalent(bsi, sql, expose=w.expose, metric=w.metric, dim=w.dim)
    assert_equivalent(normal, sql, expose=w.expose, metric=w.metric, dim=w.dim)
    if predicates is RARE_PREDICATES:
        exposed = w.expose[w.expose.first_expose_date <= date]
        assert bsi.toPandas()["bucket_id"].nunique() < exposed["segment_id"].nunique()


@pytest.mark.parametrize("method", ["bsi", "normal"])
@pytest.mark.parametrize("predicates,match", [
    ([], "at least one predicate"),
    ([("client-type", "eq", 1), ("client-version", "like", 134)], "unknown predicate op"),
])
def test_bad_predicates_raise_on_driver(world, method, predicates, match):
    """Both paths reject an empty predicate list and an unknown op with
    ValueError while building the plan, before any Spark job runs."""
    kw = dict(strategy_ids=[11], metric_ids=[1], date=3, predicates=predicates)
    with pytest.raises(ValueError, match=match):
        if method == "bsi":
            DD.deepdive_bsi(world.expose_bsi, world.metric_bsi, world.dim_bsi, **kw)
        else:
            DD.deepdive_normal(world.expose_sdf, world.metric_sdf, world.dim_sdf, **kw)
