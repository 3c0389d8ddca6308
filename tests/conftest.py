"""Shared fixtures: small deterministic experiment 'worlds' with raw
logs (pandas), their Spark frames and their BSI conversions — a dense
one and a sparse one, each built once per test session."""
from dataclasses import dataclass

import pandas as pd
import pytest

from repro.core.metrics105 import MetricSpec
from repro.platform import encode, genlog

N_USERS = 2000
N_SEGMENTS = 8
N_DAYS = 5
DATES = list(range(1, N_DAYS + 1))

SPECS = [
    MetricSpec(metric_id=1, name="m_binary", range_card=1, gen_range=1,
               participation=0.5, pareto_a=1.2),
    MetricSpec(metric_id=2, name="m_count", range_card=50, gen_range=50,
               participation=0.25, pareto_a=1.2),
    MetricSpec(metric_id=3, name="m_staytime", range_card=5000, gen_range=5000,
               participation=0.7, pareto_a=1.0),
]

SPARSE_SPEC = MetricSpec(metric_id=4, name="m_sparse", range_card=20, gen_range=20,
                         participation=0.004, pareto_a=1.2)
SPARSE_N_SEGMENTS = 32
SPARSE_N_BUCKETS = 12

EXPERIMENTS = [
    genlog.ExperimentSpec(experiment_id=1, strategy_ids=(11, 12), traffic_pct=60.0),
    genlog.ExperimentSpec(experiment_id=2, strategy_ids=(21, 22), traffic_pct=40.0),
]
ALL_STRATEGIES = [11, 12, 21, 22]


@dataclass
class World:
    users: pd.DataFrame
    metric: pd.DataFrame
    expose: pd.DataFrame
    dim: pd.DataFrame
    # spark frames
    metric_sdf: object
    expose_sdf: object
    dim_sdf: object
    # BSI conversions (spark frames, cached)
    encoding: object
    metric_bsi: object
    expose_bsi: object
    dim_bsi: object


def _build_world(spark, *, specs, n_segments: int, n_buckets: int) -> World:
    users = genlog.user_universe(N_USERS)
    metric = genlog.metric_log_pandas(
        specs, n_users=N_USERS, dates=DATES, n_segments=n_segments, seed=7
    )
    expose = genlog.expose_log_pandas(
        EXPERIMENTS, n_users=N_USERS, n_days=N_DAYS, n_segments=n_segments, seed=7
    )
    dim = genlog.dimension_log_pandas(
        n_users=N_USERS, dates=[3], n_segments=n_segments, seed=7
    )
    conv = encode.full_bsi_conversion(
        spark,
        users_pdf=users,
        metric_pdf=metric,
        expose_pdf=expose,
        dim_pdf=dim,
        n_segments=n_segments,
        n_buckets=n_buckets,
    )
    w = World(
        users=users,
        metric=metric,
        expose=expose,
        dim=dim,
        metric_sdf=spark.createDataFrame(metric),
        expose_sdf=spark.createDataFrame(expose),
        dim_sdf=spark.createDataFrame(dim),
        encoding=conv["encoding"].cache(),
        metric_bsi=conv["metric"].cache(),
        expose_bsi=conv["expose"].cache(),
        dim_bsi=conv["dimension"].cache(),
    )
    w.metric_bsi.count()
    w.expose_bsi.count()
    return w


@pytest.fixture(scope="session")
def world(spark) -> World:
    return _build_world(spark, specs=SPECS, n_segments=N_SEGMENTS, n_buckets=N_SEGMENTS)


@pytest.fixture(scope="session")
def sparse_world(spark):
    """Same users and experiments over 32 segments, plus a metric at
    0.4% participation: on any day most segments hold none of its
    rows, yet their exposed users still count in its grid. Buckets
    (12) differ from segments, for the bucketed path."""
    w = _build_world(
        spark, specs=SPECS + [SPARSE_SPEC], n_segments=SPARSE_N_SEGMENTS,
        n_buckets=SPARSE_N_BUCKETS,
    )
    yield w
    for sdf in (w.encoding, w.metric_bsi, w.expose_bsi, w.dim_bsi):
        sdf.unpersist()
