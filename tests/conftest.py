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

# the K = 1024 bucketed world: more buckets than exposed users per
# strategy and segment, so most (strategy, bucket) filters are empty
K1024_N_USERS = 4000
K1024_N_SEGMENTS = 2
K1024_N_BUCKETS = 1024
K1024_EXPERIMENT = genlog.ExperimentSpec(
    experiment_id=3, strategy_ids=(31, 32), traffic_pct=100.0
)

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
    metric_tree: object  # the Figure 6 pre-aggregate tree of metric_bsi
    expose_bsi: object
    dim_bsi: object


def _build_world(
    spark, *, specs, n_segments: int, n_buckets: int,
    n_users: int = N_USERS, experiments=EXPERIMENTS,
) -> World:
    users = genlog.user_universe(n_users)
    metric = genlog.metric_log_pandas(
        specs, n_users=n_users, dates=DATES, n_segments=n_segments, seed=7
    )
    expose = genlog.expose_log_pandas(
        experiments, n_users=n_users, n_days=N_DAYS, n_segments=n_segments, seed=7
    )
    dim = genlog.dimension_log_pandas(
        n_users=n_users, dates=[3], n_segments=n_segments, seed=7
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
        metric_tree=conv["metric_tree"].cache(),
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
    for sdf in (w.encoding, w.metric_bsi, w.metric_tree, w.expose_bsi, w.dim_bsi):
        sdf.unpersist()


@pytest.fixture(scope="module")
def k1024_world(spark):
    """4,000 users over 2 segments, 2 strategies, 2 metrics, bucketed
    K = 1024 ways: the batched kernel gets 2,048 filters per call."""
    w = _build_world(
        spark, specs=SPECS[1:], n_segments=K1024_N_SEGMENTS,
        n_buckets=K1024_N_BUCKETS, n_users=K1024_N_USERS,
        experiments=[K1024_EXPERIMENT],
    )
    yield w
    for sdf in (w.encoding, w.metric_bsi, w.metric_tree, w.expose_bsi, w.dim_bsi):
        sdf.unpersist()
