"""Generator properties: schemas (paper Table 1), determinism, and the
§3.5 distributional shape the BSI representation relies on."""
import numpy as np
import pandas as pd
import pytest

from repro.core.metrics105 import MetricSpec
from repro.platform import genlog
from repro.platform import hashing as H
from tests.conftest import ALL_STRATEGIES, DATES, EXPERIMENTS, N_DAYS, N_SEGMENTS, N_USERS, SPECS


def test_metric_log_schema(world):
    assert list(world.metric.columns) == [
        "date", "metric_id", "analysis_unit_id", "value", "segment_id",
    ]
    assert (world.metric["value"] >= 1).all()  # zeros are non-existing
    assert set(world.metric["date"]) == set(DATES)
    assert set(world.metric["metric_id"]) == {s.metric_id for s in SPECS}


def test_expose_log_schema(world):
    assert list(world.expose.columns) == [
        "strategy_id", "analysis_unit_id", "randomization_unit_id",
        "first_expose_date", "segment_id",
    ]
    assert set(world.expose["strategy_id"]) == set(ALL_STRATEGIES)
    assert world.expose["first_expose_date"].between(1, N_DAYS).all()


def test_dimension_log_schema(world):
    assert set(world.dim["dimension_name"]) == {"client-type", "client-version"}
    ct = world.dim[world.dim["dimension_name"] == "client-type"]["value"]
    cv = world.dim[world.dim["dimension_name"] == "client-version"]["value"]
    assert ct.between(1, 5).all()
    assert cv.between(100, 149).all()


def test_one_row_per_unit_per_metric_day(world):
    dup = world.metric.duplicated(["date", "metric_id", "analysis_unit_id"])
    assert not dup.any()


def test_expose_units_unique_per_strategy(world):
    dup = world.expose.duplicated(["strategy_id", "analysis_unit_id"])
    assert not dup.any()


def test_strategies_of_experiment_disjoint(world):
    e = world.expose
    a = set(e[e.strategy_id == 11]["analysis_unit_id"])
    b = set(e[e.strategy_id == 12]["analysis_unit_id"])
    assert not (a & b)


def test_traffic_fraction(world):
    enrolled = world.expose[world.expose.strategy_id.isin([11, 12])]
    assert abs(len(enrolled) / N_USERS - 0.60) < 0.05


def test_deterministic_regeneration(world):
    again = genlog.metric_log_pandas(
        SPECS, n_users=N_USERS, dates=DATES, n_segments=N_SEGMENTS, seed=7
    )
    assert again.equals(world.metric)


def test_expose_dates_concentrated_early(world):
    # §3.5: most users exposed in the first days (geometric offsets)
    fed = world.expose["first_expose_date"]
    assert (fed == 1).mean() > 0.4
    assert (fed <= 2).mean() > 0.7


def test_values_pareto_near_zero(world):
    # §3.5 Figure 5: values concentrate near 0 within the range
    v = world.metric[world.metric.metric_id == 3]["value"]
    assert v.median() < 5000 * 0.25
    assert v.max() <= 5000


def test_participation_skewed_to_heavy_users(world):
    m = world.metric[(world.metric.metric_id == 2) & (world.metric.date == 1)]
    heavy = (m["analysis_unit_id"] <= N_USERS // 4).mean()
    assert heavy > 0.30  # heavy quartile over-represented


def test_metric_values_within_range():
    spec = MetricSpec(metric_id=9, name="x", range_card=100, gen_range=100,
                      participation=0.5, pareto_a=1.0)
    g = np.random.default_rng(0)
    v = genlog.metric_values(g, spec, 10_000)
    assert v.min() >= 1 and v.max() <= 100


def test_apply_multiplicative_effect(world):
    treated = world.expose[world.expose.strategy_id == 11]["analysis_unit_id"].to_numpy()
    bumped = genlog.apply_multiplicative_effect(world.metric, treated, 1.5)
    m0 = world.metric[world.metric.analysis_unit_id.isin(treated)]["value"].sum()
    m1 = bumped[bumped.analysis_unit_id.isin(treated)]["value"].sum()
    assert m1 > m0 * 1.3
    untouched = ~bumped.analysis_unit_id.isin(treated)
    assert bumped.loc[untouched, "value"].equals(world.metric.loc[untouched, "value"])


def test_engagement_weights_mean_one():
    w = genlog.engagement_weights(10_000)
    assert w.mean() == pytest.approx(1.0)
    assert w[0] > w[-1]


def test_engagement_weights_cached_read_only():
    w = genlog.engagement_weights(10_000)
    assert genlog.engagement_weights(10_000) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    # the universe frame holds its own copy
    assert genlog.user_universe(10_000)["engagement"].to_numpy().flags.writeable


def _per_day_reference(specs, *, n_users, dates, n_segments, seed):
    """One frame per metric-day from ``metric_day`` plus ``segment_of``,
    concatenated in spec then date order."""
    frames = [
        pd.DataFrame({
            "date": np.full(len(users), date, dtype=np.int32),
            "metric_id": np.full(len(users), spec.metric_id, dtype=np.int64),
            "analysis_unit_id": users,
            "value": values,
            "segment_id": H.segment_of(users, n_segments),
        })
        for spec in specs
        for date in dates
        for users, values in [genlog.metric_day(spec, n_users=n_users, date=date, seed=seed)]
    ]
    return pd.concat(frames, ignore_index=True)


NOBODY = MetricSpec(metric_id=77, name="nobody", range_card=10, gen_range=10,
                    participation=0.0, pareto_a=1.0)


@pytest.mark.parametrize("specs", [SPECS, [SPECS[0], NOBODY, SPECS[1]]],
                         ids=["world", "zero-participant"])
def test_metric_log_equals_per_day_frames(specs):
    kw = dict(n_users=N_USERS, dates=DATES, n_segments=N_SEGMENTS, seed=7)
    got = genlog.metric_log_pandas(specs, **kw)
    want = _per_day_reference(specs, **kw)
    pd.testing.assert_frame_equal(got, want, check_index_type=True)
    assert isinstance(got.index, pd.RangeIndex)
    assert (pd.util.hash_pandas_object(got) == pd.util.hash_pandas_object(want)).all()
    if NOBODY in specs:
        assert not (got["metric_id"] == NOBODY.metric_id).any()


def test_metric_log_of_no_specs_is_empty_and_typed():
    got = genlog.metric_log_pandas([], n_users=N_USERS, dates=DATES, n_segments=N_SEGMENTS)
    want = _per_day_reference(SPECS, n_users=N_USERS, dates=DATES,
                              n_segments=N_SEGMENTS, seed=7).iloc[:0]
    assert len(got) == 0 and isinstance(got.index, pd.RangeIndex)
    assert list(got.columns) == list(want.columns)
    assert got.dtypes.tolist() == want.dtypes.tolist()
