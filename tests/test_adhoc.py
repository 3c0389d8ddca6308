"""Ad-hoc engine (§5.3): both query methods agree with each other,
with a pandas reference, and with the Spark BSI scorecard; the
one-sort load builds the store a pandas group loop builds."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.bsi.bsi import BSI
from repro.platform import genlog
from repro.platform import hashing as H
from repro.platform.adhoc import AdhocEngine
from repro.platform.encode import encoding_pandas
from tests.conftest import ALL_STRATEGIES, DATES, EXPERIMENTS, N_SEGMENTS, N_USERS, SPECS


@pytest.fixture(scope="module")
def engine(world):
    return AdhocEngine.from_logs(
        users_pdf=world.users,
        metric_pdf=world.metric,
        expose_pdf=world.expose,
        n_segments=N_SEGMENTS,
        dates=DATES,
        workers=4,
    )


def _reference(world, strategy_ids, metric_ids, dates):
    rows = []
    for sid in strategy_ids:
        e = world.expose[world.expose.strategy_id == sid]
        for d in dates:
            exposed_units = e[e.first_expose_date <= d]["analysis_unit_id"]
            for mid in metric_ids:
                m = world.metric[
                    (world.metric.metric_id == mid) & (world.metric.date == d)
                ]
                v = m[m.analysis_unit_id.isin(exposed_units)]["value"].sum()
                rows.append((sid, mid, d, float(v), len(exposed_units)))
    return (
        pd.DataFrame(
            rows, columns=["strategy_id", "metric_id", "date", "value_sum", "exposed"]
        )
        .sort_values(["strategy_id", "metric_id", "date"])
        .reset_index(drop=True)
    )


def _sorted(pdf):
    return pdf.sort_values(["strategy_id", "metric_id", "date"]).reset_index(drop=True)


def test_bsi_matches_reference(world, engine):
    got = _sorted(
        engine.query_bsi(strategy_ids=[11, 21], metric_ids=[1, 2], dates=[1, 3, 5])
    )
    exp = _reference(world, [11, 21], [1, 2], [1, 3, 5])
    pd.testing.assert_frame_equal(got.astype("float64"), exp.astype("float64"))


def test_normal_matches_reference(world, engine):
    got = _sorted(
        engine.query_normal(strategy_ids=[12, 22], metric_ids=[2, 3], dates=[2, 4])
    )
    exp = _reference(world, [12, 22], [2, 3], [2, 4])
    pd.testing.assert_frame_equal(got.astype("float64"), exp.astype("float64"))


def test_bsi_equals_normal_full_grid(world, engine):
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=[1, 2, 3], dates=DATES)
    a = _sorted(engine.query_bsi(**kw))
    b = _sorted(engine.query_normal(**kw))
    pd.testing.assert_frame_equal(a.astype("float64"), b.astype("float64"))


def test_sequential_equals_parallel(world):
    seq = AdhocEngine.from_logs(
        users_pdf=world.users, metric_pdf=world.metric, expose_pdf=world.expose,
        n_segments=N_SEGMENTS, dates=DATES, workers=1,
    )
    par = AdhocEngine.from_logs(
        users_pdf=world.users, metric_pdf=world.metric, expose_pdf=world.expose,
        n_segments=N_SEGMENTS, dates=DATES, workers=8,
    )
    kw = dict(strategy_ids=[11], metric_ids=[3], dates=[5])
    pd.testing.assert_frame_equal(
        _sorted(seq.query_bsi(**kw)), _sorted(par.query_bsi(**kw))
    )


def test_matches_spark_scorecard(world, engine):
    from repro.core import scorecard as SC

    spark_res = SC.scorecard_bsi(
        world.expose_bsi, world.metric_bsi,
        strategy_ids=[11], metric_ids=[2], date=4,
    ).toPandas()
    adhoc_res = engine.query_bsi(strategy_ids=[11], metric_ids=[2], dates=[4])
    assert adhoc_res["value_sum"].sum() == spark_res["bucket_sum"].sum()
    assert adhoc_res["exposed"].sum() == spark_res["bucket_exposed"].sum()


# -- loading: the one-sort load against a pandas-grouped reference ------
LOAD_USERS, LOAD_SEGMENTS = 1500, 4
LOAD_DAYS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def logs():
    users = genlog.user_universe(LOAD_USERS)
    users["segment_id"] = H.segment_of(users["analysis_unit_id"].to_numpy(), LOAD_SEGMENTS)
    metric = genlog.metric_log_pandas(
        SPECS, n_users=LOAD_USERS, dates=LOAD_DAYS, n_segments=LOAD_SEGMENTS, seed=3
    )
    expose = genlog.expose_log_pandas(
        EXPERIMENTS, n_users=LOAD_USERS, n_days=len(LOAD_DAYS),
        n_segments=LOAD_SEGMENTS, seed=3,
    )
    return users, metric, expose


def _load(users, metric, expose, dates=(1, 3, 4)):
    return AdhocEngine.from_logs(
        users_pdf=users, metric_pdf=metric, expose_pdf=expose,
        n_segments=LOAD_SEGMENTS, dates=list(dates),
    )


def _same_bsi(a: BSI, b: BSI) -> bool:
    """Equal container for container: keys, kind (dtype) and words."""
    return len(a.slices) == len(b.slices) and all(
        x._c.keys() == y._c.keys()
        and all(x._c[k].dtype == y._c[k].dtype and np.array_equal(x._c[k], y._c[k])
                for k in x._c)
        for x, y in zip(a.slices, b.slices)
    )


def _same_bsi_store(a: AdhocEngine, b: AdhocEngine) -> bool:
    return all(
        sa.metric_bsi.keys() == sb.metric_bsi.keys()
        and all(_same_bsi(sa.metric_bsi[k], sb.metric_bsi[k]) for k in sa.metric_bsi)
        and sa.expose_bsi.keys() == sb.expose_bsi.keys()
        and all(sa.expose_bsi[k][0] == sb.expose_bsi[k][0]
                and _same_bsi(sa.expose_bsi[k][1], sb.expose_bsi[k][1])
                for k in sa.expose_bsi)
        for sa, sb in zip(a.segments, b.segments)
    )


def _queries(eng: AdhocEngine) -> list[pd.DataFrame]:
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=[1, 2, 3], dates=[1, 3, 4])
    return [eng.query_bsi(**kw), eng.query_normal(**kw)]


def test_from_logs_matches_pandas_grouped_store(logs):
    users, metric, expose = logs
    eng = _load(users, metric, expose)
    pos_of = encoding_pandas(users).set_index("analysis_unit_id")["position"]
    mp = metric[metric["date"].isin([1, 3, 4])]
    n_metric = 0
    for (seg, mid, d), grp in mp.groupby(["segment_id", "metric_id", "date"]):
        s = eng.segments[seg]
        uids, vals = grp["analysis_unit_id"].to_numpy(), grp["value"].to_numpy()
        got_uids, got_vals = s.metric_rows[(mid, d)]
        assert np.array_equal(got_uids, uids) and np.array_equal(got_vals, vals)
        ref = BSI.from_arrays(pos_of.loc[uids].to_numpy(), vals)
        assert _same_bsi(s.metric_bsi[(mid, d)], ref)
        n_metric += 1
    assert sum(len(s.metric_bsi) for s in eng.segments) == n_metric
    assert sum(len(s.metric_rows) for s in eng.segments) == n_metric
    n_expose = 0
    for (seg, sid), grp in expose.groupby(["segment_id", "strategy_id"]):
        fed = grp["first_expose_date"].to_numpy()
        pos = pos_of.loc[grp["analysis_unit_id"].to_numpy()].to_numpy()
        min_date, got = eng.segments[seg].expose_bsi[sid]
        assert min_date == fed.min()
        assert _same_bsi(got, BSI.from_arrays(pos, fed - fed.min() + 1))
        n_expose += 1
    assert sum(len(s.expose_bsi) for s in eng.segments) == n_expose


def test_from_logs_shuffled_metric_log(logs):
    users, metric, expose = logs
    eng = _load(users, metric, expose)
    shuffled = metric.sample(frac=1.0, random_state=5).reset_index(drop=True)
    eng2 = _load(users, shuffled, expose)
    assert _same_bsi_store(eng, eng2)
    for a, b in zip(_queries(eng), _queries(eng2)):
        pd.testing.assert_frame_equal(a, b)


def test_from_logs_shuffled_logs_equal_sorted_logs(logs):
    # shuffled rows reach from_arrays out of position order (the sorted
    # path); log-ordered rows arrive increasing (no sort): same store
    users, metric, expose = logs
    eng = _load(users, metric, expose)
    eng2 = _load(
        users,
        metric.sample(frac=1.0, random_state=11).reset_index(drop=True),
        expose.sample(frac=1.0, random_state=12).reset_index(drop=True),
    )
    assert _same_bsi_store(eng, eng2)
    for sa, sb in zip(eng.segments, eng2.segments):
        pairs = [(sa.metric_bsi[k], sb.metric_bsi[k]) for k in sa.metric_bsi]
        pairs += [(sa.expose_bsi[k][1], sb.expose_bsi[k][1]) for k in sa.expose_bsi]
        for b, b2 in pairs:
            assert b._packed.keys() == b2._packed.keys()
            for j, (lo, m) in b._packed.items():
                assert b2._packed[j][0] == lo and np.array_equal(b2._packed[j][1], m)
        # row-format rows keep log order within a group: same rows
        assert sa.metric_rows.keys() == sb.metric_rows.keys()
        for k, (u, v) in sa.metric_rows.items():
            u2, v2 = sb.metric_rows[k]
            o, o2 = np.argsort(u), np.argsort(u2)
            assert np.array_equal(u[o], u2[o2]) and np.array_equal(v[o], v2[o2])
        assert sa.expose_day_bitmaps == sb.expose_day_bitmaps
    for a, b in zip(_queries(eng), _queries(eng2)):
        pd.testing.assert_frame_equal(a, b)


def test_from_logs_non_contiguous_unit_ids(logs):
    users, metric, expose = logs
    eng = _load(users, metric, expose)
    # ids x 7 keep the encoding's order; segments stay as assigned
    spread = [df.assign(analysis_unit_id=df["analysis_unit_id"] * 7)
              for df in (users, metric, expose)]
    eng7 = _load(*spread)
    assert _same_bsi_store(eng, eng7)
    for s, s7 in zip(eng.segments, eng7.segments):
        for k, (uids, vals) in s.metric_rows.items():
            assert np.array_equal(s7.metric_rows[k][0], uids * 7)
            assert np.array_equal(s7.metric_rows[k][1], vals)
    for a, b in zip(_queries(eng), _queries(eng7)):
        pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("log", ["metric", "expose"])
def test_from_logs_unknown_unit_raises(logs, log):
    users, metric, expose = logs
    frames = {"metric": metric.copy(), "expose": expose.copy()}
    frames[log].loc[7, "analysis_unit_id"] = 987_654_321
    with pytest.raises(ValueError, match=f"{log} log row with analysis_unit_id 987654321"):
        _load(users, frames["metric"], frames["expose"])


@pytest.mark.parametrize("log", ["users", "metric", "expose"])
@pytest.mark.parametrize("uid", [-5, 2**32 + 5])
def test_from_logs_unit_id_outside_32_bits_raises(logs, log, uid):
    users, metric, expose = logs
    frames = {"users": users.copy(), "metric": metric.copy(), "expose": expose.copy()}
    frames[log].loc[7, "analysis_unit_id"] = uid
    what = {"users": "users_pdf", "metric": "metric log", "expose": "expose log"}[log]
    with pytest.raises(ValueError, match=rf"{what} analysis_unit_id {uid} is outside \[0, 2\*\*32\)"):
        _load(frames["users"], frames["metric"], frames["expose"])


def test_from_logs_wrapping_unit_ids_raise(logs):
    # distinct ids that would share a bit of the normal store's uint32
    # bitmaps if wrapped: odd ids move past 2**32
    wide = [df.assign(analysis_unit_id=df["analysis_unit_id"] // 2
                      + (df["analysis_unit_id"] % 2) * 2**32)
            for df in logs]
    uid = wide[0]["analysis_unit_id"].to_numpy()
    first = uid[uid >= 2**32][0]
    with pytest.raises(ValueError, match=f"users_pdf analysis_unit_id {first} is outside"):
        _load(*wide)


@pytest.mark.parametrize("seg", [-1, LOAD_SEGMENTS])
def test_from_logs_segment_out_of_range_raises(logs, seg):
    users, metric, expose = logs
    bad = metric.copy()
    bad.loc[3, "segment_id"] = seg
    with pytest.raises(ValueError, match="metric log segment_id outside"):
        _load(users, bad, expose)


# -- query shapes the dense fixture never produces ----------------------
@pytest.fixture(scope="module")
def edge_logs(logs):
    """The load logs with ids x 100 (so units span several container
    keys), metric 2 absent on date 3 in segment 1, strategy 12 absent
    from segment 0, and every exposure a day later (date 1 precedes
    them all)."""
    users, metric, expose = (
        df.assign(analysis_unit_id=df["analysis_unit_id"] * 100) for df in logs
    )
    metric = metric[
        ~((metric.metric_id == 2) & (metric.date == 3) & (metric.segment_id == 1))
    ]
    expose = expose[~((expose.strategy_id == 12) & (expose.segment_id == 0))]
    expose = expose.assign(first_expose_date=expose["first_expose_date"] + 1)
    return users, metric, expose


@pytest.mark.parametrize("metric_ids", [[1, 2, 3], [2], [3, 2]])
def test_normal_bsi_reference_agree_on_edge_store(edge_logs, metric_ids):
    users, metric, expose = edge_logs
    eng = _load(users, metric, expose, dates=LOAD_DAYS)
    # the shapes under test are really there
    assert any(len(np.unique(u >> 16)) >= 2 for u, _ in eng.segments[0].metric_rows.values())
    assert (2, 3) not in eng.segments[1].metric_rows
    assert all(k[0] != 12 for k in eng.segments[0].expose_day_bitmaps)
    assert all(not bm for (_, d), bm in eng.segments[1].expose_day_bitmaps.items() if d == 1)
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=metric_ids, dates=LOAD_DAYS)
    normal = _sorted(eng.query_normal(**kw)).astype("float64")
    bsi = _sorted(eng.query_bsi(**kw)).astype("float64")
    ref = _reference(
        SimpleNamespace(metric=metric, expose=expose), ALL_STRATEGIES, metric_ids, LOAD_DAYS
    ).astype("float64")
    pd.testing.assert_frame_equal(normal, ref)
    pd.testing.assert_frame_equal(bsi, ref)
    assert (ref[ref.date == 1][["value_sum", "exposed"]] == 0).all().all()


@pytest.fixture(scope="module")
def gap_logs(edge_logs):
    """The edge logs with metric 3 absent on date 2 in every segment."""
    users, metric, expose = edge_logs
    return users, metric[~((metric.metric_id == 3) & (metric.date == 2))], expose


@pytest.mark.parametrize("workers", [1, 2])
def test_unsorted_dates_empty_metric_day_agree(gap_logs, workers):
    users, metric, expose = gap_logs
    eng = AdhocEngine.from_logs(
        users_pdf=users, metric_pdf=metric, expose_pdf=expose,
        n_segments=LOAD_SEGMENTS, dates=LOAD_DAYS, workers=workers,
    )
    dates = [4, 1, 3, 2]  # unsorted; date 1 precedes every exposure
    kw = dict(strategy_ids=[21, 11, 12], metric_ids=[3, 1], dates=dates)
    bsi, normal = eng.query_bsi(**kw), eng.query_normal(**kw)
    # one row per requested (strategy, metric, date), in request order
    cells = [(s, m, d) for s in kw["strategy_ids"] for m in kw["metric_ids"] for d in dates]
    assert list(zip(bsi.strategy_id, bsi.metric_id, bsi.date)) == cells
    pd.testing.assert_frame_equal(bsi, normal)
    ref = _reference(SimpleNamespace(metric=metric, expose=expose), **kw).astype("float64")
    pd.testing.assert_frame_equal(_sorted(bsi).astype("float64"), ref)
    day1 = bsi[bsi.date == 1]
    assert (day1[["value_sum", "exposed"]] == 0).all().all()
    gap = bsi[(bsi.metric_id == 3) & (bsi.date == 2)]
    assert (gap.value_sum == 0).all() and (gap.exposed > 0).all()


REPEATS = {
    "strategy": dict(strategy_ids=[11, 12, 11]),
    "metric": dict(metric_ids=[1, 2, 1]),
    "date": dict(dates=[3, 1, 3]),
}


@pytest.mark.parametrize("method", ["query_bsi", "query_normal"])
@pytest.mark.parametrize("field", sorted(REPEATS))
def test_repeated_ids_raise(logs, method, field):
    eng = _load(*logs)
    kw = {**dict(strategy_ids=[11, 12], metric_ids=[1, 2], dates=[1, 3]), **REPEATS[field]}
    with pytest.raises(ValueError, match=f"repeated {field} ids"):
        getattr(eng, method)(**kw)


@pytest.mark.parametrize("method", ["query_bsi", "query_normal"])
def test_unloaded_date_raises(logs, method):
    eng = _load(*logs, dates=(1, 2))
    with pytest.raises(ValueError, match=r"dates \[5\] were not loaded \(loaded: \[1, 2\]\)"):
        getattr(eng, method)(strategy_ids=[11], metric_ids=[1], dates=[2, 5])


# -- footprint: the store holds the words its positions use ---------------
def test_footprint_is_span_words_plus_row_store(edge_logs):
    # unit ids over several container keys; after both query methods
    # have run, the store holds rows x used words x 8 bytes of matrices
    # per BSI and key (a row per bit of the key's largest value), and
    # 4 + 8 bytes per row of the loaded dates
    users, metric, expose = edge_logs
    eng = _load(users, metric, expose)
    kw = dict(strategy_ids=ALL_STRATEGIES, metric_ids=[1, 2, 3], dates=[1, 3, 4])
    eng.query_bsi(**kw)
    eng.query_normal(**kw)
    fp = eng.footprint()
    words = 0
    for s in eng.segments:
        for b in [*s.metric_bsi.values(), *(b for _, b in s.expose_bsi.values())]:
            pos, vals = b.to_arrays()
            for k in np.unique(pos >> 16):
                low, v = pos[pos >> 16 == k] & 0xFFFF, vals[pos >> 16 == k]
                rows = int(v.max()).bit_length()
                words += rows * (int(low[-1]) // 64 - int(low[0]) // 64 + 1)
    loaded = metric[metric.date.isin([1, 3, 4])]
    assert fp == {
        "bsi_matrices": 8 * words,
        "normal_rows": len(loaded) * (4 + loaded["value"].dtype.itemsize),
        "expose_bitmaps": sum(
            c.nbytes for s in eng.segments for bm in s.expose_day_bitmaps.values()
            for c in bm._c.values()
        ),
    }
    # decoding a BSI keeps nothing: the footprint is unchanged
    next(iter(eng.segments[0].metric_bsi.values())).to_arrays()
    assert eng.footprint() == fp
