"""End-to-end demo of the full §4 pipeline on synthetic data: BSI
scorecard + bucket t-test, CUPED pre-experiment adjustment, and a
deep-dive on the paper's client-type/client-version predicates.

Usage: python jobs/scorecard_demo.py [n_users]
"""
import sys

from _session import get_session, hr


def run(spark, n_users: int = 20_000):
    import numpy as np

    from repro.core import deepdive as DD
    from repro.core import preexperiment as PE
    from repro.core import scorecard as SC
    from repro.core.metrics105 import MetricSpec
    from repro.platform import encode, genlog

    n_segments, n_days = 16, 7
    spec = MetricSpec(metric_id=1, name="stay_time", range_card=5000,
                      gen_range=5000, participation=0.6, pareto_a=1.0)
    ex = genlog.ExperimentSpec(experiment_id=1, strategy_ids=(1, 2), traffic_pct=80.0)
    users = genlog.user_universe(n_users)
    metric = genlog.metric_log_pandas(
        [spec], n_users=n_users, dates=list(range(1, n_days + 1)),
        n_segments=n_segments, seed=42,
    )
    expose = genlog.expose_log_pandas(
        [ex], n_users=n_users, n_days=n_days, n_segments=n_segments, seed=42
    )
    # inject a +5% effect on the treatment arm (strategy 2), day >= 4
    treated = expose[expose.strategy_id == 2]["analysis_unit_id"].to_numpy()
    late = metric["date"] >= 4
    bumped = genlog.apply_multiplicative_effect(metric[late], treated, 1.05)
    metric = __import__("pandas").concat([metric[~late], bumped], ignore_index=True)
    dim = genlog.dimension_log_pandas(
        n_users=n_users, dates=[7], n_segments=n_segments, seed=42
    )
    conv = encode.full_bsi_conversion(
        spark, users_pdf=users, metric_pdf=metric, expose_pdf=expose,
        dim_pdf=dim, n_segments=n_segments,
    )

    hr("Scorecard (day 7) with bucket t-test")
    score = SC.scorecard_bsi(
        conv["expose"], conv["metric"], strategy_ids=[1, 2], metric_ids=[1], date=7
    ).toPandas()
    t_s, t_n = SC.bucket_frame_to_arrays(score, strategy_id=2, metric_id=1, n_buckets=n_segments)
    c_s, c_n = SC.bucket_frame_to_arrays(score, strategy_id=1, metric_id=1, n_buckets=n_segments)
    from repro.core import stats
    raw = stats.ttest(t_s, t_n, c_s, c_n)
    print(f"treatment mean {raw.treatment_mean:.2f}  control mean {raw.control_mean:.2f}")
    print(f"diff {raw.diff:+.2f} ({raw.rel_diff:+.2%})  z={raw.z:.2f}  p={raw.p_value:.4f}")

    hr("CUPED (pre-period days 1-3 as covariate)")
    cov = PE.preexperiment_bsi(
        conv["expose"], conv["metric_tree"], strategy_ids=[1, 2], metric_id=1,
        pre_lo=1, pre_hi=3, expose_date=7,
    ).toPandas()
    res = PE.cuped_analysis(
        score, cov, treatment_id=2, control_id=1, metric_id=1, n_buckets=n_segments
    )
    adj = res["adjusted"]
    print(f"theta={res['theta']:.3f}  variance reduction={res['variance_reduction']:.1%}")
    print(f"adjusted diff {adj.diff:+.2f}  z={adj.z:.2f}  p={adj.p_value:.4f}")

    hr("Deep dive: client-type = 1 AND client-version > 134 (day 7)")
    dd = DD.deepdive_bsi(
        conv["expose"], conv["metric"], conv["dimension"],
        strategy_ids=[1, 2], metric_ids=[1], date=7,
        predicates=[("client-type", "eq", 1), ("client-version", "gt", 134)],
    ).toPandas()
    seg_share = dd["bucket_exposed"].sum() / score["bucket_exposed"].sum()
    print(f"filtered population: {dd['bucket_exposed'].sum():,} exposed units "
          f"({seg_share:.1%} of the experiment)")
    return {"raw": raw, "cuped": res, "deepdive_rows": len(dd)}


if __name__ == "__main__":
    run(get_session("scorecard-demo"),
        int(sys.argv[1]) if len(sys.argv) > 1 else 20_000)
