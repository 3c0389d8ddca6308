"""Bucket-based inference (§3.3): variance/covariance correctness on
known distributions, A/A calibration, effect detection, CUPED."""
import numpy as np
import pytest

from repro.core import stats as S


def _bucketize(g, values, k):
    """Assign iid values to k buckets round-robin-at-random, return
    (sums, counts)."""
    b = g.integers(0, k, len(values))
    sums = np.bincount(b, weights=values, minlength=k)
    counts = np.bincount(b, minlength=k)
    return sums, counts


def test_ratio_estimate_mean_exact():
    sums = np.array([10.0, 20.0, 30.0])
    counts = np.array([5, 5, 10])
    est = S.ratio_estimate(sums, counts)
    assert est.mean == pytest.approx(60 / 20)


def _equal_buckets(g, n, k):
    """Exactly n/k units per bucket (no count noise -> no delta-method
    cancellation noise in the test)."""
    b = np.repeat(np.arange(k), n // k)
    g.shuffle(b)
    return b


def test_ratio_variance_matches_iid_theory():
    """For iid values in equal buckets, the delta-method bucket
    variance must approximate var(x)/n."""
    g = np.random.default_rng(0)
    n, k = 204_800, 256
    x = g.exponential(2.0, n)
    b = _equal_buckets(g, n, k)
    sums = np.bincount(b, weights=x, minlength=k)
    counts = np.bincount(b, minlength=k)
    est = S.ratio_estimate(sums, counts)
    theory = x.var() / n
    assert est.var == pytest.approx(theory, rel=0.25)


def test_ratio_variance_multinomial_buckets_consistent():
    """Random bucket sizes: noisier, but same order and consistent."""
    g = np.random.default_rng(0)
    n, k = 204_800, 256
    x = g.exponential(2.0, n)
    sums, counts = _bucketize(g, x, k)
    est = S.ratio_estimate(sums, counts)
    theory = x.var() / n
    assert 0.5 * theory < est.var < 2.0 * theory


def test_bucket_covariance_matches_iid_theory():
    g = np.random.default_rng(1)
    n, k = 204_800, 256
    x = g.normal(5, 1, n)
    y = 0.5 * x + g.normal(0, 1, n)
    b = _equal_buckets(g, n, k)
    xs = np.bincount(b, weights=x, minlength=k)
    ys = np.bincount(b, weights=y, minlength=k)
    counts = np.bincount(b, minlength=k)
    got = S.bucket_covariance(ys, xs, counts)
    theory = np.cov(x, y)[0, 1] / n
    assert got == pytest.approx(theory, rel=0.3)


def test_aa_no_false_positive_rate_inflation():
    """A/A: z should be ~N(0,1); check p-value uniformity loosely."""
    g = np.random.default_rng(2)
    ps = []
    for _ in range(200):
        t = g.poisson(3, 5000).astype(float)
        c = g.poisson(3, 5000).astype(float)
        ts, tn = _bucketize(g, t, 64)
        cs, cn = _bucketize(g, c, 64)
        ps.append(S.ttest(ts, tn, cs, cn).p_value)
    ps = np.array(ps)
    assert 0.005 < (ps < 0.05).mean() < 0.12
    assert abs(ps.mean() - 0.5) < 0.08


def test_real_effect_detected():
    g = np.random.default_rng(3)
    t = g.poisson(3.3, 20000).astype(float)  # +10% effect
    c = g.poisson(3.0, 20000).astype(float)
    ts, tn = _bucketize(g, t, 64)
    cs, cn = _bucketize(g, c, 64)
    r = S.ttest(ts, tn, cs, cn)
    assert r.p_value < 1e-6
    assert r.rel_diff == pytest.approx(0.1, abs=0.03)


def test_normal_sf():
    assert S.normal_sf(0) == pytest.approx(0.5)
    assert S.normal_sf(1.96) == pytest.approx(0.025, abs=1e-3)
    assert S.normal_sf(-1.96) == pytest.approx(0.975, abs=1e-3)


def _cuped_variance_reduction(ts, tn, tx, cs, cn, cx) -> float:
    """1 - se(adjusted diff)^2 / se(raw diff)^2, as cuped_analysis reports."""
    raw = S.ttest(ts, tn, cs, cn)
    _, t_adj, c_adj = S.cuped_two_sample(ts, tn, tx, cs, cn, cx)
    return 1.0 - S.cuped_ttest(t_adj, c_adj).se ** 2 / raw.se ** 2


def test_cuped_reduces_variance_with_correlated_covariate():
    g = np.random.default_rng(4)
    k = 128
    arms = []
    for _ in range(2):
        user_base = g.gamma(2.0, 2.0, 50_000)
        pre = user_base + g.normal(0, 0.5, 50_000)
        post = user_base + g.normal(0, 0.5, 50_000)
        b = g.integers(0, k, 50_000)
        arms.append((
            np.bincount(b, weights=post, minlength=k),
            np.bincount(b, minlength=k),
            np.bincount(b, weights=pre, minlength=k),
        ))
    # strongly correlated covariate
    assert _cuped_variance_reduction(*arms[0], *arms[1]) > 0.5


def test_cuped_no_covariate_correlation_no_reduction():
    g = np.random.default_rng(5)
    k = 128
    n = np.full(k, 100.0)
    ts, tx, cs, cx = (g.normal(mu, 5, k) for mu in (100, 50, 100, 50))
    assert abs(_cuped_variance_reduction(ts, n, tx, cs, n, cx)) < 0.15


def test_cuped_two_sample_preserves_diff_and_removes_imbalance():
    g = np.random.default_rng(6)
    k = 128
    base_t, base_c = g.normal(10, 1, k), g.normal(10, 1, k)
    x_t, x_c = base_t + g.normal(0, 0.1, k), base_c + g.normal(0, 0.1, k)
    y_t, y_c = base_t + 0.5, base_c  # true diff 0.5
    ones = np.full(k, 100.0)
    theta, t_adj, c_adj = S.cuped_two_sample(
        y_t * 100, ones, x_t * 100, y_c * 100, ones, x_c * 100
    )
    assert theta == pytest.approx(1.0, abs=0.1)
    res = S.cuped_ttest(t_adj, c_adj)
    # shared centring removes the baseline imbalance between arms
    assert res.diff == pytest.approx(0.5, abs=0.1)
    assert res.p_value < 1e-6
    # raw (unadjusted) diff is much noisier than the adjusted one
    raw_se = np.sqrt(y_t.var(ddof=1) / k + y_c.var(ddof=1) / k)
    assert res.se < raw_se / 3


def test_degenerate_inputs():
    est = S.ratio_estimate(np.array([1.0]), np.array([1.0]))
    assert np.isnan(est.mean) or est.n_buckets == 1
    r = S.ttest(np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4))
    assert np.isnan(r.z) or np.isnan(r.p_value)
