"""Bucket-based statistical inference (§3.3, §4.2; Xiong et al. [23]).

Randomization units are deterministically bucketed; each bucket is an
independent replicate of the experiment, so a metric's value, variance
and covariances are estimated from the K bucket-level (sum, count)
pairs rather than from per-user rows.

For a ratio metric M = sum(value)/count(exposed) with bucket sums
``s_i`` and counts ``n_i``:

    M            = S / N,  S = sum s_i, N = sum n_i
    Var(M)       = delta-method variance from the K replicates:
                   with m_s = S/K, m_n = N/K,
                   Var(M) ~= (var(s) - 2 M cov(s, n) + M^2 var(n)) / (K * m_n^2)

which is the standard linearisation of the ratio of two means over iid
replicates. p-values use the normal approximation (K >= 64 here; no
scipy offline — DESIGN.md).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal, via erfc."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class RatioEstimate:
    """Point estimate and delta-method variance of a ratio metric."""

    mean: float
    var: float  # variance of the mean estimate
    n_buckets: int
    total_sum: float
    total_count: float


def ratio_estimate(sums: np.ndarray, counts: np.ndarray) -> RatioEstimate:
    """Estimate a ratio metric from bucket-level (sum, count) pairs."""
    sums = np.asarray(sums, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    k = len(sums)
    if k < 2 or counts.sum() == 0:
        return RatioEstimate(float("nan"), float("nan"), k, sums.sum(), counts.sum())
    S, N = sums.sum(), counts.sum()
    m = S / N
    mn = N / k
    var_s = sums.var(ddof=1)
    var_n = counts.var(ddof=1)
    cov_sn = np.cov(sums, counts, ddof=1)[0, 1]
    var_mean = (var_s - 2 * m * cov_sn + m * m * var_n) / (k * mn * mn)
    return RatioEstimate(m, max(var_mean, 0.0), k, S, N)


def bucket_covariance(
    x_sums: np.ndarray, y_sums: np.ndarray, counts: np.ndarray
) -> float:
    """Delta-method covariance between two ratio metrics sharing the
    denominator, from bucket replicates (the [23] estimator)."""
    x = np.asarray(x_sums, np.float64)
    y = np.asarray(y_sums, np.float64)
    n = np.asarray(counts, np.float64)
    k = len(x)
    mx, my = x.sum() / n.sum(), y.sum() / n.sum()
    mn = n.mean()
    c_xy = np.cov(x, y, ddof=1)[0, 1]
    c_xn = np.cov(x, n, ddof=1)[0, 1]
    c_yn = np.cov(y, n, ddof=1)[0, 1]
    v_n = n.var(ddof=1)
    return (c_xy - my * c_xn - mx * c_yn + mx * my * v_n) / (k * mn * mn)


@dataclass(frozen=True)
class TTestResult:
    """Two-sample comparison of a ratio metric between strategies."""

    treatment_mean: float
    control_mean: float
    diff: float
    rel_diff: float
    se: float
    z: float
    p_value: float


def ttest(
    t_sums, t_counts, c_sums, c_counts
) -> TTestResult:
    """Unpaired two-sample test on bucket replicates (§4.2 scorecard)."""
    t = ratio_estimate(np.asarray(t_sums), np.asarray(t_counts))
    c = ratio_estimate(np.asarray(c_sums), np.asarray(c_counts))
    diff = t.mean - c.mean
    se = math.sqrt(t.var + c.var)
    z = diff / se if se > 0 else float("nan")
    p = 2 * normal_sf(abs(z)) if se > 0 else float("nan")
    rel = diff / c.mean if c.mean else float("nan")
    return TTestResult(t.mean, c.mean, diff, rel, se, z, p)


def cuped_two_sample(
    t_y, t_n, t_x, c_y, c_n, c_x
) -> tuple[float, np.ndarray, np.ndarray]:
    """Proper two-arm CUPED on bucket replicates (Deng et al. [5]).

    theta is pooled from the within-arm replicate (co)variances and the
    covariate is centred on the *shared* pre-period mean, so a chance
    baseline imbalance between arms is removed from the diff — that is
    the sensitivity improvement §4.3 implements.

    Returns (theta, adjusted treatment replicates, adjusted control
    replicates); feed them to :func:`cuped_ttest`."""
    ty = np.asarray(t_y, np.float64) / np.maximum(np.asarray(t_n, np.float64), 1)
    cy = np.asarray(c_y, np.float64) / np.maximum(np.asarray(c_n, np.float64), 1)
    tx = np.asarray(t_x, np.float64) / np.maximum(np.asarray(t_n, np.float64), 1)
    cx = np.asarray(c_x, np.float64) / np.maximum(np.asarray(c_n, np.float64), 1)
    cov = np.cov(ty, tx, ddof=1)[0, 1] + np.cov(cy, cx, ddof=1)[0, 1]
    var = tx.var(ddof=1) + cx.var(ddof=1)
    theta = float(cov / var) if var > 0 else 0.0
    x_ref = np.concatenate([tx, cx]).mean()
    return theta, ty - theta * (tx - x_ref), cy - theta * (cx - x_ref)


def cuped_ttest(t_adj: np.ndarray, c_adj: np.ndarray) -> TTestResult:
    """t-test on CUPED-adjusted bucket replicate values."""
    tm, cm = t_adj.mean(), c_adj.mean()
    se = math.sqrt(t_adj.var(ddof=1) / len(t_adj) + c_adj.var(ddof=1) / len(c_adj))
    z = (tm - cm) / se if se > 0 else float("nan")
    p = 2 * normal_sf(abs(z)) if se > 0 else float("nan")
    return TTestResult(tm, cm, tm - cm, (tm - cm) / cm if cm else float("nan"), se, z, p)
