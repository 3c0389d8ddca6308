"""Synthetic expose / metric / dimension logs (§3.1, Table 1).

Generators are deterministic in their seeds and produce pandas frames
(cheap, oracle-friendly).
Distributional shape follows §3.5:

- metric values are Lomax/Pareto-ish, concentrated near 0 within each
  metric's range;
- daily participation is skewed toward high-engagement users (low
  analysis-unit-ids), which is what makes position encoding compact;
- first-expose dates concentrate in the first days of an experiment.

Schemas (Table 1), plus a precomputed ``segment_id`` column — the
deterministic HASH(analysis-unit-id) % n_segments of §3.2 — so Spark,
DuckDB and the in-process engine all see identical segmentation:

- expose log:    strategy_id, analysis_unit_id, randomization_unit_id,
                 first_expose_date, segment_id
- metric log:    date, metric_id, analysis_unit_id, value, segment_id
- dimension log: date, dimension_name, analysis_unit_id, value, segment_id

Dates are integer day indexes (1-based), as discussed in DESIGN.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pandas as pd

from repro.core.metrics105 import MetricSpec
from repro.platform import hashing as H


@lru_cache(maxsize=8)
def engagement_weights(n_users: int, beta: float = 0.35) -> np.ndarray:
    """Per-user activity weight, mean ~1, decaying in user id (low id =
    heavy user). Drives both participation skew and position encoding.

    Every metric-day of a universe samples against the same weights,
    so they are computed once per ``(n_users, beta)`` and returned
    read-only."""
    u = np.arange(1, n_users + 1, dtype=np.float64)
    w = (n_users / u) ** beta
    w /= w.mean()
    w.flags.writeable = False
    return w


def user_universe(n_users: int) -> pd.DataFrame:
    """All analysis units with their engagement score (for encoding)."""
    ids = np.arange(1, n_users + 1, dtype=np.int64)
    return pd.DataFrame(
        {"analysis_unit_id": ids, "engagement": engagement_weights(n_users)}
    )


def _participating_users(
    g: np.random.Generator, n_users: int, participation: float
) -> np.ndarray:
    """Engagement-skewed daily participant set (1-based unit ids)."""
    p_u = np.clip(participation * engagement_weights(n_users), 0.0, 1.0)
    return np.flatnonzero(g.random(n_users) < p_u).astype(np.int64) + 1


def metric_values(
    g: np.random.Generator, spec: MetricSpec, n: int
) -> np.ndarray:
    """Pareto-shaped values in [1, spec.gen_range] (§3.5, Figure 5)."""
    if spec.gen_range <= 1:
        return np.ones(n, dtype=np.int64)
    # Lomax scale ~ range/100: the bulk of the mass sits in the bottom
    # few percent of the range with a heavy tail to the top (Figure 5)
    raw = g.pareto(spec.pareto_a, n) * max(1.0, spec.gen_range / 100.0)
    return np.minimum(np.floor(raw), spec.gen_range - 1).astype(np.int64) + 1


def metric_day(
    spec: MetricSpec, *, n_users: int, date: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(unit ids, values) of one metric-day, from its own (seed,
    metric, date) stream."""
    g = np.random.default_rng((seed, spec.metric_id, date))
    users = _participating_users(g, n_users, spec.participation)
    return users, metric_values(g, spec, len(users))


def metric_log_pandas(
    specs: list[MetricSpec],
    *,
    n_users: int,
    dates: list[int],
    n_segments: int,
    seed: int = 0,
) -> pd.DataFrame:
    """Metric log rows for every (spec, date), in spec then date order.

    Each metric-day is drawn by :func:`metric_day`; the columns are
    then built whole, one concatenate or repeat each, into a frame that
    takes the arrays without copying them into blocks. Segments are
    hashed once per universe unit and looked up by unit id."""
    keys = [(spec.metric_id, date) for spec in specs for date in dates]
    days = [
        metric_day(spec, n_users=n_users, date=date, seed=seed)
        for spec in specs
        for date in dates
    ]
    counts = [len(users) for users, _ in days]
    users = np.concatenate([np.empty(0, dtype=np.int64), *(u for u, _ in days)])
    return pd.DataFrame(
        {
            "date": np.repeat(np.array([d for _, d in keys], dtype=np.int32), counts),
            "metric_id": np.repeat(np.array([m for m, _ in keys], dtype=np.int64), counts),
            "analysis_unit_id": users,
            "value": np.concatenate([np.empty(0, dtype=np.int64), *(v for _, v in days)]),
            "segment_id": H.segment_of(np.arange(1, n_users + 1), n_segments)[users - 1],
        },
        copy=False,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its strategies share an enrolled population."""

    experiment_id: int
    strategy_ids: tuple[int, ...]  # arm i -> strategy_ids[i]
    traffic_pct: float = 50.0  # % of the universe enrolled
    start_date: int = 1
    expose_geom_p: float = 0.5  # geometric decay of first-expose offsets


def expose_log_pandas(
    experiments: list[ExperimentSpec],
    *,
    n_users: int,
    n_days: int,
    n_segments: int,
    seed: int = 0,
) -> pd.DataFrame:
    """Expose log: one row per (strategy, exposed analysis unit).

    Traffic split and arm assignment are independent salted hashes of
    the unit id (§3.2-3.3); first-expose offsets are geometric, so most
    units are exposed in the first days (§3.5)."""
    ids = np.arange(1, n_users + 1, dtype=np.int64)
    frames = []
    for ex in experiments:
        enrolled = ids[H.traffic_hash(ids, ex.experiment_id) < ex.traffic_pct * 100]
        arm = H.assign_hash(enrolled, ex.experiment_id, len(ex.strategy_ids))
        g = np.random.default_rng((seed, ex.experiment_id))
        offsets = np.minimum(
            g.geometric(ex.expose_geom_p, len(enrolled)), max(1, n_days)
        )
        fed = (ex.start_date + offsets - 1).astype(np.int32)
        for i, sid in enumerate(ex.strategy_ids):
            m = arm == i
            frames.append(
                pd.DataFrame(
                    {
                        "strategy_id": np.full(m.sum(), sid, dtype=np.int64),
                        "analysis_unit_id": enrolled[m],
                        "randomization_unit_id": enrolled[m],
                        "first_expose_date": fed[m],
                        "segment_id": H.segment_of(enrolled[m], n_segments),
                    }
                )
            )
    return pd.concat(frames, ignore_index=True)


def dimension_log_pandas(
    *,
    n_users: int,
    dates: list[int],
    n_segments: int,
    seed: int = 0,
) -> pd.DataFrame:
    """Dimension log with the paper's two §4.4 dimensions:
    client-type in 1..5 and client-version in 100..149, stable per user."""
    ids = np.arange(1, n_users + 1, dtype=np.int64)
    ctype = (H.mix32(ids, 0xC11E17) % np.uint32(5)).astype(np.int64) + 1
    cver = (H.mix32(ids, 0x7E4510) % np.uint32(50)).astype(np.int64) + 100
    seg = H.segment_of(ids, n_segments)
    frames = []
    for date in dates:
        for name, vals in (("client-type", ctype), ("client-version", cver)):
            frames.append(
                pd.DataFrame(
                    {
                        "date": np.full(n_users, date, dtype=np.int32),
                        "dimension_name": name,
                        "analysis_unit_id": ids,
                        "value": vals,
                        "segment_id": seg,
                    }
                )
            )
    return pd.concat(frames, ignore_index=True)


def apply_multiplicative_effect(
    metric_pdf: pd.DataFrame, treated_units: np.ndarray, multiplier: float
) -> pd.DataFrame:
    """Inject a treatment effect: scale treated units' values (used by
    effect-detection tests; generators themselves are A/A)."""
    out = metric_pdf.copy()
    m = out["analysis_unit_id"].isin(treated_units)
    out.loc[m, "value"] = np.maximum(
        1, np.round(out.loc[m, "value"] * multiplier)
    ).astype(np.int64)
    return out
