"""Workload builders and runners for the paper's evaluation tables.

Each ``tableN_*`` function reproduces the corresponding §6 experiment
at laptop scale (DESIGN.md maps each to the paper's setup). Benchmarks
time the ``run`` functions on prebuilt workloads; jobs print the
resulting table rows and EXPERIMENTS.md records paper vs measured.

Scales are parameters with defaults sized so the whole suite runs in
minutes on one 16-core host; the paper's absolute numbers come from
10^8-10^9-user production data, so only the *shape* (who wins, by
roughly what factor) is comparable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.bsi.bsi import BSI, sum_bsi
from repro.core.metrics105 import (
    TYPICAL_ABC,
    TYPICAL_UNIVERSE,
    MetricSpec,
    core_metrics_105,
)
from repro.platform import encode, genlog
from repro.platform import hashing as H
from repro.platform import storage as ST
from repro.platform.adhoc import AdhocEngine


# -- shared helpers ---------------------------------------------------
def _unit_positions(n_users: int, n_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """(segment, position) arrays indexed by analysis_unit_id - 1: the
    platform's §3.4.1 encoding of the whole universe."""
    users = genlog.user_universe(n_users)
    users["segment_id"] = H.segment_of(users["analysis_unit_id"].to_numpy(), n_segments)
    enc = encode.encoding_pandas(users).sort_values("analysis_unit_id")
    return enc["segment_id"].to_numpy(), enc["position"].to_numpy(np.uint32)


def _segment_bsis(
    users: np.ndarray,
    values: np.ndarray,
    seg: np.ndarray,
    pos: np.ndarray,
    n_segments: int,
) -> list[BSI | None]:
    """Split one metric-day into per-segment BSIs (None if empty)."""
    s = seg[users - 1]
    p = pos[users - 1]
    order = np.argsort(s, kind="stable")
    s, p, v = s[order], p[order], values[order]
    bounds = np.searchsorted(s, np.arange(n_segments + 1))
    out: list[BSI | None] = []
    for i in range(n_segments):
        lo, hi = bounds[i], bounds[i + 1]
        out.append(BSI.from_arrays(p[lo:hi], v[lo:hi]) if hi > lo else None)
    return out


# -- Table 4: storage of 105 metrics over a month ---------------------
@dataclass
class Table4Result:
    normal: ST.StorageStats
    bsi: ST.StorageStats
    codec: str

    def rows(self) -> list[tuple]:
        """Printable Table 4 rows: format, rows, compressed, original."""
        return [
            ("Normal", self.normal.rows, self.normal.compressed_bytes,
             self.normal.original_bytes),
            ("BSI", self.bsi.rows, self.bsi.compressed_bytes,
             self.bsi.original_bytes),
        ]


def table4_storage(
    *,
    n_users: int = 30_000,
    n_days: int = 29,
    n_segments: int = 4,
    specs: list[MetricSpec] | None = None,
    seed: int = 4,
) -> Table4Result:
    """Measure both formats over specs x n_days (paper: 105 x 29)."""
    specs = specs if specs is not None else core_metrics_105()
    seg, pos = _unit_positions(n_users, n_segments)
    normal = ST.StorageStats("normal")
    bsi = ST.StorageStats("bsi")
    for spec in specs:
        for date in range(1, n_days + 1):
            users, vals = genlog.metric_day(spec, n_users=n_users, date=date, seed=seed)
            buf = ST.normal_buffer(
                seg[users - 1], np.full(len(users), date),
                np.full(len(users), spec.metric_id), users, vals,
            )
            normal.add(len(users), buf)
            for b in _segment_bsis(users, vals, seg, pos, n_segments):
                if b is None:
                    continue
                blob = b.serialize()
                bsi.add_sizes(
                    1,
                    ST.BSI_KEY_BYTES + len(blob),
                    ST.BSI_KEY_BYTES + ST.compressed_size(blob),
                )
    return Table4Result(normal, bsi, ST.CODEC_NAME)


# -- Table 5/6: the three typical metrics -----------------------------
@dataclass
class TypicalMetricData:
    """Two days of one typical metric, in both representations."""

    name: str
    spec: MetricSpec
    rows: int  # per-day row count (day 1)
    original_bytes: int  # normal-format bytes of day 1
    value_range: int
    day_frames: list[pd.DataFrame]  # normal rows per day
    day_bsis: list[list[BSI | None]]  # per day, per segment


def table56_build(
    *,
    n_users: int = TYPICAL_UNIVERSE,
    n_segments: int = 4,
    seed: int = 56,
) -> dict[str, TypicalMetricData]:
    """Generate two days of metrics A/B/C (Table 5 shapes).

    Default 4 segments: rows are scaled x1e-3 from the paper, and
    1024 paper segments x 1e-3 of the data per segment ~= 4 segments
    at the paper's per-segment density (~300k rows/segment for A)."""
    seg, pos = _unit_positions(n_users, n_segments)
    out = {}
    for name, spec in TYPICAL_ABC.items():
        frames, bsis = [], []
        rows0 = orig0 = 0
        for date in (1, 2):
            users, vals = genlog.metric_day(spec, n_users=n_users, date=date, seed=seed)
            frames.append(
                pd.DataFrame({"user_id": users, "value": vals})
            )
            bsis.append(_segment_bsis(users, vals, seg, pos, n_segments))
            if date == 1:
                rows0 = len(users)
                orig0 = len(users) * ST.NORMAL_ROW_BYTES
        out[name] = TypicalMetricData(
            name, spec, rows0, orig0, spec.gen_range, frames, bsis
        )
    return out


def table6_run_bsi(data: TypicalMetricData) -> float:
    """Paper's Table 6 BSI task: sumBSI of the two day-BSIs, per
    segment, single-threaded. The deliverable is the summed BSI (as in
    the paper's task, which feeds later queries), so the anti-DCE
    checksum is just the result's slice count."""
    sink = 0
    for b1, b2 in zip(data.day_bsis[0], data.day_bsis[1]):
        if b1 is None and b2 is None:
            continue
        if b1 is None or b2 is None:
            sink += (b1 or b2).nslices()
        else:
            sink += b1.add(b2).nslices()
    return float(sink)


def table6_run_normal(data: TypicalMetricData) -> float:
    """Normal-format task: concat the two days and aggregate the sum
    per user (pandas columnar groupby, the baseline engine)."""
    df = pd.concat(data.day_frames, ignore_index=True)
    per_user = df.groupby("user_id", sort=False)["value"].sum()
    return float(per_user.sum())


# -- Table 7: Spark pre-computation -----------------------------------
@dataclass
class Table7Workload:
    expose_sdf: object
    metric_sdf: object
    expose_bsi: object
    metric_bsi: object
    strategy_ids: list[int]
    metric_ids: list[int]
    date: int
    n_pairs: int
    convert_s: float  # wall time of the normal→BSI conversion, cached


def table7_build(
    spark,
    *,
    n_users: int = 400_000,
    n_segments: int = 16,
    n_metrics: int = 16,
    n_experiments: int = 3,
    n_days: int = 3,
    seed: int = 7,
) -> Table7Workload:
    """Build the §6.2 pre-computation workload: row logs, their BSI
    conversions (cached, the conversion timed), and the strategy-metric
    pair batch."""
    all_specs = core_metrics_105()
    step = len(all_specs) // n_metrics
    specs = [all_specs[i * step] for i in range(n_metrics)]
    date = n_days  # score the last day
    experiments = [
        genlog.ExperimentSpec(
            experiment_id=i + 1, strategy_ids=(100 * (i + 1) + 1, 100 * (i + 1) + 2),
            traffic_pct=50.0,
        )
        for i in range(n_experiments)
    ]
    users = genlog.user_universe(n_users)
    metric = genlog.metric_log_pandas(
        specs, n_users=n_users, dates=[date], n_segments=n_segments, seed=seed
    )
    expose = genlog.expose_log_pandas(
        experiments, n_users=n_users, n_days=n_days, n_segments=n_segments, seed=seed
    )
    t0 = time.perf_counter()
    conv = encode.full_bsi_conversion(
        spark, users_pdf=users, metric_pdf=metric, expose_pdf=expose,
        n_segments=n_segments,
    )
    expose_bsi = conv["expose"].cache()
    metric_bsi = conv["metric"].cache()
    for df in (expose_bsi, metric_bsi):
        df.count()  # materialise caches so benches time only the query
    convert_s = time.perf_counter() - t0
    expose_sdf = spark.createDataFrame(expose).cache()
    metric_sdf = spark.createDataFrame(metric).cache()
    for df in (expose_sdf, metric_sdf):
        df.count()
    strategy_ids = [s for e in experiments for s in e.strategy_ids]
    metric_ids = [s.metric_id for s in specs]
    return Table7Workload(
        expose_sdf, metric_sdf, expose_bsi, metric_bsi,
        strategy_ids, metric_ids, date, len(strategy_ids) * len(metric_ids),
        convert_s,
    )


def table7_run_bsi(w: Table7Workload) -> pd.DataFrame:
    from repro.core import scorecard as SC

    return SC.scorecard_bsi(
        w.expose_bsi, w.metric_bsi,
        strategy_ids=w.strategy_ids, metric_ids=w.metric_ids, date=w.date,
    ).toPandas()


def table7_run_normal(w: Table7Workload) -> pd.DataFrame:
    from repro.core import scorecard as SC

    return SC.scorecard_normal(
        w.expose_sdf, w.metric_sdf,
        strategy_ids=w.strategy_ids, metric_ids=w.metric_ids, date=w.date,
    ).toPandas()


# -- Table 8: ad-hoc latency ------------------------------------------
@dataclass
class Table8Workload:
    engine: AdhocEngine
    strategy_ids: list[int]
    metric_ids: list[int]
    dates: list[int]


def table8_build(
    *,
    n_users: int = 120_000,
    n_segments: int = 4,
    n_metrics: int = 105,
    n_days: int = 7,
    workers: int = 1,
    seed: int = 8,
) -> Table8Workload:
    """§6.3: one 3-strategy experiment, the core metrics, one week."""
    specs = core_metrics_105()[:n_metrics]
    dates = list(range(1, n_days + 1))
    experiment = genlog.ExperimentSpec(
        experiment_id=1, strategy_ids=(1, 2, 3), traffic_pct=75.0
    )
    users = genlog.user_universe(n_users)
    metric = genlog.metric_log_pandas(
        specs, n_users=n_users, dates=dates, n_segments=n_segments, seed=seed
    )
    expose = genlog.expose_log_pandas(
        [experiment], n_users=n_users, n_days=n_days, n_segments=n_segments, seed=seed
    )
    engine = AdhocEngine.from_logs(
        users_pdf=users, metric_pdf=metric, expose_pdf=expose,
        n_segments=n_segments, dates=dates, workers=workers,
    )
    return Table8Workload(
        engine, [1, 2, 3], [s.metric_id for s in specs], dates
    )


def table8_run_bsi(w: Table8Workload) -> pd.DataFrame:
    return w.engine.query_bsi(
        strategy_ids=w.strategy_ids, metric_ids=w.metric_ids, dates=w.dates
    )


def table8_run_normal(w: Table8Workload) -> pd.DataFrame:
    return w.engine.query_normal(
        strategy_ids=w.strategy_ids, metric_ids=w.metric_ids, dates=w.dates
    )
