"""Evaluation harness: workload builders are lossless and both
methods of every table agree; densify preserves semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.bsi.bsi import BSI
from repro.core import evaluation as E
from repro.core.metrics105 import MetricSpec, core_metrics_105

SMALL_SPECS = [
    MetricSpec(metric_id=1, name="s1", range_card=1, gen_range=1,
               participation=0.4, pareto_a=1.2),
    MetricSpec(metric_id=2, name="s2", range_card=200, gen_range=200,
               participation=0.3, pareto_a=1.2),
]


def test_segment_bsis_lossless():
    n, segs = 3000, 4
    enc = E._encoding(n, segs)
    g = np.random.default_rng(0)
    users = np.unique(g.integers(1, n + 1, 1200))
    vals = g.integers(1, 500, len(users)).astype(np.uint64)
    total = 0
    cnt = 0
    for b in E._segment_bsis(enc, users, vals, segs):
        if b is not None:
            total += b.sum()
            cnt += b.count()
    assert total == vals.sum()
    assert cnt == len(users)


def test_densify_preserves_semantics():
    g = np.random.default_rng(1)
    pos = np.unique(g.integers(0, 100_000, 3000)).astype(np.uint32)
    vals = g.integers(1, 1000, len(pos)).astype(np.uint64)
    a = BSI.from_arrays(pos, vals)
    b = BSI.from_arrays(pos, vals).densify()
    assert a.sum() == b.sum()
    assert a.count() == b.count()
    assert (a.le_const(100) == b.le_const(100))
    flt = a.compare_const("gt", [500])[0]
    assert a.sum_filtered(flt) == b.sum_filtered(flt)
    s = a.add(b)
    assert s.sum() == 2 * a.sum()
    # serialization canonicalises both to identical bytes
    assert a.serialize() == b.serialize()


def test_table4_small_scale():
    r = E.table4_storage(n_users=3000, n_days=4, n_segments=4, specs=SMALL_SPECS)
    assert r.normal.rows > 0 and r.bsi.rows == 2 * 4 * 4 or r.bsi.rows <= 2 * 4 * 4
    # BSI original far below normal original; BSI ~already compressed
    assert r.bsi.original_bytes < r.normal.original_bytes / 2
    assert r.bsi.compressed_bytes > 0.4 * r.bsi.original_bytes
    assert r.normal.compressed_bytes < r.normal.original_bytes
    rows = r.rows()
    assert rows[0][0] == "Normal" and rows[1][0] == "BSI"


def test_table56_build_shapes():
    data = E.table56_build(n_users=20_000, n_segments=4)
    a, b, c = data["A"], data["B"], data["C"]
    # row ordering mirrors Table 5: C > A > B
    assert c.rows > a.rows > b.rows
    assert a.value_range == 1 and b.value_range == 50 and c.value_range == 21_600
    assert len(a.day_frames) == 2 and len(a.day_bsis) == 2


def test_table6_runners_agree_on_totals():
    data = E.table56_build(n_users=20_000, n_segments=4)
    for d in data.values():
        E.table6_run_bsi(d)  # smoke (returns slice-count sink)
        normal_total = E.table6_run_normal(d)
        bsi_total = sum(
            b.sum()
            for day in d.day_bsis
            for b in day
            if b is not None
        )
        raw_total = sum(f["value"].sum() for f in d.day_frames)
        assert bsi_total == raw_total
        assert normal_total == raw_total


def test_table8_methods_agree_small():
    w = E.table8_build(n_users=4000, n_segments=4, n_metrics=6, n_days=3)
    a = E.table8_run_bsi(w).sort_values(
        ["strategy_id", "metric_id", "date"]).reset_index(drop=True)
    b = E.table8_run_normal(w).sort_values(
        ["strategy_id", "metric_id", "date"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a.astype("float64"), b.astype("float64"))
    assert len(a) == 3 * 6 * 3


def test_table7_methods_agree_small(spark):
    w = E.table7_build(
        spark, n_users=3000, n_segments=4, n_metrics=3, n_experiments=1
    )
    a = (
        E.table7_run_bsi(w)
        .sort_values(["strategy_id", "metric_id", "bucket_id"])
        .reset_index(drop=True)
    )
    b = (
        E.table7_run_normal(w)
        .sort_values(["strategy_id", "metric_id", "bucket_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a.astype("float64"), b.astype("float64"))
    assert w.n_pairs == 2 * 3
