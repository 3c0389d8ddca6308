"""Smoke tests: every job entrypoint runs end-to-end at tiny scale
and emits the expected structure."""
import os
import sys

import pytest

JOBS_DIR = os.path.join(os.path.dirname(__file__), "..", "jobs")
sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module", autouse=True)
def _jobs_importable():
    assert os.path.isdir(JOBS_DIR)


def test_table3_job(capsys):
    import table3_value_ranges as j

    hist = j.run(n_users=2000)
    assert len(hist) == 8
    out = capsys.readouterr().out
    assert "Table 3" in out and "(0, 10]" in out


def test_table4_job(capsys):
    import table4_storage as j

    r = j.run(n_users=2000, n_days=2, n_segments=4)
    assert r.bsi.original_bytes < r.normal.original_bytes
    assert "Table 4" in capsys.readouterr().out


def test_table5_job(capsys):
    import table5_metric_details as j

    data = j.run(n_users=20_000)
    assert set(data) == {"A", "B", "C"}
    assert "Table 5" in capsys.readouterr().out


def test_table6_job(capsys):
    import table6_compute_time as j

    out = j.run(n_users=20_000, repeats=1)
    assert set(out) == {"A", "B", "C"}
    assert all(t > 0 for pair in out.values() for t in pair)
    assert "Table 6" in capsys.readouterr().out


def test_table7_job(spark, capsys):
    import table7_precompute as j

    out = j.run(spark, n_users=4000, repeats=1)
    assert out["Normal"] > 0 and out["BSI"] > 0 and out["Convert"] > 0
    text = capsys.readouterr().out
    assert "Table 7" in text and "Convert" in text


def test_table8_job(capsys):
    import table8_adhoc as j

    out = j.run(n_users=4000, repeats=1)
    assert out["Normal"] > 0 and out["BSI"] > 0 and out["table8_build"] > 0
    text = capsys.readouterr().out
    assert "Table 8" in text and "table8_build" in text and "store footprint" in text
    assert out["footprint"]["bsi_matrices"] > 0 and out["footprint"]["bsi_bitmaps"] == 0


def test_scorecard_demo_job(spark, capsys):
    import scorecard_demo as j

    res = j.run(spark, n_users=6000)
    assert res["raw"].p_value >= 0
    assert res["deepdive_rows"] > 0
    out = capsys.readouterr().out
    assert "Scorecard" in out and "CUPED" in out and "Deep dive" in out
