"""Position encoding + BSI conversion: §3.4 invariants and lossless
round-trips between normal and BSI representations."""
import numpy as np
import pandas as pd
import pytest

from repro.bsi.bsi import BSI
from repro.platform import encode, genlog
from repro.platform import hashing as H
from tests.conftest import N_DAYS, N_SEGMENTS, N_USERS


def _enc_pdf(world):
    return encode.encoding_pandas(
        world.users.assign(
            segment_id=H.segment_of(world.users["analysis_unit_id"].to_numpy(), N_SEGMENTS)
        )
    )


def test_positions_dense_per_segment(world):
    enc = _enc_pdf(world)
    for seg, grp in enc.groupby("segment_id"):
        assert sorted(grp["position"]) == list(range(len(grp)))


def test_heavy_users_get_small_positions(world):
    enc = _enc_pdf(world)
    # engagement decreases with id, so position order == id order per segment
    for seg, grp in enc.groupby("segment_id"):
        srt = grp.sort_values("analysis_unit_id")
        assert (srt["position"].to_numpy() == np.arange(len(srt))).all()


def test_spark_encoding_matches_pandas(world, spark):
    got = (
        world.encoding.toPandas()
        .sort_values(["segment_id", "position"])
        .reset_index(drop=True)
    )
    exp = (
        _enc_pdf(world)
        .sort_values(["segment_id", "position"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["analysis_unit_id", "segment_id", "position"]].astype("int64"),
        exp[["analysis_unit_id", "segment_id", "position"]].astype("int64"),
    )


def test_metric_bsi_one_row_per_segment_date_metric(world):
    pdf = world.metric_bsi.toPandas()
    assert not pdf.duplicated(["segment_id", "date", "metric_id"]).any()
    raw_keys = world.metric.groupby(["segment_id", "date", "metric_id"]).size()
    assert len(pdf) == len(raw_keys)


def test_metric_bsi_roundtrip_lossless(world):
    """Decoding every metric BSI reproduces the raw rows exactly."""
    enc = _enc_pdf(world).set_index(["segment_id", "position"])["analysis_unit_id"]
    pdf = world.metric_bsi.toPandas()
    rebuilt = []
    for r in pdf.itertuples(index=False):
        pos, vals = BSI.deserialize(r.value).to_arrays()
        ids = enc.loc[[(r.segment_id, int(p)) for p in pos]].to_numpy()
        rebuilt.append(
            pd.DataFrame(
                {
                    "date": r.date,
                    "metric_id": r.metric_id,
                    "analysis_unit_id": ids,
                    "value": vals.astype("int64"),
                }
            )
        )
    rebuilt = (
        pd.concat(rebuilt)
        .sort_values(["date", "metric_id", "analysis_unit_id"])
        .reset_index(drop=True)
    )
    raw = (
        world.metric[["date", "metric_id", "analysis_unit_id", "value"]]
        .sort_values(["date", "metric_id", "analysis_unit_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        rebuilt.astype("int64"), raw.astype("int64"), check_dtype=False
    )


def test_expose_bsi_offsets(world):
    """offset = first_expose_date - min + 1, all >= 1 (zero = missing)."""
    pdf = world.expose_bsi.toPandas()
    for r in pdf.itertuples(index=False):
        off = BSI.deserialize(r.offset)
        assert off.min() >= 1
        raw = world.expose[
            (world.expose.strategy_id == r.strategy_id)
            & (world.expose.segment_id == r.segment_id)
        ]
        assert r.min_expose_date == raw["first_expose_date"].min()
        assert off.count() == len(raw)
        assert off.max() == raw["first_expose_date"].max() - r.min_expose_date + 1


def test_expose_bsi_buckets(world):
    """bucket BSI stores bucket_of(randomization_unit)+1 per position."""
    pdf = world.expose_bsi.toPandas()
    r = pdf.iloc[0]
    b = BSI.deserialize(r.bucket)
    assert 1 <= b.min() and b.max() <= N_SEGMENTS
    off = BSI.deserialize(r.offset)
    assert b.existence() == off.existence()  # same exposed population


def test_expose_bsi_covers_all_strategies(world):
    pdf = world.expose_bsi.toPandas()
    got = pdf.groupby("strategy_id")["segment_id"].nunique()
    assert (got == N_SEGMENTS).all()


def test_dimension_bsi_values(world):
    pdf = world.dim_bsi.toPandas()
    row = pdf[pdf.dimension_name == "client-type"].iloc[0]
    b = BSI.deserialize(row.value)
    assert 1 <= b.min() and b.max() <= 5
    # every user appears: dimension log covers the full universe
    seg_users = (world.users.assign(
        segment_id=H.segment_of(world.users["analysis_unit_id"].to_numpy(), N_SEGMENTS)
    )["segment_id"] == row.segment_id).sum()
    assert b.count() == seg_users


def test_conversion_rejects_negative_values(world, spark):
    """A bad metric value fails the conversion instead of being stored
    as a wrapped 64-bit integer."""
    bad = world.metric[world.metric.date == 1].head(50).copy()
    bad.loc[bad.index[0], "value"] = -1
    with pytest.raises(Exception, match="negative value"):
        encode.log_to_bsi(
            spark.createDataFrame(bad), world.encoding, key="metric_id"
        ).collect()
