"""Stored pre-aggregate tree (Figure 6): the nodes a covering reads
fold to the days the log has in the range, with few nodes."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsi.bsi import BSI, sum_bsi
from repro.platform import preagg
from repro.platform.preagg import cover, upper_nodes
from tests.test_bsi_arith import as_dict, rand_dict, ref


def _days(n, seed0=100):
    return {d: rand_dict(seed0 + d, n=200, vmax=50) for d in range(1, n + 1)}


def stored(days: dict[int, BSI]) -> dict[tuple[int, int], BSI]:
    """Every stored node: the days themselves, then the upper levels."""
    nodes = {(d, d): b for d, b in days.items()}
    nodes.update({(lo, hi): b for lo, hi, b in upper_nodes(days)})
    return nodes


def fold(nodes, lo, hi) -> dict:
    return as_dict(sum_bsi(nodes[c] for c in cover(lo, hi) if c in nodes))


def sum_days(days: dict[int, dict], lo, hi) -> dict:
    out = {}
    for d, x in days.items():
        if lo <= d <= hi:
            for p, v in x.items():
                out[p] = out.get(p, 0) + v
    return out


def bound(n_days):
    return max(1, 2 * math.ceil(math.log2(n_days)))


@pytest.mark.parametrize("n_days", [1, 2, 5, 7, 8, 13])
def test_full_range_sum(n_days):
    days = _days(n_days)
    nodes = stored({d: ref(x) for d, x in days.items()})
    assert fold(nodes, 1, n_days) == sum_days(days, 1, n_days)


@pytest.mark.parametrize("lo,hi", [(1, 7), (2, 5), (3, 3), (1, 1), (4, 7)])
def test_partial_ranges(lo, hi):
    days = _days(7)
    nodes = stored({d: ref(x) for d, x in days.items()})
    assert fold(nodes, lo, hi) == sum_days(days, lo, hi)


def test_paper_example_seven_days_three_nodes():
    """Fig. 6: sumBSI for day 1..7 merges 3 nodes (1234, 56, 7)."""
    assert cover(1, 7) == [(1, 4), (5, 6), (7, 7)]


@pytest.mark.parametrize("lo,hi,naive", [(1, 7, 7), (1, 4, 4), (2, 7, 6)])
def test_fewer_merges_than_naive(lo, hi, naive):
    assert len(cover(lo, hi)) <= bound(naive)
    assert len(cover(lo, hi)) <= naive


def test_out_of_range_raises():
    """Days are 1-based and a range is not empty; past the log's last
    day is allowed (see the hypothesis test)."""
    with pytest.raises(ValueError):
        cover(0, 3)
    with pytest.raises(ValueError):
        cover(3, 2)


def test_missing_days_are_empty():
    days = {1: rand_dict(201), 3: rand_dict(202)}  # day 2 missing
    nodes = stored({d: ref(x) for d, x in days.items()})
    assert fold(nodes, 1, 3) == sum_days(days, 1, 3)
    assert (2, 2) not in nodes
    assert fold(nodes, 2, 2) == {}


@settings(max_examples=60, deadline=None)
@given(
    day_set=st.sets(st.integers(1, 70), min_size=1, max_size=40),
    lo=st.integers(1, 80),
    length=st.integers(1, 80),
    seed=st.integers(0, 2**16),
)
def test_stored_nodes_fold_to_days(day_set, lo, length, seed):
    """Random days with gaps and random ranges, some past the last day:
    a node is stored iff its range holds a day, it holds the sum of
    those days, and folding a range's covering nodes gives the sum of
    its days from at most 2·⌈log₂C⌉ nodes."""
    days = {d: rand_dict(seed + d, n=20, vmax=9) for d in day_set}
    nodes = stored({d: ref(x) for d, x in days.items()})
    for (a, b), node in nodes.items():
        span = b - a + 1
        assert span & (span - 1) == 0 and span <= 2**preagg.TOP_LEVEL
        assert (a - 1) % span == 0
        assert any(a <= d <= b for d in days)
        assert as_dict(node) == sum_days(days, a, b)
    for d in days:
        for lv in range(preagg.TOP_LEVEL + 1):
            a = ((d - 1) >> lv << lv) + 1
            assert (a, a + (1 << lv) - 1) in nodes
    hi = lo + length - 1
    c = cover(lo, hi)
    assert len(c) <= bound(length)
    assert [d for a, b in c for d in range(a, b + 1)] == list(range(lo, hi + 1))
    assert fold(nodes, lo, hi) == sum_days(days, lo, hi)


def test_metric_tree_frame_holds_the_stored_nodes(world):
    """The conversion's tree frame: day rows byte-for-byte as in the
    metric frame, and above them exactly the nodes of ``upper_nodes``."""
    tree = world.metric_tree.toPandas()
    days = world.metric_bsi.toPandas()
    for (seg, mid), grp in days.groupby(["segment_id", "metric_id"]):
        blobs = {int(r.date): r.value for r in grp.itertuples(index=False)}
        want = {(d, d): v for d, v in blobs.items()}
        want.update({
            (lo, hi): b.serialize()
            for lo, hi, b in upper_nodes(
                {d: BSI.deserialize(v) for d, v in blobs.items()}
            )
        })
        t = tree[(tree.segment_id == seg) & (tree.metric_id == mid)]
        got = {(int(r.date_lo), int(r.date_hi)): r.value for r in t.itertuples(index=False)}
        assert len(t) == len(got)
        assert got == want
