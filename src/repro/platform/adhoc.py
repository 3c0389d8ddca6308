"""In-process ad-hoc query engine — the ClickHouse substitute (§5.3).

The paper's topology: every segment lives on one node of a ClickHouse
cluster; a query runs locally per segment, in parallel, over cached
hot data; BSI ops are built into the engine. Here the same topology is
one process: a per-segment in-memory store, a thread pool fanning a
query out over segments, and two query methods sharing the store:

- ``query_bsi``      — the paper's BSI method: the scorecard kernel
  (:func:`repro.core.scorecard.score_segment`) once per segment for
  all the query's dates — per strategy, one pass of the expose-offset
  constant predicate for every date's constant -> one filter per
  (date, strategy) -> one grouped filtered sum
  (:func:`repro.bsi.bsi.grouped_sums`) of each date's filters over
  that date's requested metric BSIs, which cuts each value's packed
  slice matrix once per container key and counts each filter's
  exposed users in the same popcount pass.
- ``query_normal``   — the paper's pre-BSI method (§6.3): per-day
  exposed-user bitmaps cached per strategy (densified, like the BSI
  store); per segment and date, one columnar scan of the requested
  metrics' row-format rows: unit ids split into container key and low
  bits once, one membership test per strategy, one per-metric sum.

Both answer "for strategies S x metrics M x dates D: exposed count and
value sum per (s, m, d)", the Table 8 workload shape, with one row for
every requested (s, m, d), in request order: each segment yields
``(S, M, D)`` value and ``(S, D)`` exposed arrays, added up in segment
order. A repeated id, or a date the store did not load, raises
ValueError.

Loading (``from_logs``, the daily load into the nodes' cache) makes one
stable sort per log on a packed (segment, metric, date) or (segment,
strategy) key and one hash lookup from unit id to position; each group
is then a slice of the sorted columns, in log order, built by
:meth:`repro.bsi.bsi.BSI.from_arrays` straight into its packed form:
per container key, one slice matrix of the words its positions use. A
log that lists units by id gives each group in ascending position
(positions follow engagement, which falls with the id), so no group is
sorted again.
Unit ids must lie in [0, 2**32): the normal store keys its bitmaps by
them and keeps them as uint32, so the load rejects any other id rather
than wrap it. :meth:`AdhocEngine.footprint` reports the bytes the store
holds per component.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.bsi.bitmap import Probes, RoaringBitmap
from repro.bsi.bsi import BSI
from repro.core.scorecard import score_segment
from repro.platform import hashing as H
from repro.platform.encode import encoding_pandas


@dataclass
class _Segment:
    """One node's cache: BSI store + normal-format columnar store."""

    # BSI store
    metric_bsi: dict[tuple[int, int], BSI] = field(default_factory=dict)
    expose_bsi: dict[int, tuple[int, BSI]] = field(default_factory=dict)  # sid -> (min_date, offset)
    # normal store
    metric_rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )  # (metric, date) -> (uint32 user ids, values)
    expose_day_bitmaps: dict[tuple[int, int], RoaringBitmap] = field(
        default_factory=dict
    )  # (sid, date) -> bitmap of user ids exposed by that day


_NO_ROWS = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64))


def _unit_ids(log: pd.DataFrame, what: str) -> np.ndarray:
    """The frame's ``analysis_unit_id`` column as uint32; ValueError
    naming the first id outside [0, 2**32), which the normal store's
    unit-id bitmaps cannot hold."""
    uid = log["analysis_unit_id"].to_numpy()
    if len(uid) and (uid.min() < 0 or uid.max() > 0xFFFFFFFF):
        bad = uid[(uid < 0) | (uid > 0xFFFFFFFF)][0]
        raise ValueError(f"{what} analysis_unit_id {bad} is outside [0, 2**32)")
    return uid.astype(np.uint32)


def _segment_ids(log: pd.DataFrame, n_segments: int, what: str) -> np.ndarray:
    """The log's ``segment_id`` column; ValueError if one is outside
    [0, n_segments)."""
    seg = log["segment_id"].to_numpy().astype(np.int64)
    if len(seg) and (seg.min() < 0 or seg.max() >= n_segments):
        raise ValueError(f"{what} log segment_id outside [0, {n_segments})")
    return seg


def _sorted_groups(
    key: np.ndarray, n_keys: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """One stable sort of the rows by ``key`` (ints in [0, n_keys]; rows
    keyed ``n_keys`` are dropped). Returns the kept rows' order and,
    per distinct key, ``(key, start, end)`` bounds in that order. The
    key is narrowed to the smallest unsigned dtype that holds
    ``n_keys``, so a key of at most 16 bits sorts by radix."""
    key = key.astype(np.min_scalar_type(n_keys))
    order = np.argsort(key, kind="stable")
    ks = key[order]
    n = int(np.searchsorted(ks, n_keys))
    order, ks = order[:n], ks[:n]
    bounds = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), n]
    return order, [(int(ks[a]), a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


class AdhocEngine:
    """Per-segment cached store + segment-parallel query execution."""

    def __init__(self, n_segments: int, workers: int | None = None):
        # workers defaults to 1: the numpy kernels are too fine-grained
        # for Python threads (GIL contention dominates); >1 is kept for
        # the paper's per-node-parallel topology and for tests.
        self.n_segments = n_segments
        self.segments = [_Segment() for _ in range(n_segments)]
        self.workers = workers or 1
        self.dates: frozenset[int] = frozenset()  # the dates from_logs loaded

    # -- loading ------------------------------------------------------
    @classmethod
    def from_logs(
        cls,
        *,
        users_pdf: pd.DataFrame,
        metric_pdf: pd.DataFrame,
        expose_pdf: pd.DataFrame,
        n_segments: int,
        dates: list[int],
        workers: int | None = None,
    ) -> "AdhocEngine":
        """Build both stores from raw logs (same encoding the Spark
        pipeline uses, so results agree bit-for-bit).

        Each log is loaded with one stable sort: its rows are keyed by
        (segment, metric, date) — metric rows of other dates are keyed
        past the end and cut — or (segment, strategy), and every group
        is a contiguous slice of the sorted columns, in log order
        within the group. Unit ids map to positions by one hash lookup
        into the encoded ids (ids need not be dense); a row whose unit
        is not in ``users_pdf`` raises ValueError, as does an id outside
        [0, 2**32) in any of the three frames; the row store keeps the
        ids as uint32. BSIs are built packed and the per-day
        exposed-user bitmaps densified: the compute forms."""
        eng = cls(n_segments, workers)
        eng.dates = frozenset(int(d) for d in dates)
        u = users_pdf.copy()
        uid = _unit_ids(u, "users_pdf")
        if "segment_id" not in u.columns:
            u["segment_id"] = H.segment_of(uid, n_segments)
        enc = encoding_pandas(u)
        unit_index = pd.Index(enc["analysis_unit_id"].to_numpy().astype(np.uint32))
        unit_pos = enc["position"].to_numpy().astype(np.uint32)

        def positions(uids: np.ndarray, log: str) -> np.ndarray:
            i = unit_index.get_indexer(uids)  # -1: not an encoded unit
            if (i < 0).any():
                raise ValueError(
                    f"{log} log row with analysis_unit_id {uids[i < 0][0]} "
                    "is not in users_pdf"
                )
            return unit_pos[i]

        # metric log: key (segment, metric, date), requested dates only
        day = np.unique(np.asarray(dates, dtype=np.int64))
        dcode = pd.Index(day).get_indexer(metric_pdf["date"].to_numpy())
        mcode, mids = pd.factorize(metric_pdf["metric_id"].to_numpy(), sort=True)
        n_keys = n_segments * len(mids) * len(day)
        key = (
            _segment_ids(metric_pdf, n_segments, "metric") * len(mids) + mcode
        ) * len(day) + dcode
        key[dcode < 0] = n_keys
        order, groups = _sorted_groups(key, n_keys)
        del key, dcode, mcode  # 8 bytes per log row each: freed before the store is built
        uids = _unit_ids(metric_pdf, "metric log")[order]
        vals = metric_pdf["value"].to_numpy()[order]
        pos = positions(uids, "metric")
        for k, a, b in groups:
            seg, rest = divmod(k, len(mids) * len(day))
            mkey = (int(mids[rest // len(day)]), int(day[rest % len(day)]))
            s = eng.segments[seg]
            s.metric_rows[mkey] = (uids[a:b], vals[a:b])
            # hot cached compute form: packed slice matrices (§5.3
            # keeps hot data resident; bitset words are our SIMD-op
            # equivalent)
            s.metric_bsi[mkey] = BSI.from_arrays(pos[a:b], vals[a:b])

        # expose log: key (segment, strategy)
        scode, sids = pd.factorize(expose_pdf["strategy_id"].to_numpy(), sort=True)
        key = _segment_ids(expose_pdf, n_segments, "expose") * len(sids) + scode
        order, groups = _sorted_groups(key, n_segments * len(sids))
        uids = _unit_ids(expose_pdf, "expose log")[order]
        feds = expose_pdf["first_expose_date"].to_numpy()[order]
        pos = positions(uids, "expose")
        for k, a, b in groups:
            seg, sid = k // len(sids), int(sids[k % len(sids)])
            s = eng.segments[seg]
            fed = feds[a:b]
            min_date = int(fed.min())
            s.expose_bsi[sid] = (
                min_date,
                BSI.from_arrays(pos[a:b], fed - min_date + 1),
            )
            for d in dates:
                s.expose_day_bitmaps[(sid, int(d))] = RoaringBitmap.from_array(
                    uids[a:b][fed <= d]
                ).densify()
        return eng

    def footprint(self) -> dict[str, int]:
        """Bytes the store holds in memory, by component (the node
        cache's footprint is its capacity, §5.3): the BSIs' packed
        slice matrices (``bsi_matrices``), and the normal store's unit
        ids and values (``normal_rows``) and per-day exposed-user
        bitmaps (``expose_bitmaps``)."""
        out = dict.fromkeys(("bsi_matrices", "normal_rows", "expose_bitmaps"), 0)
        for s in self.segments:
            for b in [*s.metric_bsi.values(), *(b for _, b in s.expose_bsi.values())]:
                out["bsi_matrices"] += b.held_bytes()
            out["normal_rows"] += sum(u.nbytes + v.nbytes for u, v in s.metric_rows.values())
            out["expose_bitmaps"] += sum(bm.held_bytes() for bm in s.expose_day_bitmaps.values())
        return out

    # -- queries ------------------------------------------------------
    def _fan_out(self, per_segment, strategy_ids, metric_ids, dates) -> pd.DataFrame:
        """Check the query, run ``per_segment`` over every segment and
        add up its ``(value_sum, exposed)`` arrays, shaped ``(strategy,
        metric, date)`` and ``(strategy, date)`` over the requested ids,
        into the full requested grid. Raises ValueError on a repeated
        id (each would be counted into one cell again) or on a date
        the engine did not load."""
        for what, ids in (("strategy", strategy_ids), ("metric", metric_ids), ("date", dates)):
            if len(set(ids)) != len(ids):
                raise ValueError(f"repeated {what} ids in the query: {list(ids)}")
        missing = [d for d in dates if d not in self.dates]
        if missing:
            raise ValueError(f"dates {missing} were not loaded (loaded: {sorted(self.dates)})")
        if self.workers <= 1:
            parts = [per_segment(i) for i in range(self.n_segments)]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as ex:
                parts = list(ex.map(per_segment, range(self.n_segments)))
        n_s, n_m, n_d = len(strategy_ids), len(metric_ids), len(dates)
        value = np.zeros((n_s, n_m, n_d))
        exposed = np.zeros((n_s, n_d), dtype=np.int64)
        for v, n in parts:
            value += v
            exposed += n
        return pd.DataFrame({
            "strategy_id": np.repeat(np.array(strategy_ids, dtype=np.int64), n_m * n_d),
            "metric_id": np.tile(np.repeat(np.array(metric_ids, dtype=np.int64), n_d), n_s),
            "date": np.tile(np.array(dates, dtype=np.int64), n_s * n_m),
            "value_sum": value.ravel(),
            "exposed": np.repeat(exposed, n_m, axis=0).ravel(),
        })

    def query_bsi(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """BSI method: the scorecard kernel over each segment's store,
        once per segment for all the query's dates."""

        def per_segment(i: int) -> tuple[np.ndarray, np.ndarray]:
            s = self.segments[i]
            here = [j for j, sid in enumerate(strategy_ids) if sid in s.expose_bsi]
            exposes = [(strategy_ids[j], *s.expose_bsi[strategy_ids[j]], None) for j in here]
            sums, exposed = score_segment(
                exposes, s.metric_bsi, dates=dates, metric_ids=metric_ids
            )
            value = np.zeros((len(strategy_ids), len(metric_ids), len(dates)))
            count = np.zeros((len(strategy_ids), len(dates)), dtype=np.int64)
            value[here] = sums[:, :, 0].transpose(1, 2, 0)
            count[here] = exposed[:, :, 0].T
            return value, count

        return self._fan_out(per_segment, strategy_ids, metric_ids, dates)

    def query_normal(
        self, *, strategy_ids: list[int], metric_ids: list[int], dates: list[int]
    ) -> pd.DataFrame:
        """Normal method (§6.3), one columnar scan per segment and date:
        the requested metrics' rows are read as one column whose unit
        ids are split into container key and low 16 bits once; per
        strategy, one membership test against that day's cached
        exposed-user bitmap, then one exact ``np.add.reduceat`` sums
        the matched values per metric."""

        def per_segment(i: int) -> tuple[np.ndarray, np.ndarray]:
            s = self.segments[i]
            value = np.zeros((len(strategy_ids), len(metric_ids), len(dates)))
            count = np.zeros((len(strategy_ids), len(dates)), dtype=np.int64)
            for t, d in enumerate(dates):
                bitmaps = [
                    (j, s.expose_day_bitmaps[(sid, d)])
                    for j, sid in enumerate(strategy_ids)
                    if (sid, d) in s.expose_day_bitmaps
                ]
                if not bitmaps:
                    continue
                recs = [s.metric_rows.get((mid, d), _NO_ROWS) for mid in metric_ids]
                probes = Probes(np.concatenate([u for u, _ in recs]))
                vals = np.concatenate([v for _, v in recs])
                lengths = np.array([len(u) for u, _ in recs])
                # reduceat over the non-empty pieces only: it would
                # repeat the first element of an empty one
                full = lengths > 0
                starts = (np.cumsum(lengths) - lengths)[full]
                for j, bm in bitmaps:
                    hit = vals * bm.contains_array(probes)
                    value[j, full, t] = np.add.reduceat(hit, starts)
                    count[j, t] = bm.cardinality()
            return value, count

        return self._fan_out(per_segment, strategy_ids, metric_ids, dates)
