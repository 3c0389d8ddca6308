"""The benchmark workloads.

Each workload is one closed-loop client: it builds its inputs from the
workload seed (``build``), then issues one operation at a time through
the BSI method and through the normal-format baseline (``run``) and
waits for each result. ``check`` compares a result with a reference
computed from the row logs. ``replay`` runs the per-layer
measurements of the traced run that cannot be taken by wrapping calls
in this process, because in the pipeline they run inside Spark's
Python workers.

Sizes come from ``spec.json``; why each workload exists is stated in
``BENCHMARK.json`` and ``README.md``.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from perfbench import checks
from perfbench.spans import Tracer
from repro.bsi.bitmap import RoaringBitmap
from repro.bsi.bsi import BSI
from repro.core import scorecard as SC
from repro.core.metrics105 import core_metrics_105
from repro.platform import encode, genlog
from repro.platform import hashing as H
from repro.platform import storage as ST
from repro.platform.adhoc import AdhocEngine

METHODS = ("bsi", "normal")


def _users(n_users: int, n_segments: int) -> pd.DataFrame:
    users = genlog.user_universe(n_users)
    users["segment_id"] = H.segment_of(users["analysis_unit_id"].to_numpy(), n_segments)
    return users


def _experiments(n_experiments: int, traffic_pct: float) -> list:
    return [
        genlog.ExperimentSpec(
            experiment_id=i + 1,
            strategy_ids=(100 * (i + 1) + 1, 100 * (i + 1) + 2),
            traffic_pct=traffic_pct,
        )
        for i in range(n_experiments)
    ]


def _spread_metrics(n_metrics: int) -> list:
    """Every k-th catalog metric, as in the Table 7 batch: a fixed mix
    of value ranges and participations, the same for every seed."""
    specs = core_metrics_105()
    step = len(specs) // n_metrics
    return [specs[i * step] for i in range(n_metrics)]


def _storage_ratio(blob_lengths, n_rows: int) -> float:
    """Table 4 accounting: BSI key + blob bytes per normal-format byte."""
    bsi = sum(ST.BSI_KEY_BYTES + int(n) for n in blob_lengths)
    return bsi / (n_rows * ST.NORMAL_ROW_BYTES)


def container_kinds(blob: bytes) -> Counter:
    """Container kinds stored in one serialized BSI blob: for each
    container, the encoding ``serialize`` picks for it."""
    kinds: Counter = Counter()
    for s in BSI.deserialize(blob).slices:
        for c in s._c.values():
            kinds[("array", "bitset", "run")[RoaringBitmap._encode_container(c)[0]]] += 1
    return kinds


def _typed_empty(schema: list[tuple[str, str]]) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in schema})


_RESULT_COLS = [
    ("strategy_id", "int64"), ("metric_id", "int64"), ("bucket_id", "int32"),
    ("bucket_sum", "float64"), ("bucket_exposed", "int64"),
]


def _noop_cogroup(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    return _typed_empty(_RESULT_COLS)


def _noop_rows(it):
    for _ in it:
        yield _typed_empty(_RESULT_COLS)


def _noop_metric_blob(pdf: pd.DataFrame) -> pd.DataFrame:
    head = pdf.iloc[0]
    return pd.DataFrame({
        "segment_id": [int(head["segment_id"])], "date": [int(head["date"])],
        "metric_id": [int(head["metric_id"])], "value": [b""],
    })


def _noop_expose_blob(pdf: pd.DataFrame) -> pd.DataFrame:
    head = pdf.iloc[0]
    return pd.DataFrame({
        "segment_id": [int(head["segment_id"])],
        "strategy_id": [int(head["strategy_id"])],
        "min_expose_date": [int(pdf["first_expose_date"].min())],
        "offset": [b""], "bucket": [b""],
    })


class Workload:
    name = ""
    uses_spark = True
    pass_size = 1  # operations per pass; the timed loop stops between passes
    min_ops = 1  # BSI operations the timed loop makes at least
    rotate_cpus = False  # pin each operation to the next CPU in turn (run.Loop)
    tail_pct = 90  # the percentile bsi_tail_s reports

    def methods(self, i: int) -> tuple[str, ...]:
        """The methods that answer operation ``i``, in order."""
        return METHODS

    def __init__(self, sizes: dict, seed: int, spark, tracer: Tracer):
        self.sizes = sizes
        self.seed = seed
        self.spark = spark
        self.tr = tracer

    def op_span(self, method: str) -> str:
        raise NotImplementedError

    def check_setup(self) -> list[bool]:
        """Checks of what the set-up built, made by the traced run."""
        return []


# -- adhoc ------------------------------------------------------------
class Adhoc(Workload):
    """Table 8-shaped ad-hoc queries on the in-process engine."""

    name = "adhoc"
    uses_spark = False
    rotate_cpus = True  # the queries run in this process
    # p75 over at least 40 queries leaves at least 10 beyond it.
    min_ops = 40
    tail_pct = 75

    @property
    def pass_size(self) -> int:
        return len(self.sizes["metric_counts"])

    def build(self) -> None:
        z = self.sizes
        self.dates = list(range(1, z["n_days"] + 1))
        self.strategy_ids = list(range(1, z["strategies"] + 1))
        with self.tr.span("genlog"):
            users = genlog.user_universe(z["n_users"])
            specs = core_metrics_105()[: z["n_metrics"]]
            self.metric = genlog.metric_log_pandas(
                specs, n_users=z["n_users"], dates=self.dates,
                n_segments=z["n_segments"], seed=self.seed,
            )
            self.expose = genlog.expose_log_pandas(
                [genlog.ExperimentSpec(
                    experiment_id=1, strategy_ids=tuple(self.strategy_ids),
                    traffic_pct=z["traffic_pct"],
                )],
                n_users=z["n_users"], n_days=z["n_days"],
                n_segments=z["n_segments"], seed=self.seed,
            )
        with self.tr.span("adhoc.from_logs"):
            self.engine = AdhocEngine.from_logs(
                users_pdf=users, metric_pdf=self.metric, expose_pdf=self.expose,
                n_segments=z["n_segments"], dates=self.dates, workers=1,
            )

    def prepare(self) -> None:
        z = self.sizes
        self.ref = checks.AdhocReference(
            self.expose, self.metric, n_users=z["n_users"],
            strategy_ids=self.strategy_ids, n_metrics=z["n_metrics"], dates=self.dates,
        )
        # Timed queries come in passes over a fixed list of query sizes,
        # each pass in a fresh seeded order. The list holds two shapes,
        # nine narrow queries (10 metrics) to one full Table 8 query
        # (all 105). The ratio is a choice, not a measured traffic mix:
        # narrow queries are the common case, so the median (bsi_s) and
        # the p75 (bsi_tail_s) both fall on them and each metric reads
        # queries of one cost. The normal baseline answers the narrow
        # queries only: normal_s is their median, and a full normal
        # query (1-2 s) would take the time of ten narrow ones. A query
        # of k metrics takes every (n/k)-th catalog metric, so it spans
        # the catalog's value-range classes. Query 0 (all metrics) is
        # the warm-up.
        n = z["n_metrics"]
        order = np.random.default_rng((self.seed, 0xAD))
        self.queries = [list(range(1, n + 1))]
        for _ in range(64):
            for k in order.permutation(z["metric_counts"]):
                self.queries.append(sorted({j * n // int(k) + 1 for j in range(int(k))}))
        self.n_rows_last_day = int((self.metric["date"] == self.dates[-1]).sum())

    def query(self, i: int) -> dict:
        return dict(
            strategy_ids=self.strategy_ids,
            metric_ids=self.queries[i % len(self.queries)],
            dates=self.dates,
        )

    def methods(self, i: int) -> tuple[str, ...]:
        full = len(self.query(i)["metric_ids"]) == self.sizes["n_metrics"]
        return ("bsi",) if full else METHODS

    def op_span(self, method: str) -> str:
        return f"adhoc.query_{method}"

    def run(self, method: str, i: int):
        q = self.query(i)
        if method == "bsi":
            return self.engine.query_bsi(**q)
        return self.engine.query_normal(**q)

    def check(self, method: str, i: int, out) -> bool:
        want = self.ref.expected(**self.query(i))
        return checks.grid_matches(out, want, checks.ADHOC_KEYS, checks.ADHOC_VALUES)

    def storage_ratio(self) -> float:
        """Over the last day of the store (serializing every day would
        cost more than the timed loop)."""
        d = self.dates[-1]
        lengths = [
            b.nbytes()
            for seg in self.engine.segments
            for (mid, day), b in seg.metric_bsi.items()
            if day == d
        ]
        return _storage_ratio(lengths, self.n_rows_last_day)

    def replay(self) -> dict:
        return {}


# -- Spark scorecards -------------------------------------------------
class Scorecard(Workload):
    """Table 7 batch: ``scorecard_bsi`` vs ``scorecard_normal`` over
    cached frames, bucket == segment. Its set-up is the daily
    normal→BSI conversion of the same logs, which the traced run also
    checks blob by blob and breaks into layers."""

    name = "scorecard"
    bucketed = False

    def build(self) -> None:
        z = self.sizes
        self.date = z["n_days"]
        specs = _spread_metrics(z["n_metrics"])
        experiments = _experiments(z["experiments"], z["traffic_pct"])
        self.metric_ids = [s.metric_id for s in specs]
        self.strategy_ids = [s for e in experiments for s in e.strategy_ids]
        self.n_buckets = z.get("n_buckets", z["n_segments"])
        with self.tr.span("genlog"):
            self.users = _users(z["n_users"], z["n_segments"])
            self.metric = genlog.metric_log_pandas(
                specs, n_users=z["n_users"], dates=[self.date],
                n_segments=z["n_segments"], seed=self.seed,
            )
            self.expose = genlog.expose_log_pandas(
                experiments, n_users=z["n_users"], n_days=z["n_days"],
                n_segments=z["n_segments"], seed=self.seed,
            )
        self.bucket_col = "segment_id"
        self.expose_rows = self.expose
        if self.bucketed:
            self.bucket_col = "bucket_id"
            self.expose_rows = self.expose.assign(
                bucket_id=H.bucket_of(
                    self.expose["randomization_unit_id"].to_numpy(), self.n_buckets
                )
            )
        with self.tr.span("encode.convert"):
            conv = encode.full_bsi_conversion(
                self.spark, users_pdf=self.users, metric_pdf=self.metric,
                expose_pdf=self.expose, n_segments=z["n_segments"],
                n_buckets=self.n_buckets,
            )
            self.expose_bsi = conv["expose"].cache()
            self.metric_bsi = conv["metric"].cache()
            self.expose_bsi.count()
            self.metric_bsi.count()
        with self.tr.span("spark.cache_rows"):
            self.expose_sdf = self.spark.createDataFrame(self.expose_rows).cache()
            self.metric_sdf = self.spark.createDataFrame(self.metric).cache()
            self.expose_sdf.count()
            self.metric_sdf.count()

    def prepare(self) -> None:
        self.ref = checks.scorecard_reference(
            self.expose_rows, self.metric, strategy_ids=self.strategy_ids,
            metric_ids=self.metric_ids, date=self.date, bucket_col=self.bucket_col,
        )

    def op_span(self, method: str) -> str:
        if method == "normal":
            return "scorecard.scorecard_normal"
        return "scorecard.scorecard_bsi" + ("_bucketed" if self.bucketed else "")

    def run(self, method: str, i: int):
        args = dict(strategy_ids=self.strategy_ids, metric_ids=self.metric_ids,
                    date=self.date)
        if method == "normal":
            out = SC.scorecard_normal(
                self.expose_sdf, self.metric_sdf, bucket_col=self.bucket_col, **args
            )
        elif self.bucketed:
            out = SC.scorecard_bsi_bucketed(
                self.expose_bsi, self.metric_bsi, n_buckets=self.n_buckets, **args
            )
        else:
            out = SC.scorecard_bsi(self.expose_bsi, self.metric_bsi, **args)
        return out.toPandas()

    def check(self, method: str, i: int, out) -> bool:
        return checks.grid_matches(out, self.ref, checks.SCORE_KEYS, checks.SCORE_VALUES)

    def storage_ratio(self) -> float:
        from pyspark.sql import functions as F

        lengths = self.metric_bsi.select(F.length("value").alias("n")).toPandas()["n"]
        return _storage_ratio(lengths, len(self.metric))

    # -- traced-run replays ------------------------------------------
    def _decode(self, blob: bytes) -> BSI:
        with self.tr.span("bsi.deserialize"):
            return BSI.deserialize(blob).densify()

    def _batch_frames(self):
        """The expose and metric blob frames the BSI batch reads,
        filtered exactly as the pipeline filters them."""
        from pyspark.sql import functions as F

        e = self.expose_bsi.filter(F.col("strategy_id").isin(self.strategy_ids))
        m = self.metric_bsi.filter(
            (F.col("date") == self.date) & F.col("metric_id").isin(self.metric_ids)
        )
        return e, m

    def plumbing_floor(self) -> None:
        """The BSI batch's Spark plan with a kernel that does nothing."""
        e, m = self._batch_frames()
        if self.bucketed:
            out = (
                e.join(m, "segment_id").mapInPandas(_noop_rows, SC.RESULT_SCHEMA)
                .groupBy("strategy_id", "metric_id", "bucket_id").sum()
            )
        else:
            out = (
                e.groupBy("segment_id").cogroup(m.groupBy("segment_id"))
                .applyInPandas(_noop_cogroup, SC.RESULT_SCHEMA)
            )
        out.toPandas()

    def kernel_replay(self, e_pdf: pd.DataFrame, m_pdf: pd.DataFrame) -> None:
        """Serial filter-and-sum of the batch over decoded BSIs: per
        segment, one offset filter per strategy, one sum per metric."""
        for seg, eg in e_pdf.groupby("segment_id"):
            values = [self._decode(b) for b in m_pdf[m_pdf["segment_id"] == seg]["value"]]
            offsets = [(int(r.min_expose_date), self._decode(r.offset))
                       for r in eg.itertuples(index=False)]
            with self.tr.span("scorecard.kernel"):
                for min_date, offset in offsets:
                    flt = offset.le_const(self.date - min_date + 1)
                    flt.cardinality()
                    for v in values:
                        v.sum_filtered(flt)

    def conversion_floor(self, enc_pdf: pd.DataFrame) -> None:
        """The conversion's Spark plan with blob builders that do nothing."""
        spark = self.spark
        keys = ["analysis_unit_id", "segment_id"]
        enc = spark.createDataFrame(enc_pdf)
        spark.createDataFrame(self.metric).join(enc, keys).groupBy(
            "segment_id", "date", "metric_id"
        ).applyInPandas(
            _noop_metric_blob, "segment_id int, date int, metric_id long, value binary"
        ).toPandas()
        spark.createDataFrame(self.expose).join(enc, keys).groupBy(
            "segment_id", "strategy_id"
        ).applyInPandas(
            _noop_expose_blob,
            "segment_id int, strategy_id long, min_expose_date int, "
            "offset binary, bucket binary",
        ).toPandas()

    def conversion_replay(self) -> dict:
        """The conversion's layers: its plumbing floor, ``from_arrays`` +
        ``serialize`` replayed serially over the same row groups, and the
        stored blobs counted."""
        enc_pdf = encode.encoding_pandas(self.users)
        keys = ["analysis_unit_id", "segment_id"]
        self.conversion_floor(enc_pdf)  # warm-up: workers import the no-op builders
        with self.tr.span("encode.plumbing_floor"):
            self.conversion_floor(enc_pdf)
        m = self.metric.merge(enc_pdf, on=keys)
        for _, g in m.groupby(["segment_id", "date", "metric_id"]):
            BSI.from_arrays(
                g["position"].to_numpy(np.uint32), g["value"].to_numpy(np.uint64)
            ).serialize()
        e = self.expose.merge(enc_pdf, on=keys)
        for _, g in e.groupby(["segment_id", "strategy_id"]):
            pos = g["position"].to_numpy(np.uint32)
            fed = g["first_expose_date"].to_numpy()
            bucket = H.bucket_of(g["randomization_unit_id"].to_numpy(), self.n_buckets)
            BSI.from_arrays(pos, (fed - fed.min() + 1).astype(np.uint64)).serialize()
            BSI.from_arrays(pos, (bucket + 1).astype(np.uint64)).serialize()
        metric_blobs = self.metric_bsi.select("value").toPandas()["value"]
        return {
            "encode.blobs": len(metric_blobs),
            "encode.blob_bytes": int(metric_blobs.map(len).sum()),
        }

    def check_setup(self) -> list[bool]:
        """The conversion stored every row group, and only those."""
        if self.bucketed:
            return []
        ref = checks.ConversionReference(
            self.metric, self.expose, encode.encoding_pandas(self.users),
            n_buckets=self.n_buckets,
        )
        return [ref.blobs_match(self.metric_bsi.toPandas(), self.expose_bsi.toPandas())]

    def bucketed_kernel_replay(self, e_pdf: pd.DataFrame, m_pdf: pd.DataFrame) -> None:
        """Serial per-bucket filter-and-sum, one (pair, segment) join
        row at a time, as the bucketed pipeline does."""
        for er in e_pdf.itertuples(index=False):
            for mr in m_pdf[m_pdf["segment_id"] == er.segment_id].itertuples(index=False):
                offset = self._decode(er.offset)
                bucket = self._decode(er.bucket)
                value = self._decode(mr.value)
                with self.tr.span("scorecard.bucketed_kernel"):
                    flt = offset.le_const(self.date - int(er.min_expose_date) + 1)
                    for b in range(self.n_buckets):
                        bm = bucket.eq_const(b + 1) & flt
                        if bm:
                            value.sum_filtered(bm)
                            bm.cardinality()

    def replay(self) -> dict:
        e, m = self._batch_frames()
        e_pdf, m_pdf = e.toPandas(), m.toPandas()
        prefix = "scorecard.bucketed_" if self.bucketed else "scorecard."
        self.plumbing_floor()  # warm-up: workers import the no-op kernel
        with self.tr.span(prefix + "plumbing_floor"):
            self.plumbing_floor()
        out = {}
        if self.bucketed:
            self.bucketed_kernel_replay(e_pdf, m_pdf)
        else:
            self.kernel_replay(e_pdf, m_pdf)
            out = self.conversion_replay()
        blobs = list(e_pdf["offset"]) + list(m_pdf["value"])
        if self.bucketed:
            blobs += list(e_pdf["bucket"])
        kinds: Counter = Counter()
        for blob in blobs:
            kinds += container_kinds(blob)
        out.update({f"containers.{k}": kinds[k] for k in ("array", "bitset", "run")})
        return out


class Bucketed(Scorecard):
    """§4.2 general case, segments != buckets, at K = 1024."""

    name = "bucketed"
    bucketed = True


WORKLOADS = {w.name: w for w in (Adhoc, Scorecard, Bucketed)}
