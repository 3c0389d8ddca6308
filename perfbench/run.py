"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {adhoc,scorecard,bucketed}
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

``BENCHMARK.json`` lists ``adhoc`` and ``scorecard``; ``bucketed`` can
still be run by hand, and its layers are part of scorecard's traced run.

Run from the repository root (the program is imported from ``src/``).
With ``--trace 0`` the run times the workload's operations with
nothing wrapped and reports the end-to-end metrics; with ``--trace 1``
it wraps calls into the platform's layers, records spans and reports
the per-layer metrics. ``--tiny`` uses the self-test sizes. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Everything the run writes (Spark scratch space, spans, a full result
record with host facts) goes under ``perfbench/.out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shlex
import statistics
import sys
import time
import traceback

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

# Pinned before numpy is imported here or in any Spark Python worker.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SPARK_CORES_MAX = 2
DRIVER_MEMORY = "2g"

END_TO_END = {
    "setup_s": "s",
    "bsi_s": "s",
    "bsi_tail_s": "s",
    "normal_s": "s",
    "bsi_bytes_per_normal_byte": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

# Per-layer metric -> (unit, how it is read from the traced run).
_LAYER_CALLS = [
    "bsi.from_arrays", "bsi.serialize", "bsi.deserialize", "bsi.le_const",
    "bsi.eq_const", "bsi.sum_filtered", "bitmap.and", "bitmap.cardinality",
    "bitmap.contains_array", "containers.popcount_rows",
]
PER_LAYER = {
    "genlog.s": "s",
    "encode.convert_s": "s",
    "encode.plumbing_floor_s": "s",
    "encode.blobs": "count",
    "encode.blob_bytes": "bytes",
    **{f"{n}.{k}": u for n in _LAYER_CALLS for k, u in (("calls", "count"), ("s", "s"))},
    "bsi.serialize.bytes": "bytes",
    "containers.popcount_rows.rows": "count",
    "containers.array": "count",
    "containers.bitset": "count",
    "containers.run": "count",
    "adhoc.from_logs_s": "s",
    "adhoc.query_bsi.self_s": "s",
    "adhoc.query_normal.self_s": "s",
    "scorecard.kernel_s": "s",
    "scorecard.plumbing_floor_s": "s",
    "scorecard.bucketed_kernel_s": "s",
    "scorecard.bucketed_plumbing_floor_s": "s",
    "spark.session_s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "trace.bsi_op_s": "s",
    "trace.overhead_s": "s",
}


def tail_latency(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile of the run's BSI-operation latencies
    (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- environment ------------------------------------------------------
def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    # Spark's Python workers import the program and perfbench's no-op
    # kernels by module path.
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    sys.path[:0] = [SRC, ROOT]


def spark_settings() -> dict:
    cores = min(SPARK_CORES_MAX, len(os.sched_getaffinity(0)))
    return {
        "master": f"local[{cores}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.sql.shuffle.partitions": str(cores),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        # Adaptive execution re-plans between stages; off, every run of an
        # operation executes the same plan.
        "spark.sql.adaptive.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.enabled": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": os.path.join(OUT, "spark-local"),
        "spark.sql.warehouse.dir": os.path.join(OUT, "spark-warehouse"),
    }


def start_spark(settings: dict):
    # Keep the JVMs' scratch files in the checkout: a temp dir of our own,
    # and no hsperfdata files (HotSpot writes those to /tmp).
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={os.environ['TMPDIR']}"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    # An inherited SPARK_LOCAL_DIRS would override spark.local.dir.
    os.environ["SPARK_LOCAL_DIRS"] = settings["spark.local.dir"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master", settings["master"],
            "--driver-memory", settings["spark.driver.memory"],
            "--driver-java-options", shlex.quote(java_opts),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in settings.items():
        if k.startswith("spark."):
            b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark, then the JVM it runs in, and wait until it is gone."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        # The JVM exits when its standard input closes.
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def host_facts(spark) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "driver_memory": DRIVER_MEMORY,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "java": spark._jvm.System.getProperty("java.version") if spark else None,
    }


# -- measurement ------------------------------------------------------
class Loop:
    """Issues operations one at a time, checks each result outside the
    timed region and keeps the latencies per method."""

    def __init__(self, w, tracer=None):
        from perfbench.workloads import METHODS

        self.w = w
        self.methods = METHODS
        self.tracer = tracer
        self.latency = {m: [] for m in METHODS}
        self.attempted = 0
        self.passed = 0
        self.jobs = [0, 0, 0]
        # An operation that runs in this process is pinned to the next
        # usable CPU in turn, per method. How fast a core runs depends on
        # what shares its physical core on the host, and that differs
        # between cores and changes within seconds; in turn, a run
        # samples every core instead of the one the scheduler keeps it
        # on. On a 4-vCPU host this halved the spread of 15 s medians.
        self.cpus = sorted(os.sched_getaffinity(0)) if getattr(w, "rotate_cpus", False) else []

    def one(self, method: str, i: int) -> None:
        w, tr = self.w, self.tracer
        op_id = f"{method}-{i}"
        if tr is not None and w.spark is not None:
            w.spark.sparkContext.setJobGroup(op_id, op_id)
        if self.cpus:
            k = len(self.latency[method]) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[k]})
        gc.collect()
        ok = False
        t0 = time.perf_counter()
        try:
            if tr is None:
                out = w.run(method, i)
            else:
                tr.op_id = op_id
                with tr.span(w.op_span(method)):
                    out = w.run(method, i)
                tr.op_id = None
            dt = time.perf_counter() - t0
            ok = bool(w.check(method, i, out))
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
        if tr is not None and w.spark is not None:
            from perfbench.spans import spark_job_counts

            for k, n in enumerate(spark_job_counts(w.spark.sparkContext, op_id)):
                self.jobs[k] += n
        self.latency[method].append(dt)
        self.attempted += 1
        self.passed += ok


def timed_build(w) -> float:
    """Build the workload's inputs, once per run: a second build (about
    7 s on ``adhoc``, 10-15 s on the Spark workloads) would not fit the
    benchmark's time budget."""
    t0 = time.perf_counter()
    w.build()
    return time.perf_counter() - t0


def warm_up(w) -> None:
    """Untimed, unchecked operations before timing starts. The ad-hoc
    engine needs one per method to fill its caches. Spark workloads
    take three: the JVM compiles the plan's code over the first few
    runs, and with one warm-up operation the first timed batches of
    the normal method ran 20-50 % slower than the later ones."""
    from perfbench.workloads import METHODS

    for _ in range(3 if w.uses_spark else 1):
        for m in METHODS:
            w.run(m, 0)


def measure(w, seconds: float, session_s: float) -> tuple[dict, Loop, dict]:
    build_s = timed_build(w)
    w.prepare()
    warm_up(w)
    loop = Loop(w)
    i = 1
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(loop.latency["bsi"]) < w.min_ops:
        for _ in range(w.pass_size):
            for m in w.methods(i):
                loop.one(m, i)
            i += 1
    lat = loop.latency
    metrics = {
        "setup_s": session_s + build_s,
        "bsi_s": statistics.median(lat["bsi"]),
        "bsi_tail_s": tail_latency(lat["bsi"], w.tail_pct),
        "normal_s": statistics.median(lat["normal"]),
        "bsi_bytes_per_normal_byte": w.storage_ratio(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": loop.passed / loop.attempted,
    }
    return metrics, loop, {"build_s": build_s, "latency_s": lat}


def trace_targets() -> list:
    from repro.bsi import containers
    from repro.bsi.bitmap import RoaringBitmap
    from repro.bsi.bsi import BSI

    return [
        (BSI, "from_arrays", "bsi.from_arrays", None),
        (BSI, "serialize", "bsi.serialize", lambda a, out: {"bytes": len(out)}),
        (BSI, "le_const", "bsi.le_const", None),
        (BSI, "eq_const", "bsi.eq_const", None),
        (BSI, "sum_filtered", "bsi.sum_filtered", None),
        (RoaringBitmap, "__and__", "bitmap.and", None),
        (RoaringBitmap, "cardinality", "bitmap.cardinality", None),
        (RoaringBitmap, "contains_array", "bitmap.contains_array", None),
        (containers, "popcount_rows", "containers.popcount_rows",
         lambda a, out: {"rows": a[0].shape[0]}),
    ]


def trace_bucketed(spark, sizes: dict, seed: int):
    """The layers of the bucketed batch (K = 1024), which only that
    batch reaches: ``eq_const``, bitmap AND, and the bucketed kernel and
    plumbing floor. The scorecard traced run takes them; the bucketed
    batch has no timed workload of its own (see README). One checked
    pass of both methods, then the replays, on a tracer of its own so
    that its calls do not mix with the scorecard batch's."""
    from perfbench.spans import Tracer
    from perfbench.workloads import Bucketed

    b = Bucketed(sizes, seed, spark, Tracer())
    b.build()
    b.prepare()
    loop = Loop(b, b.tr)
    with b.tr.patched(trace_targets()):
        for m in b.methods(1):
            loop.one(m, 1)
        b.tr.op_id = "replay"
        b.replay()
        b.tr.op_id = None
    totals = b.tr.totals()
    metrics = {}
    for name in ("bsi.eq_const", "bitmap.and"):
        calls, secs = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = secs
    for name in ("scorecard.bucketed_kernel", "scorecard.bucketed_plumbing_floor"):
        metrics[f"{name}_s"] = totals.get(name, (0, 0.0))[1]
    return metrics, loop, b.tr


def trace(w, session_s: float, bucketed_sizes: dict) -> tuple[dict, Loop, dict]:
    tr = w.tr
    targets = trace_targets()
    with tr.patched(targets):
        w.build()
    w.prepare()
    warm_up(w)
    # Every operation of one pass runs once untraced and once traced, in
    # alternating order, so both runs of it meet the same host load; the
    # difference of the two sums is the tracing overhead.
    plain = Loop(w)
    loop = Loop(w, tr)
    for i in range(1, w.pass_size + 1):
        for m in w.methods(i):
            for traced in (False, True) if i % 2 else (True, False):
                if traced:
                    with tr.patched(targets):
                        loop.one(m, i)
                else:
                    plain.one(m, i)
    with tr.patched(targets):
        tr.op_id = "replay"
        extra = w.replay()
        tr.op_id = None
    totals = tr.totals()
    selfs = tr.self_seconds()

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    metrics = {
        "genlog.s": secs("genlog"),
        "encode.convert_s": secs("encode.convert"),
        "encode.plumbing_floor_s": secs("encode.plumbing_floor"),
        "encode.blobs": 0,
        "encode.blob_bytes": 0,
        "containers.array": 0,
        "containers.bitset": 0,
        "containers.run": 0,
    }
    for name in _LAYER_CALLS:
        calls, s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = s
    metrics["bsi.serialize.bytes"] = int(tr.counts["bsi.serialize.bytes"])
    metrics["containers.popcount_rows.rows"] = int(tr.counts["containers.popcount_rows.rows"])
    metrics.update(
        {
            "adhoc.from_logs_s": secs("adhoc.from_logs"),
            "adhoc.query_bsi.self_s": selfs.get("adhoc.query_bsi", 0.0),
            "adhoc.query_normal.self_s": selfs.get("adhoc.query_normal", 0.0),
            "scorecard.kernel_s": secs("scorecard.kernel"),
            "scorecard.plumbing_floor_s": secs("scorecard.plumbing_floor"),
            "scorecard.bucketed_kernel_s": secs("scorecard.bucketed_kernel"),
            "scorecard.bucketed_plumbing_floor_s": secs("scorecard.bucketed_plumbing_floor"),
            "spark.session_s": session_s,
            "spark.jobs": loop.jobs[0],
            "spark.stages": loop.jobs[1],
            "spark.tasks": loop.jobs[2],
            "trace.bsi_op_s": sum(plain.latency["bsi"]),
            "trace.overhead_s": sum(sum(v) for v in loop.latency.values())
            - sum(sum(v) for v in plain.latency.values()),
        }
    )
    metrics.update(extra)
    setup_checks = w.check_setup()
    loop.attempted += plain.attempted + len(setup_checks)
    loop.passed += plain.passed + sum(setup_checks)
    if w.name == "scorecard":
        sub, sub_loop, w.bucketed_tr = trace_bucketed(w.spark, bucketed_sizes, w.seed)
        metrics.update(sub)
        loop.attempted += sub_loop.attempted
        loop.passed += sub_loop.passed
    return metrics, loop, {"latency_s": loop.latency, "untraced_latency_s": plain.latency}


def summary_lines(name: str, m: dict) -> list[str]:
    """Shares of the traced run's BSI-operation time, for reading."""
    base = m["trace.bsi_op_s"]
    if name == "adhoc":
        return [
            f"adhoc: popcount_rows {m['containers.popcount_rows.s']:.3f} s = "
            f"{m['containers.popcount_rows.s'] / base:.1%} of query_bsi "
            f"({base:.3f} s untraced over the same queries)"
        ]
    pre = "scorecard." if name == "scorecard" else "scorecard.bucketed_"
    lines = [
        f"{name}: bsi op {base:.3f} s | plumbing floor "
        f"{m[pre + 'plumbing_floor_s']:.3f} s | deserialize+densify "
        f"{m['bsi.deserialize.s']:.3f} s | kernel {m[pre + 'kernel_s']:.3f} s "
        "(deserialize and kernel replayed serially on the driver)"
    ]
    if name == "scorecard":
        lines.append(
            f"conversion (set-up): {m['encode.convert_s']:.3f} s | plumbing floor "
            f"{m['encode.plumbing_floor_s']:.3f} s | from_arrays "
            f"{m['bsi.from_arrays.s']:.3f} s + serialize {m['bsi.serialize.s']:.3f} s "
            "(replayed serially on the driver)"
        )
        lines.append(
            f"bucketed batch (spec.json bucketed sizes, one traced pass): plumbing floor "
            f"{m['scorecard.bucketed_plumbing_floor_s']:.3f} s | kernel "
            f"{m['scorecard.bucketed_kernel_s']:.3f} s, of which eq_const "
            f"{m['bsi.eq_const.s']:.3f} s and AND {m['bitmap.and.s']:.3f} s"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["adhoc", "scorecard", "bucketed"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    wspec = spec["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    sizes = wspec["tiny" if args.tiny else "sizes"]

    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    settings = spark_settings() if cls.uses_spark else {}
    spark = None
    try:
        session_s = 0.0
        if cls.uses_spark:
            t0 = time.perf_counter()
            spark = start_spark(settings)
            session_s = time.perf_counter() - t0
        w = cls(sizes, seed, spark, Tracer())
        if args.trace:
            bucketed = spec["workloads"]["bucketed"]["tiny" if args.tiny else "sizes"]
            metrics, loop, raw = trace(w, session_s, bucketed)
            units = PER_LAYER
        else:
            metrics, loop, raw = measure(w, args.seconds, session_s)
            units = END_TO_END
        facts = host_facts(spark)
    finally:
        if spark is not None:
            stop_spark(spark)

    tag = f"{args.workload}-seed{seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if args.trace:
        w.tr.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
        if hasattr(w, "bucketed_tr"):
            w.bucketed_tr.write(os.path.join(OUT, f"spans-{tag}-bucketed.jsonl"))
        for line in summary_lines(args.workload, metrics):
            print(line)
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": sizes, "host": facts, "spark": settings,
        "env": PINNED_ENV, "raw": raw, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("host:", json.dumps(facts))
    print("spark:", json.dumps(settings))
    print("sizes:", json.dumps(sizes))
    for m, lat in loop.latency.items():
        print(f"{m}: {len(lat)} ops, latencies s: " + " ".join(f"{x:.4f}" for x in lat))
    failed = loop.attempted - loop.passed
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
