"""Shared session + formatting helpers for the job entrypoints.

Jobs are plain functions over a SparkSession (importable from tests).
This module holds the one definition of the local Spark settings —
master, driver memory, shuffle partitions, Arrow and the broadcast
threshold — which the test suite's ``conftest.py`` uses too. The
driver heap is read at JVM launch, not from SparkConf, so
:func:`configure_submit_args` must run before pyspark starts a JVM;
:func:`get_session` calls it, then applies the settings Spark honours
after launch. Under spark-submit ``getOrCreate`` picks up the submitted
session instead.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > host memory (``MemTotal``) > 48g fallback.

    The cgroup read is best-effort: a sandboxed kernel's sysfs
    emulation may not pass the host limit through. An unbounded value
    (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit) is
    treated as absent, and the host's memory bounds the heap instead,
    so the JVM is never handed more than the machine has.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
        "/proc/meminfo",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if p == "/proc/meminfo":
                line = next(x for x in raw.splitlines() if x.startswith("MemTotal:"))
                raw = str(int(line.split()[1]) * 1024)
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError, StopIteration):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def configure_submit_args() -> None:
    """Put master and driver memory into ``PYSPARK_SUBMIT_ARGS`` unless
    the caller already set them."""
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )


def get_session(app_name: str):
    """A local SparkSession with the shared settings.

    Broadcast joins are disabled so the BSI and normal pipelines
    exercise the shuffle path at small scale; a query that wants a
    broadcast join sets the threshold back for itself."""
    configure_submit_args()
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def hr(title: str) -> None:
    print(f"\n== {title} " + "=" * max(1, 72 - len(title)))


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if n < 1000:
            return f"{n:.1f} {unit}"
        n /= 1000
    return f"{n:.1f} PB"
