import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "jobs"))

from _session import configure_submit_args, get_session  # noqa: E402

# spark.driver.memory is read at JVM launch, so it must be in
# PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere — this runs
# at conftest import, which pytest loads before any test module.
configure_submit_args()

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session."""
    s = get_session("repro")
    # One line in the test log that tells whether the cgroup
    # derivation saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
