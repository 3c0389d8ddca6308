"""Table 7 — Spark pre-computation cost of a scorecard batch, BSI
pipeline vs normal Spark-SQL pipeline.

Paper (240k strategy-metric pairs/day): Normal 22,712 CPU-hours,
BSI 5,446 CPU-hours (~4.2x). The job also prints the wall time of the
normal→BSI conversion that builds the batch's BSI frames: the daily
ingest path, which the paper's table does not count.

Usage: python jobs/table7_precompute.py [n_users] [repeats]
       (spark-submit jobs/table7_precompute.py also works)
"""
import sys
import time

from _session import get_session, hr


def run(spark, n_users: int = 400_000, repeats: int = 3):
    from repro.core.evaluation import table7_build, table7_run_bsi, table7_run_normal

    w = table7_build(spark, n_users=n_users)
    hr(
        f"Table 7: pre-computation of {w.n_pairs} strategy-metric pairs "
        f"(n_users={n_users:,}, local[*])"
    )
    out = {}
    for name, fn in (("Normal", table7_run_normal), ("BSI", table7_run_bsi)):
        fn(w)  # warm
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(w)
        out[name] = (time.perf_counter() - t0) / repeats
    print(f"{'Format':>8} | {'Wall time':>10} | paper CPU-hours")
    print(f"{'Normal':>8} | {out['Normal']:>8.2f} s | 22712")
    print(f"{'BSI':>8} | {out['BSI']:>8.2f} s | 5446")
    out["Convert"] = w.convert_s
    print(f"{'Convert':>8} | {w.convert_s:>8.2f} s | (the logs' normal→BSI conversion)")
    print(
        f"\nspeedup: {out['Normal'] / out['BSI']:.1f}x (paper {22712 / 5446:.1f}x)"
    )
    return out


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    run(get_session("table7"), *args)
