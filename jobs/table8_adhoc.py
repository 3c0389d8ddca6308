"""Table 8 — ad-hoc query latency on the in-process segment-parallel
engine (ClickHouse substitute): 3 strategies x 105 core metrics x one
week, BSI method vs normal bitmap-filtered scan, averaged over repeats.

Paper: Normal 22.3 s, BSI 6.0 s average latency (~3.7x). Also prints
the time ``table8_build`` takes to generate the logs and load the store,
and the bytes the store holds per component (``AdhocEngine.footprint``).

Usage: python jobs/table8_adhoc.py [n_users] [repeats]
"""
import sys
import time

from _session import hr


def run(n_users: int = 120_000, repeats: int = 10):
    from repro.core.evaluation import table8_build, table8_run_bsi, table8_run_normal

    t0 = time.perf_counter()
    w = table8_build(n_users=n_users)
    build_s = time.perf_counter() - t0
    hr(
        f"Table 8: ad-hoc latency, 3 strategies x {len(w.metric_ids)} metrics "
        f"x {len(w.dates)} days (n_users={n_users:,}, {repeats} repeats)"
    )
    out = {}
    for name, fn in (("Normal", table8_run_normal), ("BSI", table8_run_bsi)):
        fn(w)  # warm
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(w)
        out[name] = (time.perf_counter() - t0) / repeats
    print(f"{'Format':>8} | {'Avg latency':>12} | paper")
    print(f"{'Normal':>8} | {out['Normal']:>10.2f} s | 22.3 s")
    print(f"{'BSI':>8} | {out['BSI']:>10.2f} s | 6.0 s")
    print(f"\nspeedup: {out['Normal'] / out['BSI']:.1f}x (paper {22.3 / 6.0:.1f}x)")
    print(f"table8_build (log generation + store load): {build_s:.2f} s")
    out["table8_build"] = build_s
    out["footprint"] = w.engine.footprint()
    print("store footprint: " + ", ".join(f"{k} {v / 2**20:.1f} MiB" for k, v in out["footprint"].items()))
    return out


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    run(*args)
