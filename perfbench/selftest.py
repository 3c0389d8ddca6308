"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. The grid checker rejects a result with one row dropped, and a
   failed check lowers ``success_rate`` below 1; the conversion checker
   rejects a blob table with one blob dropped; the container-kind
   count of the traced run reads back the kinds ``serialize`` stored.
2. Every workload runs end to end at the tiny sizes of ``spec.json``,
   untraced and traced, and its last output line carries exactly the
   metric names and units that ``BENCHMARK.json`` lists.
3. ``spec.json`` says for every per-layer metric which end-to-end
   metric it should move.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.run import Loop  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    _experiments,
    _spread_metrics,
    _users,
    container_kinds,
)
from repro.bsi.bsi import BSI  # noqa: E402
from repro.platform import encode, genlog  # noqa: E402
from repro.platform import hashing as H  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def _grid() -> pd.DataFrame:
    rows = [(s, m, b, float(10 * s + m + b), 5 + b)
            for s in (1, 2) for m in (7, 8) for b in range(3)]
    return pd.DataFrame(rows, columns=checks.SCORE_KEYS + checks.SCORE_VALUES)


class _DropsARow:
    """A workload whose BSI method loses one grid row, like a scorecard
    that drops a sparse metric's (strategy, metric, bucket)."""

    spark = None

    def run(self, method, i):
        g = _grid()
        return g.iloc[1:] if method == "bsi" else g

    def check(self, method, i, out):
        return checks.grid_matches(out, _grid(), checks.SCORE_KEYS, checks.SCORE_VALUES)


def check_checker() -> None:
    want = _grid()
    keys, values = checks.SCORE_KEYS, checks.SCORE_VALUES
    expect(checks.grid_matches(want.sample(frac=1, random_state=0), want, keys, values),
           "checker accepts the same grid in another row order")
    expect(not checks.grid_matches(want.drop(index=3), want, keys, values),
           "checker rejects a grid with one row dropped")
    extra = pd.concat([want, want.iloc[:1]])
    expect(not checks.grid_matches(extra, want, keys, values),
           "checker rejects a grid with a duplicated row")
    changed = want.copy()
    changed.loc[0, "bucket_exposed"] += 1
    expect(not checks.grid_matches(changed, want, keys, values),
           "checker rejects a grid with one changed value")
    loop = Loop(_DropsARow())
    for m in loop.methods:
        loop.one(m, 1)
    expect(loop.attempted == 2 and loop.passed == 1,
           "a dropped row counts as a failed operation (success_rate 0.5)")


def check_conversion_checker() -> None:
    """Blobs built the way the conversion builds them pass; one missing
    (segment, date, metric) blob fails."""
    users = _users(500, 2)
    metric = genlog.metric_log_pandas(_spread_metrics(3), n_users=500, dates=[3],
                                      n_segments=2, seed=1)
    expose = genlog.expose_log_pandas(_experiments(1, 50.0), n_users=500, n_days=3,
                                      n_segments=2, seed=1)
    enc = encode.encoding_pandas(users)
    keys = ["analysis_unit_id", "segment_id"]

    def blob(pos, vals):
        return BSI.from_arrays(pos.astype(np.uint32), vals.astype(np.uint64)).serialize()

    mb = pd.DataFrame(
        [(s, d, m, blob(g["position"].to_numpy(), g["value"].to_numpy()))
         for (s, d, m), g in metric.merge(enc, on=keys).groupby(
             ["segment_id", "date", "metric_id"])],
        columns=["segment_id", "date", "metric_id", "value"],
    )
    rows = []
    for (s, sid), g in expose.merge(enc, on=keys).groupby(["segment_id", "strategy_id"]):
        fed = g["first_expose_date"].to_numpy()
        bucket = H.bucket_of(g["randomization_unit_id"].to_numpy(), 2) + 1
        rows.append((s, sid, fed.min(), blob(g["position"].to_numpy(), fed - fed.min() + 1),
                     blob(g["position"].to_numpy(), bucket)))
    eb = pd.DataFrame(rows, columns=["segment_id", "strategy_id", "min_expose_date",
                                     "offset", "bucket"])
    ref = checks.ConversionReference(metric, expose, enc, n_buckets=2)
    expect(ref.blobs_match(mb, eb), "conversion checker accepts correct blobs")
    expect(not ref.blobs_match(mb.iloc[1:], eb),
           "conversion checker rejects a blob table with one blob dropped")


def check_container_kinds() -> None:
    """One slice with one container of each kind: a short list, a long
    run and a dense scatter."""
    dense = np.random.default_rng(0).choice(65536, 20000, replace=False)
    pos = np.concatenate([np.arange(0, 20, 2), 65536 + np.arange(5000), 131072 + dense])
    blob = BSI.from_arrays(pos.astype(np.uint32), np.ones(len(pos), np.uint64)).serialize()
    expect(container_kinds(blob) == {"array": 1, "run": 1, "bitset": 1},
           "container kinds are read back as serialize stored them")


def check_tiny_runs(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, want in ((0, e2e), (1, layer)):
            cmd = bench["command"] + ["--workload", w, "--seed", "3", "--seconds",
                                      "1", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
            what = f"{w} --trace {trace} --tiny"
            if p.returncode != 0:
                print(p.stderr[-3000:], file=sys.stderr)
                expect(False, f"{what} exits 0")
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly the four keys")
            expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
            expect(r["correct"] and r["attempted"] >= 1 and r["failed"] == 0,
                   f"{what}: every operation passed its check")
            expect(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                   f"{what}: every value is a number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    check_checker()
    check_conversion_checker()
    check_container_kinds()
    expect(set(spec["per_layer_moves"]) == {m["name"] for m in bench["per_layer"]},
           "spec.json maps every per-layer metric to the end-to-end metric it moves")
    check_tiny_runs(bench)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
