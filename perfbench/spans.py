"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, operation id). Spans are opened
around calls into the platform's public functions by patching those
functions for the duration of the traced run (:meth:`Tracer.patched`);
the platform itself is not changed. Spans stay in memory and are
written out once, when the run ends.

Self time of a span is its duration minus the time its direct child
spans cover. All traced code runs on one thread (the ad-hoc engine is
built with one worker; Spark work runs in other processes and is
traced from the driver side only), so child spans never overlap and
their union is their sum.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kw):
            with self.span(name):
                out = fn(*args, **kw)
            if count is not None:
                for key, n in count(args, out).items():
                    self.counts[f"{name}.{key}"] += n
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Patch every ``(owner, attr, span_name, count)`` target so each
        call records a span; ``count(args, result)`` may return extra
        per-call counters. Restores the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrapper(orig.__func__, name, count))
                else:
                    new = self._wrapper(orig, name, count)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- aggregation ----------------------------------------------------
    def _outermost(self):
        """Spans with no ancestor of the same name, so nested calls of
        one function are not counted twice."""
        names = [s[0] for s in self.spans]
        for i, s in enumerate(self.spans):
            p = s[3]
            while p >= 0 and names[p] != s[0]:
                p = self.spans[p][3]
            if p < 0:
                yield i, s

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive seconds), outermost spans only."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for _, s in self._outermost():
            out[s[0]][0] += 1
            out[s[0]][1] += s[2] - s[1]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_seconds(self) -> dict[str, float]:
        """name -> summed self time over all its spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1]) - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


# The listener bus lags the jobs by milliseconds; a group still shown as
# running after this long is a fault, not lag.
JOB_STATUS_TIMEOUT_S = 5.0


def spark_job_counts(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages run, tasks run) of one Spark job group.

    The status store is fed asynchronously by the listener bus, so wait
    until every job of the group has left the RUNNING state."""
    st = sc.statusTracker()
    deadline = time.monotonic() + JOB_STATUS_TIMEOUT_S
    while True:
        jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        if all(j is not None and j.status != "RUNNING" for j in jobs):
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"Spark job group {group} still running")
        time.sleep(0.05)
    stages = tasks = 0
    for j in jobs:
        for sid in j.stageIds:
            info = st.getStageInfo(sid)
            if info is not None and info.numCompletedTasks > 0:
                stages += 1
                tasks += info.numCompletedTasks
    return len(jobs), stages, tasks
