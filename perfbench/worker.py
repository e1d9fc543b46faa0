"""The process that does the benchmark's work; ``run.py`` starts it.

It sets up (imports qrgraph, generates the seeded inputs, warms up), writes
``{"ready_at": <CLOCK_MONOTONIC>}`` and, unless ``--setup-only``, runs the
workload closed-loop, one job at a time: series after series until the
phase has used its seconds.  The last line it writes is a JSON object with
the job records, the workload's end-to-end numbers and, with ``--trace 1``,
the per-layer numbers of a traced phase that follows an untraced one.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


class NullTracer:
    """Tracing off: spans and counts cost one call each."""

    job = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: float) -> None:
        pass


class Tracer:
    """Spans (name, start, end, parent span, job id) kept in memory, plus
    counters, recorded around the benchmark's calls into the library."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, k: float) -> None:
        self.counts[name] += k

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _n, start, end, _p, _j in self.spans]
        for _n, start, end, parent, _j in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


@dataclass
class JobRecord:
    name: str
    wall_s: float
    problems: list[str]
    defect_shown: bool
    defect_note: str


def run_job(job, tr, job_id: int) -> JobRecord:
    """Time ``job.run`` alone; run the gate after the clock stops."""
    tr.job = job_id
    error = None
    with tr.span("bench.job"):
        t0 = time.perf_counter()
        try:
            result = job.run(tr)
        except Exception:  # a failing job is counted, never fatal
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    with tr.span("bench.check"):
        if error is not None:
            sys.stderr.write(f"job {job.name} raised:\n{error}")
            problems = [f"raised {error.strip().splitlines()[-1]}"]
        else:
            try:
                problems = job.check(result)
            except Exception:
                problems = [f"check raised {traceback.format_exc().strip().splitlines()[-1]}"]
        shown = bool(problems) and result is not None and job.defect is not None and job.defect(result)
    tr.job = None
    return JobRecord(job.name, wall, problems, shown, job.defect_note)


def run_phase(wl, tr, seconds: float, first_series: int) -> tuple[list[JobRecord], int]:
    """Whole series, one job at a time, until the next series would
    probably end past ``seconds`` (always at least one series)."""
    records: list[JobRecord] = []
    series_walls: list[float] = []
    index = first_series
    start = time.perf_counter()
    with tr.span("bench.phase"):
        while True:
            t_series = time.perf_counter()
            for job in wl.series(index):
                records.append(run_job(job, tr, len(records)))
            series_walls.append(time.perf_counter() - t_series)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * statistics.fmean(series_walls) >= seconds:
                return records, index


def warm_up(kind, wl, args) -> None:
    """Load lazy imports and make the first scipy calls before any timing:
    one smoke-size series in-process, or one ``validate`` call for ``cli``."""
    if args.workload == "cli":
        wl.call("validate")
        return
    for job in kind(args.seed, smoke=True, root=args.root).series(0):
        run_job(job, NullTracer(), 0)


def tail(walls: list[float]) -> dict | None:
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90.0, 95.0, 99.0, 99.9):
        if len(walls) * (1.0 - q / 100.0) >= 10.0:
            best = {"value": float(np.percentile(walls, q)), "percentile": q, "samples": len(walls)}
    return best


def end_to_end(records: list[JobRecord]) -> dict:
    walls = [r.wall_s for r in records]
    by_job: dict[str, list[JobRecord]] = defaultdict(list)
    for r in records:
        by_job[r.name].append(r)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "unexpected": sum(1 for r in records if r.problems and not r.defect_shown),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail": tail(walls),
        "jobs": {
            name: {
                "n": len(rs),
                "median_s": statistics.median(r.wall_s for r in rs),
                "failed": sum(1 for r in rs if r.problems),
                "known_defect": sum(1 for r in rs if r.defect_shown),
                "defect_note": rs[0].defect_note,
                "problems": sorted({p for r in rs for p in r.problems}),
            }
            for name, rs in by_job.items()
        },
    }


def per_layer(tr: Tracer, records: list[JobRecord]) -> dict:
    out: dict[str, float] = dict(tr.counts)
    own = tr.self_times()
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _p, _j), self_s in zip(tr.spans, own):
        durations[name].append(end - start)
        layer = "bench.glue" if name.startswith("bench.") else name.split(".")[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
    for name, ds in durations.items():
        if name.startswith("cli."):
            out[f"{name}.wall_s"] = statistics.median(ds)
        elif not name.startswith("bench."):
            out[f"{name}.busy_s"] = math.fsum(ds)
    root = next(s for s in tr.spans if s[0] == "bench.phase")
    out["bench.traced_wall_s"] = root[2] - root[1]
    out["bench.traced_jobs_per_s"] = len(records) / sum(r.wall_s for r in records)
    out["bench.spans"] = len(tr.spans)
    return out


def write_spans(tr: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tr.spans}, fh)


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process doing the work: this one, or for
    ``cli`` the largest of its qrgraph subprocesses (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    kind = workloads.WORKLOADS[args.workload]
    wl = kind(args.seed, smoke=args.smoke, root=args.root)
    try:
        warm_up(kind, wl, args)
        print(json.dumps({"ready_at": time.monotonic()}), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            untraced, index = run_phase(wl, NullTracer(), args.seconds / 2.0, 0)
            tr = Tracer()
            traced, _ = run_phase(wl, tr, args.seconds / 2.0, index)
            if args.workload == "cli":
                tr.counts["cli.interpreter_s"] = statistics.median(wl.probe("pass") for _ in range(3))
                tr.counts["cli.import_s"] = statistics.median(
                    wl.probe("import qrgraph.cli") for _ in range(3)) - tr.counts["cli.interpreter_s"]
            write_spans(tr, os.path.join(args.root, ".bench_build", "perfbench",
                                         f"spans-{args.workload}-seed{args.seed}.json"))
            layers = per_layer(tr, traced)
            layers["bench.untraced_jobs_per_s"] = end_to_end(untraced)["jobs_per_s"]
            layers["bench.trace_overhead_frac"] = (
                layers["bench.untraced_jobs_per_s"] / layers["bench.traced_jobs_per_s"] - 1.0)
            records = untraced + traced
        else:
            records, _ = run_phase(wl, NullTracer(), args.seconds, 0)
            layers = {}
    finally:
        wl.close()
    result = end_to_end(records)
    result.update(peak_rss_mb=peak_rss_mb(args.workload), per_layer=layers, extra=wl.extra())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
