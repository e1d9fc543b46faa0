"""qrgraph benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload annulus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; qrgraph is imported from ``src/``.
Each run starts ``worker.py`` three times: twice only to time set-up, once to
do the work.  ``setup_s`` is the median of the three times from process
start to the end of warm-up.  The work runs in one process with one client
and no threads; for ``cli`` that process runs one qrgraph subprocess at a
time.  Every job passes a correctness gate outside its timing.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics, the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  ``correct`` is false when a job failed
in any way other than the two known defects described in README.md.
``--smoke`` runs every workload at reduced size, traced, and checks the
harness itself; it exits 0 only if everything it checked holds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("annulus", "pullback", "corpus", "cli")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170.0

# job_p50_s is printed with the others but not gated: on a shared 2-vCPU
# host its spread over ten seeds reached 0.19-0.36 of its median, above any
# bound the contract allows (0.25), while jobs_per_s stayed within 0.10-0.20
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("validate", "pullback_exact", "pullback_lower", "measure", "verify_bld",
                "verify_metric_qr", "verify_inverse_qr", "embed", "modulus")
LAYERS = ("spaces", "covering", "pullback", "measures", "modulus", "dilatation", "embedding", "cli")
PER_LAYER = {
    "spaces.build.busy_s": "s",
    "spaces.build.calls": "count",
    "spaces.dist_bytes": "B",
    "modulus.modulus.busy_s": "s",
    "modulus.certificates.busy_s": "s",
    "modulus.iterations": "count",
    "pullback.bracket.busy_s": "s",
    "pullback.exact.busy_s": "s",
    "pullback.zero_distance_pairs.busy_s": "s",
    "pullback.factorize.busy_s": "s",
    "pullback.verify_projection.busy_s": "s",
    "pullback.transfer.busy_s": "s",
    "pullback.pairs": "count",
    "embedding.embed.busy_s": "s",
    "covering.vertexmap_build.busy_s": "s",
    "covering.normal_radius_table.busy_s": "s",
    "covering.branch_set.busy_s": "s",
    "dilatation.bld.busy_s": "s",
    "dilatation.bdd.busy_s": "s",
    "dilatation.lq.busy_s": "s",
    "measures.checks.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.glue.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.traced_jobs_per_s": "1/s",
    "bench.untraced_jobs_per_s": "1/s",
    "bench.trace_overhead_frac": "ratio",
    "bench.spans": "count",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client, no threads; a fixed hash seed keeps set iteration order,
    # and with it the work done, the same from run to run
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def start_worker(args, setup_only: bool) -> tuple[float, dict]:
    """Run worker.py to completion; return (set-up seconds, its last JSON line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {args.workload} exited {proc.returncode}")
    ready = json.loads(lines[0])["ready_at"]
    return ready - t0, json.loads(lines[-1])


def run_workload(args) -> dict:
    setups = []
    for k in range(SETUP_RUNS):
        setup_s, res = start_worker(args, setup_only=k < SETUP_RUNS - 1)
        setups.append(setup_s)
    res["setup_s"] = statistics.median(setups)
    return res


def describe(args, res: dict) -> None:
    """Everything the run measured, by name and unit, for a reader."""
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, job in res["jobs"].items():
        line = f"  job {name}: n={job['n']} median {job['median_s']:.4f} s failed {job['failed']}"
        if job["known_defect"]:
            line += f" (known defect: {job['defect_note']})"
        elif job["problems"]:
            line += f" problems: {'; '.join(job['problems'])}"
        print(line)
    attempted = res["attempted"]
    print(f"  setup_s = {res['setup_s']:.4f} s (median of {SETUP_RUNS} set-ups)")
    print(f"  jobs_per_s = {res['jobs_per_s']:.4f} 1/s")
    print(f"  job_p50_s = {res['job_p50_s']:.4f} s (n={attempted})")
    if res["job_tail"]:
        t = res["job_tail"]
        print(f"  job_tail_s = {t['value']:.4f} s (p{t['percentile']:g}, n={t['samples']})")
    print(f"  failed_frac = {res['failed'] / attempted:.4f} ({res['failed']}/{attempted})")
    print(f"  peak_rss_mb = {res['peak_rss_mb']:.1f} MB")
    if "mod_rel_err" in res["extra"]:
        print(f"  mod_rel_err = {res['extra']['mod_rel_err']:.4f} (finest grid, natural order)")
    layers = res["per_layer"]
    if layers:
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {layers.get(name, 0.0):.6g} {unit}")
        accounted = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        accounted += layers["bench.glue.self_s"]
        print(f"  layer self time + glue = {accounted:.4f} s of traced wall "
              f"{layers['bench.traced_wall_s']:.4f} s; tracing overhead "
              f"{layers['bench.trace_overhead_frac']:+.2%} jobs/s")


def result_line(args, res: dict) -> dict:
    if args.trace:
        metrics = {n: {"value": float(res["per_layer"].get(n, 0.0)), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": float(res[n]), "unit": u} for n, u in END_TO_END.items()}
    return {"correct": res["unexpected"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def smoke(args) -> int:
    """Every workload at reduced size, traced, plus checks of the harness."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    args.seconds, args.trace = 0.0, 1
    for workload in WORKLOADS:
        args.workload = workload
        res = run_workload(args)
        describe(args, res)
        line = result_line(args, res)
        if not line["correct"]:
            problems.append(f"{workload}: a job failed its gate")
        layers = res["per_layer"]
        accounted = sum(layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        if abs(accounted + layers["bench.glue.self_s"] - layers["bench.traced_wall_s"]) > 1e-6:
            problems.append(f"{workload}: self times do not add up to the traced wall time")
    env = child_env()
    check = subprocess.run([sys.executable, os.path.join(HERE, "inputs_check.py")],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if check.returncode != 0:
        problems.append(f"input records differ from qrgraph.generators: {check.stderr.strip()}")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print(json.dumps({"smoke": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at reduced size and check the harness")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qrgraph", "__init__.py")):
        print(f"no qrgraph sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    res = run_workload(args)
    describe(args, res)
    print(json.dumps(result_line(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
