"""psilab benchmark: CLI job latency on three workloads, plus a traced per-layer run.

Run from the root of a checkout (the directory holding ``src/psilab``):

    python3 perfbench/run.py --workload disk-verify|blowup|field-io \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh child process (worker.py) that generates its
seeded inputs under .perfbench_work/, sets up five times, then runs
S // ROUND_S whole rounds of jobs through ``psilab.cli.dispatch`` and
checks every output against the oracles in checks.py. Cold ``import
psilab.cli`` is timed in further fresh interpreters. Human-readable lines
go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("disk-verify", "blowup", "field-io")
IMPORT_SAMPLES = 2  # before and again after the workload, so they span the run
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
IMPORT_CODE = "import time; t = time.perf_counter(); import psilab.cli; print(time.perf_counter() - t)"


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PSILAB_JOBS", "PYTHONSTARTUP")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update({"PYTHONPATH": src, "PYTHONHASHSEED": "0"})
    return env


def import_seconds(env, count):
    """Cold ``import psilab.cli`` times, each in a fresh interpreter."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = fh.read().strip()
    except OSError:
        pass
    return sizes


def metadata(args, env, worker):
    commit = None
    if shutil.which("git") and os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "python": platform.python_version(),
        **worker["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "blas_env": {var: env[var] for var in THREAD_VARS},
        "threads": worker["threads"],
        "clients": 1,
        "loop": "closed",
    }


def percentile_tail(times):
    n = len(times)
    if n <= 10:
        return 100, max(times)
    q = (100 * (n - 10)) // n
    return q, sorted(times)[max(-(-q * n // 100) - 1, 0)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "psilab", "cli.py")):
        sys.exit("perfbench: run from the root of a psilab checkout (no src/psilab here)")
    env = child_env(src)
    workdir = os.path.abspath(os.path.join(".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir, "--result", result_path]
    imports = [] if args.trace else import_seconds(env, IMPORT_SAMPLES)
    try:
        proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.exit(f"perfbench: worker exited with {proc.returncode}")
    with open(result_path) as fh:
        worker = json.load(fh)

    jobs = [j for j in worker["jobs"] if j["phase"] in ("measure", "traced")]
    all_jobs = worker["warmups"] + worker["jobs"]
    failed = [j for j in jobs if j["status"] != "ok"]
    unexpected = [j for j in all_jobs if j["status"] == "unexpected"]  # in any phase, warm-up included
    times = [j["adj_seconds"] for j in jobs]
    wall = [j["seconds"] for j in jobs]
    q, tail = percentile_tail(times)
    meta = metadata(args, env, worker)
    summary = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "jobs_per_s": len(times) / sum(times),
        "failed_ratio": len(failed) / len(jobs),
        "setup_s": statistics.median(worker["setup_adj_s"]),
        "peak_rss_mb": worker["peak_rss_mb"],
        "harness_rss_mb": worker["harness_rss_mb"],
        "wall_job_p50_s": statistics.median(wall),
        "wall_job_tail_s": percentile_tail(wall)[1],
        "wall_jobs_per_s": len(wall) / sum(wall),
        "wall_setup_s": statistics.median(worker["setup_s"]),
        "host_slowdown": statistics.median(j["probe_s"] for j in jobs) / worker["probe"]["ref_s"],
    }
    if not args.trace:
        imports += import_seconds(env, IMPORT_SAMPLES)
        summary["import_s"], meta["import_samples_s"] = statistics.median(imports), imports
    units = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s", "failed_ratio": "1", "setup_s": "s",
             "import_s": "s", "peak_rss_mb": "MB", "harness_rss_mb": "MB", "wall_job_p50_s": "s",
             "wall_job_tail_s": "s", "wall_jobs_per_s": "1/s", "wall_setup_s": "s", "host_slowdown": "x"}

    print(f"# workload {args.workload} seed {args.seed}: {len(jobs)} jobs in "
          f"{len({j['index'] for j in jobs})} rounds, closed loop, 1 client, {meta['threads']} threads")
    for name, value in summary.items():
        extra = ""
        if name in ("job_tail_s", "wall_job_tail_s"):
            extra = f"  (p{q}, n={len(times)})"
        elif name in ("job_p50_s", "jobs_per_s", "wall_job_p50_s", "wall_jobs_per_s"):
            extra = f"  (n={len(times)})"
        elif name in ("setup_s", "wall_setup_s"):
            extra = f"  (median of {len(worker['setup_s'])})"
        elif name == "import_s":
            extra = f"  (median of {len(meta['import_samples_s'])} fresh interpreters; printed only)"
        elif name == "peak_rss_mb":
            extra = "  (whole worker process: psilab, plus the benchmark's inputs and oracles)"
        elif name == "harness_rss_mb":
            extra = "  (resident before the first job: interpreter, imports, generated inputs; printed only)"
        elif name == "host_slowdown":
            extra = (f"  ({worker['probe']['kind']} probe: median / {worker['probe']['ref_s']:g} s; "
                     "the times above are scaled by the probe beside them)")
        print(f"{name:14s} {value:.6g} {units[name]}{extra}")
    with open(os.path.join(HERE, "expectations.json")) as fh:
        expect = json.load(fh)
    defects = {d["id"]: d for d in expect["known_defects"]}
    for status, count in sorted(Counter(j["status"] for j in jobs if j["status"] != "ok").items()):
        known = f" (known seed defect, ROADMAP item {defects[status]['roadmap_item']})" if status in defects else ""
        waved = sum(j["waved_rows"] for j in jobs if j["status"] == status)
        rows = f", {waved} of their {sum(j['lambdas'] for j in jobs if j['status'] == status)} rows let through" \
            if waved else ""
        print(f"failed: {count} x {status}{known}{rows}")
    for j in unexpected[:5]:
        print(f"unexpected failure: {j['kind']}: {j['reason']}\n    psilab {j['argv']}")
    print(f"waiting: {expect['waiting']}")

    if args.trace:
        metrics = worker["per_layer"]
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.6g} s on job_p50_s "
              f"({worker['spans']} spans, written to {os.path.relpath(workdir)}/spans.csv)")
    else:
        metrics = {name: {"value": summary[name], "unit": units[name]} for name in
                   ("job_p50_s", "job_tail_s", "jobs_per_s", "setup_s", "peak_rss_mb")}
    record = {"meta": meta, "summary": summary, "tail_percentile": q, "worker": worker}
    with open(os.path.join(workdir, "run.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not unexpected, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
