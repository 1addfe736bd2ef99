"""Run one workload in this (fresh) process and write its measurements as JSON.

Started by run.py with psilab's ``src`` on PYTHONPATH and every BLAS pool
pinned to one thread. One client, closed loop: the next job starts when the
previous one returned. Each job is timed from ``psilab.cli.dispatch`` entry
until it returns, by which time its output file is written and closed;
generating inputs and checking outputs happen between jobs, outside the
timing.

A fixed probe (hostspeed.py) is timed just before and just after every
job and around every set-up, and each time is also given scaled to one
host speed.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import checks
import layers
from hostspeed import KERNELS, adjust, probe
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 5
CAP_S = 60.0  # a phase starts no new round after this, so a much slower program still ends in time
PAGE_MB = resource.getpagesize() / 2**20


def resident_mb():
    """This process's resident set size now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def run_job(cli, job, out_path, probe_kind):
    """One dispatch call; returns (seconds, Result, resident MB just before it, probe seconds before and after)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    gc.collect()
    rss = resident_mb()
    before = probe(probe_kind)
    exc = rc = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.dispatch(job.argv)
        except Exception as e:  # an uncaught library error is a failed job, not a harness crash
            exc = e
        t1 = time.perf_counter()
    after = probe(probe_kind)
    return t1 - t0, checks.Result(rc, exc, err.getvalue(), out_path), rss, (before, after)


def execute(cli, wl, job, phase, index):
    if job.prepare is not None:
        job.prepare()
    out_path = wl.out
    seconds, res, rss, host = run_job(cli, job, out_path, wl.PROBE)
    failure = checks.run_check(job.check, job, res)
    out_bytes = os.path.getsize(out_path) if os.path.exists(out_path) else 0
    return {
        "phase": phase,
        "index": index,
        "kind": job.kind,
        "argv": " ".join(job.argv),
        "seconds": seconds,
        "status": "ok" if failure is None else (failure.defect or "unexpected"),
        "reason": None if failure is None else failure.reason[:300],
        "waved_rows": 0 if failure is None else failure.waved,
        "output_bytes": out_bytes,
        "rss_before_mb": rss,
        "probe_before_s": host[0],
        "probe_after_s": host[1],
        **job.sizes,
    }


def loop(cli, wl, rounds, first, phase, records, tracer=None):
    """Run rounds first .. first+rounds-1, stopping early only past CAP_S; returns the next round index."""
    start = time.perf_counter()
    for i in range(first, first + rounds):
        jobs = wl.round(i)[::-1]
        while jobs:
            job = jobs.pop()  # dropped after its check, with its oracle arrays
            if tracer is not None:
                tracer.job = len(records)
            records.append(execute(cli, wl, job, phase, i))
        if time.perf_counter() - start > CAP_S:
            break
    return i + 1


def threads_now():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy
    import psilab
    import psilab.cli as cli
    import scipy

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(psilab.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: psilab imported from {psilab.__file__}, not from {src}")

    # set-up, several times: generate and write the inputs, then one warm-up job
    kind = WORKLOADS[args.workload].PROBE
    setup_times, setup_adj, warmups = [], [], []
    for _ in range(SETUP_REPEATS):
        before = probe(kind)
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.workdir, args.seed)
        warm = wl.setup()
        warmups.append(execute(cli, wl, warm, "warmup", -1))
        setup_times.append(time.perf_counter() - t0)
        warm_probes = [warmups[-1]["probe_before_s"], warmups[-1]["probe_after_s"]]
        host = statistics.median([before, *warm_probes, probe(kind)])
        setup_adj.append(setup_times[-1] * KERNELS[kind][1] / host)
    # keep what exists now (imports, inputs) out of every later collection, so the
    # gc.collect() before each job is cheap and no timed job pays a full pass over it
    gc.collect()
    gc.freeze()

    # a fixed amount of work per run, seconds // ROUND_S rounds, so every run
    # of a seed runs the same jobs on every commit
    rounds = max(1, int(args.seconds // wl.ROUND_S))
    records: list[dict] = []
    result = {"setup_s": setup_times, "setup_adj_s": setup_adj, "warmups": warmups, "rounds": rounds}
    if args.trace:
        # untraced reference half, then the traced half with the same kind of rounds
        half = max(1, rounds // 2)
        nxt = loop(cli, wl, half, 0, "reference", records)
        tracer = Tracer()
        tracer.install()
        try:
            loop(cli, wl, half, nxt, "traced", records, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.workdir, "spans.csv"))
        adjust(records, kind, wl.PROBE_WINDOW)
        ref_t = [r["adj_seconds"] for r in records if r["phase"] == "reference"]
        traced = [r for r in records if r["phase"] == "traced"]
        overhead = statistics.median(r["adj_seconds"] for r in traced) - statistics.median(ref_t)
        stats, under = tracer.summarize()
        result["per_layer"] = layers.compute(stats, under, tracer.errors, traced, overhead)
        result["spans"] = len(tracer.spans)
    else:
        loop(cli, wl, rounds, 0, "measure", records)
        adjust(records, kind, wl.PROBE_WINDOW)

    result.update({
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the benchmark's own share: interpreter, imports and generated inputs, before psilab's first job
        "harness_rss_mb": warmups[0]["rss_before_mb"],
        "threads": threads_now(),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "probe": {"kind": kind, "ref_s": KERNELS[kind][1], "window": wl.PROBE_WINDOW},
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
