#!/usr/bin/env python3
"""Whole-run ScenarioWorld benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload op_qrsm_knee --seed 1 --seconds 30 --trace 0

It builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench, then starts one process per run of the workload at
the given seed, one after another. The number of runs is fixed by the
workload and --seconds, not by how fast the code is, so every commit is
measured with the same sample size. Each process builds the world 11 times,
runs it once and checks its outputs, so peak RSS is that run's own.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it adds one
traced run and reports the per-layer metrics. The printout starts with a
header (build type, compiler, seed, batches, nproc) and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. A copy of the printout
goes to .bench_build/perfbench/results/. The exit code is 0 only when every
output check passed.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_world")
RESULTS = os.path.join(BUILD, "results")

# Host seconds one run of each workload took when the benchmark was sized
# (NOTES.md). A measurement of --seconds makes seconds / cost runs whatever
# the speed of the code under test, so per-slice minima are taken over the
# same number of runs on every commit.
RUN_COST_S = {
    "op_qrsm_knee": 3.0,
    "greedy_faults_overload": 0.7,
    "lookahead_fork": 2.0,
}
WORKLOADS = tuple(RUN_COST_S)
# At least this many runs, so every seed is compared against a second run.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120

# Metric names and units, in the order BENCHMARK.json lists them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
# Metrics of the timed runs printed next to the end-to-end metrics but kept
# out of the bounded set: they swing too far from seed to seed (NOTES.md).
UNBOUNDED = ("batch_ms_tail", "sim.ticket_hit_rate", "sim.p95_lateness_s")


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "world.hpp")):
        print("error: no simulator sources under %s/src; run from a full "
              "checkout of the repository" % ROOT, file=sys.stderr)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_world",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return
    with open(log_path) as log:
        tail = log.read()[-4000:]
    print("error: building the benchmark failed:\n" + tail, file=sys.stderr)
    sys.exit(2)


def child(workload, seed, mode, extra=()):
    """One run in a fresh process; returns its JSON record."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--mode", mode,
           *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "run timed out after %d s" % CHILD_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": "exit code %d and no result: %s"
                  % (proc.returncode, proc.stderr.strip()[-500:])}
    if proc.returncode != 0 and not record.get("error"):
        record["error"] = "exit code %d" % proc.returncode
    return record


def run_count(workload, seconds):
    return max(MIN_RUNS, int(seconds / RUN_COST_S[workload]))


def timed_runs(workload, seed, seconds):
    runs = [child(workload, seed, "timed")
            for _ in range(run_count(workload, seconds))]
    # Every run of one seed must compute the same thing: a run whose outcome
    # digest, simulated metrics or job count differ from the majority fails.
    ok = [r for r in runs if not r.get("error")]
    if ok:
        key = lambda r: (r["outcome_digest"], r["sim_digest"], r["jobs"])
        majority, _ = collections.Counter(map(key, ok)).most_common(1)[0]
        for r in ok:
            if key(r) != majority:
                r["error"] = "outcome differs from other runs of this seed"
    return runs


def slice_tail(values):
    """The highest percentile with ten samples above it (nearest rank), as
    (value, percentile)."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(good):
    """The end-to-end metrics and the percentile batch_ms_tail reads.

    Every run of one seed does bit-identical work slice by slice (the digests
    prove it), so the spread between runs of one slice is load from outside
    the process. Timings therefore use, per slice, the fastest run of it."""
    best_ms = [min(runs) for runs in zip(*(r["slice_ms"] for r in good))]
    host_s = sum(best_ms) / 1e3 + min(r["result_s"] for r in good)
    tail, pct = slice_tail(best_ms)
    metrics = {
        "jobs_per_s": good[0]["jobs"] / host_s,
        # The builds of one process share one contention episode, so the
        # fastest over all runs is the steadiest figure (NOTES.md).
        "setup_s": min(s for r in good for s in r["setup_s"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good),
        "batch_ms_p50": statistics.median(best_ms),
        "batch_ms_tail": tail,
    }
    metrics.update(good[0]["sim"])
    return metrics, pct, len(best_ms)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    runs = timed_runs(args.workload, args.seed, args.seconds)
    good = [r for r in runs if not r.get("error")]
    traced = None
    if args.trace and good:
        os.makedirs(RESULTS, exist_ok=True)
        spans = os.path.join(RESULTS, "spans-%s-seed%d.json" % (args.workload, args.seed))
        traced = child(args.workload, args.seed, "traced", ["--spans", spans])
        if not traced.get("error") and traced["outcome_digest"] != good[0]["outcome_digest"]:
            traced["error"] = "the traced run's probes changed its outcome"
    attempted = len(runs) + (traced is not None)
    failures = [r["error"] for r in runs + ([traced] if traced else []) if r.get("error")]
    correct = not failures and bool(good)

    first = good[0] if good else runs[0]
    out = ["# perfbench workload=%s seed=%d batches=%s build_type=%s compiler=%s "
           "nproc=%d run_seconds=%d trace=%d"
           % (args.workload, args.seed, first.get("batches", "?"),
              first.get("build_type", "?"), first.get("compiler", "?"),
              os.cpu_count() or 0, args.seconds, args.trace)]
    for error in failures:
        out.append("# FAILED: " + error)
    metrics = {}
    if correct:
        values, pct, slices = end_to_end(good)
        out.append("# timings: per batch slice, the fastest of %d runs; batch_ms_tail "
                   "is p%.4g of %d slices (10 above it)" % (len(good), pct, slices))
        if args.trace:
            values.update(traced["metrics"])
            timed_jps = statistics.median(r["jobs"] / (r["run_s"] + r["result_s"])
                                          for r in good)
            values["trace.overhead_frac"] = 1.0 - traced["jobs_per_s"] / timed_jps
            out.append("# spans: " + os.path.relpath(spans, ROOT))
        for name, unit in PER_LAYER if args.trace else END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    for name, m in metrics.items():
        out.append("%-26s %.6g %s" % (name, m["value"], m["unit"]))
    if correct and not args.trace:
        for name, unit in PER_LAYER:
            if name in UNBOUNDED:
                out.append("%-26s %.6g %s (unbounded, see NOTES.md)"
                           % (name, values[name], unit))
    out.append("%-26s %.6g ratio (%d failed of %d runs)"
               % ("failed_frac", len(failures) / attempted, len(failures), attempted))
    out.append(json.dumps({"correct": correct, "attempted": attempted,
                           "failed": len(failures), "metrics": metrics}))

    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as f:
        f.write("\n".join(out[:-1]) + "\n")
        for r in runs + ([traced] if traced else []):
            f.write(json.dumps(r) + "\n")
        f.write(out[-1] + "\n")
    print("\n".join(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
