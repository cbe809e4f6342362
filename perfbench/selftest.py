#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload <name> ...]

For each workload (default: those in BENCHMARK.json plus
hetero-faults-incremental, which the harness keeps runnable):
  * an untraced and two traced runs of one seed must succeed. run.py
    rejects a run whose metric names or units differ from BENCHMARK.json,
    and the harness marks a run incorrect when a replay does not reproduce
    its simulation's invocation and solve counts (replay equivalence);
  * every exact count must be identical in the two traced runs.
Then a copy of only BENCHMARK.json and perfbench/ must fail without
printing a result, because the library sources are missing.
Runs use --seconds 1, which measures one round.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
# Measured by the harness but left out of BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["hetero-faults-incremental"]

# Counts that depend only on the inputs, never on the host's speed.
EXACT = [
    "cp.solve_calls", "cp.decisions", "cp.fails", "core.reschedule_calls",
    "core.live_tasks_mean", "core.max_live_tasks", "core.dirty_jobs_mean",
    "core.frozen_tasks_mean", "core.model_cache_hit_ratio", "core.warm_start_ratio",
    "core.degraded_calls", "core.parked_calls", "core.skipped_calls",
    "core.idle_calls", "sim.tasks_killed", "sim.resource_failures",
    "baseline.dispatches", "quality.P_pct", "quality.T_s",
]


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    return proc


def result_of(proc, what):
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {what}: exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args()
    names = {m["name"] for m in spec["per_layer"]}
    missing = [m for m in EXACT if m not in names]
    if missing:
        raise SystemExit(f"FAIL exact counts not in BENCHMARK.json: {missing}")

    for workload in args.workload or workloads:
        result_of(run(ROOT, workload, 0), f"{workload} untraced")
        first = result_of(run(ROOT, workload, 1), f"{workload} traced")["metrics"]
        second = result_of(run(ROOT, workload, 1), f"{workload} traced again")["metrics"]
        differ = [m for m in EXACT if first[m]["value"] != second[m]["value"]]
        if differ:
            raise SystemExit(f"FAIL {workload}: exact counts changed between runs: "
                             + ", ".join(f"{m} {first[m]['value']} vs "
                                         f"{second[m]['value']}" for m in differ))
        print(f"ok {workload}: names and units match, replay reproduces the "
              f"simulation, {len(EXACT)} exact counts repeat")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("FAIL a copy without the library sources did not fail cleanly")
    print("ok without the library sources the benchmark fails and prints no result")


if __name__ == "__main__":
    main()
