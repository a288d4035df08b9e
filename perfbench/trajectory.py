"""Run every workload over several seeds and record one point of the trajectory.

    python3 perfbench/trajectory.py --out perfbench/trajectory/<sha>.json

For each workload: one untraced run per seed (SEEDS), at the benchmark's
run length, giving each end-to-end
metric's median, quartiles and spread (the distance between the quartiles
as a share of the median, next to the metric's bound); then two traced runs
with the first seed, giving the per-layer metrics and a check that every
count repeats exactly between them.  Runs go one at a time, so they never
compete for the processor.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).read_text())
    return result, detail


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path)
    args = ap.parse_args()

    bounds = {name: bound for name, _u, _b, bound in spec.END_TO_END}
    point = {
        "commit": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "run_seconds": spec.RUN_SECONDS, "seeds": SEEDS,
        "layer_map": {name: moves for name, _u, _b, moves in spec.PER_LAYER},
        "workloads": {},
    }
    for workload, _why in spec.WORKLOADS:
        entry = point["workloads"][workload] = {"attempted": 0, "failed": 0, "run_s": []}
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            t0 = time.monotonic()
            result, detail = run(workload, seed, 0)
            entry["run_s"].append(time.monotonic() - t0)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        entry["tail"] = "p%.1f of %d cases per pass" % (
            detail["context"]["tail_percentile"], detail["context"]["cases_per_pass"])
        entry["end_to_end"] = {name: dict(quartiles(v), bound=bounds[name]) for name, v in values.items()}
        print("%-10s runs took %.1f-%.1f s" % (workload, min(entry["run_s"]), max(entry["run_s"])))
        for name, q in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or q["spread"] <= q["bound"] / 3 else "  <-- above bound/3"
            print("%-10s %-13s median %12.4f  spread %.3f  bound %.2f%s"
                  % (workload, name, q["median"], q["spread"], q["bound"], flag), flush=True)
        traced = [run(workload, SEEDS[0], 1) for _ in range(2)]
        entry["per_layer"] = {k: m["value"] for k, m in traced[0][0]["metrics"].items()}
        counts = [{k: v for k, v in d["trace_values"].items() if isinstance(v, int)}
                  for _, d in traced]
        entry["counts_not_repeating"] = sorted(
            k for k in counts[0].keys() | counts[1].keys() if counts[0].get(k) != counts[1].get(k))
        entry["traced_correct"] = all(r["correct"] for r, _ in traced)
        if workload == "acceptance":
            entry["report_repeats"] = traced[0][1]["report_sha256"] == traced[1][1]["report_sha256"]
        print("%-10s trace.overhead %.3f, %d counts compared, not repeating: %s"
              % (workload, entry["per_layer"]["trace.overhead"], len(counts[0]),
                 entry["counts_not_repeating"] or "none"), flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
