"""The prflags benchmark: one workload, one seed, a closed loop of one client.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Each pass runs every case of the workload once in a fresh, single-threaded
interpreter (perfbench/worker.py), so whatever the library caches is paid
inside the pass, as a command-line user pays it.  Passes run one after
another until --seconds have gone by (at least MIN_PASSES of them), then
short set-up-only passes top the set-up samples up to SETUP_SAMPLES.  Every
answer is checked; the asserts of the library stay on, as users run it.
Every time reported is in calibrated seconds (calibration.py): the measured
time scaled by how fast a fixed routine ran in the same process, so that the
host's changing speed cancels out; the raw times go to perfbench/out/.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics; with --trace 1 one more pass runs under the tracer and
the object carries the per-layer metrics instead.  Details (per-pass
numbers, failures, and with --trace 1 the per-case spans) go to
perfbench/out/.  The exit code is 0 only when the run completed; a failed
check is reported through "correct" and "failed", not through the exit code.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import calibration
import spec

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

MIN_PASSES = 2  # acceptance compares each report with the run's first
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run, children included


def fail(message, code=1):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, mode):
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        left = self.deadline - time.monotonic()
        if left <= 0:
            fail("out of time before a %s pass" % mode)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            fail("a %s pass did not finish within the run's time limit" % mode)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("a %s pass exited with code %d" % (mode, proc.returncode))
        return calibrate(json.loads(proc.stdout.strip().splitlines()[-1]))


def calibrate(result):
    """Turn a child's raw times into calibrated ones, keeping the raw ones."""
    result["setup_raw_s"] = result["setup_s"]
    result["setup_s"] *= calibration.factor(result["setup_calibration"])
    if "calibration" not in result:
        return result
    f = result["factor"] = calibration.factor(result["calibration"])
    result["wall_raw_s"] = result["wall_s"]
    result["wall_s"] *= f
    result["cases"] = [[name, seconds * f, ok, err] for name, seconds, ok, err in result["cases"]]
    if "trace" in result:
        values = result["trace"]["values"]
        for key in values:
            if key.endswith("_s"):
                values[key] *= f
    return result


def tail(values):
    """(value, percentile, cases beyond): the highest percentile >= 10 cases exceed.

    With ten cases or fewer no percentile qualifies, and the maximum is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def summarize(passes, setups):
    """End-to-end metrics and their context from the untraced passes."""
    p50s, tails = [], []
    for p in passes:
        ms = [c[1] * 1000.0 for c in p["cases"]]
        p50s.append(statistics.median(ms))
        tails.append(tail(ms))
    _, pct, beyond = tails[0]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "case_p50_ms": statistics.median(p50s),
        "case_tail_ms": statistics.median(t[0] for t in tails),
    }
    context = {
        "cases_per_pass": len(passes[0]["cases"]),
        "tail_percentile": pct,
        "tail_cases_beyond": beyond,
        "passes": len(passes),
        "setup_samples": len(setups),
    }
    return metrics, context


def check_acceptance(passes):
    """Mark every criterion of a pass failed if its report differs from the first."""
    first = passes[0]["stdout"]
    for p in passes[1:]:
        if p["stdout"] != first:
            p["cases"] = [[c[0], c[1], False, "report differs from the run's first pass"]
                          for c in p["cases"]]


def layer_metrics(traced, passes):
    values = dict(traced["trace"]["values"])
    wall = statistics.median(p["wall_s"] for p in passes)
    values["trace.overhead"] = traced["wall_s"] / wall
    elapsed = {}
    for p in passes:
        for key, seconds, _ok, _err in p["cases"]:
            elapsed.setdefault(key, []).append(seconds)
    for _test, key, bound in spec.ACCEPTANCE_BOUNDS.values():
        seconds = statistics.median(elapsed[key]) if key in elapsed else 0.0
        values["verify.%s.wall_s" % key] = seconds
        values["verify.%s.slack" % key] = bound / seconds if seconds else 0.0
    missing = [name for name, *_ in spec.PER_LAYER if name not in values]
    if missing:
        fail("the trace gave no value for %s" % ", ".join(missing))
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec.PER_LAYER}, values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "prflags" / "__init__.py").is_file():
        fail("no prflags sources under %s" % (ROOT / "src"), 2)
    if args.workload == "acceptance":
        tests = ROOT / "tests" / "test_acceptance.py"
        if not tests.is_file():
            fail("no %s to read the acceptance bounds from" % tests, 2)
        problems = spec.acceptance_bound_mismatches(tests.read_text())
        if problems:
            fail("acceptance bounds disagree with tests/test_acceptance.py: " + "; ".join(problems))

    runner = Runner(args.workload, args.seed)
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(runner.child("pass"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    traced = runner.child("traced") if args.trace else None

    measured = passes + ([traced] if traced else [])
    if args.workload == "acceptance":
        check_acceptance(measured)
    attempted = sum(len(p["cases"]) for p in measured)
    failures = [c for p in measured for c in p["cases"] if not c[2]]
    metrics, context = summarize(passes, setups)
    context["failed_frac"] = len(failures) / attempted

    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    context["calibration_factor"] = statistics.median(p["factor"] for p in passes)
    context["wall_raw_s"] = statistics.median(p["wall_raw_s"] for p in passes)
    print("workload %s seed %d: %d passes, %d cases each, %d attempted, %d failed (failed_frac %.4f)"
          % (args.workload, args.seed, context["passes"], context["cases_per_pass"],
             attempted, len(failures), context["failed_frac"]))
    print("  times in calibrated seconds; factor %.3f, raw wall_s %.4f"
          % (context["calibration_factor"], context["wall_raw_s"]))
    for name, value in metrics.items():
        note = ""
        if name == "case_tail_ms":
            note = "  (p%.1f of %d cases per pass, %d beyond)" % (
                context["tail_percentile"], context["cases_per_pass"], context["tail_cases_beyond"])
        print("  %-14s %12.4f %s%s" % (name, value, units[name], note))
    for name, _seconds, _ok, error in failures[:10]:
        print("  FAILED %s: %s" % (name, error))

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "metrics": metrics, "context": context, "failures": failures,
        "passes": [{k: p[k] for k in ("wall_s", "wall_raw_s", "factor", "setup_s", "setup_raw_s",
                                      "peak_rss_mb")} for p in passes],
    }
    if args.workload == "acceptance":
        detail["report_sha256"] = hashlib.sha256(passes[0]["stdout"].encode()).hexdigest()
    if traced:
        result_metrics, values = layer_metrics(traced, passes)
        detail.update(trace_values=values, spans=traced["trace"]["spans"])
        print("  trace.overhead %.3f (traced pass %.2f s)" % (values["trace.overhead"], traced["wall_s"]))
    else:
        result_metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    OUT.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(detail, indent=1))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result_metrics,
    }))


if __name__ == "__main__":
    main()
