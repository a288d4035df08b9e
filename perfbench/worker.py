"""One pass of a workload in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload oracle --seed 1 --mode pass

Modes: `setup` imports the library and builds the case list, then stops;
`pass` also runs every case once; `traced` does the same with the tracer
installed.  Set-up time runs from before `import prflags` to the moment the
set-up is done.  Before it starts, nothing the library imports is imported
here (the arguments are read by hand), so the library's own standard-library
imports count in it.  The calibration routine (calibration.py) runs six
times after set-up and then between cases; its time is left out of every
measured interval.  Times are printed raw, with the calibration samples
beside them.  run.py starts this script; run it by hand only to debug a pass.
"""

import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODES = ("setup", "pass", "traced")


def parse_args(argv):
    """{'workload', 'seed', 'mode'} from `--name value` pairs, without argparse."""
    if len(argv) % 2:
        sys.exit("usage: worker.py --workload NAME --seed N --mode {%s}" % ",".join(MODES))
    args = dict(zip(argv[0::2], argv[1::2]))
    if sorted(args) != ["--mode", "--seed", "--workload"] or args["--mode"] not in MODES:
        sys.exit("usage: worker.py --workload NAME --seed N --mode {%s}" % ",".join(MODES))
    return args["--workload"], int(args["--seed"]), args["--mode"]


def main():
    workload, seed, mode = parse_args(sys.argv[1:])
    sys.path.insert(0, str(SRC))
    clock = time.perf_counter

    t0 = clock()
    import prflags
    import workloads

    acceptance = workload == "acceptance"
    cases = None if acceptance else workloads.build_cases(workload, seed)
    t1 = clock()

    import json

    from calibration import Calibrator, routine

    if pathlib.Path(prflags.__file__).resolve().parent != SRC / "prflags":
        sys.exit("imported prflags from %s, not from %s" % (prflags.__file__, SRC))
    calibrator = Calibrator()
    routine()  # warm-up, not counted
    for _ in range(6):
        calibrator.sample()
    out = {"setup_s": t1 - t0, "setup_calibration": list(calibrator.samples)}
    if mode == "setup":
        print(json.dumps(out))
        return
    tracer = None
    if mode == "traced":
        from spec import LAYERS
        from tracer import Tracer

        tracer = Tracer(LAYERS).install()

    setup_spent = calibrator.spent
    t2 = clock()
    if acceptance:
        if tracer:
            tracer.on_case("verify all")
        results, out["stdout"] = workloads.run_acceptance(seed, calibrator.maybe)
        if tracer:
            tracer.on_case(None)
    else:

        def on_case(name):
            if name is not None:
                calibrator.maybe()
            if tracer:
                tracer.on_case(name)

        results = workloads.run_cases(cases, clock, on_case)
    out["wall_s"] = clock() - t2 - (calibrator.spent - setup_spent)
    calibrator.sample()
    out["calibration"] = calibrator.samples
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["cases"] = results
    if tracer:
        out["trace"] = {"values": tracer.values(), "spans": tracer.spans}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
