"""Checks of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

- BENCHMARK.json is what spec.py renders, and within the limits its readers
  enforce (name patterns, lengths, bound range).
- The acceptance-bound table agrees with tests/test_acceptance.py, and a
  disagreement is detected.
- Failure accounting: on a tiny case set with a deliberately wrong
  expectation and a raising case, every case is attempted and the wrong and
  raising ones count as failed.
- The tracer wraps import sites as well as definitions, times generators per
  resumption, and its counts match the work done.
"""

import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import workloads  # noqa: E402
from prflags import e3, gf, pr  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
passed = 0


def check(ok, message):
    global passed
    if not ok:
        sys.exit("selftest FAILED: " + message)
    passed += 1


def check_benchmark_json():
    text = (ROOT / "BENCHMARK.json").read_text()
    check(text == spec.render_benchmark_json(), "BENCHMARK.json is stale; run perfbench/spec.py")
    data = spec.benchmark_json()
    check(len(text.encode()) <= 64 * 1024, "BENCHMARK.json over 64 KiB")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in data[key]]
    check(len(names) == len(set(names)), "a metric or workload name is used twice")
    check(all(NAME.match(n) for n in names), "a name breaks the name pattern")
    check(2 <= len(data["workloads"]) <= 8, "2 to 8 workloads")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"]),
          "a workload's why is over 200 characters or not one line")
    check(1 <= len(data["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    metrics = data["end_to_end"] + data["per_layer"]
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
          "a unit or direction is malformed")
    check(all(0 < m["bound"] <= 0.25 for m in data["end_to_end"]), "an end-to-end bound outside (0, 0.25]")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"]),
          "setup_s must carry the largest bound")
    check(1 <= data["run_seconds"] <= 60, "run_seconds outside 1..60")


def check_acceptance_table():
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    check(spec.acceptance_bound_mismatches(source) == [], "acceptance bound table disagrees with the tests")
    loosened = source.replace('"dominance-criterion", 10,', '"dominance-criterion", 20,')
    check(loosened != source, "the criterion-1 bound was not found in the test file")
    check(len(spec.acceptance_bound_mismatches(loosened)) == 1, "a changed bound went unnoticed")


def check_failure_accounting():
    F2 = workloads.F2
    points = e3.enum_Yadm(2, (1, 1, 1))
    top = max(points, key=lambda y: y.sort_key())
    bottom = [y for y in points if workloads.degenerates_to(top, y) and y != top][0]
    cases = [
        ("right", lambda: workloads.oracle_check(2, (1, 1, 1), F2)),
        ("wrong expectation", lambda: workloads.oracle_check(2, (1, 1, 1), F2, expected=[])),
        ("raises", lambda: workloads.degenerate_check(bottom, top, F2, ordered=True)),
        ("wrongly refused", lambda: workloads.degenerate_check(top, bottom, F2, ordered=False)),
    ]
    results = workloads.run_cases(cases, clock=lambda: 0.0)
    check([r[0] for r in results] == [c[0] for c in cases], "every case is attempted, in order")
    ok = {name: good for name, _t, good, _e in results}
    check(ok == {"right": True, "wrong expectation": False, "raises": False, "wrongly refused": False},
          "wrong and raising cases count as failed: %r" % ok)
    errors = {name: err for name, _t, _g, err in results}
    check(errors["raises"].startswith("StratOrderError"), "the raised exception is recorded")
    failed_frac = sum(not r[2] for r in results) / len(results)
    check(failed_frac == 0.75, "failed_frac is 3/4, got %r" % failed_frac)


def check_tracer():
    from tracer import ON_YIELD, Tracer

    original = gf.preimage
    tracer = Tracer(spec.LAYERS).install()
    check(gf.preimage is pr.preimage is e3.preimage, "every import site of gf.preimage is wrapped")
    check(gf.preimage.__wrapped__ is original, "the wrapper keeps the original")
    subspaces = list(gf.enumerate_subspaces(workloads.F2, 4, 2))
    stats = tracer.stats
    check(stats["gf.enumerate_subspaces"].calls == 1, "a generator call is counted once")
    check(stats["gf.enumerate_subspaces"].yielded == len(subspaces) == 35,
          "each item of a generator is counted")
    tracer.on_case("oracle")
    workloads.oracle_check(2, (1, 1, 1), workloads.F2)
    tracer.on_case(None)
    values = tracer.values()
    check(values["e3.iso_classes_oracle.calls"] == 1, "one oracle call")
    check(values["e3.classes"] == 4 == values["e3.enum_Yadm.points"], "4 classes at h=2, mu=(1,1,1)")
    check(all(s.self <= s.total + 1e-9 for s in stats.values()), "self time never exceeds total")
    check(not tracer.stack, "every frame was closed")
    check(len(tracer.spans) == 1 and tracer.spans[0]["case"] == "oracle", "one span per case")

    points = e3.enum_Yadm(2, (1, 1, 1))
    top = max(points, key=lambda y: y.sort_key())
    bottom = min(points, key=lambda y: y.sort_key())
    check(workloads.degenerate_check(top, bottom, workloads.F2, ordered=True), "h=2 degeneration")
    search = stats["lift._lift_solutions"]
    served = search.extra["degeneration_candidates"]
    check(served == search.yielded > 0, "a degeneration's candidates are counted as its own")
    ON_YIELD["lift._lift_solutions"](tracer, search)
    check(search.extra["degeneration_candidates"] == served,
          "a candidate yielded outside a degeneration is not counted as one")


if __name__ == "__main__":
    check_benchmark_json()
    check_acceptance_table()
    check_failure_accounting()
    check_tracer()
    print("selftest: %d checks passed" % passed)
