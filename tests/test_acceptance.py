"""The acceptance gate: one test per criterion, at full stated scale.

Each test prints a PASS/FAIL line and enforces the stated runtime bound;
all arithmetic is exact, so the tolerances are zero everywhere.
"""

import ast
import json
import pathlib
import re
import runpy
import subprocess
import sys
import time

from prflags import verify
from prflags.cli import main


def _check(number, name, bound_seconds, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - t0
    print(
        "ACCEPTANCE %d %s %s: %s (%.1fs, bound %ds)"
        % (number, "PASS" if ok else "FAIL", name, detail, elapsed, bound_seconds)
    )
    assert ok, "%s failed: %s" % (name, detail)
    assert elapsed < bound_seconds, "%s exceeded %ds (%.1fs)" % (
        name,
        bound_seconds,
        elapsed,
    )


def test_acceptance_1_dominance_criterion():
    _check(1, "dominance-criterion", 10, lambda: verify.criterion_dominance(7))


def test_acceptance_2_hodge_identity():
    _check(2, "hodge-polygon-identity", 5, verify.criterion_hodge_identity)


def test_acceptance_3_pr_existence_both_directions():
    _check(3, "pr-existence-theorem", 300, lambda: verify.criterion_pr_existence(5))


def test_acceptance_4_e3_bijection():
    _check(4, "e3-bijection", 600, lambda: verify.criterion_bijection(5))


def test_acceptance_5_filtration_dominance():
    _check(5, "filtration-dominance", 30, lambda: verify.criterion_filtration_dominance(7))


def test_acceptance_6_lifting_lemma():
    _check(6, "lifting-lemma", 60, lambda: verify.criterion_lifting_lemma(7))


def test_acceptance_7_isotropic_lifting():
    _check(7, "isotropic-lifting", 60, lambda: verify.criterion_isotropic(7))


def test_acceptance_8_stratification_engine():
    _check(8, "stratification-engine", 300, verify.criterion_strat_engine)


def test_stratification_criterion_names_its_failures(monkeypatch):
    def no_lift(y_from, y_to, field, polarized=False):
        raise verify.liftmod.TheoremGapError("no lift")

    monkeypatch.setattr(verify.liftmod, "degenerate_step", no_lift)
    ok, detail = verify.criterion_strat_engine()
    assert not ok
    # every ordered and every unordered pair fails; the first four are named
    assert detail.startswith("ordered=35 refused=0 covers=6 failures=51 [")
    assert detail.count("TheoremGapError") == 4
    assert "((1, 1, 1), (1, 1), (1, 1))->((1, 1, 1), (1, 1), (1, 1)) TheoremGapError" in detail


def test_a_criterion_that_raises_fails_and_the_battery_goes_on(monkeypatch, capsys):
    for name in (
        "criterion_dominance", "criterion_hodge_identity", "criterion_pr_existence",
        "criterion_filtration_dominance", "criterion_lifting_lemma",
        "criterion_isotropic", "criterion_strat_engine",
    ):
        monkeypatch.setattr(verify, name, lambda *args: (True, "stub"))

    def raises(max_dim):
        raise verify.liftmod.TheoremGapError("no lift for %r" % ((1, 1, 1),))

    monkeypatch.setattr(verify, "criterion_bijection", raises)
    runs = [(main(["verify", "all", "--seed", "7"]), capsys.readouterr().out) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out = runs[0]
    lines = out.splitlines()
    assert code == 1 and len(lines) == 9
    assert lines[3] == (
        "criterion-4-bijection            FAIL raised=TheoremGapError: no lift for (1, 1, 1)"
    )
    assert sum(line.endswith(" PASS stub") for line in lines) == 7
    assert lines[-1] == "TOTAL FAIL 7/8"


# the whole `verify all --max-dim 5 --seed 7` report: a change that shrinks
# a checked family changes a count here
SEED_7_REPORT = (
    "criterion-1-dominance            PASS pairs=18773 mismatches=0\n"
    "criterion-2-hodge-identity       PASS types=150 mismatches=0\n"
    "criterion-3-pr-existence         PASS cases=1808 failures=0\n"
    "criterion-4-bijection            PASS roundtrips=61 oracle_cases=26 failures=0\n"
    "criterion-5-filtration-dominance PASS instances=1000 failures=0\n"
    "criterion-6-lifting-lemma        PASS feasible=500 infeasible=100 failures=0\n"
    "criterion-7-isotropic            PASS instances=200 failures=0\n"
    "criterion-8-stratification       PASS ordered=35 refused=16 covers=6 failures=0\n"
    "TOTAL PASS 8/8\n"
).encode()


def test_acceptance_9_determinism():
    t0 = time.perf_counter()
    cmd = [
        sys.executable,
        "-m",
        "prflags.cli",
        "verify",
        "all",
        "--max-dim",
        "5",
        "--seed",
        "7",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.perf_counter() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    print(
        "ACCEPTANCE 9 %s determinism: two runs, %d bytes each (%.1fs)"
        % ("PASS" if ok else "FAIL", len(first.stdout), elapsed)
    )
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout, "reports differ between runs"
    assert first.stdout == SEED_7_REPORT


def test_benchmark_selftest_passes():
    # the benchmark's own checks: BENCHMARK.json limits, the acceptance-bound
    # table above, failure accounting and the tracer's import sites
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True, cwd=root,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()


def test_traced_degenerate_pass_gives_every_layer_metric():
    # `perfbench/run.py --trace 1` fails when a per-layer metric has no value,
    # e.g. when a traced public function is hidden behind a cache wrapper
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "worker.py"),
         "--workload", "degenerate", "--seed", "1", "--mode", "traced"],
        capture_output=True, cwd=root, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout.strip().splitlines()[-1])["trace"]["values"]
    layers = ("gf", "polygon", "tmodule", "pr", "e3", "strat", "lift")
    wanted = [
        name for name, *_ in runpy.run_path(str(root / "perfbench" / "spec.py"))["PER_LAYER"]
        if name.split(".")[0] in layers
    ]
    assert {name.split(".")[0] for name in wanted} == set(layers)
    assert [name for name in wanted if name not in values] == []


def test_readme_library_example():
    # README's ```python block must run as printed
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```", 1)[0], "README.md", "exec"), {})


def test_every_public_name_has_a_use():
    # a public function, class or method of the library must be referenced:
    # a name or attribute in the code of src/ or perfbench/, or an identifier
    # in backticks in README (string literals and prose do not count)
    root = pathlib.Path(__file__).resolve().parent.parent
    public = []
    for path in sorted((root / "src" / "prflags").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef) and node.name[0] != "_":
                public += [
                    (path.stem, "%s.%s" % (node.name, m.name), m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                ]
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    for span in re.findall(r"`([^`]*)`", (root / "README.md").read_text()):
        used.update(re.findall(r"[A-Za-z_]\w*", span))
    unused = ["%s.%s" % (module, qualname) for module, qualname, name in public if name not in used]
    assert len(public) > 100 and unused == []
