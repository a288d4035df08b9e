"""The acceptance gate: one test per criterion, at full stated scale.

Each test prints a PASS/FAIL line and enforces the stated runtime bound;
all arithmetic is exact, so the tolerances are zero everywhere.
"""

import pathlib
import subprocess
import sys
import time

from prflags import verify


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


def test_benchmark_selftest_passes():
    # the benchmark's own checks: BENCHMARK.json limits, the acceptance-bound
    # table above, failure accounting and the tracer's import sites
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True, cwd=root,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr).decode()
