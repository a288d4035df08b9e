"""The benchmark's workloads: case lists built from a seed, and their checks.

A case is a `(name, check)` pair; `check()` does the work and returns
whether the answer was right.  Every check compares the library against an
expectation it did not produce itself where one is cheap (the stratification
order is recomputed here from the polygon definition), and against a second
library path otherwise (the classifying map against `enum_Yadm`).

The library is reached through module attributes at call time, never through
names bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

from prflags import cli, e3, gf, lift, verify
from spec import ACCEPTANCE_BOUNDS

F2 = gf.PrimeField(2)
F3 = gf.PrimeField(3)
F5 = gf.PrimeField(5)


def sorted_mus(h):
    """Every non-increasing mu in [0, h]^3."""
    for mu in itertools.product(range(h, -1, -1), repeat=3):
        if mu[0] >= mu[1] >= mu[2]:
            yield mu


def _polygon_sums(h, d):
    """N * P(d)(x) at the integers x = 0..h, where P's breakpoints lie."""
    return [sum(max(0, x + di - h) for di in d) for x in range(h + 1)]


def _dominates(h, d_hi, d_lo):
    hi, lo = _polygon_sums(h, d_hi), _polygon_sums(h, d_lo)
    return all(a * len(d_lo) >= b * len(d_hi) for a, b in zip(hi, lo))


def degenerates_to(y_from, y_to):
    """Whether y_to <= y_from: y_from's three polygons dominate y_to's."""
    return all(
        _dominates(y_from.h, hi, lo)
        for hi, lo in (
            (y_from.delta, y_to.delta),
            (y_from.alpha, y_to.alpha),
            (y_from.beta, y_to.beta),
        )
    )


# --- checks -------------------------------------------------------------------


def oracle_check(h, mu, field, expected=None):
    """phi is injective on the oracle's classes and its image is Y^adm."""
    res = e3.iso_classes_oracle(h, mu, field, max_total_dim=sum(mu))
    keys = [c[2].sort_key() for c in res.classes]
    if expected is None:
        expected = [p.sort_key() for p in e3.enum_Yadm(h, mu)]
    return (
        res.count == len(keys)
        and len(set(keys)) == len(keys)
        and sorted(keys) == sorted(expected)
    )


def roundtrip_check(y, field):
    return e3.phi(e3.normal_form(y, field), y.h) == y


def degenerate_check(y_from, y_to, field, ordered, polarized=False):
    """An ordered pair must reproduce y_to; any other pair must be refused."""
    if ordered:
        res = lift.degenerate_step(y_from, y_to, field, polarized=polarized)
        return res.generic == y_to
    try:
        lift.degenerate_step(y_from, y_to, field, polarized=polarized)
    except lift.StratOrderError:
        return True
    return False


# --- case lists -----------------------------------------------------------------


def _pair_cases(field, points, only_ordered=False, polarized=False):
    cases = []
    for a, b in itertools.product(points, repeat=2):
        ordered = degenerates_to(a, b)
        if only_ordered and not ordered:
            continue
        name = "degenerate F%d%s h=%d mu=%s %s->%s" % (
            field.p,
            " pol" if polarized else "",
            a.h,
            ",".join(map(str, a.mu)),
            a.sort_key(),
            b.sort_key(),
        )
        cases.append(
            (
                name,
                lambda a=a, b=b, o=ordered: degenerate_check(a, b, field, o, polarized),
            )
        )
    return cases


def _oracle_cases(field, caps):
    """One case per sorted mu with sum(mu) <= caps[h], for each h in caps."""
    return [
        (
            "oracle F%d h=%d mu=%s" % (field.p, h, ",".join(map(str, mu))),
            lambda h=h, mu=mu: oracle_check(h, mu, field),
        )
        for h, cap in caps.items()
        for mu in sorted_mus(h)
        if sum(mu) <= cap
    ]


def _strata(hs):
    """enum_Yadm(h, mu) for every h in hs and sorted mu, keyed by (h, mu)."""
    return {(h, mu): e3.enum_Yadm(h, mu) for h in hs for mu in sorted_mus(h)}


def oracle_cases():
    """Total <= 8 at h <= 4 and <= 5 at h = 5, plus the frontier h = 5, mu = (3,3,3)."""
    cases = _oracle_cases(F2, {1: 8, 2: 8, 3: 8, 4: 8, 5: 5})
    return cases + [
        ("oracle F2 h=5 mu=3,3,3 (frontier)", lambda: oracle_check(5, (3, 3, 3), F2))
    ]


def degenerate_cases():
    """Every pair, ordered or not, of enum_Yadm points at h = 3, 4 and of enum_Ypol(2)."""
    cases = []
    for points in _strata((3, 4)).values():
        cases += _pair_cases(F2, points)
    return cases + _pair_cases(F2, e3.enum_Ypol(2), polarized=True)


def odd_cases():
    """Over F_3 and F_5: the oracle at total <= 4 (F_3 to h = 4, F_5 to h = 3),
    normal-form round trips to h = 4, and F_3 degenerations of ordered pairs to h = 3."""
    cases = _oracle_cases(F3, dict.fromkeys((1, 2, 3, 4), 4))
    cases += _oracle_cases(F5, dict.fromkeys((1, 2, 3), 4))
    strata = _strata((1, 2, 3, 4))
    for field in (F3, F5):
        for (h, mu), points in strata.items():
            cases += [
                (
                    "roundtrip F%d h=%d mu=%s %s" % (field.p, h, ",".join(map(str, mu)), y.sort_key()),
                    lambda y=y, field=field: roundtrip_check(y, field),
                )
                for y in points
            ]
    for (h, mu), points in strata.items():
        if h <= 3:
            cases += _pair_cases(F3, points, only_ordered=True)
    return cases


CASE_BUILDERS = {
    "oracle": oracle_cases,
    "degenerate": degenerate_cases,
    "odd": odd_cases,
}


def build_cases(workload, seed):
    """The workload's cases in a seed-shuffled order: same work on every seed."""
    cases = CASE_BUILDERS[workload]()
    random.Random(seed).shuffle(cases)
    return cases


def run_cases(cases, clock, on_case=None):
    """Run cases one after another; an exception is a failed case, never a skip.

    Returns a list of (name, seconds, ok, error) in run order.
    """
    results = []
    for name, check in cases:
        if on_case:
            on_case(name)
        t0 = clock()
        error = None
        try:
            ok = check() is True
        except Exception as exc:  # a raising case is counted, not skipped
            ok = False
            error = "%s: %s" % (type(exc).__name__, exc)
        results.append((name, clock() - t0, ok, error))
        if on_case:
            on_case(None)
    return results


# --- acceptance ---------------------------------------------------------------------


def acceptance_argv(seed):
    return ["verify", "all", "--max-dim", "5", "--seed", str(seed)]


def run_acceptance(seed, between=None):
    """One in-process `prflags verify all`; its criteria are the cases.

    `between()`, if given, runs before each criterion, outside its timing.
    Returns (results, stdout) with results shaped as run_cases'.  Criterion
    latencies are the library's own CriterionResult.elapsed.
    """
    captured = []
    run_all = timed = None

    def capturing_run_all(*args, **kwargs):
        res = run_all(*args, **kwargs)
        captured.extend(res)
        return res

    def timed_after_between(key, fn):
        between()
        return timed(key, fn)

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        run_all = verify.run_all
        # Calibration samples go between criteria by way of verify's private
        # criterion timer; a verify without one runs with no such samples.
        timed = getattr(verify, "_timed", None) if between else None
        verify.run_all = capturing_run_all
        if timed:
            verify._timed = timed_after_between
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(acceptance_argv(seed))
    except Exception as exc:  # reported as eight failed criteria below
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        if run_all:
            verify.run_all = run_all
        if timed:
            verify._timed = timed
    stdout = out.getvalue()
    whole_ok = code == 0 and stdout.endswith("TOTAL PASS 8/8\n") and error is None
    if not captured:
        keys = [key for _, key, _ in ACCEPTANCE_BOUNDS.values()]
        return [(key, 0.0, False, error or "no criteria ran") for key in keys], stdout
    results = [
        (r.key, r.elapsed, r.ok and whole_ok, None if r.ok else r.detail)
        for r in captured
    ]
    return results, stdout
