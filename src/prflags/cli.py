"""Command-line interface: polygon arithmetic, PR queries, enumerations,
poset exports and the verification battery.

Exit codes: 0 success / boolean true, 1 domain-level negative (false,
infeasible, failed verification), 2 usage error.  All output is
deterministic for fixed arguments and seed; JSON is emitted with sorted
keys, timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .gf import DEFAULT_ENUM_CAP, EnumerationCapError, PrimeField
from .polygon import Polygon, PolygonError
from .tmodule import JordanType, JordanTypeError, realize
from . import pr as prmod
from . import e3 as e3mod
from .strat import PosetError, StrataPoset, export_dot, export_json
from . import lift as liftmod
from . import verify as verifymod


class UsageError(ValueError):
    pass


def _required(args, flag):
    value = getattr(args, flag)
    if value is None:
        raise UsageError("--%s is required" % flag)
    return value


def _ints(args, flag):
    text = _required(args, flag)
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % text)


def _fraction(args, flag):
    text = _required(args, flag)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("expected a rational like 3/2, got %r" % text)


def _field(args):
    try:
        return PrimeField(args.p)
    except ValueError as err:
        raise UsageError("--p: %s" % err)


def _count(args, flag):
    value = getattr(args, flag)
    if value < 0:
        raise UsageError(
            "--%s: expected a non-negative integer, got %d" % (flag.replace("_", "-"), value)
        )
    return value


def _enum_cap():
    text = os.environ.get("PRFLAGS_ENUM_CAP")
    if not text:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise UsageError("PRFLAGS_ENUM_CAP: expected a non-negative integer, got %r" % text)
    return cap


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _polygon_json(P):
    return _dumps({"h": P.h, "d": list(P.d_list())})


def _emit(text):
    sys.stdout.write(text + "\n")


# --- polygon ----------------------------------------------------------------


def cmd_polygon(args):
    # every polygon here is built from the arguments, so its errors are usage errors
    try:
        if args.action == "dom":
            P1 = Polygon.from_d(args.h, _ints(args, "a"))
            P2 = Polygon.from_d(args.h, _ints(args, "b"))
            verdict = P1.dominates(P2)
            _emit("true" if verdict else "false")
            return 0 if verdict else 1
        if args.action == "star":
            P1 = Polygon.from_d(args.h, _ints(args, "a"))
            P2 = Polygon.from_d(args.h, _ints(args, "b"))
            _emit(_polygon_json(P1.star(P2)))
            return 0
        if args.action == "eval":
            P = Polygon.from_d(args.h, _ints(args, "d"))
            _emit(str(P(_fraction(args, "x"))))
            return 0
        if args.action == "slopes":
            P = Polygon.from_d(args.h, _ints(args, "d"))
            slopes = {str(s): m for s, m in P.slopes}
            bps = [[x, str(y)] for x, y in P.breakpoints()]
            _emit(_dumps({"slopes": slopes, "breakpoints": bps}))
            return 0
    except PolygonError as err:
        raise UsageError(str(err))
    raise UsageError("unknown polygon action %r" % args.action)


# --- pr ----------------------------------------------------------------------


def _jordan(args):
    parts = _ints(args, "parts")
    h = _count(args, "h") or max(1, len(parts))
    if h < len(parts):
        raise UsageError("--h: %d is below the %d --parts given" % (h, len(parts)))
    if len(parts) < h:
        parts = parts + (0,) * (h - len(parts))
    try:
        return JordanType(args.e, parts)
    except JordanTypeError as err:
        raise UsageError(str(err))


def cmd_pr(args):
    field = _field(args)
    J = _jordan(args)
    if args.action == "hdg":
        _emit(_polygon_json(J.hodge_polygon()))
        return 0
    mu = _ints(args, "mu")
    if len(mu) != J.e or min(mu) < 0:
        raise UsageError("--mu: expected %d non-negative integers, got %r" % (J.e, mu))
    if args.action == "exists":
        verdict = prmod.pr_exists(J, mu)
        _emit("true" if verdict else "false")
        return 0 if verdict else 1
    if args.action == "oracle":
        M = realize(J, field)
        verdict = prmod.pr_oracle_exists(M, mu, cap=_enum_cap())
        _emit("true" if verdict else "false")
        return 0 if verdict else 1
    if args.action == "construct":
        M = realize(J, field)
        try:
            D = prmod.pr_construct(M, mu)
        except prmod.InfeasiblePRError as err:
            _emit("infeasible: %s" % err)
            return 1
        _emit(_dumps(D.to_json_dict()))
        return 0
    raise UsageError("unknown pr action %r" % args.action)


# --- e3 -----------------------------------------------------------------------


def _point(args):
    """The point --delta/--alpha/--beta over --h/--mu, or over h = 2g and
    mu = (g, g, g) for --polarized g."""
    if args.polarized is not None:
        g = _count(args, "polarized")
        h, mu = 2 * g, (g, g, g)
    else:
        h, mu = _required(args, "h"), _ints(args, "mu")
    vectors = [_ints(args, flag) for flag in ("delta", "alpha", "beta")]
    try:
        return e3mod.StrataPoint(h, mu, *vectors)
    except ValueError as err:
        raise UsageError(str(err))


def _points(args):
    """The admissible points for --h/--mu, or the polarized ones for --polarized."""
    try:
        if args.polarized is not None:
            return e3mod.enum_Ypol(_count(args, "polarized"))
        if args.h is None:
            raise UsageError("--h or --polarized is required")
        return e3mod.enum_Yadm(args.h, _ints(args, "mu"))
    except ValueError as err:
        raise UsageError(str(err))


def cmd_e3(args):
    field = _field(args)
    if args.action == "enum":
        pts = _points(args)
        if args.format == "csv":
            _emit("delta1,delta2,delta3,alpha1,alpha2,beta1,beta2")
            for p in pts:
                _emit(",".join(map(str, p.delta + p.alpha + p.beta)))
        else:
            for p in pts:
                _emit(_dumps(p.to_json_dict()))
        return 0
    if args.polarized is not None:
        raise UsageError("--polarized applies to e3 enum only")
    pt = _point(args)
    try:
        D = e3mod.normal_form(pt, field)
    except e3mod.AdmissibilityError as err:
        _emit("not admissible: %s" % err)
        return 1
    if args.action == "normal-form":
        _emit(_dumps(D.to_json_dict()))
        return 0
    if args.action == "phi":
        back = e3mod.phi(D, pt.h)
        _emit(_dumps(back.to_json_dict()))
        return 0 if back == pt else 1
    raise UsageError("unknown e3 action %r" % args.action)


# --- strat ---------------------------------------------------------------------


def cmd_strat(args):
    pts = _points(args)
    if not pts:
        _emit("empty stratification")
        return 1
    poset = StrataPoset(pts)
    if args.action == "dot":
        sys.stdout.write(export_dot(poset) if args.format == "dot" else export_json(poset))
        return 0
    if args.action == "closure":
        pt = _point(args)
        for q in poset.closure_set(pt):
            _emit(_dumps(q.to_json_dict()))
        return 0
    raise UsageError("unknown strat action %r" % args.action)


# --- lift -----------------------------------------------------------------------


def cmd_lift(args):
    field = _field(args)
    if args.action == "demo":
        pts = e3mod.enum_Yadm(2, (1, 1, 1))
        y_from = next(
            p for p in pts if p.delta == (2, 1, 0) and p.alpha[0] == 2 and p.beta[0] == 2
        )
        y_to = next(p for p in pts if p.delta == (1, 1, 1))
        res = liftmod.degenerate_step(y_from, y_to, field)
        _emit(_dumps(res.to_json_dict()))
        return 0
    if args.action == "verify":
        import random

        cases = _count(args, "cases")
        rng = random.Random((args.seed, "lift-demo").__repr__())
        bad = 0
        for k in range(cases):
            f = PrimeField(2 if k % 2 == 0 else 3)
            prob = verifymod._random_lift_problem(rng, f)
            pm = liftmod.lift_subspace(prob)
            if not liftmod.verify_lift(prob, pm).ok:
                bad += 1
        _emit("cases=%d failures=%d" % (cases, bad))
        return 0 if bad == 0 else 1
    raise UsageError("unknown lift action %r" % args.action)


# --- verify ----------------------------------------------------------------------


def cmd_verify(args):
    if args.action != "all":
        raise UsageError("unknown verify action %r" % args.action)
    results = verifymod.run_all(max_dim=_count(args, "max_dim"), seed=args.seed)
    width = max(len(r.key) for r in results)
    all_ok = True
    for r in results:
        _emit("%-*s %s %s" % (width, r.key, "PASS" if r.ok else "FAIL", r.detail))
        sys.stderr.write("%s took %.2fs\n" % (r.key, r.elapsed))
        all_ok = all_ok and r.ok
    passed = sum(1 for r in results if r.ok)
    _emit("TOTAL %s %d/%d" % ("PASS" if all_ok else "FAIL", passed, len(results)))
    return 0 if all_ok else 1


# --- parser ------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="prflags",
        description="Polygons, Hodge polygons, PR filtrations and their stratification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon", help="polygon arithmetic and dominance")
    p.add_argument("action", choices=["dom", "star", "eval", "slopes"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--a", help="first d-list, comma separated")
    p.add_argument("--b", help="second d-list")
    p.add_argument("--d", help="d-list for eval/slopes")
    p.add_argument("--x", help="evaluation point (rational)")
    p.set_defaults(fn=cmd_polygon)

    p = sub.add_parser("pr", help="PR datum queries")
    p.add_argument("action", choices=["hdg", "exists", "construct", "oracle"])
    p.add_argument("--e", type=int, default=3)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--h", type=int, default=0, help="generator bound (default: fit)")
    p.add_argument("--parts", required=True, help="Jordan type parts")
    p.add_argument("--mu", help="PR type, comma separated")
    p.set_defaults(fn=cmd_pr)

    p = sub.add_parser("e3", help="the e=3 classification")
    p.add_argument("action", choices=["enum", "phi", "normal-form"])
    p.add_argument("--h", type=int)
    p.add_argument("--mu", help="sorted type d1,d2,d3")
    p.add_argument("--polarized", type=int, help="genus g (uses h=2g, mu=(g,g,g))")
    p.add_argument("--delta")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_e3)

    p = sub.add_parser("strat", help="stratification poset exports")
    p.add_argument("action", choices=["dot", "closure"])
    p.add_argument("--h", type=int)
    p.add_argument("--mu")
    p.add_argument("--polarized", type=int)
    p.add_argument("--delta")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(fn=cmd_strat)

    p = sub.add_parser("lift", help="lifting lemmas and stratum degeneration")
    p.add_argument("action", choices=["demo", "verify"])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("verify", help="run the acceptance sweeps")
    p.add_argument("action", choices=["all"])
    p.add_argument("--max-dim", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except UsageError as err:
        sys.stderr.write("usage error: %s\n" % err)
        parser.print_usage(sys.stderr)
        return 2
    except (PolygonError, prmod.PRError, e3mod.AdmissibilityError, PosetError,
            liftmod.StratOrderError, liftmod.LiftInfeasibleError,
            EnumerationCapError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
