"""What the prflags benchmark measures: workloads, metrics, bounds, layer map.

This file is the single source of `BENCHMARK.json`; run it as a script to
rewrite that file from the tables below:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUN_SECONDS = 20

# Modules of prflags, in import order; each one is a layer of the trace.
LAYERS = ("gf", "polygon", "tmodule", "pr", "e3", "strat", "lift", "verify", "cli")

WORKLOADS = (
    (
        "acceptance",
        "verify all --max-dim 5 in-process: what users and the tier-1 gate run; "
        "touches every layer, polygon (criterion 1) is about half",
    ),
    (
        "oracle",
        "iso_classes_oracle over F_2 for every sorted mu at h<=5, total<=8, plus "
        "the frontier h=5 mu=(3,3,3): gf rref/apply and pr/e3 enumeration",
    ),
    (
        "degenerate",
        "degenerate_step over F_2 on all enum_Yadm pairs at h=3,4 and all polarized "
        "g=2 pairs: lift search and generic ranks; refused pairs cost strat.leq",
    ),
    (
        "odd",
        "the oracle, normal-form round trips and degenerations over F_3/F_5: packed "
        "bytes rows and mod-p polynomials; a p=2-only change moves nothing here",
    ),
)

# (name, unit, better, bound): end-to-end metrics, measured with tracing off.
# Times are calibrated seconds (calibration.py).  On the 2-vCPU shared machine
# the bounds were set on, raw wall times spread by about 0.22 over ten seeds
# and calibrated ones by 0.02-0.14, the most on acceptance, whose calibration
# samples fall only between criteria; per-case latencies spread by up to
# 0.14.  Peak RSS hardly moves (spread under 2%).  Set-up carries the largest
# bound.
END_TO_END = (
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("case_p50_ms", "ms", "lower", 0.24),
    ("case_tail_ms", "ms", "lower", 0.24),
)

# The acceptance battery: criterion number -> (test name in
# tests/test_acceptance.py, key printed by `verify all`, bound in seconds).
ACCEPTANCE_BOUNDS = {
    1: ("dominance-criterion", "criterion-1-dominance", 10),
    2: ("hodge-polygon-identity", "criterion-2-hodge-identity", 5),
    3: ("pr-existence-theorem", "criterion-3-pr-existence", 300),
    4: ("e3-bijection", "criterion-4-bijection", 600),
    5: ("filtration-dominance", "criterion-5-filtration-dominance", 30),
    6: ("lifting-lemma", "criterion-6-lifting-lemma", 60),
    7: ("isotropic-lifting", "criterion-7-isotropic", 60),
    8: ("stratification-engine", "criterion-8-stratification", 300),
}

_GF = "wall_s and case_tail_ms on oracle; less on degenerate; a p=2-only change leaves odd alone"
_POLYGON = "wall_s on acceptance; oracle should not move"
_TMODULE = "small everywhere; watch acceptance (criterion 5)"
_PR = "wall_s on oracle and odd; also acceptance (criterion 3)"
_E3 = "wall_s and case_tail_ms on oracle and odd"
_STRAT = "case_p50_ms on degenerate, which refused pairs dominate"
_LIFT = "wall_s and case_tail_ms on degenerate; also odd and acceptance criteria 6-8; oracle should not move"
_VERIFY = "wall_s on acceptance"
_CLI = "acceptance; expected to be about 0"

# (name, unit, better, the end-to-end metric it should move and where).
PER_LAYER = (
    ("gf.rref.calls", "count", "lower", _GF),
    ("gf.rref.rows_in", "count", "lower", _GF),
    ("gf.rref.self_s", "s", "lower", _GF),
    ("gf.Matrix.apply.calls", "count", "lower", _GF),
    ("gf.Matrix.apply.self_s", "s", "lower", _GF),
    ("gf.Matrix.kernel.calls", "count", "lower", _GF),
    ("gf.Matrix.kernel.self_s", "s", "lower", _GF),
    ("gf.Subspace.intersect.calls", "count", "lower", _GF),
    ("gf.Subspace.intersect.self_s", "s", "lower", _GF),
    ("gf.preimage.calls", "count", "lower", _GF),
    ("gf.preimage.self_s", "s", "lower", _GF),
    ("gf.enumerate_subspaces.yielded", "count", "lower", _GF),
    ("gf.enumerate_subspaces.self_s", "s", "lower", _GF),
    ("gf.subspaces_between.yielded", "count", "lower", _GF),
    ("gf.subspaces_between.self_s", "s", "lower", _GF),
    ("gf.self_s", "s", "lower", _GF),
    ("gf.busy_s", "s", "lower", _GF),
    ("polygon.Polygon.from_d.calls", "count", "lower", _POLYGON),
    ("polygon.Polygon.from_d.self_s", "s", "lower", _POLYGON),
    ("polygon.Polygon.dominates.calls", "count", "lower", _POLYGON),
    ("polygon.Polygon.dominates.self_s", "s", "lower", _POLYGON),
    ("polygon.Polygon.star.calls", "count", "lower", _POLYGON),
    ("polygon.self_s", "s", "lower", _POLYGON),
    ("polygon.busy_s", "s", "lower", _POLYGON),
    ("tmodule.realize.calls", "count", "lower", _TMODULE),
    ("tmodule.delta_vector.calls", "count", "lower", _TMODULE),
    ("tmodule.hodge_polygon.calls", "count", "lower", _TMODULE),
    ("tmodule.self_s", "s", "lower", _TMODULE),
    ("tmodule.busy_s", "s", "lower", _TMODULE),
    ("pr.pr_all_data.yielded", "count", "lower", _PR),
    ("pr.pr_all_data.self_s", "s", "lower", _PR),
    ("pr.pr_oracle_exists.calls", "count", "lower", _PR),
    ("pr.pr_oracle_exists.self_s", "s", "lower", _PR),
    ("pr.pr_construct.calls", "count", "lower", _PR),
    ("pr.pr_construct.self_s", "s", "lower", _PR),
    ("pr.validate_pr.calls", "count", "lower", _PR),
    ("pr.self_s", "s", "lower", _PR),
    ("pr.busy_s", "s", "lower", _PR),
    ("e3.iso_classes_oracle.calls", "count", "lower", _E3),
    ("e3.iso_classes_oracle.self_s", "s", "lower", _E3),
    ("e3.classes", "count", "higher", _E3),
    ("e3.classes_per_datum", "ratio", "higher", _E3),
    ("e3.aut_generators.gens", "count", "lower", _E3),
    ("e3.normal_form.calls", "count", "lower", _E3),
    ("e3.phi.calls", "count", "lower", _E3),
    ("e3.enum_Yadm.points", "count", "higher", _E3),
    ("e3.self_s", "s", "lower", _E3),
    ("e3.busy_s", "s", "lower", _E3),
    ("strat.leq.calls", "count", "lower", _STRAT),
    ("strat.leq.self_s", "s", "lower", _STRAT),
    ("strat.self_s", "s", "lower", _STRAT),
    ("strat.busy_s", "s", "lower", _STRAT),
    ("lift.degenerate_step.calls", "count", "lower", _LIFT),
    ("lift.degenerate_step.refused", "count", "higher", _LIFT),
    ("lift.degenerate_step.self_s", "s", "lower", _LIFT),
    ("lift.candidates", "count", "lower", _LIFT),
    ("lift.candidates_per_degeneration", "ratio", "lower", _LIFT),
    ("lift.search_budget_exhausted", "count", "lower", _LIFT),
    ("lift.generic_rank.calls", "count", "lower", _LIFT),
    ("lift.generic_rank.self_s", "s", "lower", _LIFT),
    ("lift.PolyModule.from_rows.calls", "count", "lower", _LIFT),
    ("lift.PolyModule.from_rows.self_s", "s", "lower", _LIFT),
    ("lift.lift_subspace.calls", "count", "lower", _LIFT),
    ("lift.lift_isotropic.calls", "count", "lower", _LIFT),
    ("lift.verify_lift.calls", "count", "lower", _LIFT),
    ("lift.verify_lift.self_s", "s", "lower", _LIFT),
    ("lift.polarized_normal_form.calls", "count", "lower", _LIFT),
    ("lift.polarized_normal_form.self_s", "s", "lower", _LIFT),
    ("lift.self_s", "s", "lower", _LIFT),
    ("lift.busy_s", "s", "lower", _LIFT),
    ("verify.self_s", "s", "lower", _VERIFY),
    *(
        (name, unit, better, _VERIFY)
        for _, key, _bound in ACCEPTANCE_BOUNDS.values()
        for name, unit, better in (
            ("verify.%s.wall_s" % key, "s", "lower"),
            ("verify.%s.slack" % key, "ratio", "higher"),
        )
    ),
    ("cli.main.self_s", "s", "lower", _CLI),
    ("trace.overhead", "ratio", "lower", "none: traced wall_s / untraced wall_s of the same run"),
)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


def render_benchmark_json():
    return json.dumps(benchmark_json(), indent=2) + "\n"


def acceptance_bound_mismatches(source):
    """Compare ACCEPTANCE_BOUNDS with the `_check(N, name, bound, fn)` calls.

    `source` is the text of tests/test_acceptance.py, which is parsed, never
    imported or run.  Returns the disagreements; empty when they agree.
    """
    import ast  # here, so that a worker's set-up imports nothing prflags does not

    tree = ast.parse(source)
    found = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_check"
            and len(node.args) >= 3
        ):
            number, name, bound = (ast.literal_eval(a) for a in node.args[:3])
            found[number] = (name, bound)
    problems = []
    for number in sorted(set(found) | set(ACCEPTANCE_BOUNDS)):
        ours = ACCEPTANCE_BOUNDS.get(number)
        theirs = found.get(number)
        if ours is None or theirs is None or (ours[0], ours[2]) != theirs:
            problems.append(
                "criterion %d: benchmark table %r, test file %r"
                % (number, ours and (ours[0], ours[2]), theirs)
            )
    return problems


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render_benchmark_json())
