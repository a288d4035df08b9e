"""Verification sweeps: the regression harness behind `prflags verify all`.

Each criterion function returns a CriterionResult whose `detail` string
is deterministic for a fixed seed (timings never reach stdout), so two
runs of the full battery print byte-identical reports.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .gf import F2, F3, Subspace
from .polygon import Polygon
from .tmodule import (
    JordanType,
    JordanTypeError,
    delta_vector,
    partitions,
    power_image,
    realize,
    restrict_module,
    torsion_flag,
)
from . import pr as prmod
from . import e3 as e3mod
from .strat import StrataPoset, leq
from . import lift as liftmod


@dataclass(frozen=True)
class CriterionResult:
    key: str
    ok: bool
    detail: str
    elapsed: float


def _timed(key, fn):
    """Run one criterion; one that raises fails, and the battery goes on."""
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as err:
        ok, detail = False, "raised=%s: %s" % (type(err).__name__, err)
    return CriterionResult(key, ok, detail, time.perf_counter() - t0)


# --- helpers ----------------------------------------------------------------


def _pointwise_dominates(h, d1, d2, values):
    """Compare the defining sums (1/N) sum_i max(0, x + d_i - h) at
    x = 0..h, in integers: S1/N1 >= S2/N2 exactly when N2 S1 >= N1 S2,
    stopping at the first x where that fails.  `values` keeps each
    d-tuple's N and integer sums S by h and then d, so every d-tuple is
    evaluated once per criterion run."""
    memo = values.setdefault(h, {})
    sums = []
    for d in (d1, d2):
        if d not in memo:
            memo[d] = len(d), [sum(max(0, x + di - h) for di in d) for x in range(h + 1)]
        sums.append(memo[d])
    (n1, s1), (n2, s2) = sums
    for a, b in zip(s1, s2):
        if n2 * a < n1 * b:
            return False
    return True


def _all_d_lists(h, max_n):
    for n in range(1, max_n + 1):
        yield from itertools.product(range(h + 1), repeat=n)


def _sorted_mus(h):
    for mu in itertools.product(range(h, -1, -1), repeat=3):
        if list(mu) == sorted(mu, reverse=True):
            yield mu


def _random_subspace(rng, S, dim):
    """S grown to dimension `dim` by random vectors."""
    field, n = S.field, S.n
    guard = 0
    while S.dim < dim:
        S = S.plus_row(field.pack([rng.randrange(field.p) for _ in range(n)]))
        guard += 1
        if guard > 200:
            raise RuntimeError("random subspace generation stalled")
    return S


# --- criterion 1: dominance -------------------------------------------------


def criterion_dominance(seed):
    """`Polygon.dominates` against the pointwise sums, on 10,000 random
    pairs and on every pair of d-lists of length <= 3 at h <= 3.

    Both sides are memoized per run, by h and then by the d-tuple as drawn
    (never sorted), which is one tuple object shared by the two memos:
    `Polygon.from_d` still sorts and reduces every distinct input, and
    `_pointwise_dominates` still evaluates every distinct input pointwise,
    so each pair is decided by the same two computations as without the
    memos.  The draws are `rng.randrange(a, b + 1)`, which is what
    `randint(a, b)` is defined to call, so the pairs are the same."""
    rng = random.Random((seed, "dominance").__repr__())
    draw = rng.randrange
    values, polygons = {}, {}

    def polygon(h, d):
        memo = polygons.setdefault(h, {})
        if d not in memo:
            memo[d] = Polygon.from_d(h, d)
        return memo[d]

    checked = bad = 0
    for _ in range(10000):
        h = draw(1, 7)
        d1 = tuple([draw(0, h + 1) for _ in range(draw(1, 5))])
        d2 = tuple([draw(0, h + 1) for _ in range(draw(1, 5))])
        got = polygon(h, d1).dominates(polygon(h, d2))
        want = _pointwise_dominates(h, d1, d2, values)
        checked += 1
        if got != want:
            bad += 1
    for h in (1, 2, 3):
        polys = [(d, polygon(h, d)) for d in _all_d_lists(h, 3)]
        for d1, P1 in polys:
            for d2, P2 in polys:
                got = P1.dominates(P2)
                want = _pointwise_dominates(h, d1, d2, values)
                checked += 1
                if got != want:
                    bad += 1
    return bad == 0, "pairs=%d mismatches=%d" % (checked, bad)


# --- criterion 2: Hodge polygon identity -------------------------------------


def criterion_hodge_identity():
    checked = bad = 0
    for e in (1, 2, 3):
        for dim in range(0, 9):
            for parts in partitions(dim, e):
                for pad in (0, 1):
                    h = max(1, len(parts)) + pad
                    full = parts + (0,) * (h - len(parts))
                    mults = {}
                    for a in full:
                        s = Fraction(a, e)
                        mults[s] = mults.get(s, 0) + 1
                    from_parts = Polygon.from_slopes(h, mults.items(), e)
                    delta = tuple(
                        sum(1 for a in full if a >= i) for i in range(1, e + 1)
                    )
                    from_delta = Polygon.from_d(h, delta, e)
                    checked += 1
                    if from_parts != from_delta:
                        bad += 1
    return bad == 0, "types=%d mismatches=%d" % (checked, bad)


# --- criterion 3: PR existence, both directions -------------------------------


def criterion_pr_existence(max_dim):
    """`pr_exists` against the exhaustive `pr_oracle_exists` for every
    Jordan type and type mu in range; a datum that exists must come out of
    `pr_construct` valid, and the greedy flag of sorted mu must hit every
    alpha_i^j.  `pr_construct` is deterministic, so per Jordan type the
    datum of each sorted mu is built once and serves both its own validity
    check and every permutation's alpha check; that flag's misses are
    counted once and added once for every permutation, which is the count
    checking it anew for each permutation gives."""
    cases = bad = 0
    for e, dims, entries in ((3, range(max_dim + 1), range(4)), (2, range(7), range(7))):
        for parts in (q for n in dims for q in partitions(n, e)):
            J = JordanType(e, parts or (0,))
            M = realize(J, F2)
            delta = delta_vector(M)
            greedy = {}  # sorted mu -> its greedy datum and that flag's alpha misses
            for mu in itertools.product(entries, repeat=e):
                a = prmod.pr_exists(J, mu)
                b = prmod.pr_oracle_exists(M, mu)
                cases += 1
                if a != b:
                    bad += 1
                    continue
                if not a:
                    continue
                D = greedy[mu][0] if mu in greedy else prmod.pr_construct(M, mu)
                if not prmod.validate_pr(D, mu):
                    bad += 1
                mu_sorted = tuple(sorted(mu, reverse=True))
                if mu_sorted not in greedy:
                    Ds = D if mu == mu_sorted else prmod.pr_construct(M, mu_sorted)
                    alpha = prmod.alpha_table(delta, mu_sorted)
                    greedy[mu_sorted] = Ds, sum(
                        Ds.flag[i].intersect(power_image(M, j)).dim != alpha[i][j]
                        for i in range(e + 1)
                        for j in range(e + 1)
                    )
                bad += greedy[mu_sorted][1]
    return bad == 0, "cases=%d failures=%d" % (cases, bad)


# --- criterion 4: the e=3 bijection ------------------------------------------


def criterion_bijection(max_dim):
    bad = []
    if len(e3mod.enum_Yadm(1, (1, 1, 1))) != 1:
        bad.append("enum(1,(1,1,1))")
    if len(e3mod.enum_Yadm(2, (1, 1, 1))) != 4:
        bad.append("enum(2,(1,1,1))")
    roundtrips = oracle_cases = 0
    for h in (1, 2, 3):
        for mu in _sorted_mus(h):
            pts = e3mod.enum_Yadm(h, mu)
            for y in pts:
                D = e3mod.normal_form(y, F2)
                if e3mod.phi(D, h) != y:
                    bad.append("roundtrip h=%d mu=%r" % (h, mu))
                roundtrips += 1
            if sum(mu) <= max_dim:
                res = e3mod.iso_classes_oracle(h, mu, F2, max_total_dim=max_dim)
                phis = sorted(c[2].sort_key() for c in res.classes)
                if len(phis) != len(set(phis)):
                    bad.append("phi not injective h=%d mu=%r" % (h, mu))
                if phis != sorted(p.sort_key() for p in pts):
                    bad.append("image mismatch h=%d mu=%r" % (h, mu))
                oracle_cases += 1
    detail = "roundtrips=%d oracle_cases=%d failures=%d" % (
        roundtrips,
        oracle_cases,
        len(bad),
    )
    if bad:
        detail += " [" + "; ".join(bad[:4]) + "]"
    return not bad, detail


# --- criterion 5: the filtration dominance ------------------------------------


def _random_valid_filtration(rng, field, max_dim):
    e = rng.randint(1, 3)
    dim = rng.randint(0, max_dim)
    parts = []
    left = dim
    while left > 0:
        a = rng.randint(1, min(e, left))
        parts.append(a)
        left -= a
    J = JordanType(e, tuple(parts) if parts else (0,))
    M = realize(J, field)
    i = rng.randint(0, e)
    N = power_image(M, e - i)
    tor = torsion_flag(M, i)
    for _ in range(rng.randint(0, 3)):
        if tor.dim == 0:
            break
        coeffs = [rng.randrange(field.p) for _ in range(tor.dim)]
        v = field.zero_row(M.dim)
        for c, b in zip(coeffs, tor.rows):
            if c:
                v = field.row_add_scaled(v, b, c)
        N = N.plus_row(v)
        for _ in range(e - 1):
            v = M.op.apply(v)
            N = N.plus_row(v)
    return M, N, i


def criterion_filtration_dominance(seed):
    rng = random.Random((seed, "filtration").__repr__())
    checked = bad = 0
    for k in range(1000):
        field = F2 if k % 2 == 0 else F3
        M, N, i = _random_valid_filtration(rng, field, 6)
        if not prmod.check_hdg_filt(M, N, i):
            bad += 1
        checked += 1
    return bad == 0, "instances=%d failures=%d" % (checked, bad)


# --- criterion 6: the lifting lemma ------------------------------------------


def _random_flag(rng, field, n, length):
    dims = sorted(rng.sample(range(0, n), k=length - 1)) + [n]
    spaces = []
    cur = Subspace.zero(field, n)
    for d in dims:
        cur = _random_subspace(rng, cur, d)
        spaces.append(cur)
    return spaces


def _random_feasible_targets(rng, hs, ds):
    l = len(hs)
    dp = [0] * l
    dp[-1] = ds[-1]
    for i in range(l - 2, -1, -1):
        lo = max(0, dp[i + 1] - (hs[i + 1] - hs[i]))
        hi = min(ds[i], dp[i + 1])
        dp[i] = rng.randint(lo, hi)
    return tuple(dp)


def _random_lift_problem(rng, field):
    l = rng.randint(2, 4)
    n = rng.randint(l, 6)
    flag = _random_flag(rng, field, n, l)
    L = _random_subspace(rng, Subspace.zero(field, n), rng.randint(0, n))
    prob_ds = tuple(L.intersect(F).dim for F in flag)
    targets = _random_feasible_targets(rng, [F.dim for F in flag], prob_ds)
    return liftmod.LiftProblem(tuple(flag), L, targets)


def _corrupt_targets(problem, kind):
    """Return corrupted targets violating exactly the named inequality."""
    hs = [F.dim for F in problem.flag]
    ds = list(problem.special_dims())
    dp = list(problem.targets)
    l = len(dp)
    if kind == liftmod.INEQ_TOP:
        dp[-1] = ds[-1] + 1
        return tuple(dp)
    if kind == liftmod.INEQ_MONOTONE:
        # need an index with room to dip below the previous value
        for i in range(1, l - 1):
            if dp[i - 1] > 0:
                dp[i] = dp[i - 1] - 1
                return tuple(dp)
        return None
    if kind == liftmod.INEQ_STEP:
        for i in range(l - 1):
            prev = dp[i - 1] if i else 0
            prev_h = hs[i - 1] if i else 0
            want = prev + (hs[i] - prev_h) + 1
            if want <= dp[i + 1]:
                dp[i] = want
                return tuple(dp)
        return None
    if kind == liftmod.INEQ_LE_SPECIAL:
        for i in range(l - 1):
            prev = dp[i - 1] if i else 0
            prev_h = hs[i - 1] if i else 0
            cand = ds[i] + 1
            if cand <= prev + (hs[i] - prev_h) and cand <= dp[i + 1] and cand >= prev:
                dp[i] = cand
                return tuple(dp)
        return None
    raise ValueError(kind)


def feasible_lift_sweep(rng, cases):
    """The number of failures among `cases` feasible lift problems drawn
    from `rng`, over F_2 and F_3 in turn: a failure is a `lift_subspace`
    result that `verify_lift` rejects."""
    bad = 0
    for k in range(cases):
        prob = _random_lift_problem(rng, F2 if k % 2 == 0 else F3)
        if not liftmod.verify_lift(prob, liftmod.lift_subspace(prob)).ok:
            bad += 1
    return bad


def criterion_lifting_lemma(seed):
    rng = random.Random((seed, "lifting").__repr__())
    good = 500
    bad = feasible_lift_sweep(rng, good)
    rejected = 0
    kinds = [
        liftmod.INEQ_TOP,
        liftmod.INEQ_MONOTONE,
        liftmod.INEQ_STEP,
        liftmod.INEQ_LE_SPECIAL,
    ]
    attempts = 0
    while rejected < 100:
        attempts += 1
        if attempts > 10000:
            return False, "could not build 100 infeasible cases"
        field = F2 if attempts % 2 == 0 else F3
        prob = _random_lift_problem(rng, field)
        kind = kinds[rejected % len(kinds)]
        corrupted = _corrupt_targets(prob, kind)
        if corrupted is None:
            continue
        try:
            liftmod.check_lift_feasible(
                liftmod.LiftProblem(prob.flag, prob.special, corrupted)
            )
            bad += 1
        except liftmod.LiftInfeasibleError as err:
            if err.constraint != kind:
                bad += 1
        rejected += 1
    return bad == 0, "feasible=%d infeasible=%d failures=%d" % (good, rejected, bad)


# --- criterion 7: isotropic lifting ------------------------------------------


def _extend_isotropic_to(rng, field, Phi, cur, dim):
    """The isotropic cur grown to dimension `dim` <= g by random vectors
    orthogonal to it.  A choice always exists: Phi is a perfect alternating
    form on F_p^{2g}, so while dim cur = k < g its perp has dimension
    2g - k > k and holds vectors outside cur.  The isotropic cur lies in
    its perp, so exactly p^(2g - k) - p^k of those vectors lie outside
    cur; one draw picks the i-th of them in `vectors()` order, and cur
    grows by it.

    That vector is found without listing the perp.  `vectors()` of the
    perp pp, with basis b_0, ..., b_{m-1}, puts sum c_j b_j at index
    sum c_j p^(m-1-j), the c_j read as the base-p digits of the index.
    The basis of pp is reduced, so a vector of cur <= pp has as c_j its
    entry at the j-th pivot of pp.  Stepping i past the sorted indices of
    the p^k vectors of cur that are <= it gives the index of the i-th
    vector outside cur."""
    p = field.p
    while cur.dim < dim:
        pp = liftmod.perp(cur, Phi)
        i = rng.randrange(p**pp.dim - p**cur.dim)
        inside = []
        for w in cur.vectors():
            index = 0
            for piv in pp.pivots:
                index = index * p + field.row_get(w, piv)
            inside.append(index)
        for index in sorted(inside):
            if index > i:
                break
            i += 1
        v = field.zero_row(pp.n)
        for b in reversed(pp.rows):
            i, c = divmod(i, p)
            if c:
                v = field.row_add_scaled(v, b, c)
        cur = cur.plus_row(v)
    return cur


def _random_isotropic_flag(rng, field, Phi, g, l):
    """A flag M_1 <= ... <= M_l = full with M_i^perp = M_{l-i}.

    Members below the middle are random nested isotropics; when l is
    even the self-paired middle member is a Lagrangian; the upper half
    is forced by taking orthogonal complements.  No step can fail: every
    extension succeeds (see `_extend_isotropic_to`); the members are the
    (l - 1) // 2 lower ones, as many perps, a Lagrangian when l is even
    and the full space, l in all; and they are nested because perp
    reverses inclusion and an isotropic S lies in perp(S).
    """
    n = 2 * g
    k0 = (l - 1) // 2
    lower = []
    cur = Subspace.zero(field, n)
    dims = sorted(rng.choices(range(0, g + 1), k=k0)) if k0 else []
    for d in dims:
        cur = _extend_isotropic_to(rng, field, Phi, cur, d)
        lower.append(cur)
    flag = list(lower)
    if l % 2 == 0:
        flag.append(_extend_isotropic_to(rng, field, Phi, cur, g))
    for S in reversed(lower):
        flag.append(liftmod.perp(S, Phi))
    flag.append(Subspace.full(field, n))
    return tuple(flag)


def _random_polarized_targets(rng, flag, L, g):
    """Candidate targets honoring d'_l = g and the mirror constraint."""
    hs = [F.dim for F in flag]
    ds = [L.intersect(F).dim for F in flag]
    l = len(flag)
    dp = [None] * l
    dp[-1] = g
    for i in range(l - 1):
        mate = l - 2 - i
        if dp[i] is not None:
            continue
        lo = dp[i - 1] if i else 0
        choices = []
        for v in range(lo, min(ds[i], g) + 1):
            mv = g - hs[i] + v
            if mate == i and mv != v:
                continue
            if not 0 <= mv <= ds[mate]:
                continue
            choices.append(v)
        if not choices:
            return None
        v = choices[rng.randrange(len(choices))]
        dp[i] = v
        dp[mate] = g - hs[i] + v
    return tuple(dp)


def criterion_isotropic(seed):
    rng = random.Random((seed, "isotropic").__repr__())
    done = bad = attempts = 0
    while done < 200:
        attempts += 1
        if attempts > 20000:
            return False, "could not build 200 symplectic cases"
        field = F2 if attempts % 2 == 0 else F3
        g = rng.randint(1, 2)
        Phi = liftmod.standard_symplectic(field, g, 1)[1]
        l = rng.randint(2, 4)
        flag = _random_isotropic_flag(rng, field, Phi, g, l)
        L = _extend_isotropic_to(rng, field, Phi, Subspace.zero(field, 2 * g), g)
        targets = _random_polarized_targets(rng, flag, L, g)
        if targets is None:
            continue
        prob = liftmod.LiftProblem(flag, L, targets, pairing=Phi)
        try:
            pm = liftmod.lift_isotropic(prob)  # checks feasibility first
        except liftmod.LiftInfeasibleError:
            continue
        except liftmod.LiftConstructionError:
            bad += 1
            done += 1
            continue
        report = liftmod.verify_lift(prob, pm)
        if not report.ok:
            bad += 1
        done += 1
    return bad == 0, "instances=%d failures=%d" % (done, bad)


# --- criterion 8: the stratification engine -----------------------------------


def _generic_chain_ok(res):
    """Whether the generic chain of a Degeneration is a PR datum over F_p(X):
    omega_1 <= omega_2 <= omega, T omega_2 <= omega_1 and T omega <= omega_2."""
    w1, w2, w, T = res.omega1, res.omega2, res.omega, res.module.op
    return (
        w2.contains_generic(w1)
        and w.contains_generic(w2)
        and w1.contains_generic(w2.apply_const(T))
        and w2.contains_generic(w.apply_const(T))
    )


def _special_chain_ok(res):
    """Whether the special fiber of a Degeneration is the normal form of y_from:
    the X = 0 fibers of omega_1 <= omega_2 <= omega have full rank, and T
    restricted to the fiber of omega carries them as a PR datum with phi = y_from."""
    chain = (res.omega1, res.omega2, res.omega)
    fibers = [pm.eval0_subspace() for pm in chain]
    if any(S.dim != pm.nrows for S, pm in zip(fibers, chain)):
        return False
    if not (fibers[1].contains(fibers[0]) and fibers[2].contains(fibers[1])):
        return False
    f, top = res.module.field, fibers[2]
    try:
        M = restrict_module(res.module, top)
        flag = [Subspace.zero(f, top.dim)] + [
            Subspace(f, top.dim, [f.pack(top.coordinates_of(r)) for r in S.rows])
            for S in fibers
        ]
        return e3mod.phi(prmod.PRDatum(M, flag), res.y_from.h) == res.y_from
    except (JordanTypeError, prmod.PRError):
        return False


def _degeneration_fault(y_from, y_to, field, ordered, polarized):
    """What went wrong when degenerate_step took the pair over `field`, or
    None if it reached y_to through a T-stable generic chain or, for a pair
    not ordered, refused it with StratOrderError."""
    try:
        res = liftmod.degenerate_step(y_from, y_to, field, polarized=polarized)
    except Exception as err:
        refused = not ordered and isinstance(err, liftmod.StratOrderError)
        return None if refused else type(err).__name__
    if not ordered:
        return "not refused"
    if res.generic == y_to and _generic_chain_ok(res) and _special_chain_ok(res):
        return None
    return "wrong chain"


def _transitive_reduction(points):
    """Covering pairs (lower, upper) of leq: strict pairs that are no
    composite of two strict pairs."""
    strict = {(a, b) for a in points for b in points if a != b and leq(a, b)}
    return strict - {(a, c) for a, b in strict for b2, c in strict if b == b2}


def criterion_strat_engine():
    families = [pts for h in (1, 2) for mu in _sorted_mus(h) if (pts := e3mod.enum_Yadm(h, mu))]
    # an ordered pair must degenerate, any other pair must be refused
    ordered = refused = 0
    bad = []
    for points, polarized in [(pts, False) for pts in families] + [(e3mod.enum_Ypol(1), True)]:
        for y1, y2 in itertools.product(points, repeat=2):
            is_ordered = leq(y2, y1)
            fault = _degeneration_fault(y1, y2, F2, is_ordered, polarized)
            ordered += is_ordered
            refused += not is_ordered and fault is None
            if fault is not None:
                bad.append("%r->%r %s" % (y1.sort_key(), y2.sort_key(), fault))
    # the poset's Hasse diagram is the transitive reduction of leq (h <= 2)
    covers = 0
    for pts in families:
        hasse = StrataPoset(pts).hasse()
        reduction = _transitive_reduction(pts)
        if len(hasse) != len(reduction) or set(hasse) != reduction:
            bad.append("hasse h=%d mu=%r" % (pts[0].h, pts[0].mu))
        covers += len(hasse)
    detail = "ordered=%d refused=%d covers=%d failures=%d" % (ordered, refused, covers, len(bad))
    if bad:
        detail += " [" + "; ".join(bad[:4]) + "]"
    return not bad, detail


# --- the battery --------------------------------------------------------------


def run_all(max_dim=5, seed=7):
    """Run criteria 1-8; returns the list of CriterionResult."""
    return [
        _timed("criterion-1-dominance", lambda: criterion_dominance(seed)),
        _timed("criterion-2-hodge-identity", lambda: criterion_hodge_identity()),
        _timed("criterion-3-pr-existence", lambda: criterion_pr_existence(max_dim)),
        _timed("criterion-4-bijection", lambda: criterion_bijection(max_dim)),
        _timed("criterion-5-filtration-dominance", lambda: criterion_filtration_dominance(seed)),
        _timed("criterion-6-lifting-lemma", lambda: criterion_lifting_lemma(seed)),
        _timed("criterion-7-isotropic", lambda: criterion_isotropic(seed)),
        _timed("criterion-8-stratification", lambda: criterion_strat_engine()),
    ]
