"""Deformation over truncated power series: polynomial flags and lifts.

Everything generic is computed with exact polynomial arithmetic over
F_p[X]: the special fiber is evaluation at X = 0, generic dimensions
are ranks over the rational-function field.  Submodules of R^n (R the
series ring) are represented by saturated polynomial bases in Hermite
form, so equal modules have identical bases.  The Hermite form of
joined rows [left | right] is the one elimination: its rows with zero
left half span {v : (0 | v) in the span}, which gives intersections,
constant preimages, kernels and so saturation, and its row count is
the generic rank.

The lift of a subspace along a flag follows the inductive basis
construction: a basis vector of the special subspace either lifts
constantly or picks up an X-multiple of a completion vector from a
deeper flag member, which pushes it out of the shallow members in the
generic fiber.  The isotropic variant constrains every choice by the
pairing; the stratum degeneration chains three such lifts.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gf import Matrix, Subspace, image, preimage, rref, subspaces_between
from .e3 import StrataPoint, normal_form, violation
from .strat import leq
from .tmodule import ConcreteModule, jordan_type, torsion_flag


# --- polynomial arithmetic over F_p[X] (coefficient tuples) ---------------


def pnorm(t):
    """The canonical tuple of a coefficient sequence: no trailing zeros.

    Every helper below takes and returns canonical tuples, so this runs
    only where outside input enters and where cancellation can happen.
    """
    t = tuple(t)
    while t and not t[-1]:
        t = t[:-1]
    return t


def padd(a, b, p, c=1):
    """a + c*b."""
    c %= p
    if not c or not b:
        return a
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for i, y in enumerate(b):
        out[i] = (out[i] + c * y) % p
    return pnorm(out)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return tuple(q), pnorm(a)


def pconst(c, p):
    c %= p
    return (c,) if c else ()


def peval0(a):
    return a[0] if a else 0


# --- polynomial matrices ---------------------------------------------------


class PolyMatrix:
    """A matrix with entries in F_p[X]; rows are vectors of R^ncols."""

    __slots__ = ("field", "ncols", "rows")

    def __init__(self, field, ncols, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(
            self, "rows", tuple(tuple(pnorm(e) for e in r) for r in rows)
        )
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("row width mismatch")

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def nrows(self):
        return len(self.rows)

    def eval0_subspace(self):
        return Subspace.span(self.field, self.ncols, [[peval0(e) for e in r] for r in self.rows])

    def apply_const(self, T):
        """Row-wise image under a constant operator: each row v becomes T v."""
        p = self.field.p
        Tc = T.coord_rows()
        rows = []
        for v in self.rows:
            new = []
            for i in range(T.nrows):
                acc = ()
                for j in range(self.ncols):
                    c = Tc[i][j]
                    if c:
                        acc = padd(acc, v[j], p, c)
                new.append(acc)
            rows.append(new)
        return PolyMatrix(self.field, T.nrows, rows)

    def gram(self, pairing):
        """Matrix of pairings <row_i, row_j> as polynomials."""
        Phi, p = pairing.coord_rows(), pairing.field.p
        rows = [[_bilinear(u, w, Phi, p) for w in self.rows] for u in self.rows]
        return PolyMatrix(self.field, self.nrows, rows) if self.nrows else self

    def to_coeff_lists(self):
        return [[list(e) for e in r] for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.p, self.ncols, self.rows))

    def __repr__(self):
        return "PolyMatrix(F%d[X], %dx%d)" % (self.field.p, self.nrows, self.ncols)


def _bilinear(u, w, Phi, p):
    """<u, w> = u * Phi * w^T for polynomial rows and a constant form Phi,
    given as coordinate rows."""
    acc = ()
    for i, ui in enumerate(u):
        if not ui:
            continue
        tmp = ()
        for j, wj in enumerate(w):
            c = Phi[i][j]
            if c and wj:
                tmp = padd(tmp, wj, p, c)
        acc = padd(acc, pmul(ui, tmp, p), p)
    return acc


def generic_rank(pm):
    """Rank over F_p(X): the number of rows of the Hermite form."""
    return len(_hermite(pm.field.p, pm.rows))


def _hermite(p, rows, left=0):
    """Canonical Hermite basis of {v : (0 | v) in the F_p[X]-span of rows},
    where the left half is the first `left` columns of each row.

    The row operations are unimodular, so the Hermite form of the joined
    rows spans the same lattice, and its rows whose left half is zero are
    a basis of that kernel, in Hermite form.  A row whose pivot lies in
    the left half is therefore dropped once its column is cleared.  With
    left = 0 this is the Hermite basis of the span of the rows.
    """
    work = [list(r) for r in rows if any(r)]
    width = len(work[0]) if work else 0
    result = []
    for col in range(width):
        cand = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        while len(cand) > 1:
            cand.sort(key=lambda r: len(r[col]))
            piv = cand[0]
            nxt = [piv]
            for r in cand[1:]:
                q, _ = pdivmod(r[col], piv[col], p)
                r2 = [padd(x, pmul(q, y, p), p, -1) for x, y in zip(r, piv)]
                if r2[col]:
                    nxt.append(r2)
                elif any(r2):
                    rest.append(r2)
            cand = nxt
        if cand and col >= left:
            piv = cand[0]
            lead = piv[col][-1]
            if lead != 1:
                inv = pow(lead, p - 2, p)
                piv = [padd((), x, p, inv) for x in piv]
            for b in result:
                if b[col]:
                    q, _ = pdivmod(b[col], piv[col], p)
                    if q:
                        for j in range(col, width):
                            b[j] = padd(b[j], pmul(q, piv[j], p), p, -1)
            result.append(piv)
        work = rest
    return tuple(tuple(r[left:]) for r in result)


def _null_lattice(p, M, n):
    """Hermite basis of {x in F_p[X]^n : M x = 0}, from the joined rows
    [M e_j | e_j]; it is saturated, as M x = 0 whenever M (f x) = 0."""
    joined = [[r[j] for r in M] + [(1,) if i == j else () for i in range(n)] for j in range(n)]
    return _hermite(p, joined, len(M))


def _cleared_rank(rows, S):
    """Generic rank of polynomial rows with the constant subspace S cleared
    from them: v becomes v - sum v[k] b over S's reduced echelon rows b
    and their pivots k, which is 0 at every pivot, as b is 1 at its own
    and 0 at the others, and the pivot columns are dropped.  Clearing is
    a row operation over F_p[X], so rank [rows; S] = dim S + this rank,
    and the generic span of independent rows meets S in dimension
    len(rows) less this rank."""
    p, pivots = S.field.p, S.pivots
    keep = [j for j in range(S.n) if j not in pivots]
    terms = [
        (k, [(j, b[j]) for j in keep if b[j]]) for k, b in zip(pivots, S.basis_coords())
    ]
    cleared = []
    for v in rows:
        v = list(v)
        for k, entries in terms:
            c = v[k]
            if c:
                for j, bj in entries:
                    v[j] = padd(v[j], c, p, -bj)
        cleared.append([v[j] for j in keep])
    return generic_rank(PolyMatrix(S.field, len(keep), cleared))


class PolyModule:
    """A saturated R-submodule of R^n, by a canonical polynomial basis."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field, n, basis):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("PolyModule is immutable")

    @classmethod
    def from_rows(cls, field, n, rows):
        """The saturation of the span of the rows A: the F_p(X)-span of A
        meets F_p[X]^n in {v : K v = 0}, where K = {x : A x = 0}."""
        A = [[pnorm(e) for e in r] for r in rows]
        return cls(field, n, _null_lattice(field.p, _null_lattice(field.p, A, n), n))

    @classmethod
    def constant(cls, S):
        """The constant module of S: its reduced echelon rows are already the
        saturated Hermite basis."""
        p = S.field.p
        return cls(
            S.field, S.n, tuple(tuple(pconst(c, p) for c in r) for r in S.basis_coords())
        )

    @property
    def rank(self):
        return len(self.basis)

    def to_polymatrix(self):
        return PolyMatrix(self.field, self.n, self.basis)

    def sum(self, other):
        return PolyModule.from_rows(self.field, self.n, self.basis + other.basis)

    def intersect(self, other):
        zero = [()] * self.n
        return self._right_block(
            [list(a) + list(a) for a in self.basis] + [list(b) + zero for b in other.basis]
        )

    def preimage_const(self, T):
        """{v : T v lies in this module}."""
        p, n = self.field.p, self.n
        joined = [
            [pconst(c, p) for c in col] + [pconst(int(i == j), p) for i in range(n)]
            for j, col in enumerate(T.transpose().coord_rows())  # [T e_j | e_j]
        ]
        return self._right_block(joined + [list(b) + [()] * n for b in self.basis])

    def _right_block(self, joined):
        """The module {v : (0 | v) in the span of the joined rows}.  Both
        operations join saturated modules, and their result is saturated
        too, so the Hermite block is the canonical basis as it stands."""
        return PolyModule(self.field, self.n, _hermite(self.field.p, joined, self.n))

    def generic_meet_dim(self, S):
        """The generic dimension of this module meet the constant subspace
        S; the basis rows are independent, so `_cleared_rank` gives it."""
        return self.rank - _cleared_rank(self.basis, S)

    def contains_generic(self, pm):
        """Whether every row of the PolyMatrix lies in the generic span."""
        return len(_hermite(self.field.p, self.basis + pm.rows)) == self.rank

    def __eq__(self, other):
        return (
            isinstance(other, PolyModule)
            and self.field == other.field
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.p, self.n, self.basis))

    def __repr__(self):
        return "PolyModule(F%d[[X]]^%d, rank=%d)" % (self.field.p, self.n, self.rank)


# --- the lifting lemma ------------------------------------------------------


INEQ_TOP = "d'_l == d_l"
INEQ_MONOTONE = "0 <= d'_{i+1} - d'_i"
INEQ_STEP = "d'_{i+1} - d'_i <= h_{i+1} - h_i"
INEQ_LE_SPECIAL = "d'_i <= d_i"
POL_TOP = "d'_l == g"
POL_PERP = "M_i^perp == M_{l-i}"
POL_SYM = "d'_{l-i} == g - h_i + d'_i"
POL_LBAR = "Lbar maximal totally isotropic"
POL_PERFECT = "pairing is perfect"


class LiftInfeasibleError(ValueError):
    """A lift problem violates one of the named feasibility inequalities."""

    def __init__(self, constraint, detail=""):
        msg = "infeasible lift: %s" % constraint
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)
        self.constraint = constraint


class LiftConstructionError(RuntimeError):
    """No choice of lift vectors satisfied all side constraints."""


@dataclass(frozen=True)
class LiftProblem:
    """A flag of direct summands, a special subspace, and generic targets."""

    flag: tuple  # ascending Subspaces, last = full ambient
    special: Subspace
    targets: tuple
    pairing: Matrix | None = None

    def __post_init__(self):
        object.__setattr__(self, "flag", tuple(self.flag))
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if not self.flag:
            raise ValueError("empty flag")
        amb = self.flag[-1]
        if amb.dim != amb.n:
            raise ValueError("last flag member must be the full ambient")
        for a, b in zip(self.flag, self.flag[1:]):
            if not b.contains(a):
                raise ValueError("flag members are not nested")
        if not amb.contains(self.special):
            raise ValueError("special subspace outside the ambient")
        if len(self.targets) != len(self.flag):
            raise ValueError("one target per flag member required")

    def special_dims(self):
        return tuple(self.special.intersect(F).dim for F in self.flag)


def check_lift_feasible(problem):
    """Validate the lifting-lemma inequalities; raise with the violated name."""
    d = problem.special_dims()
    dp = problem.targets
    hs = tuple(F.dim for F in problem.flag)
    l = len(hs)
    if dp[-1] != d[-1]:
        raise LiftInfeasibleError(INEQ_TOP, "d'_%d = %d != %d" % (l, dp[-1], d[-1]))
    prev = 0
    for i in range(l):
        if dp[i] - prev < 0:
            raise LiftInfeasibleError(
                INEQ_MONOTONE, "at i = %d: %d < %d" % (i + 1, dp[i], prev)
            )
        prev = dp[i]
    prev_d, prev_h = 0, 0
    for i in range(l):
        if dp[i] - prev_d > hs[i] - prev_h:
            raise LiftInfeasibleError(
                INEQ_STEP,
                "at i = %d: %d - %d > %d - %d" % (i + 1, dp[i], prev_d, hs[i], prev_h),
            )
        prev_d, prev_h = dp[i], hs[i]
    for i in range(l):
        if dp[i] > d[i]:
            raise LiftInfeasibleError(
                INEQ_LE_SPECIAL, "at i = %d: %d > %d" % (i + 1, dp[i], d[i])
            )


def perp(S, pairing):
    """Orthogonal complement of a subspace under a constant perfect form:
    the kernel of (basis of S) * pairing."""
    return Matrix(S.field, S.dim, S.n, S.rows).mul(pairing).kernel()


def check_isotropic_feasible(problem):
    """Polarized feasibility on top of the plain lifting inequalities."""
    if problem.pairing is None:
        raise LiftInfeasibleError(POL_PERFECT, "no pairing given")
    pairing = problem.pairing
    n = problem.special.n
    if pairing.rank() != n:
        raise LiftInfeasibleError(POL_PERFECT)
    if n % 2:
        raise LiftInfeasibleError(POL_PERFECT, "odd-dimensional ambient")
    g = n // 2
    hs = tuple(F.dim for F in problem.flag)
    l = len(hs)
    # M_l = ambient has perp M_0 = 0, which the flag omits
    for i in range(l - 1):
        pp = perp(problem.flag[i], pairing)
        if pp != problem.flag[l - 2 - i]:
            raise LiftInfeasibleError(
                POL_PERP, "member %d has perp of dim %d" % (i + 1, pp.dim)
            )
    L = problem.special
    if L.dim != g or not perp(L, pairing).contains(L):
        raise LiftInfeasibleError(POL_LBAR)
    dp = problem.targets
    if dp[-1] != g:
        raise LiftInfeasibleError(POL_TOP, "d'_l = %d != g = %d" % (dp[-1], g))
    for i in range(l - 1):
        mate = l - 2 - i
        if dp[mate] != g - hs[i] + dp[i]:
            raise LiftInfeasibleError(
                POL_SYM,
                "i = %d: d'_{l-i} = %d != %d" % (i + 1, dp[mate], g - hs[i] + dp[i]),
            )
    check_lift_feasible(problem)


def _fiber_lifts(module):
    """The special fiber of a module, and a lift of each of its basis rows.

    One rref of the joined rows [b_i(0) | e_i] leaves the fiber's reduced
    echelon rows on the left and, on the right, the constant coefficients
    c with sum c_i b_i(0) equal to each of them; sum c_i b_i is that row's
    lift.  Returns the fiber and a tuple of the (pivot, lift) pairs in
    row order.  A module basis is in Hermite form, so a constant one is
    already the fiber's reduced echelon basis and its rows are their own
    lifts.
    """
    field, n, basis = module.field, module.n, module.basis
    reduced = [field.pack([peval0(e) for e in b]) for b in basis]
    if all(len(e) < 2 for b in basis for e in b):
        fib = Subspace(field, n, reduced, _canonical=True)
        return fib, tuple(zip(fib.pivots, basis))
    m = len(basis)
    joined = [field.row_join(r, field.unit_row(m, i), n) for i, r in enumerate(reduced)]
    zero = ((),) * n
    lefts, lifts = [], []
    for piv, row in zip(*rref(field, joined)):
        left, right = field.row_split(row, n)
        lefts.append(left)
        lifts.append((piv, _combine(field, zero, enumerate(basis), right)))
    return Subspace(field, n, lefts, _canonical=True), tuple(lifts)


def _combine(field, row, terms, v):
    """row + the sum of c*t over the (k, t) in terms, c the entry of the
    packed vector v at k.  With a fiber's (pivot, lift) pairs as terms this
    adds the lift of a fiber vector, as the fiber basis is reduced."""
    p = field.p
    for k, t in terms:
        c = field.row_get(v, k)
        if c:
            row = tuple(padd(x, y, p, c) for x, y in zip(row, t))
    return row


# nodes one lift search may visit before it gives up
_NODE_CAP = 500000


def _lift_solutions(flag, special, targets, pairing=None):
    """All lifts of `special` along a module flag, lazily, backtrackably.

    Each flag member is given by its `_fiber_lifts` pair, so a caller
    that reuses a module computes the pair once.  Yields lists of
    polynomial rows.  With a `pairing`, every finalized row must pair to
    zero with the rows finalized before it (isotropy); the first yielded
    solution is the plain greedy one.  The search visits at most
    `_NODE_CAP` nodes and raises `LiftConstructionError` past that.
    """
    field = special.field
    n = special.n
    l = len(flag)
    budget = [_NODE_CAP]
    zero = ((),) * n
    # per level, once: lifts of the special vectors new at that level, the
    # span perturbations must avoid, the fiber and its lifts times X
    levels = []
    prev_fib, prev_cut = None, Subspace.zero(field, n)
    for fib, lifts in flag:
        cut = special.intersect(fib)
        bases = [_combine(field, zero, lifts, w) for w in prev_cut.complement_in(cut)]
        avoid0 = cut if prev_fib is None else prev_fib.sum(cut)
        shifted = [(k, tuple((0,) + e if e else () for e in t)) for k, t in lifts]
        levels.append((bases, avoid0, fib, shifted))
        prev_fib, prev_cut = fib, cut

    Phi = None if pairing is None else pairing.coord_rows()

    def pair_ok(f, finals):
        return Phi is None or all(not _bilinear(f, g, Phi, field.p) for g in finals)

    def rec(i, rows, pending, finals):
        # rows: the rows so far; pending: ids of rows awaiting a perturbation.
        # Level i keeps `take` of its new rows, leaves the others pending,
        # and perturbs the first q pending rows when it must keep more.
        if budget[0] <= 0:
            raise LiftConstructionError("search budget exhausted")
        budget[0] -= 1
        if i == l:
            if not pending:
                yield list(rows)
            return
        bases, avoid0 = levels[i][:2]
        keep = targets[i] - (targets[i - 1] if i else 0)
        take = min(keep, len(bases))
        q = keep - take
        if keep < 0 or q > len(pending):
            return
        for subset in itertools.combinations(range(len(bases)), take):
            rows2, pending2, finals2 = list(rows), list(pending), list(finals)
            for idx, base in enumerate(bases):
                if idx not in subset:
                    pending2.append(len(rows2))  # perturbation applied later
                elif pair_ok(base, finals2):
                    finals2.append(base)
                else:
                    break
                rows2.append(base)
            else:
                yield from assign(i, q, pending2, 0, rows2, finals2, avoid0)

    def assign(i, q, pending, j, rows, finals, avoid):
        # perturb pending[j:q] by X-multiples of fiber lifts outside `avoid`
        if j == q:
            yield from rec(i + 1, rows, pending[q:], finals)
            return
        _, _, fib, shifted = levels[i]
        rid = pending[j]
        for v in fib.vectors():
            res = avoid.reduce_row(v)
            if field.row_is_zero(res):
                continue
            f = _combine(field, rows[rid], shifted, v)
            if not pair_ok(f, finals):
                continue
            rows2 = list(rows)
            rows2[rid] = f
            yield from assign(i, q, pending, j + 1, rows2, finals + [f], avoid._plus_residue(res))

    try:
        yield from rec(0, [], [], [])
    finally:
        rec = assign = None  # they refer to each other: leave no cyclic garbage


def _searched(gen):
    """The solutions of a lift search, until it ends or exhausts its budget."""
    try:
        yield from gen
    except LiftConstructionError:
        return


def lift_subspace(problem):
    """A polynomial basis of the lift prescribed by a (plain) LiftProblem."""
    check_lift_feasible(problem)
    flag = [_fiber_lifts(PolyModule.constant(F)) for F in problem.flag]
    for rows in _lift_solutions(flag, problem.special, problem.targets):
        return PolyMatrix(problem.special.field, problem.special.n, rows)
    raise LiftConstructionError("no lift found for a feasible problem")


def lift_isotropic(problem):
    """An isotropic lift: plain posts plus an identically-zero Gram matrix."""
    check_isotropic_feasible(problem)
    pairing = problem.pairing
    flag = [_fiber_lifts(PolyModule.constant(F)) for F in problem.flag]
    for rows in _lift_solutions(flag, problem.special, problem.targets, pairing=pairing):
        pm = PolyMatrix(problem.special.field, problem.special.n, rows)
        if all(not e for r in pm.gram(pairing).rows for e in r):
            return pm
    raise LiftConstructionError("no isotropic lift found")


@dataclass(frozen=True)
class LiftReport:
    ok: bool
    special_fiber_ok: bool
    direct_summand_ok: bool
    generic_dims: tuple
    expected: tuple
    gram_zero: bool | None = None

    def __bool__(self):
        return self.ok


def verify_lift(problem, pm):
    """Independent verification of the three lift post-conditions.

    (a) the reduction at X = 0 spans the special subspace; (b) the lift
    is a direct summand (full-rank reduction, hence a maximal minor with
    unit constant term); (c) every generic intersection dimension equals
    its target.  Each is the row count less the generic rank of the rows
    cleared at the flag member's pivots (see `_cleared_rank`).
    """
    fiber = pm.eval0_subspace()
    a = fiber == problem.special
    b = fiber.dim == pm.nrows
    dims = tuple(pm.nrows - _cleared_rank(pm.rows, F) for F in problem.flag)
    c = dims == problem.targets
    gram_zero = None
    if problem.pairing is not None:
        gram_zero = all(not e for r in pm.gram(problem.pairing).rows for e in r)
    ok = a and b and c and (gram_zero is None or gram_zero)
    return LiftReport(ok, a, b, dims, problem.targets, gram_zero)


# --- stratum degeneration ---------------------------------------------------


class StratOrderError(ValueError):
    """The requested pair is no ordered pair of admissible points."""


class TheoremGapError(RuntimeError):
    """A construction the theorems guarantee found nothing at desk scale."""


@dataclass(frozen=True)
class Degeneration:
    y_from: StrataPoint
    y_to: StrataPoint
    module: ConcreteModule
    omega1: PolyMatrix
    omega2: PolyMatrix
    omega: PolyMatrix
    generic: StrataPoint

    def to_json_dict(self):
        return {
            "h": self.y_from.h,
            "mu": list(self.y_from.mu),
            "from": self.y_from.to_json_dict(),
            "to": self.y_to.to_json_dict(),
            "ambient_dim": self.module.dim,
            "omega1": self.omega1.to_coeff_lists(),
            "omega2": self.omega2.to_coeff_lists(),
            "omega": self.omega.to_coeff_lists(),
        }


def _free_module_op(field, h, e):
    """T on (k[T]/T^e)^h: coordinates e*b + t, T sends slot t to t+1."""
    n = e * h
    rows = [[0] * n for _ in range(n)]
    for b in range(h):
        for t in range(e - 1):
            rows[e * b + t + 1][e * b + t] = 1
    return Matrix.from_rows(field, rows, n)


def embed_normal_form(D, h):
    """Embed a PR datum over k[T]/T^e, e = D.module.e, into the free module
    (k[T]/T^e)^h, and return the images of its flag steps M_1, ..., M_e.

    Block j of size s lands in free block j starting at depth e - s, so
    at e = 3 the image is the span of e_1..e_{delta_3}, T e_{delta_3+1},
    ..., T^2 e_{delta_1} in the free module.
    """
    M = D.module
    field, e = M.field, M.e
    parts = [a for a in jordan_type(M).parts if a]
    if len(parts) > h:
        raise ValueError("module needs more than h generators")
    n = e * h
    iota_rows = [[0] * M.dim for _ in range(n)]
    off = 0
    for j, s in enumerate(parts):
        for k in range(s):
            iota_rows[e * j + e - 1 - k][off + k] = 1
        off += s
    iota = Matrix.from_rows(field, iota_rows, M.dim)
    return tuple(Subspace(field, n, [iota.apply(r) for r in S.rows]) for S in D.flag[1:])


@functools.lru_cache(maxsize=16)
def _free_module(field, h, polarized, e):
    """The free module (k[T]/T^e)^h, the one owner of T, its layout and its
    kernels: the `ConcreteModule` itself (ker T^i is its `torsion_flag`),
    its pairing (None unless polarized), and the constant modules of
    ker T^i for 0 < i < e."""
    if polarized:
        T, pairing = standard_symplectic(field, h // 2, e)
    else:
        T, pairing = _free_module_op(field, h, e), None
    M = ConcreteModule(field, e, T)
    return M, pairing, tuple(PolyModule.constant(torsion_flag(M, i)) for i in range(1, e))


@functools.lru_cache(maxsize=1024)
def _normal_flag(y_from, field, polarized):
    """(free, w2bar, wbar, members, room), all that the source point y_from
    fixes: free is its `_free_module`, w1bar <= w2bar <= wbar its normal
    form there, with dim(w2bar meet ker T) = alpha_1(y_from), and members
    stage b's flag (w1bar, ker T, [E,] T^{-1} w1bar); T kills ker T, so
    ker T meet T^{-1} w1bar is ker T itself, the free module's own object.

    Only a plain flag has E = (ker T + wbar) meet T^{-1} w1bar, and room =
    dim E - dim(ker T + w2bar) (None when polarized).  E gets the target t
    = d1 + d2 - q + min(q, room), q = alpha_1(y_from) - alpha_1(y_to).
    Stage b perturbs q rows b of w2bar meet ker T to b + X v, v in T^{-1}
    w1bar, so the fiber of sat(ker T + omega_2), stage c's member F, is K +
    span(v), K = ker T + w2bar.  By the modular law dim(wbar meet that
    fiber) = delta_1' + alpha_2' + r (primes on y_from), r the number of v
    in E independent mod K, so stage c's target delta_1 + alpha_2 on F is
    within reach iff r >= q - (delta_1' - delta_1).  t puts r = min(q,
    room), as many v in E as fit, and depends only on stage b's flag and
    alpha_1(y_to).  A polarized flag has no E: with it, the first kept
    omega_2 of some pairs at g = 3 leaves stage c no lift."""
    if polarized:
        w1bar, w2bar, wbar = polarized_normal_form(y_from, field)
    else:
        w1bar, w2bar, wbar = embed_normal_form(normal_form(y_from, field), y_from.h)
    free = _free_module(field, y_from.h, polarized, len(y_from.mu))
    kerT, inv_w1 = torsion_flag(free[0], 1), preimage(free[0].op, w1bar)
    if polarized:
        return free, w2bar, wbar, (w1bar, kerT, inv_w1), None
    E = kerT.sum(wbar).intersect(inv_w1)
    return free, w2bar, wbar, (w1bar, kerT, E, inv_w1), E.dim - kerT.sum(w2bar).dim


@functools.lru_cache(maxsize=1024)
def _omega2(Pw2, free):
    """What stage c of `degenerate_step` reads from the module omega_2 =
    Pw2 inside `free`, the `_free_module` it lives in, once per value: None
    when the polarized cross-pair test omega_2 perp T^{-1} omega_2 refuses
    it, else (Pw2, a1, lifts), with a1 the generic dimension of omega_2
    meet ker T and lifts the `_fiber_lifts` of the four members of stage
    c's flag that omega_2 fixes: omega_2, ker T + omega_2, ker T^2 meet
    T^{-1} omega_2 and T^{-1} omega_2.  T, ker T, ker T^2 and the pairing
    all come from `free`, so nothing else enters."""
    M, pairing, (PkerT, PkerT2) = free
    Pinv_w2 = Pw2.preimage_const(M.op)
    if pairing is not None:
        Phi = pairing.coord_rows()
        if any(_bilinear(u, w, Phi, M.field.p) for u in Pw2.basis for w in Pinv_w2.basis):
            return None
    lifts = (
        _fiber_lifts(Pw2),
        _fiber_lifts(PkerT.sum(Pw2)),
        _fiber_lifts(PkerT2.intersect(Pinv_w2)),
        _fiber_lifts(Pinv_w2),
    )
    return Pw2, Pw2.generic_meet_dim(torsion_flag(M, 1)), lifts


@functools.lru_cache(maxsize=1024)
def _second_lift(free, members, w2bar, targets_b):
    """The `_omega2` result of stage b's first kept omega_2, or None when
    its search keeps none: the lift of w2bar along the constant flag
    `members` with targets_b inside `free`, which gives T and the pairing."""
    M, pairing, _ = free
    flag = [_fiber_lifts(PolyModule.constant(S)) for S in members]
    for rows in _searched(_lift_solutions(flag, w2bar, targets_b, pairing=pairing)):
        w2 = _omega2(PolyModule.from_rows(M.field, M.dim, rows), free)
        if w2 is not None:
            return w2
    return None


def degenerate_step(y_from, y_to, field, polarized=False):
    """Deform the normal form of y_from so its generic invariants equal y_to.

    One gate refuses bad input with StratOrderError before any search: the
    same (h, mu), then y_to <= y_from, then y_from and y_to each passing
    `e3.violation(y, polarized)`; a refused point's error names the
    condition that call returns.  The gate gives the bounds the final lift
    needs (primes on y_from): delta1 + alpha2 <= min(delta1' + alpha2,
    beta1' + d1), beta1 <= beta1' and delta1 + delta2 <= min(delta1' +
    delta2', alpha1 + beta1').  Dominance is by prefix sums, so the order
    gives delta1 <= delta1', delta1 + delta2 <= delta1' + delta2' and beta1
    <= beta1'; admissibility gives delta1 + max(d2, delta2) <= alpha1 +
    beta1 <= alpha1 + beta1', which with alpha2 = d1 + d2 - alpha1 also
    gives delta1 + alpha2 <= beta1' + d1.

    The three flag steps are lifted in turn inside the free module
    (k[T]/T^e)^h, e = len(mu) = 3, over the truncated series; the generic
    fiber of the result is recomputed independently and must equal y_to.
    Stage b takes its first kept omega_2, whose target on E (see
    `_normal_flag`) makes it one that stage c can lift along, and stage c
    takes its first lift.  When either search is empty, or the first lift
    realizes another point, TheoremGapError names what went wrong with
    y_to and y_from.  The theorems say every y_to in Y^adm is reached.

    Four bounded caches share work between calls; their keys are hashable
    values and they hold immutable ones.  `_free_module` owns the free
    module, T, its kernels and the pairing, keyed by (field, h, polarized,
    e); `_normal_flag` owns what a source point fixes, stage b's flag and
    room among it, keyed by (y_from, field, polarized); `_second_lift`
    owns stage b's search, keyed by exactly its inputs (free module, stage
    b's flag, w2bar, targets); and `_omega2` owns what stage c reads from
    an omega_2 -- the polarized cross-pair test, a1 and the fiber lifts of
    the four flag members omega_2 fixes -- keyed by (module value, free
    module), however many searches draw it.  They hold at most 16, 1,024,
    1,024 and 1,024 entries.
    """
    if (y_from.h, y_from.mu) != (y_to.h, y_to.mu):
        raise StratOrderError("points live over different (h, mu)")
    if not leq(y_to, y_from):
        raise StratOrderError(
            "degeneration requires y_to <= y_from; pair is not so ordered"
        )
    for name, y in (("y_from", y_from), ("y_to", y_to)):
        failed = violation(y, polarized)
        if failed:
            raise StratOrderError("%s %r fails %s" % (name, y.sort_key(), failed))
    free, w2bar, wbar, members, room = _normal_flag(y_from, field, polarized)
    M, pairing, _ = free
    d1, d2, d3 = y_from.mu
    delta, alpha, beta = y_to.delta, y_to.alpha, y_to.beta

    targets_b = (d1, alpha[0], d1 + d2)
    if room is not None:
        q = y_from.alpha[0] - alpha[0]
        targets_b = (d1, alpha[0], d1 + d2 - q + min(q, room), d1 + d2)
    w2 = _second_lift(free, members, w2bar, targets_b)
    if w2 is None:
        raise TheoremGapError(
            "no second lift for %r from %r" % (y_to.sort_key(), y_from.sort_key())
        )
    Pw2, a1, (w2_lifts, F_lifts, G_lifts, inv_w2_lifts) = w2
    Pinv_w1 = PolyModule.constant(members[-1])
    flag_c = [w2_lifts, F_lifts, _fiber_lifts(Pinv_w1), G_lifts, inv_w2_lifts]
    targets_c = (d1 + d2, delta[0] + alpha[1], d1 + beta[0], delta[0] + delta[1], d1 + d2 + d3)
    rows_c = next(_searched(_lift_solutions(flag_c, wbar, targets_c, pairing=pairing)), None)
    if rows_c is None:
        raise TheoremGapError(
            "no lift realized the generic invariants %r from %r"
            % (y_to.sort_key(), y_from.sort_key())
        )
    Pw = PolyModule.from_rows(field, M.dim, rows_c)
    kerT, kerT2 = torsion_flag(M, 1), torsion_flag(M, 2)
    generic = _generic_point(y_from.h, y_from.mu, members[-1], a1, Pw, kerT, kerT2)
    if generic != y_to:
        raise TheoremGapError(
            "the first lift realized %r, not %r, from %r"
            % (generic.sort_key(), y_to.sort_key(), y_from.sort_key())
        )
    omega1 = PolyModule.constant(members[0]).to_polymatrix()
    return Degeneration(y_from, y_to, M, omega1, Pw2.to_polymatrix(), Pw.to_polymatrix(), generic)


def _generic_point(h, mu, inv_w1, a1, Pw, kerT, kerT2):
    """Generic invariants of the lifted flag with omega = Pw, from the
    generic dimensions of omega meet the constant subspaces inv_w1 =
    T^{-1} w1bar, kerT and kerT2 = ker T^2, each read from omega's basis
    cleared at that subspace's pivots; a1 is the generic dimension of
    omega_2 meet ker T, and omega_2, a lift of w2bar, has rank d1 + d2."""
    d1, d2 = mu[0], mu[1]
    total = Pw.rank
    k1 = Pw.generic_meet_dim(kerT)
    k2 = Pw.generic_meet_dim(kerT2)
    delta = (k1, k2 - k1, total - k2)
    alpha = (a1, d1 + d2 - a1)
    b1 = Pw.generic_meet_dim(inv_w1) - d1
    beta = (b1, total - d1 - b1)
    return StrataPoint(h, mu, delta, alpha, beta)


# --- polarized normal forms -------------------------------------------------


def standard_symplectic(field, g, e):
    """T and the pairing tau(b(x, y)) on (k[T]/T^e)^{2g}, T self-adjoint.

    Hyperbolic R-bilinear form b(e_i, f_i) = 1 = -b(f_i, e_i), read off
    through the T^{e-1}-coefficient functional, so <E_{i,a}, E_{g+i,c}> = 1
    exactly when a + c = e - 1.  E_{i,a} = T^a e_i is coordinate e*i + a,
    as in `_free_module_op`.
    """
    T = _free_module_op(field, 2 * g, e)
    n = T.nrows
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        for a in range(e):
            c = e - 1 - a
            rows[e * i + a][e * (g + i) + c] = 1
            rows[e * (g + i) + c][e * i + a] = (-1) % field.p
    return T, Matrix.from_rows(field, rows, n)


def polarized_normal_form(y, field):
    """A flag (w1bar, w2bar, wbar) inside the polarized free module of
    `_free_module` realizing y in Y^pol.

    The module is pinned by delta = (r, g, 2g - r): hyperbolic pair j
    carries a depth-s truncation of e_j and a depth-(e - s) one of f_j,
    with s = e (the full block e_j) on the first 2g - r pairs and s = e - 1
    on the others; e = len(mu) = 3.  The two flag steps are found by
    deterministic search subject to the pairing compatibilities
    omega_1^perp = T^{-2} omega_1 and omega_2^perp = T^{-1} omega_2.
    """
    failed = violation(y, polarized=True)
    if failed:
        raise StratOrderError("point %r fails %s" % (y.sort_key(), failed))
    g, r, e = y.h // 2, y.delta[0], len(y.mu)
    M, pairing, _ = _free_module(field, y.h, True, e)
    T, kerT, n = M.op, torsion_flag(M, 1), M.dim
    gens = []
    for j in range(g):
        s = e if j < 2 * g - r else e - 1
        gens += range(e * j + e - s, e * j + e)  # T^{e-s} e_j, ..., T^{e-1} e_j
        gens += range(e * (g + j) + s, e * (g + j) + e)
    wbar = Subspace(field, n, [field.unit_row(n, i) for i in gens])

    Tw = image(T, wbar)
    T2w = image(T, Tw)
    wkT = wbar.intersect(kerT)
    cut1 = y.beta[0] + g - y.delta[0]

    for w1 in subspaces_between(T2w, wkT, g):
        if w1.intersect(Tw).dim != cut1:
            continue
        inv_w1 = preimage(T, w1)
        if perp(w1, pairing) != preimage(T, inv_w1):  # T^{-2} w1
            continue
        floor = w1.sum(Tw)
        ceil = inv_w1.intersect(wbar)
        found = None
        for w2 in subspaces_between(floor, ceil, 2 * g):
            if w2.intersect(kerT).dim != y.alpha[0]:
                continue
            if perp(w2, pairing) != preimage(T, w2):
                continue
            found = w2
            break
        if found is not None:
            return w1, found, wbar
    raise TheoremGapError("no polarized flag matched %r" % (y.sort_key(),))
