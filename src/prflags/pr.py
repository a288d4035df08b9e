"""Pappas-Rapoport data: validation, existence, greedy construction, oracle.

A PR datum of type mu = (d_1, ..., d_e) on a k[T]/T^e-module M is a
flag 0 = M_0 <= M_1 <= ... <= M_e = M with T M_i <= M_{i-1} and
dim M_i/M_{i-1} = d_i.  One exists iff Hdg(M) dominates P(mu); the
constructive direction builds the flag greedily so that every
intersection with the T-power flag achieves the extreme value

    alpha_i^j = min over l of (delta_{j+1} + ... + delta_{j+l})
                             + (d_{l+1} + ... + d_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf import DEFAULT_ENUM_CAP, Subspace, image, preimage, subspaces_between
from .polygon import dominates_d
from .tmodule import _piece_delta, delta_vector, power_image, torsion_flag


class PRError(ValueError):
    pass


class InfeasiblePRError(PRError):
    """The requested PR type is not dominated by the Hodge polygon."""

    def __init__(self, prefix_index, lhs, rhs):
        super().__init__(
            "prefix %d fails: d_1+...+d_%d = %d > %d = delta_1+...+delta_%d"
            % (prefix_index, prefix_index, lhs, rhs, prefix_index)
        )
        self.prefix_index = prefix_index


class InfeasibleTargetError(PRError):
    """subspace_in_flag received unattainable intersection targets."""

    def __init__(self, constraint, detail=""):
        msg = "infeasible targets: %s" % constraint
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)
        self.constraint = constraint


@dataclass(frozen=True)
class PRDatum:
    """A flag 0 = M_0 <= ... <= M_e = M with T M_i <= M_{i-1}."""

    module: ConcreteModule
    flag: tuple

    def __post_init__(self):
        object.__setattr__(self, "flag", tuple(self.flag))
        if len(self.flag) != self.module.e + 1:
            raise PRError("flag must have e+1 = %d members" % (self.module.e + 1))

    @property
    def mu(self):
        dims = [s.dim for s in self.flag]
        return tuple(b - a for a, b in zip(dims, dims[1:]))

    def to_json_dict(self):
        return {
            "e": self.module.e,
            "dim": self.module.dim,
            "T": [list(r) for r in self.module.op.coord_rows()],
            "flag": [[list(v) for v in s.basis_coords()] for s in self.flag],
        }


@dataclass(frozen=True)
class PRValidation:
    ok: bool
    violation: str | None = None
    level: int | None = None

    def __bool__(self):
        return self.ok


def validate_pr(D, mu=None):
    """Check the three defining bullets; report the first violation."""
    M = D.module
    n = M.dim
    flag = D.flag
    if not flag[0].is_zero():
        return PRValidation(False, "M_0 != 0", 0)
    if flag[-1].dim != n:
        return PRValidation(False, "M_e != M", M.e)
    for i in range(1, len(flag)):
        if not flag[i].contains(flag[i - 1]):
            return PRValidation(False, "M_%d not inside M_%d" % (i - 1, i), i)
    for i in range(1, len(flag)):
        for r in flag[i].rows:
            if not flag[i - 1].contains_row(M.op.apply(r)):
                return PRValidation(False, "T M_%d not inside M_%d" % (i, i - 1), i)
    if mu is not None:
        mu = tuple(mu)
        if len(mu) != M.e:
            return PRValidation(False, "type has wrong length", None)
        for i in range(1, len(flag)):
            jump = flag[i].dim - flag[i - 1].dim
            if jump != mu[i - 1]:
                return PRValidation(
                    False,
                    "dim M_%d/M_%d = %d, expected d_%d = %d" % (i, i - 1, jump, i, mu[i - 1]),
                    i,
                )
    return PRValidation(True)


def pr_exists(J, mu):
    """Existence of a PR datum of type mu on a module of Jordan type J
    (Hodge-dominance criterion)."""
    mu = tuple(int(d) for d in mu)
    if len(mu) != J.e:
        raise PRError("type length %d != e = %d" % (len(mu), J.e))
    if any(d < 0 for d in mu):
        raise PRError("negative graded dimension")
    if sum(mu) != J.dim:
        return False
    return dominates_d(J.delta(), sorted(mu, reverse=True))


def alpha_table(delta, mu_sorted):
    """alpha[i][j] = forced dim(M_i ^ T^j M) for the greedy flag, 0<=i,j<=e.

    With D the prefix sums of delta padded by e zeros and S those of mu,
    alpha[i][j] = min over l <= i of (D[j+l] - D[j]) + (S[i] - S[l]).
    """
    e = len(mu_sorted)
    D = list(itertools.accumulate(tuple(delta) + (0,) * e, initial=0))
    S = list(itertools.accumulate(mu_sorted, initial=0))
    return [
        [min(D[j + l] - D[j] + S[i] - S[l] for l in range(i + 1)) for j in range(e + 1)]
        for i in range(e + 1)
    ]


def subspace_in_flag(flag, floor, target_dim, target_intersections):
    """A subspace S with floor <= S <= flag top and dim(S ^ F_j) as targeted.

    `flag` is a nested chain F_0 <= F_1 <= ... whose last member bounds S;
    `target_intersections` aligns with the flag members and must end with
    `target_dim`.  Vectors are added greedily from the smallest flag
    member outwards, always avoiding floor + F_{j-1}, so settled
    intersection counts never move again.

    Every count comes from one sum floor + F_j per member.  The picks P
    made before F_j lie in F_{j-1} <= F_j and are independent modulo the
    floor, so by the modular law dim(S ^ F_j) = c_j + |P|, where
    c_j = dim(floor ^ F_j) = dim floor + dim F_j - dim(floor + F_j).
    F_j thus needs (t_j - t_{j-1}) - (c_j - c_{j-1}) picks.  The "target
    below floor" and "floor forces a larger step" checks make that number
    >= 0; the "exceeds member" and "step" checks make it at most
    dim F_j/((floor + F_{j-1}) ^ F_j) = dim(floor + F_j) - dim(floor + F_{j-1}),
    the number of rows of F_j that the scan finds outside floor + F_{j-1}.
    """
    spaces = list(flag)
    targets = [int(t) for t in target_intersections]
    if len(targets) != len(spaces):
        raise InfeasibleTargetError("one target per flag member required")
    if not spaces:
        raise InfeasibleTargetError("empty flag")
    if targets[-1] != target_dim:
        raise InfeasibleTargetError(
            "top target must equal target_dim",
            "%d != %d" % (targets[-1], target_dim),
        )
    if not spaces[-1].contains(floor):
        raise InfeasibleTargetError("floor not inside flag top")
    f, n = floor.field, floor.n
    picks = []
    prev_space = None
    prev_target = prev_floor_cut = 0
    avoid = floor  # floor + F_{j-1}, grown by the picks from F_j
    for space, t in zip(spaces, targets):
        joint = floor.sum(space)
        floor_cut = floor.dim + space.dim - joint.dim
        if t < floor_cut:
            raise InfeasibleTargetError(
                "target below floor",
                "target %d < dim(floor ^ F) = %d" % (t, floor_cut),
            )
        if t > space.dim:
            raise InfeasibleTargetError(
                "target exceeds flag member dimension",
                "target %d > %d" % (t, space.dim),
            )
        if prev_space is not None:
            if not space.contains(prev_space):
                raise InfeasibleTargetError("flag members are not nested")
            if t < prev_target:
                raise InfeasibleTargetError("non-monotone targets")
            if t - prev_target > space.dim - prev_space.dim:
                raise InfeasibleTargetError(
                    "step exceeds flag step",
                    "%d - %d > %d - %d" % (t, prev_target, space.dim, prev_space.dim),
                )
            if t - prev_target < floor_cut - prev_floor_cut:
                raise InfeasibleTargetError(
                    "floor forces a larger step",
                    "%d - %d < %d - %d" % (t, prev_target, floor_cut, prev_floor_cut),
                )
        need = (t - prev_target) - (floor_cut - prev_floor_cut)
        for r in space.rows:
            if not need:
                break
            if not avoid.contains_row(r):
                picks.append(r)
                avoid = Subspace(f, n, avoid.rows + (r,))
                need -= 1
        prev_space, prev_target, prev_floor_cut, avoid = space, t, floor_cut, joint
    return Subspace(f, n, floor.rows + tuple(picks))


def pr_construct(M, mu):
    """A PR datum of type mu built greedily (Hodge dominance required).

    For sorted mu the constructed flag hits every alpha_i^j exactly;
    unsorted types are produced from the sorted flag by exchange moves.
    """
    mu = tuple(int(d) for d in mu)
    e = M.e
    if len(mu) != e:
        raise PRError("type length %d != e = %d" % (len(mu), e))
    delta = delta_vector(M)
    mu_sorted = tuple(sorted(mu, reverse=True))
    if sum(mu) != M.dim:
        raise InfeasiblePRError(e, sum(mu), M.dim)
    dacc = sacc = 0
    for i in range(e):
        dacc += mu_sorted[i]
        sacc += delta[i]
        if dacc > sacc:
            raise InfeasiblePRError(i + 1, dacc, sacc)

    alpha = alpha_table(delta, mu_sorted)
    power_flags = [power_image(M, j) for j in range(e + 1)]

    flag = [Subspace.zero(M.field, M.dim)]
    for i in range(1, e + 1):
        U = preimage(M.op, flag[-1])
        # T^e M = 0 and T^0 M = M meet U in 0 and U; a full U meets each
        # T^j M in T^j M itself
        middle = power_flags[e - 1:0:-1]
        if U.dim < M.dim:
            middle = [P.intersect(U) for P in middle]
        members = [power_flags[e], *middle, U]
        targets = [alpha[i][j] for j in range(e, -1, -1)]
        nxt = subspace_in_flag(members, flag[-1], alpha[i][0], targets)
        flag.append(nxt)
    datum = PRDatum(M, flag)

    # exchange back to the caller's ordering
    order = list(mu_sorted)
    swaps = []
    work = list(mu)
    for i in range(len(work)):
        for j in range(len(work) - 1 - i):
            if work[j] < work[j + 1]:
                work[j], work[j + 1] = work[j + 1], work[j]
                swaps.append(j)
    for j in reversed(swaps):
        if order[j] != order[j + 1]:
            datum = pr_permute(datum, j + 1)
        order[j], order[j + 1] = order[j + 1], order[j]
    return datum


def pr_permute(D, i):
    """Exchange d_i and d_{i+1} of the datum (1-indexed level i)."""
    M = D.module
    e = M.e
    if not 1 <= i <= e - 1:
        raise PRError("swap level %d outside [1, %d]" % (i, e - 1))
    lower = D.flag[i - 1]
    upper = D.flag[i + 1]
    d_next = upper.dim - D.flag[i].dim
    floor = lower.sum(image(M.op, upper))
    ceiling = upper.intersect(preimage(M.op, lower))
    target = lower.dim + d_next
    mid = subspace_in_flag([ceiling], floor, target, [target])
    flag = list(D.flag)
    flag[i] = mid
    return PRDatum(M, flag)


def pr_oracle_exists(M, mu, cap=DEFAULT_ENUM_CAP):
    """Exhaustive search for a PR datum of type mu (depth-first, pruned by
    the forced floors).

    Independent of the Hodge-dominance criterion: asks `pr_all_data`,
    which enumerates nested chains with the defining constraints only,
    for a first datum.
    """
    return any(True for _ in pr_all_data(M, mu, cap))


def pr_all_data(M, mu, cap=DEFAULT_ENUM_CAP):
    """Every PR datum of type mu on M (for the isomorphism oracle).

    The conditions T M <= M_{e-1} and T M_{i+1} <= M_i force the floor
    M_i >= T^{e-i} M, by descending induction from M_e = M.  So M_{i+1}
    is enumerated between M_i + T^{e-i-1} M and the ceiling T^{-1}(M_i).
    The floor lies in the ceiling: T M_i <= M_{i-1} <= M_i, and
    T^{e-i} M <= M_i is the floor of M_i.  The floor of M_e is M itself,
    so the last member is forced and T M <= M_{e-1} holds by construction.

    The floors follow from the defining conditions alone, not from Hodge
    dominance, so `pr_oracle_exists` stays independent of `pr_exists`.
    Each floor T^k M is read from the module, which computes its images once.
    A type of length other than e raises PRError, but this is a generator:
    the call returns at once and the error comes at the first `next()`
    (`pr_oracle_exists` asks for it at the call).  A type with a negative
    entry or the wrong sum has no data.
    """
    mu = tuple(int(d) for d in mu)
    e = M.e
    if len(mu) != e:
        raise PRError("type length %d != e = %d" % (len(mu), e))
    if sum(mu) != M.dim or any(d < 0 for d in mu):
        return
    full = Subspace.full(M.field, M.dim)
    dims = [0]
    for d in mu:
        dims.append(dims[-1] + d)

    def search(level, chain):
        if level == e - 1:
            yield PRDatum(M, tuple(chain) + (full,))
            return
        current = chain[-1]
        floor = power_image(M, e - level - 1)
        if level:
            floor = current.sum(floor)
        want = dims[level + 1]
        if want < floor.dim:
            return
        ceiling = preimage(M.op, current)
        for cand in subspaces_between(floor, ceiling, want, cap=cap):
            yield from search(level + 1, chain + [cand])

    yield from search(0, [Subspace.zero(M.field, M.dim)])


def check_hdg_filt(M, N, i):
    """Dominance Hdg(M) >= Hdg(N) * Hdg(M/N) for a T^i-torsion piece N.

    Preconditions: N is T-stable, T^i N = 0 and T^{e-i} M <= N; the
    verdict must be True for every such triple.  At the degenerate ends
    (i = 0 forces N = 0, i = e forces N = M) the star factor is empty
    and the claim collapses to Hdg(M) >= Hdg(M).  A star product is the
    sorted concatenation of the d-lists, so the test is one prefix-sum
    comparison of integers.
    """
    e = M.e
    if not 0 <= i <= e:
        raise PRError("index %d outside [0, %d]" % (i, e))
    if not all(N.contains_row(M.op.apply(r)) for r in N.rows):
        raise PRError("N is not T-stable")
    if not torsion_flag(M, i).contains(N):
        raise PRError("T^%d N != 0" % i)
    if not N.contains(power_image(M, e - i)):
        raise PRError("T^%d M not inside N" % (e - i))
    if i == 0 or i == e:
        return True
    sub = _piece_delta(M, N, i)
    quo = _piece_delta(M, N, e - i, quotient=True)
    return dominates_d(delta_vector(M), sorted(sub + quo, reverse=True))
