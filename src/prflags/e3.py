"""The e = 3 classification: polygon triples, phi, normal forms, oracle.

A filtered module (M, M_1 <= M_2 <= M) of type mu = (d_1 >= d_2 >= d_3)
is classified up to isomorphism by the triple of polygons

    phi = (Hdg(M), Hdg(M_2), Hdg(M/M_1)),

encoded here as integer vectors delta (length 3), alpha and beta
(length 2).  The admissible set is cut out inside Y by the inequality
delta_1 + max(d_2, delta_2) <= alpha_1 + beta_1.  `normal_form` builds
a filtered module realizing any admissible triple, and
`iso_classes_oracle` independently counts isomorphism classes by
enumerating all flags and all T-commuting automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Matrix, Subspace, preimage, rref
from .polygon import Polygon
from .pr import PRDatum, PRError, pr_all_data, subspace_in_flag, validate_pr
from .tmodule import (
    ConcreteModule,
    JordanType,
    delta_vector,
    power_image,
    realize,
    restrict_module,
    quotient_module,
    torsion_flag,
)


class AdmissibilityError(ValueError):
    """A polygon triple fails one of the defining or admissibility bounds."""

    def __init__(self, inequality, detail=""):
        msg = "condition violated: %s" % inequality
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)
        self.inequality = inequality


class OracleBoundError(RuntimeError):
    pass


@dataclass(frozen=True)
class StrataPoint:
    """A triple of polygons (delta | alpha | beta) for type mu on [0, h]."""

    h: int
    mu: tuple
    delta: tuple
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(int(x) for x in self.mu))
        object.__setattr__(self, "delta", tuple(int(x) for x in self.delta))
        object.__setattr__(self, "alpha", tuple(int(x) for x in self.alpha))
        object.__setattr__(self, "beta", tuple(int(x) for x in self.beta))
        if len(self.mu) != 3 or len(self.delta) != 3 or len(self.alpha) != 2 or len(self.beta) != 2:
            raise ValueError("expected lengths (3, 3, 2, 2)")
        for name, vec in (("mu", self.mu), ("delta", self.delta), ("alpha", self.alpha), ("beta", self.beta)):
            if any(x < 0 or x > self.h for x in vec):
                raise ValueError("%s entries must lie in [0, %d]" % (name, self.h))
            if any(a < b for a, b in zip(vec, vec[1:])):
                raise ValueError("%s must be non-increasing" % name)

    def P1(self):
        return Polygon.from_d(self.h, self.delta)

    def P2(self):
        return Polygon.from_d(self.h, self.alpha)

    def P3(self):
        return Polygon.from_d(self.h, self.beta)

    def sort_key(self):
        return (self.delta, self.alpha, self.beta)

    def to_json_dict(self):
        return {"delta": list(self.delta), "alpha": list(self.alpha), "beta": list(self.beta)}

    @classmethod
    def from_json_dict(cls, h, mu, data):
        return cls(h, tuple(mu), tuple(data["delta"]), tuple(data["alpha"]), tuple(data["beta"]))


def _y_conditions(pt):
    """The defining conditions of Y as (name, bool) pairs, in order."""
    d1, d2, d3 = pt.mu
    P1, P2, P3 = pt.P1(), pt.P2(), pt.P3()
    yield ("sum(delta) == d1+d2+d3", sum(pt.delta) == d1 + d2 + d3)
    yield ("sum(alpha) == d1+d2", sum(pt.alpha) == d1 + d2)
    yield ("sum(beta) == d2+d3", sum(pt.beta) == d2 + d3)
    yield ("P1 >= P2 * P(d3)", P1.dominates(P2.star(Polygon.from_d(pt.h, [d3]))))
    yield ("P1 >= P3 * P(d1)", P1.dominates(P3.star(Polygon.from_d(pt.h, [d1]))))
    yield ("P2 >= P(d1, d2)", P2.dominates(Polygon.from_d(pt.h, [d1, d2])))
    yield ("P3 >= P(d2, d3)", P3.dominates(Polygon.from_d(pt.h, [d2, d3])))


ADMISSIBILITY = "delta1 + max(d2, delta2) <= alpha1 + beta1"


def in_Y(pt):
    return all(ok for _, ok in _y_conditions(pt))


def is_admissible(pt):
    if not in_Y(pt):
        return False
    return pt.delta[0] + max(pt.mu[1], pt.delta[1]) <= pt.alpha[0] + pt.beta[0]


def in_Ypol(pt):
    """Membership in the polarized subset: h = 2g, mu = (g,g,g), P1 = P(r, g, 2g-r)."""
    if pt.h % 2:
        return False
    g = pt.h // 2
    if pt.mu != (g, g, g):
        return False
    if not is_admissible(pt):
        return False
    r = pt.delta[0]
    return g <= r <= 2 * g and pt.delta == (r, g, 2 * g - r)


def _desc_pairs(total, bound):
    """All (a1 >= a2 >= 0) with a1 + a2 = total, a1 <= bound."""
    lo = (total + 1) // 2
    for a1 in range(min(bound, total), lo - 1, -1):
        a2 = total - a1
        if 0 <= a2 <= a1:
            yield (a1, a2)


def _desc_triples(total, bound):
    for a1 in range(min(bound, total), -1, -1):
        for a2 in range(min(a1, total - a1), -1, -1):
            a3 = total - a1 - a2
            if 0 <= a3 <= a2:
                yield (a1, a2, a3)


def enum_Y(h, mu):
    """All points of Y for (h, mu), sorted lexicographically on (delta, alpha, beta)."""
    mu = tuple(int(x) for x in mu)
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("mu must be sorted non-increasingly")
    if any(x < 0 or x > h for x in mu):
        raise ValueError("mu entries must lie in [0, %d]" % h)
    d1, d2, d3 = mu
    out = []
    for delta in _desc_triples(d1 + d2 + d3, h):
        for alpha in _desc_pairs(d1 + d2, h):
            for beta in _desc_pairs(d2 + d3, h):
                pt = StrataPoint(h, mu, delta, alpha, beta)
                if in_Y(pt):
                    out.append(pt)
    out.sort(key=StrataPoint.sort_key)
    return out


def enum_Yadm(h, mu):
    """All admissible points for (h, mu), in the same deterministic order."""
    return [pt for pt in enum_Y(h, mu) if is_admissible(pt)]


def enum_Ypol(g):
    """The polarized subset for genus g: h = 2g, mu = (g, g, g)."""
    return [pt for pt in enum_Yadm(2 * g, (g, g, g)) if in_Ypol(pt)]


def phi(D, h):
    """The classifying triple (Hdg(M), Hdg(M_2), Hdg(M/M_1)) of a PR datum."""
    M = D.module
    if M.e != 3:
        raise PRError("phi is defined for e = 3, got e = %d" % M.e)
    mu = D.mu
    if list(mu) != sorted(mu, reverse=True):
        raise PRError("phi expects a flag of sorted type, got %r" % (mu,))
    check = validate_pr(D, mu)
    if not check:
        raise PRError("invalid PR datum: %s" % check.violation)
    delta = delta_vector(M).entries
    if delta[0] > h:
        raise PRError("module needs %d generators, h = %d" % (delta[0], h))
    M2 = restrict_module(M, D.flag[2], e=2)
    alpha = delta_vector(M2).entries
    quo = quotient_module(M, D.flag[1], e=2)
    beta = delta_vector(quo).entries
    pt = StrataPoint(h, mu, delta, alpha, beta)
    assert is_admissible(pt), "phi image escaped the admissible set"
    return pt


def normal_form(pt, field):
    """A PR datum realizing an admissible triple; phi(normal_form(pt)) == pt.

    The module comes from delta; M_1 is chosen inside M[T] above T^2 M
    with dim(M_1 ^ TM) = beta_1 + d_1 - delta_1, and M_2 inside
    T^{-1}M_1 above M_1 + TM with dim(M_2 ^ M[T]) = alpha_1.
    """
    for name, ok in _y_conditions(pt):
        if not ok:
            raise AdmissibilityError(name)
    if pt.delta[0] + max(pt.mu[1], pt.delta[1]) > pt.alpha[0] + pt.beta[0]:
        raise AdmissibilityError(ADMISSIBILITY)

    d1, d2, d3 = pt.mu
    delta = pt.delta
    J = JordanType.from_delta(3, delta, h=max(pt.h, 1))
    M = realize(J, field)
    n = M.dim

    kerT = torsion_flag(M, 1)
    TM = power_image(M, 1)
    T2M = power_image(M, 2)
    cut = pt.beta[0] + d1 - delta[0]
    M1 = subspace_in_flag(
        [T2M, TM.intersect(kerT), kerT],
        T2M,
        d1,
        [T2M.dim, cut, d1],
    )
    U = preimage(M.op, M1)
    floor = M1.sum(TM)
    M2 = subspace_in_flag(
        [U.intersect(kerT), U],
        floor,
        d1 + d2,
        [pt.alpha[0], d1 + d2],
    )
    D = PRDatum(M, (Subspace.zero(field, n), M1, M2, Subspace.full(field, n)))
    check = validate_pr(D, pt.mu)
    assert check, check.violation
    return D


# --- isomorphism oracle ----------------------------------------------------


def hom_block_maps(parts, field, bi, bj):
    """Basis of Hom_{k[T]}(block bi, block bj) as n x n coordinate matrices."""
    offsets = [0]
    for a in parts:
        offsets.append(offsets[-1] + a)
    n = offsets[-1]
    s, t = parts[bi], parts[bj]
    out = []
    for m in range(min(s, t)):
        exp = max(t - s, 0) + m
        rows = [[0] * n for _ in range(n)]
        for k in range(s):
            tgt = t - s + k - exp
            if 0 <= tgt < t:
                rows[offsets[bj] + tgt][offsets[bi] + k] = 1
        out.append(Matrix.from_rows(field, rows, n))
    return out


def aut_generators(J, field):
    """Generators of the T-commuting automorphisms of realize(J, field).

    Units of the endomorphism algebra are generated by block-elementary
    maps 1 + c*E (E a basis hom between two distinct Jordan blocks, or a
    positive T-power on one block) together with per-block scalars.
    """
    parts = [a for a in J.parts if a]
    n = sum(parts)
    ident = Matrix.identity(field, n)
    gens = []
    nb = len(parts)
    for bi in range(nb):
        for bj in range(nb):
            if bi == bj:
                continue
            for E in hom_block_maps(parts, field, bi, bj):
                for c in range(1, field.p):
                    gens.append(ident.add(E.scale(c)))
    offsets = [0]
    for a in parts:
        offsets.append(offsets[-1] + a)
    for bi, s in enumerate(parts):
        for a in range(1, s):
            rows = [[0] * n for _ in range(n)]
            for k in range(a, s):
                rows[offsets[bi] + k - a][offsets[bi] + k] = 1
            E = Matrix.from_rows(field, rows, n)
            for c in range(1, field.p):
                gens.append(ident.add(E.scale(c)))
        for c in range(2, field.p):
            rows = [[0] * n for _ in range(n)]
            for k in range(n):
                on_block = offsets[bi] <= k < offsets[bi] + s
                rows[k][k] = c if on_block else 1
            gens.append(Matrix.from_rows(field, rows, n))
    return gens


@dataclass(frozen=True)
class IsoClasses:
    """Oracle output: one representative PR datum per isomorphism class."""

    count: int
    classes: tuple  # of (JordanType, PRDatum, StrataPoint)


def _jordan_types(e, total, max_blocks):
    def gen(total, mx, slots):
        if total == 0:
            yield ()
            return
        if slots == 0:
            return
        for a in range(min(total, mx), 0, -1):
            for rest in gen(total - a, a, slots - 1):
                yield (a,) + rest

    yield from gen(total, e, max_blocks)


def iso_classes_oracle(h, mu, field, max_total_dim=5):
    """Isomorphism classes of PR-filtered modules of type mu, by brute force.

    Enumerates, for every Jordan type of the right dimension on at most
    h generators, all PR data of type mu, then merges them into orbits
    under the unit group of the T-commuting endomorphism algebra.
    """
    mu = tuple(int(x) for x in mu)
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("mu must be sorted non-increasingly")
    total = sum(mu)
    if total > max_total_dim:
        raise OracleBoundError(
            "total dimension %d exceeds the oracle bound %d" % (total, max_total_dim)
        )
    classes = []
    if total == 0:
        M = ConcreteModule(field, 3, Matrix.zero(field, 0, 0))
        zero = Subspace.zero(field, 0)
        D = PRDatum(M, (zero, zero, zero, zero))
        pt = StrataPoint(h, mu, (0, 0, 0), (0, 0), (0, 0))
        return IsoClasses(1, ((JordanType(3, (0,) * max(h, 1)), D, pt),))
    for parts in sorted(_jordan_types(3, total, h), reverse=True):
        J = JordanType(3, parts + (0,) * (h - len(parts)))
        M = realize(J, field)
        flags = [(D.flag[1].rows, D.flag[2].rows, D) for D in pr_all_data(M, mu)]
        if not flags:
            continue
        gens = aut_generators(J, field)
        seen = set()
        index = {(a, b): D for a, b, D in flags}
        for a, b, D in flags:
            key = (a, b)
            if key in seen:
                continue
            orbit = {key}
            frontier = [key]
            while frontier:
                r1, r2 = frontier.pop()
                for g in gens:
                    nxt = (
                        rref(field, [g.apply(r) for r in r1])[1],
                        rref(field, [g.apply(r) for r in r2])[1],
                    )
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            seen |= orbit
            if not orbit <= set(index):
                raise AssertionError("automorphism left the flag set")
            classes.append((J, D, phi(D, h)))
    return IsoClasses(len(classes), tuple(classes))
