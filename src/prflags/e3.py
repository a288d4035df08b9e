"""The e = 3 classification: polygon triples, phi, normal forms, oracle.

A filtered module (M, M_1 <= M_2 <= M) of type mu = (d_1 >= d_2 >= d_3)
is classified up to isomorphism by the triple of polygons

    phi = (Hdg(M), Hdg(M_2), Hdg(M/M_1)),

encoded here as integer vectors delta (length 3), alpha and beta
(length 2), their d-lists.  Y is cut out by sum conditions and polygon
inequalities, each a prefix-sum test on those integers
(`polygon.dominates_d`), and the admissible set inside Y by the
inequality delta_1 + max(d_2, delta_2) <= alpha_1 + beta_1;
`violation` is the one test of all of them, and names the first that
fails.
`normal_form` builds a filtered module realizing any admissible triple,
and `iso_classes_oracle` independently counts isomorphism classes by
enumerating all flags and merging them under a generating set of the
T-commuting automorphisms (`aut_generators`), linear in the number of
Jordan blocks: block maps between adjacent blocks only, block powers and
scalars on the first block of each run of equal sizes only.  The merge
is indexed: each generator maps every distinct M_1 and M_2 once, and a
union-find joins flags through the resulting tables of member numbers.
The oracle refuses every mu that `enum_Yadm` refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Matrix, Subspace, preimage, rref
from .polygon import dominates_d
from .pr import PRDatum, PRError, pr_all_data, subspace_in_flag, validate_pr
from .tmodule import (
    JordanType,
    _piece_delta,
    delta_vector,
    partitions,
    power_image,
    realize,
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

    def sort_key(self):
        return (self.delta, self.alpha, self.beta)

    def to_json_dict(self):
        return {"delta": list(self.delta), "alpha": list(self.alpha), "beta": list(self.beta)}


ADMISSIBILITY = "delta1 + max(d2, delta2) <= alpha1 + beta1"
POLARIZED = "h == 2g, mu == (g,g,g), delta2 == g"


def violation(pt, polarized=False):
    """The name of the first condition pt fails, or None.

    The seven conditions of Y come first, then ADMISSIBILITY, then, when
    polarized, POLARIZED: in Y, delta2 == g pins delta to (r, g, 2g - r).
    P1, P2, P3 are P(delta), P(alpha), P(beta); a star product is the
    sorted concatenation of the d-lists."""
    d1, d2, d3 = pt.mu
    delta, alpha, beta = pt.delta, pt.alpha, pt.beta
    if sum(delta) != d1 + d2 + d3:
        return "sum(delta) == d1+d2+d3"
    if sum(alpha) != d1 + d2:
        return "sum(alpha) == d1+d2"
    if sum(beta) != d2 + d3:
        return "sum(beta) == d2+d3"
    if not dominates_d(delta, sorted(alpha + (d3,), reverse=True)):
        return "P1 >= P2 * P(d3)"
    if not dominates_d(delta, sorted(beta + (d1,), reverse=True)):
        return "P1 >= P3 * P(d1)"
    if not dominates_d(alpha, (d1, d2)):
        return "P2 >= P(d1, d2)"
    if not dominates_d(beta, (d2, d3)):
        return "P3 >= P(d2, d3)"
    if delta[0] + max(d2, delta[1]) > alpha[0] + beta[0]:
        return ADMISSIBILITY
    if polarized and not (pt.h == 2 * d1 and d1 == d3 and delta[1] == d1):
        return POLARIZED
    return None


def in_Y(pt):
    return violation(pt) in (None, ADMISSIBILITY)


def _check_mu(h, mu):
    """mu as a tuple of ints; ValueError unless it is a non-increasing
    triple in [0, h]."""
    mu = tuple(int(x) for x in mu)
    if len(mu) != 3:
        raise ValueError("mu must have 3 entries, got %d" % len(mu))
    if list(mu) != sorted(mu, reverse=True):
        raise ValueError("mu must be sorted non-increasingly")
    if any(x < 0 or x > h for x in mu):
        raise ValueError("mu entries must lie in [0, %d]" % h)
    return mu


def _points(h, mu, accept, polarized=False):
    """The triples over (h, mu) whose violation is in accept, sorted
    lexicographically on (delta, alpha, beta)."""
    mu = _check_mu(h, mu)
    d1, d2, d3 = mu

    def padded(total, k):
        return [q + (0,) * (k - len(q)) for q in partitions(total, h, k)]

    out = []
    for delta in padded(d1 + d2 + d3, 3):
        for alpha in padded(d1 + d2, 2):
            for beta in padded(d2 + d3, 2):
                pt = StrataPoint(h, mu, delta, alpha, beta)
                if violation(pt, polarized) in accept:
                    out.append(pt)
    out.sort(key=StrataPoint.sort_key)
    return out


def enum_Y(h, mu):
    """All points of Y for (h, mu), sorted lexicographically on (delta, alpha, beta)."""
    return _points(h, mu, (None, ADMISSIBILITY))


def enum_Yadm(h, mu):
    """All admissible points for (h, mu), in the same deterministic order."""
    return _points(h, mu, (None,))


def enum_Ypol(g):
    """The polarized subset for genus g: h = 2g, mu = (g, g, g)."""
    return _points(2 * g, (g, g, g), (None,), polarized=True)


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
    delta = delta_vector(M)
    if delta[0] > h:
        raise PRError("module needs %d generators, h = %d" % (delta[0], h))
    alpha = _piece_delta(M, D.flag[2], 2)
    beta = _piece_delta(M, D.flag[1], 2, quotient=True)
    return StrataPoint(h, mu, delta, alpha, beta)


def normal_form(pt, field):
    """A PR datum realizing an admissible triple; phi(normal_form(pt)) == pt.
    Any other triple raises AdmissibilityError naming violation(pt).

    The module comes from delta; M_1 is chosen inside M[T] above T^2 M
    with dim(M_1 ^ TM) = beta_1 + d_1 - delta_1, and M_2 inside
    T^{-1}M_1 above M_1 + TM with dim(M_2 ^ M[T]) = alpha_1.
    """
    failed = violation(pt)
    if failed:
        raise AdmissibilityError(failed)

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
        [kerT, U],  # U = T^{-1} M_1 contains ker T
        floor,
        d1 + d2,
        [pt.alpha[0], d1 + d2],
    )
    return PRDatum(M, (Subspace.zero(field, n), M1, M2, Subspace.full(field, n)))


# --- isomorphism oracle ----------------------------------------------------


def aut_generators(J, field):
    """A generating set of the T-commuting automorphisms of realize(J, field).

    Block i of size s has basis e_0, ..., e_{s-1}, T e_k = e_{k-1}, T e_0 = 0;
    blocks are numbered in the order of J.parts, so sizes never increase.
    N_i is T on block i; for blocks i != j of sizes s, t, E_ij is the
    T-linear map of least depth e_k -> e_{k - max(s - t, 0)} from block i
    to block j.  The generators, linear in the number of blocks, are
    1 + E_ij for adjacent blocks (|i - j| = 1) and, on the first block i
    of each run of equal sizes only, 1 + N_i^a for 1 <= a < s and, when
    p > 2, a primitive root of F_p on block i alone.

    They generate every 1 + E_ij, 1 + N_i^a and per-block scalar:
    - for i -> k -> j with k strictly between i and j, the sizes are
      monotone along the path, so the least-depth maps compose:
      E_kj E_ik = E_ij, while E_ik E_kj = 0 and both square to 0.  So
      the commutator A B A^-1 B^-1 of A = 1 + E_kj and B = 1 + E_ik is
      1 + E_ij, and induction on |i - j| gives every 1 + E_ij (and
      1 - E_ij = (1 + E_ij)^(p-1));
    - for blocks i, j of equal size, E_ij and E_ji are the identity maps
      between them, and w = (1 + E_ij)(1 - E_ji)(1 + E_ij) sends block i
      to block j and block j to minus block i.  Conjugation by w carries
      1 + N_i^a to 1 + N_j^a and the scalar on block i to the scalar on
      block j, so the first block of a run stands for the whole run.

    The unit group is generated by the spanning list 1 + c*T^m*E_ij,
    1 + c*N_i^a (c in F_p^*) and the per-block scalars, and each of those
    is a product of the maps above:
    - E_ij^2 = 0, so 1 + c*E_ij = (1 + E_ij)^c;
    - the commutator A B A^-1 B^-1 of A = 1 + N_j^m and B = 1 + E_ij is
      1 + T^m*E_ij, and these span the rest of Hom(block i, block j);
    - (1 + N^a k[N]) / (1 + N^(a+1) k[N]) is isomorphic to F_p, generated
      by the image of 1 + N^a, so downward induction on a gives 1 + c*N^a;
    - F_p^* is cyclic.
    """
    parts = [a for a in J.parts if a]
    n = sum(parts)
    offsets = [sum(parts[:i]) for i in range(len(parts))]
    p = field.p
    root = next(c for c in range(1, p) if len({pow(c, k, p) for k in range(1, p)}) == p - 1)

    def unit(cells):
        """The identity matrix with the entries {(row, col): value} set."""
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for (r, c), v in cells.items():
            rows[r][c] = v
        return Matrix.from_rows(field, rows, n)

    gens = []
    for i, (oi, s) in enumerate(zip(offsets, parts)):
        for j in (i - 1, i + 1):
            if 0 <= j < len(parts):
                oj, lag = offsets[j], max(s - parts[j], 0)
                gens.append(unit({(oj + k - lag, oi + k): 1 for k in range(lag, s)}))
        if i and parts[i - 1] == s:
            continue
        gens.extend(unit({(oi + k - a, oi + k): 1 for k in range(a, s)}) for a in range(1, s))
        if p > 2:
            gens.append(unit({(oi + k, oi + k): root for k in range(s)}))
    return gens


def _find(root, x):
    """The root of x in a union-find forest, halving the path on the way."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


@dataclass(frozen=True)
class IsoClasses:
    """Oracle output: one representative PR datum per isomorphism class."""

    count: int
    classes: tuple  # of (JordanType, PRDatum, StrataPoint)


def iso_classes_oracle(h, mu, field, max_total_dim=5):
    """Isomorphism classes of PR-filtered modules of type mu, by brute force.

    Enumerates, for every Jordan type of the right dimension on at most
    h generators, all PR data of type mu, then merges them into orbits
    under the unit group of the T-commuting endomorphism algebra.

    The merge works on integer indices: the distinct M_1 and M_2 are
    numbered once, each generator maps every member once into a table of
    indices, and a union-find joins each flag (a, b) with the flag
    (img[a], img[b]).  An image outside the enumerated members or flags
    raises AssertionError.  Unions keep the smaller position as root, so
    each class is represented by the first flag of its orbit in
    enumeration order, and classes come in order of first appearance.
    A mu that is not a non-increasing triple in [0, h] raises the
    ValueError `enum_Yadm` raises.
    """
    mu = _check_mu(h, mu)
    total = sum(mu)
    if total > max_total_dim:
        raise OracleBoundError(
            "total dimension %d exceeds the oracle bound %d" % (total, max_total_dim)
        )
    classes = []
    for parts in partitions(total, 3, h):
        J = JordanType(3, parts + (0,) * (max(h, 1) - len(parts)))
        M = realize(J, field)
        data = list(pr_all_data(M, mu))
        if not data:
            continue
        index = {}  # rows of a distinct M_1 or M_2 -> its number
        flags = {}  # (number of M_1, number of M_2) -> position in data
        for D in data:
            a = index.setdefault(D.flag[1].rows, len(index))
            b = index.setdefault(D.flag[2].rows, len(index))
            flags[a, b] = len(flags)
        root = list(range(len(flags)))  # union-find forest over the positions
        for g in aut_generators(J, field):
            img = [index.get(rref(field, [g.apply(r) for r in rows])[1]) for rows in index]
            for (a, b), pos in flags.items():
                other = flags.get((img[a], img[b]))
                if other is None:
                    raise AssertionError("automorphism left the flag set")
                x, y = _find(root, pos), _find(root, other)
                root[max(x, y)] = min(x, y)
        classes.extend((J, D, phi(D, h)) for pos, D in enumerate(data) if _find(root, pos) == pos)
    return IsoClasses(len(classes), tuple(classes))
