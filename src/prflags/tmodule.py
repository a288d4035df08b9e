"""Modules over k[T]/T^e: Jordan types, concrete realizations, Hodge polygons.

A finite module over k[T]/T^e is a vector space with a nilpotent
operator T, T^e = 0; its isomorphism class is the partition of part
sizes (a_1, ..., a_h), padded with zeros up to the generator bound h.
The socle-growth vector delta (delta_i = dim M[T^i] - dim M[T^{i-1}])
is the conjugate partition, and the Hodge polygon is the one integer
polygon Hdg(M) = P(delta_1, ..., delta_e) on [0, h].  A concrete module
keeps the powers T^0, ..., T^e it multiplies out to check T^e = 0, and
delta, torsion and images are read from them.  The slope form of the
polygon (slopes a_i/e) is the independent reference that `verify`
criterion 2 and the tests compare P(delta) against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import Matrix, Subspace, image
from .polygon import Polygon


class JordanTypeError(ValueError):
    pass


def _conjugate(parts, length):
    """Entries 1..length of the conjugate partition: entry i counts parts >= i."""
    return tuple(sum(1 for a in parts if a >= i) for i in range(1, length + 1))


@dataclass(frozen=True)
class JordanType:
    """Isomorphism class of a k[T]/T^e-module on at most h generators."""

    e: int
    parts: tuple

    def __post_init__(self):
        if self.e < 1:
            raise JordanTypeError("e must be >= 1")
        parts = tuple(sorted((int(a) for a in self.parts), reverse=True))
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise JordanTypeError("parts may not be empty; pad with zeros")
        if parts[0] > self.e or parts[-1] < 0:
            raise JordanTypeError("parts must lie in [0, e]: %r" % (parts,))

    @property
    def h(self):
        return len(self.parts)

    @property
    def dim(self):
        return sum(self.parts)

    def delta(self):
        """Socle growth (delta_1 >= ... >= delta_e)."""
        return _conjugate(self.parts, self.e)

    @classmethod
    def from_delta(cls, e, delta, h=None):
        delta = tuple(int(x) for x in delta)
        if any(x < 0 for x in delta):
            raise JordanTypeError("delta entries must be non-negative")
        if any(a < b for a, b in zip(delta, delta[1:])):
            raise JordanTypeError("delta must be non-increasing: %r" % (delta,))
        if len(delta) != e:
            raise JordanTypeError("delta has length %d, expected e=%d" % (len(delta), e))
        parts = _conjugate(delta, delta[0] if delta else 0)
        if h is None:
            h = max(len(parts), 1)
        if len(parts) > h:
            raise JordanTypeError("%d generators exceed the bound h=%d" % (len(parts), h))
        return cls(e, parts + (0,) * (h - len(parts)))


class ConcreteModule:
    """A vector space over a prime field with a nilpotent action T^e = 0.

    `powers[i]` is T^i for i = 0..e; identity is (field, e, op) alone.
    """

    __slots__ = ("field", "e", "op", "powers")

    def __init__(self, field, e, op):
        if op.nrows != op.ncols:
            raise JordanTypeError("T must be square")
        powers = [Matrix.identity(op.field, op.nrows)]
        for _ in range(e):
            powers.append(powers[-1].mul(op))
        if not powers[-1].is_zero():
            raise JordanTypeError("T^%d != 0" % e)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "powers", tuple(powers))

    def __setattr__(self, *a):
        raise AttributeError("ConcreteModule is immutable")

    @property
    def dim(self):
        return self.op.nrows

    def ambient(self):
        return Subspace.full(self.field, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, ConcreteModule)
            and self.field == other.field
            and self.e == other.e
            and self.op == other.op
        )

    def __hash__(self):
        return hash((self.field, self.e, self.op))

    def __repr__(self):
        return "ConcreteModule(F%d, e=%d, dim=%d)" % (self.field.p, self.e, self.dim)


def partitions(total, max_part, max_parts=None):
    """Partitions of `total` into parts <= max_part, each a non-increasing
    tuple, largest first part first; at most `max_parts` parts if given."""
    if max_parts is None:
        max_parts = total
    if total == 0:
        yield ()
    elif max_parts > 0:
        for a in range(min(total, max_part), 0, -1):
            for rest in partitions(total - a, a, max_parts - 1):
                yield (a,) + rest


def realize(J, field):
    """Concrete module with T a direct sum of Jordan blocks of sizes J.parts."""
    n = J.dim
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for a in J.parts:
        for i in range(a - 1):
            rows[offset + i][offset + i + 1] = 1
        offset += a
    return ConcreteModule(field, J.e, Matrix.from_rows(field, rows, n))


def delta_vector(M):
    """(delta_1, ..., delta_e), delta_i = rank T^{i-1} - rank T^i."""
    ranks = [P.rank() for P in M.powers]
    return tuple(a - b for a, b in zip(ranks, ranks[1:]))


def jordan_type(M, h=None):
    """Jordan type recovered from the ranks of the powers of T."""
    return JordanType.from_delta(M.e, delta_vector(M), h)


def torsion_flag(M, i):
    """The subspace M[T^i] = ker T^i."""
    if i < 0 or i > M.e:
        raise JordanTypeError("power %d outside [0, %d]" % (i, M.e))
    return M.powers[i].kernel()


def power_image(M, i):
    """The subspace T^i M."""
    if i < 0 or i > M.e:
        raise JordanTypeError("power %d outside [0, %d]" % (i, M.e))
    return image(M.powers[i], M.ambient())


def hodge_polygon(J):
    """Hodge polygon P(delta_1, ..., delta_e) on [0, h] of a JordanType."""
    return Polygon.from_d(J.h, J.delta(), J.e)


def restrict_module(M, S, e=None):
    """The T-stable subspace S as a module in its own basis coordinates."""
    try:
        cols = [S.coordinates_of(M.op.apply(r)) for r in S.rows]
    except ValueError:
        raise JordanTypeError("subspace is not T-stable") from None
    if e is None:
        e = M.e
    f = M.field
    rows = [[cols[j][i] for j in range(S.dim)] for i in range(S.dim)]
    return ConcreteModule(f, e, Matrix.from_rows(f, rows, S.dim))


def quotient_module(M, S, e=None):
    """The quotient M/S (S must be T-stable), in residue coordinates."""
    if not all(S.contains_row(M.op.apply(r)) for r in S.rows):
        raise JordanTypeError("subspace is not T-stable")
    if e is None:
        e = M.e
    f, n = M.field, M.dim
    pivot_set = set(S.pivots)
    free = [j for j in range(n) if j not in pivot_set]
    q = len(free)
    cols = []
    for j in free:
        res = S.reduce_row(M.op.apply(f.unit_row(n, j)))
        coords = f.unpack(res, n)
        cols.append([coords[i] for i in free])
    rows = [[cols[j][i] for j in range(q)] for i in range(q)]
    return ConcreteModule(f, e, Matrix.from_rows(f, rows, q))
