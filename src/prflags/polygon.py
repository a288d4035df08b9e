"""The polygon calculus: P(d_1, ..., d_N), star products and dominance.

A polygon is the convex piecewise-linear function on [0, h] given by

    P(d_1, ..., d_N)(x) = (1/N) * sum_i max(0, x + d_i - h),

with integer 0 <= d_i <= h.  Canonically it is the multiset of its
slopes (values in [0, 1], total multiplicity h): two polygons compare
equal exactly when they are equal as functions, and the defining
integer lists are recoverable views at any compatible denominator.
Each polygon also carries a declared denominator `den` (the N of the
ambient set it was built in); `den` feeds the star product but is
ignored by equality.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm


class PolygonError(ValueError):
    pass


class Polygon:
    __slots__ = ("h", "den", "slopes", "_hash")

    def __init__(self, h, slopes, den):
        """Internal; use from_d / from_slopes."""
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "_hash", hash((h, slopes)))

    def __setattr__(self, *a):
        raise AttributeError("Polygon is immutable")

    # constructors ---------------------------------------------------------

    @classmethod
    def from_d(cls, h, d, den=None):
        """The polygon P(d_1, ..., d_N) on [0, h]."""
        d = [int(x) for x in d]
        if not d:
            raise PolygonError("empty d-list")
        if not isinstance(h, int) or h < 0:
            raise PolygonError("h must be a non-negative integer")
        for x in d:
            if x < 0 or x > h:
                raise PolygonError("d-entry %d outside [0, %d]" % (x, h))
        n = len(d)
        if den is None:
            den = n
        elif den % n:
            raise PolygonError("declared denominator %d incompatible with N=%d" % (den, n))
        d = sorted(d, reverse=True)
        ext = [h] + d + [0]
        slopes = []
        for i in range(n + 1):
            mult = ext[i] - ext[i + 1]
            if mult:
                slopes.append((Fraction(i, n), mult))
        slopes.sort()
        return cls(h, tuple(slopes), den)

    @classmethod
    def from_slopes(cls, h, slope_mults, den):
        """Polygon from a slope multiset {slope: multiplicity}."""
        merged = {}
        total = 0
        for s, m in slope_mults:
            s = Fraction(s)
            if s < 0 or s > 1:
                raise PolygonError("slope %s outside [0, 1]" % (s,))
            if m < 0:
                raise PolygonError("negative multiplicity")
            if m:
                merged[s] = merged.get(s, 0) + m
                total += m
        if total != h:
            raise PolygonError("slope multiplicities sum to %d, expected h=%d" % (total, h))
        for s in merged:
            if den % s.denominator:
                raise PolygonError("slope %s not in (1/%d)Z" % (s, den))
        return cls(h, tuple(sorted(merged.items())), den)

    @classmethod
    def zero(cls, h, den=1):
        if h == 0:
            return cls(0, (), den)
        return cls(h, ((Fraction(0), h),), den)

    # evaluation and views ---------------------------------------------------

    def __call__(self, x):
        x = Fraction(x)
        if x < 0 or x > self.h:
            raise PolygonError("argument %s outside [0, %d]" % (x, self.h))
        y = Fraction(0)
        pos = Fraction(0)
        for s, m in self.slopes:
            seg = min(x - pos, Fraction(m))
            if seg <= 0:
                break
            y += s * seg
            pos += m
        return y

    @property
    def min_den(self):
        """Smallest N with slopes in (1/N)Z."""
        return lcm(1, *(s.denominator for s, _ in self.slopes))

    def d_list(self, den=None):
        """The defining integers d_1 >= ... >= d_N at denominator N=den."""
        if den is None:
            den = self.den
        if den % self.min_den:
            raise PolygonError("slopes of this polygon are not in (1/%d)Z" % den)
        mults = dict(self.slopes)
        acc = 0
        out = []
        for i in range(den):
            acc += mults.get(Fraction(i, den), 0)
            out.append(self.h - acc)
        return tuple(out)

    def mass(self, den=None):
        """Sum of the d-list: N * P(h)."""
        if den is None:
            den = self.den
        return sum(self.d_list(den))

    def slope_multiplicities(self):
        return dict(self.slopes)

    def breakpoints(self):
        """Vertices [(x, y), ...] of the graph, x integer, y exact."""
        pts = [(0, Fraction(0))]
        x, y = 0, Fraction(0)
        for s, m in self.slopes:
            x += m
            y += s * m
            pts.append((x, y))
        if x < self.h:  # only possible for the empty slope list, h = 0
            pts.append((self.h, y))
        return pts

    # operations ---------------------------------------------------------

    def refine(self, k):
        """The same function viewed at denominator k*den."""
        if k < 1:
            raise PolygonError("refinement factor must be >= 1")
        return Polygon(self.h, self.slopes, self.den * k)

    def star(self, other):
        """Weighted concatenation: the d-multisets merge, denominators add."""
        if self.h != other.h:
            raise PolygonError("star requires equal h (%d vs %d)" % (self.h, other.h))
        return Polygon.from_d(
            self.h,
            self.d_list() + other.d_list(),
            self.den + other.den,
        )

    def dominates(self, other):
        """Whether self(x) >= other(x) for all x, by the prefix-sum test."""
        if self.h != other.h:
            raise PolygonError("dominance requires equal h (%d vs %d)" % (self.h, other.h))
        den = lcm(self.min_den, other.min_den)
        a = self.d_list(den)
        b = other.d_list(den)
        sa = sb = 0
        for x, y in zip(a, b):
            sa += x
            sb += y
            if sb > sa:
                return False
        return True

    # serialization and dunder --------------------------------------------

    def to_json(self):
        return json.dumps({"h": self.h, "d": list(self.d_list())})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls.from_d(data["h"], data["d"])

    def __eq__(self, other):
        return (
            isinstance(other, Polygon)
            and self.h == other.h
            and self.slopes == other.slopes
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Polygon(h=%d, d=%s)" % (self.h, list(self.d_list(self.min_den)))
