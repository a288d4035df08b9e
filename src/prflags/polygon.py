"""The polygon calculus: P(d_1, ..., d_N), star products and dominance.

A polygon is the convex piecewise-linear function on [0, h] given by

    P(d_1, ..., d_N)(x) = (1/N) * sum_i max(0, x + d_i - h),

with integer 0 <= d_i <= h.  Canonically it is its non-increasing
d-list at the smallest denominator (every d-list of the same function
is that list with each entry repeated N/len(d) times): two polygons
compare equal exactly when they are equal as functions.  `Fraction`
appears only in evaluation, slopes and breakpoints.  Each polygon also
carries a declared denominator `den` (the N of the ambient set it was
built in); `den` feeds the star product but is ignored by equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PolygonError(ValueError):
    pass


def dominates_d(a, b):
    """Whether P(a) >= P(b) for non-increasing d-lists of any lengths: prefix
    sums compared on the lcm grid of the lengths, where both break."""
    n = lcm(len(a), len(b))
    ka, kb = n // len(a), n // len(b)
    sa = sb = 0
    for i in range(n):
        sa += a[i // ka]
        sb += b[i // kb]
        if sb > sa:
            return False
    return True


class Polygon:
    __slots__ = ("h", "den", "d", "_hash")

    def __init__(self, h, d, den):
        """Internal; use from_d / from_slopes (d is the reduced d-list)."""
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_hash", hash((h, d)))

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
        d.sort(reverse=True)
        # the list at N is the list at N/g with every entry repeated g times
        g = gcd(n, *(i for i in range(1, n) if d[i] != d[i - 1]))
        return cls(h, tuple(d[::g]), den)

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
        # d_{i+1} counts the unit segments of slope > i/den
        d = [sum(m for s, m in merged.items() if s * den > i) for i in range(den)]
        return cls.from_d(h, d, den)

    # evaluation and views ---------------------------------------------------

    def __call__(self, x):
        x = Fraction(x)
        if x < 0 or x > self.h:
            raise PolygonError("argument %s outside [0, %d]" % (x, self.h))
        return Fraction(sum(max(0, x + di - self.h) for di in self.d), len(self.d))

    @property
    def slopes(self):
        """((slope, multiplicity), ...) by increasing slope."""
        ext = (self.h,) + self.d + (0,)
        n = len(self.d)
        return tuple(
            (Fraction(i, n), ext[i] - ext[i + 1]) for i in range(n + 1) if ext[i] != ext[i + 1]
        )

    def d_list(self, den=None):
        """The defining integers d_1 >= ... >= d_N at denominator N=den."""
        if den is None:
            den = self.den
        if den % len(self.d):
            raise PolygonError("slopes of this polygon are not in (1/%d)Z" % den)
        k = den // len(self.d)
        return tuple(x for x in self.d for _ in range(k))

    def breakpoints(self):
        """Vertices [(x, y), ...] of the graph, x integer, y exact."""
        pts = [(0, Fraction(0))]
        x, y = 0, Fraction(0)
        for s, m in self.slopes:
            x += m
            y += s * m
            pts.append((x, y))
        return pts

    # operations ---------------------------------------------------------

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
        return dominates_d(self.d, other.d)

    # dunder ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polygon)
            and self.h == other.h
            and self.d == other.d
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Polygon(h=%d, d=%s)" % (self.h, list(self.d))
