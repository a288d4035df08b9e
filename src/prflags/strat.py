"""The stratification order on polygon triples: up-sets, Hasse diagrams, exports.

Points are compared componentwise: y <= y' when every polygon of y' lies
above the corresponding polygon of y.  Closure sets are up-sets of this
order; the Hasse diagram is its transitive reduction, exported as DOT or
JSON with a stable node ordering for golden-file tests.
"""

from __future__ import annotations

import json

from .polygon import dominates_d


class PosetError(ValueError):
    pass


def leq(a, b):
    """Whether a <= b, i.e. every polygon of b dominates the one of a."""
    if (a.h, a.mu) != (b.h, b.mu):
        raise PosetError("points live over different (h, mu)")
    return (
        dominates_d(b.delta, a.delta)
        and dominates_d(b.alpha, a.alpha)
        and dominates_d(b.beta, a.beta)
    )


class StrataPoset:
    """A finite poset of strata points under componentwise dominance."""

    def __init__(self, points):
        pts = sorted(set(points), key=lambda p: p.sort_key())
        if not pts:
            raise PosetError("empty poset")
        context = {(p.h, p.mu) for p in pts}
        if len(context) != 1:
            raise PosetError("points live over different (h, mu)")
        self.points = tuple(pts)
        self.h, self.mu = pts[0].h, pts[0].mu
        n = len(pts)
        self._le = [[leq(pts[i], pts[j]) for j in range(n)] for i in range(n)]

    def index(self, p):
        try:
            return self.points.index(p)
        except ValueError:
            raise PosetError("point not in poset") from None

    def closure_set(self, p):
        """The up-set {q : q >= p}; combinatorial shadow of the stratum closure."""
        i = self.index(p)
        return [q for j, q in enumerate(self.points) if self._le[i][j]]

    def hasse(self):
        """Covering pairs (lower, upper): the transitive reduction."""
        n = len(self.points)
        edges = []
        for i in range(n):
            for j in range(n):
                if i == j or not self._le[i][j]:
                    continue
                if any(
                    k != i and k != j and self._le[i][k] and self._le[k][j]
                    for k in range(n)
                ):
                    continue
                edges.append((self.points[i], self.points[j]))
        edges.sort(key=lambda e: (e[0].sort_key(), e[1].sort_key()))
        return edges


def _label(p):
    return "(%s)|(%s)|(%s)" % (
        ",".join(map(str, p.delta)),
        ",".join(map(str, p.alpha)),
        ",".join(map(str, p.beta)),
    )


def export_dot(poset):
    """Stable DOT text: nodes labeled delta|alpha|beta, edges upward."""
    lines = ["digraph strata {", "  rankdir=BT;"]
    for p in poset.points:
        lines.append('  "%s";' % _label(p))
    for lo, hi in poset.hasse():
        lines.append('  "%s" -> "%s";' % (_label(lo), _label(hi)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(poset):
    """Adjacency JSON: points in canonical order, Hasse edges as index pairs."""
    idx = {p: i for i, p in enumerate(poset.points)}
    data = {
        "h": poset.h,
        "mu": list(poset.mu),
        "points": [p.to_json_dict() for p in poset.points],
        "edges": [[idx[a], idx[b]] for a, b in poset.hasse()],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
