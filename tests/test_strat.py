"""The stratification order, its closure sets and exports."""

import itertools
import json

import pytest

from prflags.e3 import StrataPoint, enum_Yadm
from prflags.strat import PosetError, StrataPoset, export_dot, export_json, leq


def sorted_mus(h):
    for mu in itertools.product(range(h, -1, -1), repeat=3):
        if list(mu) == sorted(mu, reverse=True):
            yield mu


GOLDEN_DOT = """digraph strata {
  rankdir=BT;
  "(1,1,1)|(1,1)|(1,1)";
  "(2,1,0)|(1,1)|(2,0)";
  "(2,1,0)|(2,0)|(1,1)";
  "(2,1,0)|(2,0)|(2,0)";
  "(1,1,1)|(1,1)|(1,1)" -> "(2,1,0)|(1,1)|(2,0)";
  "(1,1,1)|(1,1)|(1,1)" -> "(2,1,0)|(2,0)|(1,1)";
  "(2,1,0)|(1,1)|(2,0)" -> "(2,1,0)|(2,0)|(2,0)";
  "(2,1,0)|(2,0)|(1,1)" -> "(2,1,0)|(2,0)|(2,0)";
}
"""


def test_leq_reflexive_and_examples():
    pts = enum_Yadm(2, (1, 1, 1))
    for p in pts:
        assert leq(p, p)
    m1 = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 1)
    m2 = next(p for p in pts if p.alpha[0] == 1 and p.beta[0] == 2)
    assert not leq(m1, m2) and not leq(m2, m1)
    bottom = next(p for p in pts if p.delta == (1, 1, 1))
    for p in pts:
        assert leq(bottom, p)


def test_leq_context_mismatch():
    a = enum_Yadm(2, (1, 1, 1))[0]
    b = enum_Yadm(2, (1, 1, 0))[0]
    with pytest.raises(PosetError):
        leq(a, b)


def test_order_axioms_on_all_small_posets():
    for h in (1, 2):
        for mu in sorted_mus(h):
            pts = enum_Yadm(h, mu)
            if not pts:
                continue
            for a in pts:
                assert leq(a, a)
                for b in pts:
                    if leq(a, b) and leq(b, a):
                        assert a == b
                    for c in pts:
                        if leq(a, b) and leq(b, c):
                            assert leq(a, c)


def test_unique_minimum():
    for h in (1, 2):
        for mu in sorted_mus(h):
            pts = enum_Yadm(h, mu)
            if not pts:
                continue
            mins = [p for p in pts if all(leq(p, q) for q in pts)]
            assert len(mins) == 1
            m = mins[0]
            d1, d2, d3 = mu
            assert m.delta == tuple(sorted(mu, reverse=True))
            assert m.alpha == tuple(sorted((d1, d2), reverse=True))
            assert m.beta == tuple(sorted((d2, d3), reverse=True))


def test_closure_sets():
    pts = enum_Yadm(2, (1, 1, 1))
    poset = StrataPoset(pts)
    top = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 2)
    bottom = next(p for p in pts if p.delta == (1, 1, 1))
    assert poset.closure_set(top) == [top]
    assert set(poset.closure_set(bottom)) == set(pts)
    m1 = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 1)
    up = poset.closure_set(m1)
    assert set(up) == {m1, top}


def test_hasse_shape():
    pts = enum_Yadm(2, (1, 1, 1))
    poset = StrataPoset(pts)
    edges = poset.hasse()
    assert len(edges) == 4
    bottom = next(p for p in pts if p.delta == (1, 1, 1))
    top = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 2)
    assert sum(1 for a, b in edges if a == bottom) == 2
    assert sum(1 for a, b in edges if b == top) == 2
    # transitive reduction drops bottom -> top
    assert (bottom, top) not in edges


def test_chain_and_antichain():
    chain = [
        StrataPoint(2, (1, 1, 0), (1, 1, 0), (1, 1), (1, 0)),
        StrataPoint(2, (1, 1, 0), (2, 0, 0), (2, 0), (1, 0)),
    ]
    poset = StrataPoset(chain)
    assert poset.hasse() == [(chain[0], chain[1])]

    pts = enum_Yadm(2, (1, 1, 1))
    m1 = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 1)
    m2 = next(p for p in pts if p.alpha[0] == 1 and p.beta[0] == 2)
    anti = StrataPoset([m1, m2])
    assert anti.hasse() == []


def test_golden_dot():
    poset = StrataPoset(enum_Yadm(2, (1, 1, 1)))
    assert export_dot(poset) == GOLDEN_DOT
    # byte-stable across runs
    assert export_dot(poset) == export_dot(StrataPoset(enum_Yadm(2, (1, 1, 1))))


def test_export_json():
    poset = StrataPoset(enum_Yadm(2, (1, 1, 1)))
    data = json.loads(export_json(poset))
    assert data["h"] == 2 and data["mu"] == [1, 1, 1]
    assert len(data["points"]) == 4
    assert len(data["edges"]) == 4
    for a, b in data["edges"]:
        assert 0 <= a < 4 and 0 <= b < 4
