"""Polygon calculus, checked against the defining max-sum formula."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prflags.polygon import Polygon, PolygonError
from prflags.verify import _all_d_lists, _pointwise_dominates


def eval_definition(h, d, x):
    """(1/N) sum_i max(0, x + d_i - h): the independent evaluation oracle."""
    return Fraction(sum(max(0, x + di - h) for di in d), len(d))


d_lists = st.integers(1, 6).flatmap(
    lambda h: st.tuples(
        st.just(h), st.lists(st.integers(0, h), min_size=1, max_size=4)
    )
)


def test_zero_polygon():
    P = Polygon.from_d(3, [0, 0, 0])
    for x in range(4):
        assert P(x) == 0


def test_eval_derived_values():
    P = Polygon.from_d(2, [2, 1])
    assert P(0) == 0
    assert P(1) == Fraction(1, 2) == eval_definition(2, [2, 1], 1)
    assert P(2) == Fraction(3, 2) == eval_definition(2, [2, 1], 2)
    assert P(Fraction(3, 2)) == eval_definition(2, [2, 1], Fraction(3, 2))


def test_eval_at_endpoint_is_mass_over_n():
    P = Polygon.from_d(5, [4, 2, 1])
    assert P(5) == Fraction(4 + 2 + 1, 3)


def test_eval_domain_error():
    P = Polygon.from_d(2, [1, 1])
    with pytest.raises(PolygonError):
        P(3)
    with pytest.raises(PolygonError):
        P(-1)


def test_construction_validation():
    with pytest.raises(PolygonError):
        Polygon.from_d(2, [])
    with pytest.raises(PolygonError):
        Polygon.from_d(2, [3])
    with pytest.raises(PolygonError):
        Polygon.from_d(2, [-1])


@settings(max_examples=120, deadline=None)
@given(d_lists, st.data())
def test_eval_matches_definition(hd, data):
    h, d = hd
    P = Polygon.from_d(h, d)
    x = data.draw(st.integers(0, 4 * h)) / Fraction(4)
    assert P(x) == eval_definition(h, d, x)


@settings(max_examples=100, deadline=None)
@given(d_lists)
def test_convexity(hd):
    h, d = hd
    P = Polygon.from_d(h, d)
    for x in range(1, h):
        assert 2 * P(x) <= P(x - 1) + P(x + 1)


def test_recover_d_roundtrip():
    assert Polygon.from_d(3, [0, 0, 0]).d_list() == (0, 0, 0)
    assert Polygon.from_d(2, [2, 1]).d_list() == (2, 1)
    assert Polygon.from_d(2, [1, 2]).d_list() == (2, 1)


def test_recover_d_refined():
    # slope multiset {1/3: 1, 1: 1} at h = 2 recovers (2, 1, 1) at N = 3
    P = Polygon.from_slopes(2, [(Fraction(1, 3), 1), (Fraction(1), 1)], 3)
    assert P.d_list(3) == (2, 1, 1)
    with pytest.raises(PolygonError):
        P.d_list(2)


@settings(max_examples=100, deadline=None)
@given(d_lists)
def test_recover_roundtrip_random(hd):
    h, d = hd
    P = Polygon.from_d(h, d)
    assert P.d_list(len(d)) == tuple(sorted(d, reverse=True))


def test_star_concatenates():
    P1 = Polygon.from_d(2, [2])
    P2 = Polygon.from_d(2, [1])
    assert P1.star(P2) == Polygon.from_d(2, [2, 1])
    P = Polygon.from_d(3, [3, 1])
    assert P.star(P) == P


@settings(max_examples=60, deadline=None)
@given(d_lists, st.data())
def test_star_commutes_and_averages(hd, data):
    h, d1 = hd
    d2 = data.draw(st.lists(st.integers(0, h), min_size=1, max_size=4))
    A = Polygon.from_d(h, d1)
    B = Polygon.from_d(h, d2)
    assert A.star(B) == B.star(A)
    n1, n2 = len(d1), len(d2)
    for x in range(h + 1):
        assert A.star(B)(x) == Fraction(n1 * A(x) + n2 * B(x), n1 + n2)


def test_star_h_mismatch():
    with pytest.raises(PolygonError):
        Polygon.from_d(2, [1]).star(Polygon.from_d(3, [1]))


def test_dominates_examples():
    P = Polygon.from_d(2, [2, 0])
    Q = Polygon.from_d(2, [1, 1])
    assert P.dominates(P)
    assert P.dominates(Q)
    assert not Q.dominates(P)


@settings(max_examples=150, deadline=None)
@given(d_lists, st.data())
def test_dominates_matches_pointwise(hd, data):
    h, d1 = hd
    d2 = data.draw(st.lists(st.integers(0, h), min_size=1, max_size=4))
    got = Polygon.from_d(h, d1).dominates(Polygon.from_d(h, d2))
    want = all(
        eval_definition(h, d1, x) >= eval_definition(h, d2, x) for x in range(h + 1)
    )
    assert got == want


def test_criterion_one_oracle_matches_fraction_reference():
    # verify's integer comparison against the Fraction sums, every pair at h <= 3
    values = {}
    for h in range(4):
        lists = list(_all_d_lists(h, 3))
        for d1 in lists:
            for d2 in lists:
                want = all(
                    eval_definition(h, d1, x) >= eval_definition(h, d2, x)
                    for x in range(h + 1)
                )
                assert _pointwise_dominates(h, d1, d2, values) == want


@settings(max_examples=80, deadline=None)
@given(d_lists, st.data())
def test_star_respects_dominance(hd, data):
    h, _ = hd
    def draw_pair():
        big = data.draw(st.lists(st.integers(0, h), min_size=1, max_size=3))
        # shrink some entries to get a dominated partner of the same length
        small = [data.draw(st.integers(0, x)) for x in sorted(big, reverse=True)]
        # prefix sums of `small` are below those of sorted(big): dominance holds
        return Polygon.from_d(h, big), Polygon.from_d(h, small)

    A, A2 = draw_pair()
    B, B2 = draw_pair()
    assert A.dominates(A2) and B.dominates(B2)
    assert A.star(B).dominates(A2.star(B2))


@settings(max_examples=100, deadline=None)
@given(d_lists, st.integers(1, 3))
def test_integer_form_is_canonical(hd, k):
    h, d = hd
    P = Polygon.from_d(h, d)
    Q = Polygon.from_d(h, [x for x in d for _ in range(k)])
    assert Q == P and hash(Q) == hash(P)
    for x, y in P.breakpoints():
        assert y == eval_definition(h, d, x)
    slopes = [s for s, _ in P.slopes]
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert sum(m for _, m in P.slopes) == h


def test_breakpoints():
    P = Polygon.from_d(2, [2, 1])
    assert P.breakpoints() == [(0, Fraction(0)), (1, Fraction(1, 2)), (2, Fraction(3, 2))]
