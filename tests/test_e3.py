"""The e=3 classification: enumeration, phi, normal forms, the orbit oracle."""

import functools
import hashlib
import itertools
import math
import operator
import random

import pytest

from prflags import e3
from prflags.gf import F2, F3, Matrix, PrimeField, Subspace, rref
from prflags.e3 import (
    ADMISSIBILITY,
    POLARIZED,
    AdmissibilityError,
    OracleBoundError,
    StrataPoint,
    aut_generators,
    enum_Y,
    enum_Yadm,
    enum_Ypol,
    in_Y,
    iso_classes_oracle,
    normal_form,
    phi,
    violation,
)
from prflags.polygon import Polygon
from prflags.pr import pr_all_data, pr_construct, validate_pr
from prflags.tmodule import JordanType, jordan_type, partitions, realize

F5 = PrimeField(5)


def sorted_mus(h):
    for mu in itertools.product(range(h, -1, -1), repeat=3):
        if list(mu) == sorted(mu, reverse=True):
            yield mu


def test_enum_counts_frozen():
    pts = enum_Yadm(1, (1, 1, 1))
    assert len(pts) == 1
    assert pts[0].delta == (1, 1, 1) and pts[0].alpha == (1, 1) and pts[0].beta == (1, 1)

    pts = enum_Yadm(2, (1, 1, 1))
    assert len(pts) == 4
    keys = {(p.delta, p.alpha[0], p.beta[0]) for p in pts}
    assert keys == {((1, 1, 1), 1, 1), ((2, 1, 0), 2, 1), ((2, 1, 0), 1, 2), ((2, 1, 0), 2, 2)}

    pts = enum_Yadm(2, (0, 0, 0))
    assert len(pts) == 1 and pts[0].delta == (0, 0, 0)


def test_enum_deterministic_order():
    pts = enum_Yadm(2, (1, 1, 1))
    assert [p.sort_key() for p in pts] == sorted(p.sort_key() for p in pts)
    assert enum_Yadm(2, (1, 1, 1)) == enum_Yadm(2, (1, 1, 1))


def test_enum_Y_contains_Yadm():
    for h in (1, 2):
        for mu in sorted_mus(h):
            Y = enum_Y(h, mu)
            adm = enum_Yadm(h, mu)
            assert set(adm) <= set(Y)
            assert all(in_Y(p) for p in Y)
            assert len(set(Y)) == len(Y)
    # the inadmissible point of the h=2 example sits in Y \ Y^adm
    Y = enum_Y(2, (1, 1, 1))
    assert len(Y) == len(enum_Yadm(2, (1, 1, 1))) + 1


def test_enum_validation():
    with pytest.raises(ValueError):
        enum_Yadm(2, (1, 2, 1))
    with pytest.raises(ValueError):
        enum_Yadm(1, (2, 1, 1))


def test_strata_point_validation():
    with pytest.raises(ValueError):
        StrataPoint(2, (1, 1, 1), (1, 1), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        StrataPoint(2, (1, 1, 1), (1, 2, 0), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        StrataPoint(1, (1, 1, 1), (2, 1, 0), (1, 1), (1, 1))


def strata_points(h):
    """Every StrataPoint at this h: each vector non-increasing in [0, h]."""
    desc = lambda k: itertools.combinations_with_replacement(range(h, -1, -1), k)
    for mu, delta, alpha, beta in itertools.product(desc(3), desc(3), desc(2), desc(2)):
        yield StrataPoint(h, mu, delta, alpha, beta)


def points_with_y_sums(h):
    """Every StrataPoint at this h whose sums are those of Y."""
    padded = lambda total, k: [q + (0,) * (k - len(q)) for q in partitions(total, h, k)]
    for d1, d2, d3 in sorted_mus(h):
        for v in itertools.product(padded(d1 + d2 + d3, 3), padded(d1 + d2, 2), padded(d2 + d3, 2)):
            yield StrataPoint(h, (d1, d2, d3), *v)


def random_strata_point(rng, h):
    desc = lambda k: sorted((rng.randint(0, h) for _ in range(k)), reverse=True)
    return StrataPoint(h, desc(3), desc(3), desc(2), desc(2))


_polygon = functools.cache(Polygon.from_d)  # (h, d-tuple) -> Polygon, immutable


def _y_conditions_by_polygons(pt):
    """The conditions of Y as the definition reads them, on Polygon objects."""
    d1, d2, d3 = pt.mu
    P1, P2, P3 = (_polygon(pt.h, d) for d in (pt.delta, pt.alpha, pt.beta))
    yield ("sum(delta) == d1+d2+d3", sum(pt.delta) == d1 + d2 + d3)
    yield ("sum(alpha) == d1+d2", sum(pt.alpha) == d1 + d2)
    yield ("sum(beta) == d2+d3", sum(pt.beta) == d2 + d3)
    yield ("P1 >= P2 * P(d3)", P1.dominates(P2.star(_polygon(pt.h, (d3,)))))
    yield ("P1 >= P3 * P(d1)", P1.dominates(P3.star(_polygon(pt.h, (d1,)))))
    yield ("P2 >= P(d1, d2)", P2.dominates(_polygon(pt.h, (d1, d2))))
    yield ("P3 >= P(d2, d3)", P3.dominates(_polygon(pt.h, (d2, d3))))


@functools.cache
def _first_failure_by_polygons(pt):
    return next((name for name, ok in _y_conditions_by_polygons(pt) if not ok), None)


def test_y_conditions_match_the_polygon_objects():
    rng = random.Random(17)
    points = [pt for h in (0, 1, 2) for pt in strata_points(h)]
    points += [random_strata_point(rng, h) for h in (3, 4, 5) for _ in range(1000)]
    points += [pt for h in (1, 2, 3, 4) for mu in sorted_mus(h) for pt in enum_Y(h, mu)]
    for pt in points:
        want = _first_failure_by_polygons(pt)
        assert violation(pt) in ((None, ADMISSIBILITY) if want is None else (want,)), pt


# The validity predicates as they stood before `violation` replaced them,
# kept as references; the conditions of Y come from the Polygon objects.


def _admissibility_holds_ref(pt):
    return pt.delta[0] + max(pt.mu[1], pt.delta[1]) <= pt.alpha[0] + pt.beta[0]


def _is_admissible_ref(pt):
    return _first_failure_by_polygons(pt) is None and _admissibility_holds_ref(pt)


def _in_Ypol_ref(pt):
    g, odd = divmod(pt.h, 2)
    r = pt.delta[0]
    return not odd and pt.mu == (g, g, g) and pt.delta == (r, g, 2 * g - r) and _is_admissible_ref(pt)


def _normal_form_failure_ref(pt):
    """The condition the old hand-written gate of normal_form raised, or None."""
    failed = _first_failure_by_polygons(pt)
    if failed is None and not _admissibility_holds_ref(pt):
        failed = ADMISSIBILITY
    return failed


def test_violation_matches_the_old_predicates():
    rng = random.Random(18)
    points = [pt for h in (0, 1, 2, 3) for pt in strata_points(h)]
    points += [random_strata_point(rng, h) for h in (4, 5) for _ in range(2000)]
    # conditions of Y fail together only from h = 4 on
    points += [pt for h in (4, 5, 6) for pt in points_with_y_sums(h)]
    # every triple over h = 4, mu = (2, 2, 2), the polarized g = 2 case
    desc = lambda k: itertools.combinations_with_replacement(range(4, -1, -1), k)
    points += [StrataPoint(4, (2, 2, 2), *v) for v in itertools.product(desc(3), desc(2), desc(2))]
    counts = {None: 0, ADMISSIBILITY: 0, POLARIZED: 0}
    for pt in points:
        failed = violation(pt)
        assert failed == _normal_form_failure_ref(pt), pt
        assert (failed is None) == _is_admissible_ref(pt), pt
        assert in_Y(pt) == (_first_failure_by_polygons(pt) is None), pt
        # the polarized test adds its shape condition after all the others
        polarized = violation(pt, polarized=True)
        assert polarized == (failed or (None if _in_Ypol_ref(pt) else POLARIZED)), pt
        for name in (failed, polarized):
            if name in counts:
                counts[name] += 1
    assert all(counts.values()), counts


def test_admissibility_cut():
    # delta=(2,1,0) with alpha=beta=(1,1) is in Y but fails admissibility
    pt = StrataPoint(2, (1, 1, 1), (2, 1, 0), (1, 1), (1, 1))
    assert in_Y(pt)
    assert violation(pt) == ADMISSIBILITY


def test_phi_examples():
    M = realize(JordanType(3, (3,)), F2)
    D = pr_construct(M, (1, 1, 1))
    pt = phi(D, 1)
    assert (pt.delta, pt.alpha, pt.beta) == ((1, 1, 1), (1, 1), (1, 1))

    M0 = realize(JordanType(3, (1, 1, 1)), F2)
    D0 = pr_construct(M0, (1, 1, 1))
    pt0 = phi(D0, 3)
    assert (pt0.delta, pt0.alpha, pt0.beta) == ((3, 0, 0), (2, 0), (2, 0))


def test_phi_lands_in_Yadm():
    for h in (1, 2):
        for mu in sorted_mus(h):
            for J in _jordan_types(sum(mu), h):
                M = realize(J, F2)
                for D in pr_all_data(M, mu):
                    pt = phi(D, h)
                    assert violation(pt) is None


def _jordan_types(total, max_blocks):
    def gen(total, mx, slots):
        if total == 0:
            yield ()
            return
        if slots == 0:
            return
        for a in range(min(total, mx), 0, -1):
            for rest in gen(total - a, a, slots - 1):
                yield (a,) + rest

    for parts in gen(total, 3, max_blocks):
        yield JordanType(3, parts + (0,) * (max_blocks - len(parts)))


def test_normal_form_unique_point():
    y = enum_Yadm(1, (1, 1, 1))[0]
    D = normal_form(y, F2)
    assert jordan_type(D.module).parts == (3,)
    assert validate_pr(D, (1, 1, 1))
    assert phi(D, 1) == y


def test_normal_form_minimal_point_splits():
    # minimal point: delta = mu, alpha = (d1, d2), beta = (d2, d3)
    y = StrataPoint(2, (2, 1, 1), (2, 1, 1), (2, 1), (1, 1))
    D = normal_form(y, F2)
    assert phi(D, 2) == y


def test_normal_form_round_trip_h_le_3():
    for h in (1, 2, 3):
        for mu in sorted_mus(h):
            for y in enum_Yadm(h, mu):
                D = normal_form(y, F2)
                assert phi(D, h) == y, (h, mu, y.sort_key())


def test_normal_form_rejects_inadmissible():
    pt = StrataPoint(2, (1, 1, 1), (2, 1, 0), (1, 1), (1, 1))
    with pytest.raises(AdmissibilityError) as err:
        normal_form(pt, F2)
    assert "alpha1 + beta1" in err.value.inequality
    bad_mass = StrataPoint(2, (1, 1, 1), (2, 2, 0), (1, 1), (1, 1))
    with pytest.raises(AdmissibilityError) as err:
        normal_form(bad_mass, F2)
    assert "sum(delta)" in err.value.inequality


def test_implied_beta_delta_constraint():
    for h in (1, 2, 3):
        for mu in sorted_mus(h):
            for y in enum_Yadm(h, mu):
                assert y.beta[1] <= y.delta[1] <= y.beta[0]


def test_oracle_counts():
    assert iso_classes_oracle(1, (1, 1, 1), F2).count == 1
    assert iso_classes_oracle(2, (1, 1, 1), F2).count == 4
    assert iso_classes_oracle(2, (0, 0, 0), F2).count == 1
    for h in (0, 2):
        (J, D, pt), = iso_classes_oracle(h, (0, 0, 0), F2).classes
        assert J == JordanType(3, (0,) * max(h, 1))
        assert D.module.dim == 0 and all(S.dim == 0 for S in D.flag)
        assert pt == StrataPoint(h, (0, 0, 0), (0, 0, 0), (0, 0), (0, 0))


def test_oracle_bound():
    with pytest.raises(OracleBoundError):
        iso_classes_oracle(2, (2, 2, 2), F2)


def test_oracle_refuses_every_mu_enum_yadm_refuses():
    # the short and long types used to come out padded or cut to (1, 1, 0),
    # and the others to count 0
    cases = [(2, (1, 1)), (2, (1, 1, 0, 0)), (1, (2, 0, 0)), (2, (1, 1, -1)), (2, (1, 2, 0))]
    for h, mu in cases:
        with pytest.raises(ValueError) as want:
            enum_Yadm(h, mu)
        with pytest.raises(ValueError) as got:
            iso_classes_oracle(h, mu, F2)
        assert str(got.value) == str(want.value), (h, mu)


def test_oracle_phi_bijection_small():
    for h in (1, 2):
        for mu in sorted_mus(h):
            if sum(mu) > 4:
                continue
            res = iso_classes_oracle(h, mu, F2)
            phis = sorted(c[2].sort_key() for c in res.classes)
            assert len(phis) == len(set(phis))
            assert phis == sorted(p.sort_key() for p in enum_Yadm(h, mu))


def brute_force_aut_orbits(M, mu):
    """Oracle for the oracle: scan every invertible T-commuting matrix."""
    field, n = M.field, M.dim
    mats = []
    for bits in itertools.product(range(field.p), repeat=n * n):
        rows = [bits[i * n : (i + 1) * n] for i in range(n)]
        G = Matrix.from_rows(field, rows, n)
        if G.mul(M.op) == M.op.mul(G) and G.rank() == n:
            mats.append(G)
    flags = [(D.flag[1], D.flag[2]) for D in pr_all_data(M, mu)]
    orbits = []
    seen = set()
    for f1, f2 in flags:
        key = (f1.rows, f2.rows)
        if key in seen:
            continue
        orbit = set()
        for G in mats:
            g1 = Subspace(field, n, [G.apply(r) for r in f1.rows])
            g2 = Subspace(field, n, [G.apply(r) for r in f2.rows])
            orbit.add((g1.rows, g2.rows))
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_orbit_oracle_against_full_group_scan():
    # dim 3 keeps the 2^(n^2) scan affordable and exercises T = 0 fully
    for parts in [(3,), (2, 1), (1, 1, 1)]:
        J = JordanType(3, parts + (0,) * (3 - len(parts)))
        M = realize(J, F2)
        for mu in [(1, 1, 1), (2, 1, 0)]:
            flags = list(pr_all_data(M, mu))
            if not flags:
                continue
            want = len(brute_force_aut_orbits(M, mu))
            gens = aut_generators(J, F2)
            seen = set()
            got = 0
            for D in flags:
                key = (D.flag[1].rows, D.flag[2].rows)
                if key in seen:
                    continue
                orbit = {key}
                frontier = [key]
                while frontier:
                    cur = frontier.pop()
                    S1 = Subspace(F2, 3, cur[0], _canonical=True)
                    S2 = Subspace(F2, 3, cur[1], _canonical=True)
                    for G in gens:
                        nxt = (
                            Subspace(F2, 3, [G.apply(r) for r in S1.rows]).rows,
                            Subspace(F2, 3, [G.apply(r) for r in S2.rows]).rows,
                        )
                        if nxt not in orbit:
                            orbit.add(nxt)
                            frontier.append(nxt)
                seen |= orbit
                got += 1
            assert got == want, (parts, mu)


def spanning_list(J, field):
    """The oracle's former automorphism list, kept as a reference: 1 + c*E
    for every basis hom E between distinct blocks and every c in F_p^*,
    1 + c*N^a on each block, and each scalar c >= 2 on each block."""
    parts = [a for a in J.parts if a]
    n, p = sum(parts), field.p
    offsets = [sum(parts[:b]) for b in range(len(parts))]

    def identity_plus(cells, c):
        rows = [[int(r == k) for k in range(n)] for r in range(n)]
        for r, k in cells:
            rows[r][k] = (rows[r][k] + c) % p
        return Matrix.from_rows(field, rows, n)

    gens = []
    for bi, s in enumerate(parts):
        for bj, t in enumerate(parts):
            if bi == bj:
                continue
            for m in range(min(s, t)):
                exp = max(t - s, 0) + m
                cells = [(offsets[bj] + t - s + k - exp, offsets[bi] + k)
                         for k in range(s) if 0 <= t - s + k - exp < t]
                gens += [identity_plus(cells, c) for c in range(1, p)]
    for bi, s in enumerate(parts):
        for a in range(1, s):
            cells = [(offsets[bi] + k - a, offsets[bi] + k) for k in range(a, s)]
            gens += [identity_plus(cells, c) for c in range(1, p)]
        block = [(offsets[bi] + k, offsets[bi] + k) for k in range(s)]
        gens += [identity_plus(block, c - 1) for c in range(2, p)]
    return gens


def flag_orbits(field, flags, gens):
    """The flags, keyed by their (M_1, M_2) rows, partitioned into orbits under gens."""
    orbits, seen = set(), set()
    for key in flags:
        if key in seen:
            continue
        orbit, frontier = {key}, [key]
        while frontier:
            r1, r2 = frontier.pop()
            for g in gens:
                nxt = (rref(field, [g.apply(r) for r in r1])[1],
                       rref(field, [g.apply(r) for r in r2])[1])
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


@functools.cache
def generated_orbits(field, parts, mu):
    """The (M_1, M_2) rows of every flag of type mu on the module of Jordan
    type parts, in `pr_all_data` order, and their orbits under
    `aut_generators`; two tests share them."""
    J = JordanType(3, parts)
    flags = [(D.flag[1].rows, D.flag[2].rows) for D in pr_all_data(realize(J, field), mu)]
    return flags, flag_orbits(field, flags, aut_generators(J, field))


def test_generating_set_has_the_spanning_list_orbits():
    families = 0
    for field, cap in ((F2, 5), (F3, 4), (F5, 3)):
        for n in range(1, cap + 1):
            for parts in partitions(n, 3):
                J = JordanType(3, parts)
                for mu in sorted_mus(n):
                    if sum(mu) != n:
                        continue
                    families += 1
                    flags, got = generated_orbits(field, parts, mu)
                    want = flag_orbits(field, flags, spanning_list(J, field))
                    assert got == want, (field.p, parts, mu)
    assert families == 99


def test_oracle_represents_each_orbit_by_its_first_flag():
    families = 0
    for field, cap in ((F2, 5), (F3, 4), (F5, 3)):
        for n in range(1, cap + 1):
            for mu in sorted_mus(n):
                if sum(mu) != n:
                    continue
                want = []
                for parts in partitions(n, 3):
                    families += 1
                    flags, orbits = generated_orbits(field, parts, mu)
                    position = {key: i for i, key in enumerate(flags)}
                    want += [(parts, flags[i]) for i in sorted(min(map(position.get, o)) for o in orbits)]
                res = iso_classes_oracle(n, mu, field, max_total_dim=n)
                got = [(tuple(a for a in J.parts if a), (D.flag[1].rows, D.flag[2].rows))
                       for J, D, _ in res.classes]
                assert got == want, (field.p, mu)
    assert families == 99


def _oracle_families():
    """(h, mu, field) for every sorted mu: F_2 at h <= 4 with total <= 6,
    F_3 at h <= 3 with total <= 4, F_5 at h <= 2."""
    for field, hmax, cap in ((F2, 4, 6), (F3, 3, 4), (F5, 2, 6)):
        for h in range(hmax + 1):
            for mu in sorted_mus(h):
                if sum(mu) <= cap:
                    yield h, mu, field


# computed while the generating set still held 1 + E_ij for every ordered pair of blocks
ORACLE_FAMILY_SHA256 = "aff9bb7a12a2a7c4220e93ecafe23f238e29c3fa8d13b11f4007da7a102b0d64"


def test_oracle_outputs_pinned():
    lines = []
    for h, mu, field in _oracle_families():
        res = iso_classes_oracle(h, mu, field, max_total_dim=sum(mu))
        classes = [(J.parts, (D.flag[1].rows, D.flag[2].rows), pt.sort_key())
                   for J, D, pt in res.classes]
        lines.append(repr((h, mu, field.p, res.count, classes)))
    assert len(lines) == 89
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ORACLE_FAMILY_SHA256


@pytest.mark.parametrize("field", [F2, F3])
def test_oracle_merges_each_type_once_for_every_h(field):
    mu = (2, 1, 1)  # types (3, 1) and (2, 2) at h = 2; (2, 1, 1) joins at h = 3
    e3._type_classes.cache_clear()
    low = iso_classes_oracle(2, mu, field)
    info = e3._type_classes.cache_info()
    high = iso_classes_oracle(3, mu, field)
    after = e3._type_classes.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (2, 1)
    # the classes of the shared types are the very same data, padded and classified per call
    shared = [c for c in high.classes if c[0].parts[-1] == 0]
    assert shared and len(shared) == len(low.classes)
    assert all(a[1] is b[1] for a, b in zip(shared, low.classes))
    assert [J.parts for J, _, _ in low.classes] == [J.parts[:2] for J, _, _ in shared]
    assert {len(J.parts) for J, _, _ in low.classes} == {2}
    assert {len(J.parts) for J, _, _ in high.classes} == {3}
    for h, res in ((2, low), (3, high)):
        assert all(pt == phi(D, h) for _, D, pt in res.classes)
    # the memo holds what a fresh merge gives
    for parts in partitions(sum(mu), 3, 3):
        assert e3._type_classes(parts, mu, field) == e3._type_classes.__wrapped__(parts, mu, field)


def test_oracle_rejects_a_map_that_leaves_the_flag_set(monkeypatch):
    # swapping e_0 and e_2 of one Jordan block of size 3 does not commute with T
    swap = Matrix.from_rows(F2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3)
    generators = e3.aut_generators
    e3._type_classes.cache_clear()  # a memoized type would never meet the patched generators
    monkeypatch.setattr(e3, "aut_generators", lambda J, field: generators(J, field) + [swap])
    with pytest.raises(AssertionError, match="automorphism left the flag set"):
        iso_classes_oracle(1, (1, 1, 1), F2, max_total_dim=3)
    e3._type_classes.cache_clear()  # nor may later tests meet types merged under them


def _mul(A, B, p):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(operator.mul, row, col)) % p for col in cols) for row in A)


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        yield (-1) ** sum(x > y for x, y in itertools.combinations(perm, 2)), perm


def _det(A, p, signed_perms):
    """The Leibniz expansion of det(A) mod p."""
    return sum(s * math.prod(A[i][j] for i, j in enumerate(perm)) for s, perm in signed_perms) % p


def _closure_size(gens, n, p):
    """The order of the group the n x n matrices gens generate over F_p."""
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group, frontier = {one}, [one]
    while frontier:
        x = frontier.pop()
        for G in gens:
            y = _mul(x, G, p)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return len(group)


def test_aut_generators_generate_the_whole_group():
    for field, cap in ((F3, 3), (F5, 2)):
        p = field.p
        for n in range(1, cap + 1):
            for parts in partitions(n, 3):
                J = JordanType(3, parts)
                T = realize(J, field).op.coord_rows()
                signed = list(_signed_permutations(n))
                gens = [G.coord_rows() for G in aut_generators(J, field)]
                for G in gens:
                    assert _mul(G, T, p) == _mul(T, G, p) and _det(G, p, signed), (p, parts, G)
                # brute force: every invertible n x n matrix commuting with T
                want = 0
                for entries in itertools.product(range(p), repeat=n * n):
                    G = tuple(entries[i * n:(i + 1) * n] for i in range(n))
                    want += _mul(G, T, p) == _mul(T, G, p) and _det(G, p, signed) != 0
                assert _closure_size(gens, n, p) == want, (p, parts)


def _gl_order(m, p):
    return math.prod(p**m - p**k for k in range(m))


def test_aut_generators_reach_the_closed_form_group_order():
    # |Aut| = p^(sum_{i,j} min(s_i, s_j) - sum_s m_s^2) * prod_s |GL_{m_s}(F_p)|,
    # m_s the number of blocks of size s; checked wherever |Aut| <= 5000.
    # Blocks of size 4 (e = 4) are included: block maps between sizes s > t
    # compose to N^(s - t) on the smaller block, which stands in for its own
    # 1 + N generator whenever s - t = 1, as always happens at e = 3, but
    # not for sizes (4, 2).
    checked = set()
    for field, cap in ((F2, 6), (F3, 4), (F5, 3)):
        p = field.p
        for n in range(1, cap + 1):
            for parts in partitions(n, 4):
                runs = [parts.count(s) for s in set(parts)]
                exponent = sum(map(min, itertools.product(parts, repeat=2))) - sum(m * m for m in runs)
                want = p**exponent * math.prod(_gl_order(m, p) for m in runs)
                if want > 5000:
                    continue
                gens = [G.coord_rows() for G in aut_generators(JordanType(4, parts), field)]
                assert _closure_size(gens, n, p) == want, (p, parts)
                checked.add((p, parts))
    # two equal blocks of size >= 2 are the case the brute-force scan never reaches
    assert len(checked) == 31
    assert {(2, (2, 2)), (2, (3, 3)), (2, (2, 2, 1)), (3, (2, 2)), (2, (4, 2))} <= checked


def test_ypol_inside_yadm():
    for g in (1, 2):
        adm = {p.sort_key() for p in enum_Yadm(2 * g, (g, g, g))}
        pol = enum_Ypol(g)
        assert pol
        for p in pol:
            assert violation(p, polarized=True) is None
            assert p.sort_key() in adm
            r = p.delta[0]
            assert g <= r <= 2 * g and p.delta == (r, g, 2 * g - r)


def test_json_round_trip():
    y = enum_Yadm(2, (1, 1, 1))[0]
    data = y.to_json_dict()
    assert StrataPoint(2, (1, 1, 1), **data) == y
