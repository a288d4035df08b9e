"""PR data: validation, existence, the greedy construction, the oracle."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prflags.gf import (
    DEFAULT_ENUM_CAP,
    F2,
    F3,
    EnumerationCapError,
    PrimeField,
    Subspace,
    preimage,
    subspaces_between,
)
from prflags.pr import (
    InfeasiblePRError,
    InfeasibleTargetError,
    PRDatum,
    alpha_table,
    check_hdg_filt,
    pr_all_data,
    pr_construct,
    pr_exists,
    pr_oracle_exists,
    pr_permute,
    subspace_in_flag,
    validate_pr,
)
from prflags.polygon import Polygon
from prflags import pr as pr_module
from prflags.tmodule import (
    ConcreteModule,
    JordanType,
    delta_vector,
    jordan_type,
    power_image,
    realize,
    restrict_module,
    torsion_flag,
)
from prflags.verify import (
    _random_valid_filtration,
    criterion_filtration_dominance,
    criterion_pr_existence,
)
from test_tmodule import quotient_module


def partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for a in range(min(total, max_part), 0, -1):
        for rest in partitions(total - a, a):
            yield (a,) + rest


def test_validate_reports_first_violation():
    M = realize(JordanType(3, (3,)), F2)
    good = pr_construct(M, (1, 1, 1))
    assert validate_pr(good, (1, 1, 1))
    # wrong graded dimension
    res = validate_pr(good, (1, 0, 2))
    assert not res and "expected d_2" in res.violation
    # flag violating T-stability on J_3: M_1 = span{e_2}
    zero = Subspace.zero(F2, 3)
    full = Subspace.full(F2, 3)
    bad = PRDatum(M, (zero, Subspace.span(F2, 3, [[0, 1, 0]]), power_image(M, 1), full))
    res = validate_pr(bad, (1, 1, 1))
    assert not res and "T M_1" in res.violation


def test_exists_examples():
    assert pr_exists(JordanType(3, (3,)), (1, 1, 1))
    assert pr_exists(JordanType(3, (1, 1, 1)), (1, 1, 1))
    assert pr_exists(JordanType(3, (1, 1, 1)), (3, 0, 0))  # T = 0: M_1 = M
    assert not pr_exists(JordanType(3, (3,)), (1, 1, 0))  # mass mismatch
    assert not pr_exists(JordanType(3, (3,)), (2, 1, 0))  # dominance fails


def test_construct_unique_flag_for_j3():
    M = realize(JordanType(3, (3,)), F2)
    D = pr_construct(M, (1, 1, 1))
    assert D.flag[1] == power_image(M, 2)
    assert D.flag[2] == power_image(M, 1)


def test_construct_t_zero_alpha_values():
    # T = 0: alpha_i^0 = d_1 + ... + d_i and alpha_i^j = 0 for j >= 1
    M = realize(JordanType(3, (1, 1, 1)), F2)
    delta = delta_vector(M)
    alpha = alpha_table(delta, (1, 1, 1))
    for i in range(4):
        assert alpha[i][0] == i
        for j in range(1, 4):
            assert alpha[i][j] == 0


def test_construct_alpha_exactness_j3_plus_j1():
    M = realize(JordanType(3, (3, 1)), F2)
    D = pr_construct(M, (2, 1, 1))
    assert validate_pr(D, (2, 1, 1))
    TM = power_image(M, 1)
    assert D.flag[1].intersect(TM).dim == 1  # alpha_1^1 = min(delta_2, d_1) = 1
    delta = delta_vector(M)
    alpha = alpha_table(delta, (2, 1, 1))
    for i in range(4):
        for j in range(4):
            assert D.flag[i].intersect(power_image(M, j)).dim == alpha[i][j]


def test_construct_infeasible_witness():
    M = realize(JordanType(3, (3,)), F2)
    with pytest.raises(InfeasiblePRError) as err:
        pr_construct(M, (3, 0, 0))
    assert err.value.prefix_index == 1
    M2 = realize(JordanType(3, (3, 1)), F2)  # delta = (2, 1, 1)
    with pytest.raises(InfeasiblePRError) as err:
        pr_construct(M2, (2, 2, 0))
    assert err.value.prefix_index == 2  # 2+2 = 4 > 2+1 = 3


def test_construct_unsorted_type():
    M = realize(JordanType(3, (3, 1)), F2)
    for mu in [(1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        D = pr_construct(M, mu)
        assert validate_pr(D, mu)


def test_permute_examples():
    M = realize(JordanType(3, (3,)), F2)
    D = pr_construct(M, (1, 1, 1))
    assert pr_permute(D, 1).flag == D.flag  # equal entries: forced flag
    M2 = realize(JordanType(3, (3, 1)), F2)
    D2 = pr_construct(M2, (2, 1, 1))
    swapped = pr_permute(D2, 1)
    assert swapped.mu == (1, 2, 1)
    assert validate_pr(swapped, (1, 2, 1))
    back = pr_permute(swapped, 1)
    assert back.mu == (2, 1, 1)
    assert validate_pr(back, (2, 1, 1))


def test_permute_t_zero_any_middle():
    M = realize(JordanType(3, (1, 1)), F2)
    D = pr_construct(M, (1, 1, 0))
    out = pr_permute(D, 2)
    assert out.mu == (1, 0, 1)
    assert validate_pr(out, (1, 0, 1))


def test_subspace_in_flag_trivial_and_forced():
    zero = Subspace.zero(F2, 3)
    e1 = Subspace.span(F2, 3, [[1, 0, 0]])
    full = Subspace.full(F2, 3)
    # floor returned unchanged
    got = subspace_in_flag([e1, full], e1, [1, 1])
    assert got == e1
    # forced: dim 1 with intersections (0, 1, 1) in flag 0 < e1 < full
    got = subspace_in_flag([zero, e1, full], zero, [0, 1, 1])
    assert got == e1
    # free choice at top: any 2-dim space containing floor
    got = subspace_in_flag([full], e1, [2])
    assert got.dim == 2 and got.contains(e1)


def test_subspace_in_flag_errors():
    zero = Subspace.zero(F2, 3)
    e1 = Subspace.span(F2, 3, [[1, 0, 0]])
    full = Subspace.full(F2, 3)
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, [2, 2])
    assert err.value.constraint == "target exceeds flag member dimension"
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, [1, 0])
    assert err.value.constraint == "non-monotone targets"
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([full], e1, [0])
    assert err.value.constraint == "target below floor"
    assert str(err.value) == (
        "infeasible targets: target below floor (target 0 < dim(floor ^ F) = 1)"
    )
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, [0, 3])
    assert err.value.constraint == "step exceeds flag step"
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([], zero, [])
    assert err.value.constraint == "empty flag"
    # unchecked, this flag would yield e1, which meets e1 in dimension 1, not 0
    e13 = Subspace.span(F2, 3, [[1, 0, 1]])
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, e13, full], zero, [0, 0, 1])
    assert err.value.constraint == "flag members are not nested"


def ref_alpha_table(delta, mu_sorted):
    """The former `alpha_table`, kept as a reference: the triple loop."""
    e = len(mu_sorted)
    dsum = [0]
    for d in mu_sorted:
        dsum.append(dsum[-1] + d)

    def delta_at(t):
        return delta[t - 1] if 1 <= t <= e else 0

    table = []
    for i in range(e + 1):
        row = []
        for j in range(e + 1):
            best = None
            for l in range(i + 1):
                val = sum(delta_at(j + t) for t in range(1, l + 1)) + (dsum[i] - dsum[l])
                if best is None or val < best:
                    best = val
            row.append(best)
        table.append(row)
    return table


def ref_subspace_in_flag(flag, floor, target_intersections):
    """The former `subspace_in_flag`, kept as a reference: it checks
    feasibility in a first pass, then picks vectors while re-intersecting
    S with every member."""
    spaces = list(flag)
    targets = [int(t) for t in target_intersections]
    if len(targets) != len(spaces):
        raise InfeasibleTargetError("one target per flag member required")
    top = spaces[-1]
    if not top.contains(floor):
        raise InfeasibleTargetError("floor not inside flag top")
    prev_space = None
    prev_target = None
    prev_floor_cut = None
    for space, t in zip(spaces, targets):
        floor_cut = floor.intersect(space).dim
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
        prev_space, prev_target, prev_floor_cut = space, t, floor_cut

    S = floor
    f = floor.field
    prev = None
    for space, t in zip(spaces, targets):
        need = t - S.intersect(space).dim
        assert need >= 0, "settled intersection overshot its target"
        avoid = S.sum(prev) if prev is not None else S
        while need > 0:
            picked = None
            for r in space.rows:
                if not avoid.contains_row(r):
                    picked = r
                    break
            if picked is None:
                raise InfeasibleTargetError(
                    "flag member exhausted", "no vector of F left outside S + F_prev"
                )
            S = Subspace(f, S.n, S.rows + (picked,))
            avoid = Subspace(f, S.n, avoid.rows + (picked,))
            need -= 1
        prev = space
    assert S.dim == targets[-1]
    return S


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleTargetError as exc:
        return exc.constraint, str(exc)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_subspace_in_flag_matches_reference(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5]), label="p"))
    n = data.draw(st.integers(1, 6), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))

    def span(rows):
        return Subspace.span(field, n, rows)

    def vectors(count):
        return [[rng.randrange(field.p) for _ in range(n)] for _ in range(count)]

    def combos(basis, count):
        """`count` random combinations of the basis vectors."""
        out = []
        for _ in range(count):
            coeffs = [rng.randrange(field.p) for _ in basis]
            out.append([sum(c * v[i] for c, v in zip(coeffs, basis)) % field.p
                        for i in range(n)])
        return out

    # a nested flag: spans of growing prefixes of one list of vectors
    gens = vectors(rng.randint(1, n + 1))
    cuts = sorted(rng.randint(0, len(gens)) for _ in range(rng.randint(1, 4)))
    flag = [span(gens[:c]) for c in cuts]
    top = gens[:cuts[-1]]
    if rng.randrange(10) == 0:
        floor = span(vectors(rng.randint(0, 3)))
    else:
        floor = span(combos(top, rng.randint(0, 3)))
    # targets met by some S between floor and top, then maybe perturbed
    S = floor.sum(span(combos(top, rng.randint(0, 3))))
    targets = [S.intersect(F).dim for F in flag]
    for _ in range(rng.choice([0, 0, 1, 2])):
        targets[rng.randrange(len(flag))] += rng.choice([-1, 1])

    want = _outcome(ref_subspace_in_flag, flag, floor, targets)
    assert _outcome(subspace_in_flag, flag, floor, targets) == want
    if isinstance(want, Subspace):
        assert [want.intersect(F).dim for F in flag] == targets


def test_alpha_table_matches_reference():
    checked = 0
    for e in (1, 2, 3):
        mus = [mu for mu in itertools.product(range(9), repeat=e)
               if sum(mu) <= 8 and list(mu) == sorted(mu, reverse=True)]
        for n in range(9):
            for parts in partitions(n, e):
                delta = JordanType(e, parts or (0,)).delta()
                for mu in mus:
                    assert alpha_table(delta, mu) == ref_alpha_table(delta, mu), (delta, mu)
                    checked += 1
    assert checked == 2387


def test_oracle_matches_examples():
    M = realize(JordanType(3, (3,)), F2)
    assert pr_oracle_exists(M, (1, 1, 1))
    assert not pr_oracle_exists(M, (1, 1, 0))


def test_enumeration_cap_reaches_subspaces_between_unchanged(monkeypatch):
    import prflags.pr as prmod

    seen = []

    def recording(floor, ceiling, d, cap):
        seen.append(cap)
        return subspaces_between(floor, ceiling, d, cap=cap)

    monkeypatch.setattr(prmod, "subspaces_between", recording)
    M = realize(JordanType(3, (3, 2, 1)), F2)
    for kwargs, cap in (({}, DEFAULT_ENUM_CAP), ({"cap": 50}, 50), ({"cap": None}, None)):
        seen.clear()
        assert pr_oracle_exists(M, (3, 2, 1), **kwargs)
        list(pr_all_data(M, (2, 2, 2), **kwargs))
        assert seen and set(seen) == {cap}
    with pytest.raises(EnumerationCapError):
        pr_oracle_exists(M, (3, 2, 1), cap=0)


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_agreement_small(p):
    from prflags.gf import PrimeField

    field = PrimeField(p)
    for dim in range(5):
        for parts in partitions(dim, 3):
            J = JordanType(3, parts if parts else (0,))
            M = realize(J, field)
            for mu in itertools.product(range(3), repeat=3):
                assert pr_exists(J, mu) == pr_oracle_exists(M, mu), (parts, mu)


def test_e1_agreement():
    # e = 1 forces T = 0; a PR datum of type (d) exists iff d = dim
    for dim in range(4):
        J = JordanType(1, (1,) * dim if dim else (0,))
        M = realize(J, F2)
        for d in range(5):
            want = d == dim
            assert pr_exists(J, (d,)) == want
            assert pr_oracle_exists(M, (d,)) == want
            if want:
                assert validate_pr(pr_construct(M, (d,)), (d,))


def test_all_data_enumeration():
    M = realize(JordanType(3, (1, 1)), F2)
    data = list(pr_all_data(M, (1, 1, 0)))
    assert data
    for D in data:
        assert validate_pr(D, (1, 1, 0))
    assert len({(D.flag[1].rows, D.flag[2].rows) for D in data}) == len(data)


def test_all_data_refuses_a_type_of_the_wrong_length():
    # a short type used to come out padded with zeros, a long one cut short
    from prflags.pr import PRError

    M = realize(JordanType(3, (1, 1)), F2)
    for mu in ((1, 1), (1, 1, 0, 0)):
        msg = r"type length %d != e = 3" % len(mu)
        with pytest.raises(PRError, match=msg):
            list(pr_all_data(M, mu))
        with pytest.raises(PRError, match=msg):
            pr_oracle_exists(M, mu)
    # a type of the right length with a negative entry or the wrong sum has no data
    for mu in ((2, 1, -1), (1, 0, 0)):
        assert not list(pr_all_data(M, mu)) and not pr_oracle_exists(M, mu)


def test_all_data_raises_a_wrong_length_at_the_first_next():
    # pr_all_data is a generator, so that the tracer counts what it yields:
    # the call returns, and the error comes when the first datum is asked for
    import inspect
    from prflags.pr import PRError

    M = realize(JordanType(3, (1, 1)), F2)
    assert inspect.isgeneratorfunction(pr_all_data)
    data = pr_all_data(M, (1, 1))
    with pytest.raises(PRError, match=r"type length 2 != e = 3"):
        next(data)
    with pytest.raises(PRError, match=r"type length 2 != e = 3"):
        pr_oracle_exists(M, (1, 1))


def unpruned_all_data(M, mu):
    """The former `pr_all_data`, kept as a reference: each member runs from
    the previous one up to its T-preimage, and the last level checks
    T M <= M_{e-1}."""
    e, full = M.e, Subspace.full(M.field, M.dim)
    if sum(mu) != M.dim:
        return
    dims = list(itertools.accumulate(mu, initial=0))

    def search(level, chain):
        current = chain[-1]
        if level == e - 1:
            if preimage(M.op, current).dim == M.dim:
                yield PRDatum(M, tuple(chain) + (full,))
            return
        ceiling = preimage(M.op, current)
        if dims[level + 1] > ceiling.dim:
            return
        for cand in subspaces_between(current, ceiling, dims[level + 1]):
            yield from search(level + 1, chain + [cand])

    yield from search(0, [Subspace.zero(M.field, M.dim)])


def test_floors_keep_the_unpruned_enumeration():
    families = data = 0
    for field, cap in ((F2, 5), (F3, 4), (PrimeField(5), 3)):
        for e in (1, 2, 3):
            for n in range(cap + 1):
                for parts in partitions(n, e):
                    M = realize(JordanType(e, parts or (0,)), field)
                    for mu in itertools.product(range(n + 1), repeat=e):
                        if sum(mu) != n:
                            continue
                        families += 1
                        got = [D.flag for D in pr_all_data(M, mu)]
                        assert got == [D.flag for D in unpruned_all_data(M, mu)], (
                            field.p, parts, mu)
                        data += len(got)
    assert (families, data) == (477, 10621)


def test_filtration_dominance_examples():
    M = realize(JordanType(3, (3, 1)), F2)
    # N = M[T]: T^{3-1} M = T^2 M inside M[T], T^1 N = 0
    assert check_hdg_filt(M, torsion_flag(M, 1), 1)
    # degenerate ends
    assert check_hdg_filt(M, Subspace.zero(F2, 4), 0)
    assert check_hdg_filt(M, Subspace.full(F2, 4), 3)


def test_filtration_dominance_preconditions():
    from prflags.pr import PRError

    M = realize(JordanType(3, (3, 1)), F2)
    with pytest.raises(PRError):
        check_hdg_filt(M, Subspace.span(F2, 4, [[0, 1, 0, 0]]), 1)  # not T-stable
    with pytest.raises(PRError):
        check_hdg_filt(M, torsion_flag(M, 2), 1)  # T N != 0
    with pytest.raises(PRError):
        check_hdg_filt(M, power_image(M, 2), 2)  # T M not inside N
    with pytest.raises(PRError):
        check_hdg_filt(M, torsion_flag(M, 1), 4)


# The Hodge-dominance tests as they stood on Polygon objects, kept as
# references for the integer d-list forms that replaced them.


def _pr_exists_by_polygons(J, mu):
    if sum(mu) != J.dim:
        return False
    h = max(1, J.delta()[0], *mu)  # a domain [0, h] holding both polygons
    return Polygon.from_d(h, J.delta(), J.e).dominates(Polygon.from_d(h, mu, J.e))


def _star_dominance_by_polygons(h, big, left, right):
    """P(big) >= P(left) * P(right), each at the denominator of its length."""
    star = Polygon.from_d(h, left, len(left)).star(Polygon.from_d(h, right, len(right)))
    return Polygon.from_d(h, big, len(big)).dominates(star)


def test_pr_exists_matches_the_polygon_objects():
    rng = random.Random(18)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        e = rng.randint(1, 4)
        J = JordanType(e, [rng.randint(0, e) for _ in range(rng.randint(1, 5))])
        if rng.random() < 0.9:  # a type of the right mass, cut at random
            cuts = sorted(rng.randint(0, J.dim) for _ in range(e - 1))
            mu = tuple(b - a for a, b in zip([0] + cuts, cuts + [J.dim]))
        else:
            mu = tuple(rng.randint(0, 6) for _ in range(e))
        want = _pr_exists_by_polygons(J, mu)
        assert pr_exists(J, mu) == want, (J, mu)
        verdicts[want] += sum(mu) == J.dim
    assert min(verdicts.values()) > 300, verdicts


def test_filtration_dominance_matches_the_polygon_objects(monkeypatch):
    rng = random.Random(18)
    # valid filtrations, where the theorem makes both forms hold
    for k in range(300):
        M, N, i = _random_valid_filtration(rng, F2 if k % 2 else F3, 6)
        if 0 < i < M.e:
            parts = (
                delta_vector(ConcreteModule(M.field, i, restrict_module(M, N).op)),
                delta_vector(quotient_module(M, N, e=M.e - i)),
            )
            big = delta_vector(M)
            assert _star_dominance_by_polygons(max(1, big[0]), big, *parts)
        assert check_hdg_filt(M, N, i)
    # random d-lists in place of Hdg(N) and Hdg(M/N), where dominance often
    # fails: the deltas of the two pieces are drawn below
    drawn = {}
    monkeypatch.setattr(
        "prflags.pr._piece_delta", lambda M, N, e, quotient=False: drawn["quo" if quotient else "sub"]
    )
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        e = rng.randint(2, 3)
        M = realize(JordanType(e, [rng.randint(0, e) for _ in range(rng.randint(1, 4))]), F2)
        i = rng.randint(1, e - 1)
        big = delta_vector(M)
        h = max(1, big[0])
        for token, k in (("sub", i), ("quo", e - i)):
            drawn[token] = tuple(sorted((rng.randint(0, h) for _ in range(k)), reverse=True))
        want = _star_dominance_by_polygons(h, big, drawn["sub"], drawn["quo"])
        assert check_hdg_filt(M, power_image(M, e - i), i) == want
        verdicts[want] += 1
    assert min(verdicts.values()) > 300, verdicts


# every (p, J.parts, N, i) criterion 5 hands to check_hdg_filt at seed 7, taken
# before the generator grew N by one vector at a time
FILTRATION_INSTANCES_SHA256 = "f20b8acf4a2a0ac902964fe551114eb471118c819ef8e9e1a09cff0a1acb0345"


def test_verify_draws_the_pinned_filtration_instances(monkeypatch):
    records = []

    def recording(M, N, i):
        records.append(repr((M.field.p, jordan_type(M).parts, N.basis_coords(), i)))
        return check_hdg_filt(M, N, i)

    monkeypatch.setattr(pr_module, "check_hdg_filt", recording)
    assert criterion_filtration_dominance(7)[0]
    assert len(records) == 1000
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == FILTRATION_INSTANCES_SHA256


def test_criterion_three_counts_alpha_misses_once_per_permutation(monkeypatch):
    # pr_construct reads rows i >= 1 of the table only, so raising alpha_0^0
    # leaves every greedy flag as it is and makes it miss once; the count,
    # measured before the criterion checked each sorted flag once, is one
    # per permutation of mu that has a datum
    def raised(delta, mu_sorted):
        alpha = alpha_table(delta, mu_sorted)
        alpha[0][0] += 1
        return alpha

    monkeypatch.setattr(pr_module, "alpha_table", raised)
    assert criterion_pr_existence(5) == (False, "cases=1808 failures=159")
