"""PR data: validation, existence, the greedy construction, the oracle."""

import itertools

import pytest

from prflags.gf import F2, F3, PrimeField, Subspace, preimage, subspaces_between
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
from prflags.tmodule import (
    JordanType,
    delta_vector,
    power_image,
    realize,
    torsion_flag,
)


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
    res = validate_pr(bad)
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
    got = subspace_in_flag([e1, full], e1, 1, [1, 1])
    assert got == e1
    # forced: dim 1 with intersections (0, 1, 1) in flag 0 < e1 < full
    got = subspace_in_flag([zero, e1, full], zero, 1, [0, 1, 1])
    assert got == e1
    # free choice at top: any 2-dim space containing floor
    got = subspace_in_flag([full], e1, 2, [2])
    assert got.dim == 2 and got.contains(e1)


def test_subspace_in_flag_errors():
    zero = Subspace.zero(F2, 3)
    e1 = Subspace.span(F2, 3, [[1, 0, 0]])
    full = Subspace.full(F2, 3)
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, 2, [2, 2])
    assert err.value.constraint == "target exceeds flag member dimension"
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, 1, [1, 0])
    assert err.value.constraint in ("non-monotone targets", "top target must equal target_dim")
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([full], e1, 0, [0])
    assert err.value.constraint == "target below floor"
    with pytest.raises(InfeasibleTargetError) as err:
        subspace_in_flag([e1, full], zero, 3, [0, 3])
    assert err.value.constraint == "step exceeds flag step"


def test_oracle_matches_examples():
    M = realize(JordanType(3, (3,)), F2)
    assert pr_oracle_exists(M, (1, 1, 1))
    assert not pr_oracle_exists(M, (1, 1, 0))


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
