"""Jordan types, realizations and Hodge polygons."""

import itertools
import random
from fractions import Fraction

import pytest

from prflags.gf import F2, F3, Matrix, PrimeField, Subspace, image
from prflags.polygon import Polygon
from prflags.pr import pr_all_data
from prflags.tmodule import (
    ConcreteModule,
    JordanType,
    JordanTypeError,
    _piece_delta,
    _realize,
    delta_vector,
    hodge_polygon,
    jordan_type,
    power_image,
    realize,
    restrict_module,
    torsion_flag,
)
from prflags.verify import _random_valid_filtration


def partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for a in range(min(total, max_part), 0, -1):
        for rest in partitions(total - a, a):
            yield (a,) + rest


def matrix_power(T, k):
    """T^k by repeated multiplication: the library's former `Matrix.power`,
    kept as the reference for the powers a module keeps."""
    if T.nrows != T.ncols:
        raise ValueError("power of a non-square matrix")
    out = Matrix.identity(T.field, T.nrows)
    for _ in range(k):
        out = out.mul(T)
    return out


def brute_kernel_dim(M, i):
    """dim ker T^i by scanning every vector (independent of rank code)."""
    field, n = M.field, M.dim
    T_i = matrix_power(M.op, i)
    count = 0
    for coords in itertools.product(range(field.p), repeat=n):
        v = field.pack(coords)
        if field.row_is_zero(T_i.apply(v)):
            count += 1
    dim = 0
    while field.p ** dim < count:
        dim += 1
    assert field.p ** dim == count
    return dim


def test_jordan_type_validation():
    J = JordanType(3, (1, 3))  # sorts itself
    assert J.parts == (3, 1)
    with pytest.raises(JordanTypeError):
        JordanType(3, (4,))
    with pytest.raises(JordanTypeError):
        JordanType(0, (1,))
    with pytest.raises(JordanTypeError):
        JordanType(3, ())


def test_delta_conjugacy():
    J = JordanType(3, (3, 1))
    assert J.delta() == (2, 1, 1)
    assert JordanType.from_delta(3, (2, 1, 1)).parts == (3, 1)
    assert JordanType.from_delta(3, (2, 1, 1), h=2) == J
    with pytest.raises(JordanTypeError):
        JordanType.from_delta(2, (1, 2))


def test_realize_shapes():
    J = JordanType(3, (3,))
    M = realize(J, F2)
    assert M.dim == 3
    assert M.op == Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    zero = realize(JordanType(3, (0, 0)), F2)
    assert zero.dim == 0


def test_jordan_type_examples():
    assert jordan_type(realize(JordanType(3, (3,)), F2)).parts == (3,)
    T0 = ConcreteModule(F2, 3, Matrix.from_rows(F2, [[0] * 3] * 3))
    assert jordan_type(T0).parts == (1, 1, 1)
    M = realize(JordanType(3, (2, 1)), F2)
    assert M.op.rank() == 1 and matrix_power(M.op, 2).rank() == 0
    assert jordan_type(M).parts == (2, 1)


def test_nilpotency_enforced():
    with pytest.raises(JordanTypeError):
        ConcreteModule(F2, 1, Matrix.from_rows(F2, [[0, 1], [0, 0]]))


@pytest.mark.parametrize("p", [2, 3])
def test_round_trip_all_small_types(p):
    field = PrimeField(p)
    for e in (1, 2, 3):
        for dim in range(7):
            for parts in partitions(dim, e):
                J = JordanType(e, parts if parts else (0,))
                assert jordan_type(realize(J, field)) == J


def test_delta_vector_and_torsion():
    M = realize(JordanType(3, (3, 1)), F2)
    assert delta_vector(M) == (2, 1, 1)
    assert torsion_flag(M, 0).is_zero()
    assert torsion_flag(M, 3).dim == 4
    assert power_image(M, 3).is_zero()
    for i in range(4):
        assert torsion_flag(M, i).dim == brute_kernel_dim(M, i)


def test_hodge_polygon_examples():
    zero = JordanType(3, (0, 0, 0))
    assert hodge_polygon(zero) == Polygon.from_d(3, [0, 0, 0])
    free = JordanType(3, (3, 3))
    assert hodge_polygon(free) == Polygon.from_d(2, [2, 2, 2])
    J = JordanType(3, (3, 1))
    hp = hodge_polygon(J)
    assert hp == Polygon.from_d(2, [2, 1, 1])
    assert dict(hp.slopes) == {Fraction(1, 3): 1, Fraction(1): 1}


def test_hodge_polygon_mass():
    for e in (2, 3):
        for parts in partitions(5, e):
            J = JordanType(e, parts)
            assert hodge_polygon(J)(J.h) * e == J.dim


def test_double_computation_identity():
    for e in (1, 2, 3):
        for dim in range(9):
            for parts in partitions(dim, e):
                h = max(1, len(parts))
                J = JordanType(e, parts + (0,) * (h - len(parts)))
                mults = {}
                for a in J.parts:
                    s = Fraction(a, e)
                    mults[s] = mults.get(s, 0) + 1
                from_parts = Polygon.from_slopes(h, mults.items(), e)
                assert hodge_polygon(J) == from_parts


@pytest.mark.parametrize("p", [2, 3])
def test_module_keeps_its_powers(p):
    field = PrimeField(p)
    for e in (1, 2, 3):
        for dim in range(7):
            for parts in partitions(dim, e):
                J = JordanType(e, parts if parts else (0,))
                M = realize(J, field)
                assert len(M.powers) == e + 1
                for i in range(e + 1):
                    assert M.powers[i] == matrix_power(M.op, i)
                assert hodge_polygon(jordan_type(M, J.h)) == hodge_polygon(J)


def quotient_module(M, S, e=None):
    """The quotient M/S (S must be T-stable), in residue coordinates: the
    library's former builder, kept as the reference for `_piece_delta`."""
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


def test_restrict_and_quotient():
    M = realize(JordanType(3, (3, 1)), F2)
    TM = power_image(M, 1)
    sub = restrict_module(M, TM, e=2)
    assert delta_vector(sub) == (1, 1)
    quo = quotient_module(M, torsion_flag(M, 1), e=2)
    assert quo.dim == 2

    not_stable = Subspace.span(F2, 4, [[0, 1, 0, 0]])  # T e_2 = e_1 escapes
    with pytest.raises(JordanTypeError):
        restrict_module(M, not_stable)
    with pytest.raises(JordanTypeError):
        quotient_module(M, not_stable)


def _assert_piece_deltas(M, S, i):
    """S is T^i-torsion and holds T^{e-i} M: both of its pieces match the
    modules built from it, at their own nilpotency bounds and at e."""
    e = M.e
    for k in {i, e} - {0}:
        assert _piece_delta(M, S, k) == delta_vector(restrict_module(M, S, e=k))
    for k in {e - i, e} - {0}:
        want = delta_vector(quotient_module(M, S, e=k))
        assert _piece_delta(M, S, k, quotient=True) == want


def test_piece_delta_matches_the_modules_on_every_pr_flag_member():
    # member i of a PR flag is T-stable, T^i M_i = 0 and T^{e-i} M <= M_i;
    # each distinct (i, M_i) of a module is checked once
    members = 0
    for field, cap in ((F2, 5), (F3, 4), (PrimeField(5), 3)):
        for e in (1, 2, 3):
            for n in range(cap + 1):
                for parts in partitions(n, e):
                    M = realize(JordanType(e, parts or (0,)), field)
                    seen = set()
                    for mu in itertools.product(range(n + 1), repeat=e):
                        if sum(mu) != n:
                            continue
                        for D in pr_all_data(M, mu):
                            seen.update(enumerate(D.flag))
                    for i, S in seen:
                        _assert_piece_deltas(M, S, i)
                    members += len(seen)
    assert members == 2913


def test_piece_delta_matches_the_modules_on_random_filtrations():
    rng = random.Random(21)
    for k in range(300):
        M, N, i = _random_valid_filtration(rng, F2 if k % 2 else F3, 6)
        _assert_piece_deltas(M, N, i)


def test_realize_shares_one_module_per_type_and_field():
    J = JordanType(3, (3, 1))
    assert realize(J, F2) is realize(J, F2)
    assert realize(J, F2) is realize(JordanType(3, (1, 3)), F2)
    assert realize(J, F3) is not realize(J, F2)


@pytest.mark.parametrize("p", [2, 3])
def test_cached_invariants_equal_those_of_a_module_built_apart(p):
    field = PrimeField(p)
    for e in (1, 2, 3):
        for dim in range(7):
            for parts in partitions(dim, e):
                M = realize(JordanType(e, parts or (0,)), field)
                apart = ConcreteModule(field, e, Matrix.from_rows(field, M.op.coord_rows(), dim))
                ranks = [P.rank() for P in apart.powers]
                assert delta_vector(M) == delta_vector(apart) == tuple(
                    a - b for a, b in zip(ranks, ranks[1:]))
                for i in range(e + 1):
                    want = image(apart.powers[i], apart.ambient())
                    assert power_image(M, i) == power_image(apart, i) == want
                    assert power_image(M, i) is power_image(M, i)
                    want = apart.powers[i].kernel()
                    assert torsion_flag(M, i) == torsion_flag(apart, i) == want
                    assert torsion_flag(M, i) is torsion_flag(M, i)


def test_realize_cache_stays_within_its_bound():
    _realize.cache_clear()
    bound = _realize.cache_info().maxsize
    keys = [
        (JordanType(e, parts + (0,) * pad), field)
        for field in (F2, F3, PrimeField(5))
        for e in (1, 2, 3, 4)
        for n in range(7)
        for parts in partitions(n, e)
        for pad in (0, 1)
        if parts or pad
    ]
    assert len(keys) > bound
    for J, field in keys:
        M = realize(J, field)
        assert _realize.cache_info().currsize <= bound
        assert jordan_type(M, J.h) == J
    assert _realize.cache_info().currsize == bound
    first = realize(*keys[0])  # evicted long ago: an equal module, built anew
    assert first == ConcreteModule(keys[0][1], keys[0][0].e, first.op)
    assert realize(*keys[-1]) is realize(*keys[-1])
