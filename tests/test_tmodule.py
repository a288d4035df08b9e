"""Jordan types, realizations and Hodge polygons."""

import itertools
from fractions import Fraction

import pytest

from prflags.gf import F2, Matrix, PrimeField
from prflags.polygon import Polygon
from prflags.tmodule import (
    ConcreteModule,
    JordanType,
    JordanTypeError,
    delta_vector,
    hodge_polygon,
    jordan_type,
    power_image,
    quotient_module,
    realize,
    restrict_module,
    torsion_flag,
)


def partitions(total, max_part):
    if total == 0:
        yield ()
        return
    for a in range(min(total, max_part), 0, -1):
        for rest in partitions(total - a, a):
            yield (a,) + rest


def brute_kernel_dim(M, i):
    """dim ker T^i by scanning every vector (independent of rank code)."""
    field, n = M.field, M.dim
    T_i = M.op.power(i)
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
    assert M.op.rank() == 1 and M.op.power(2).rank() == 0
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
    assert zero.hodge_polygon() == Polygon.from_d(3, [0, 0, 0])
    free = JordanType(3, (3, 3))
    assert free.hodge_polygon() == Polygon.from_d(2, [2, 2, 2])
    J = JordanType(3, (3, 1))
    hp = J.hodge_polygon()
    assert hp == Polygon.from_d(2, [2, 1, 1])
    assert dict(hp.slopes) == {Fraction(1, 3): 1, Fraction(1): 1}


def test_hodge_polygon_mass():
    for e in (2, 3):
        for parts in partitions(5, e):
            J = JordanType(e, parts)
            assert J.hodge_polygon()(J.h) * e == J.dim


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
                assert J.hodge_polygon() == from_parts


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
                    assert M.powers[i] == M.op.power(i)
                assert hodge_polygon(M, h=J.h) == J.hodge_polygon()


def test_hodge_h_padding():
    J = JordanType(3, (3, 1))
    padded = hodge_polygon(J, h=4)
    assert padded.h == 4
    with pytest.raises(JordanTypeError):
        hodge_polygon(J, h=1)


def test_restrict_and_quotient():
    M = realize(JordanType(3, (3, 1)), F2)
    TM = power_image(M, 1)
    sub = restrict_module(M, TM, e=2)
    assert delta_vector(sub) == (1, 1)
    quo = quotient_module(M, torsion_flag(M, 1), e=2)
    assert quo.dim == 2
    from prflags.gf import Subspace

    not_stable = Subspace.span(F2, 4, [[0, 1, 0, 0]])  # T e_2 = e_1 escapes
    with pytest.raises(JordanTypeError):
        restrict_module(M, not_stable)
    with pytest.raises(JordanTypeError):
        quotient_module(M, not_stable)
