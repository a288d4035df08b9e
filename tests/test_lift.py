"""Polynomial flags, the lifting lemma, its isotropic variant, degeneration."""

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from prflags.gf import F2, F3, Matrix, PrimeField, Subspace, preimage
from prflags.e3 import (
    AdmissibilityError,
    StrataPoint,
    enum_Y,
    enum_Yadm,
    enum_Ypol,
    in_Y,
    normal_form,
    violation,
)
from prflags.lift import (
    INEQ_LE_SPECIAL,
    INEQ_MONOTONE,
    INEQ_STEP,
    INEQ_TOP,
    POL_LBAR,
    POL_PERP,
    POL_TOP,
    Degeneration,
    LiftConstructionError,
    LiftInfeasibleError,
    LiftProblem,
    PolyMatrix,
    PolyModule,
    StratOrderError,
    TheoremGapError,
    _bilinear,
    _cleared_rank,
    _combine,
    _fiber_lifts,
    _free_module,
    _lift_solutions,
    _normal_flag,
    _omega2,
    _second_lift,
    check_isotropic_feasible,
    check_lift_feasible,
    degenerate_step,
    generic_rank,
    lift_isotropic,
    lift_subspace,
    padd,
    pconst,
    pdivmod,
    peval0,
    pmul,
    pnorm,
    perp,
    polarized_normal_form,
    standard_symplectic,
    verify_lift,
)
from prflags import lift as lift_module
from prflags.strat import leq
from prflags.tmodule import torsion_flag
from prflags.verify import (
    _extend_isotropic_to,
    _generic_chain_ok,
    _random_isotropic_flag,
    _random_lift_problem,
    _random_polarized_targets,
    _random_subspace,
    _sorted_mus,
    _special_chain_ok,
    criterion_isotropic,
    criterion_lifting_lemma,
)
from test_tmodule import matrix_power

try:
    from sympy import GF, symbols
    from sympy.polys.matrices import DomainMatrix
except ImportError:  # the sympy cross-check is optional
    DomainMatrix = None


# --- reference elimination: fraction-free, with the row content divided out --


def pgcd(a, b, p):
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    if a and a[-1] != 1:
        a = padd((), a, p, pow(a[-1], p - 2, p))
    return a


def strip_content(row, p):
    g = ()
    for e in row:
        g = pgcd(g, e, p)
    if not g or g == (1,):
        return tuple(row)
    return tuple(pdivmod(e, g, p)[0] for e in row)


def fraction_free(p, rows, ncols):
    """Fraction-free Gauss-Jordan elimination over F_p[X], rows edited in place.

    Each pivot is a shortest nonzero entry of its column; after every
    elimination step the row's content is divided out to keep degrees
    down.  Returns the (row, column) pivots; their number is the rank
    over F_p(X).
    """
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if rows[i][col] and (piv is None or len(rows[i][col]) < len(rows[piv][col])):
                piv = i
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(m):
            if i == r or not rows[i][col]:
                continue
            c = rows[i][col]
            rows[i] = [
                padd(pmul(pv, x, p), pmul(c, y, p), p, -1) for x, y in zip(rows[i], rows[r])
            ]
            rows[i] = list(strip_content(rows[i], p))
        pivots.append((r, col))
        r += 1
    return pivots


def ref_rank(p, rows, ncols):
    return len(fraction_free(p, [[pnorm(e) for e in r] for r in rows], ncols))


def test_poly_arithmetic():
    assert pmul((1, 1), (1, 1), 2) == (1, 0, 1)
    assert pdivmod((1, 0, 1), (1, 1), 2) == ((1, 1), ())
    assert pdivmod((1, 0, 1), (1, 1), 3) == ((2, 1), (2,))
    assert pgcd((1, 0, 1), (1, 1), 2) == (1, 1)
    assert pgcd((2,), (0, 1), 3) == (1,)


def test_generic_rank_examples():
    const = PolyMatrix(F2, 2, [[(1,), ()], [(1,), (1,)]])
    assert generic_rank(const) == 2
    diag = PolyMatrix(F2, 2, [[(0, 1), ()], [(), (1,)]])
    assert generic_rank(diag) == 2
    assert diag.eval0_subspace().dim == 1
    zero = PolyMatrix(F2, 3, [[(), (), ()]])
    assert generic_rank(zero) == 0
    # a genuinely rational-function-rank case over F_3
    A = PolyMatrix(F3, 2, [[(1,), (0, 1)], [(0, 1), (0, 0, 1)]])
    assert generic_rank(A) == 1  # second row = X * first row


def _degree(pm):
    """The largest degree of an entry's coefficient tuple; -1 when all are zero."""
    return max((len(e) - 1 for r in pm.rows for e in r if e), default=-1)


def _is_canonical(t, p):
    return isinstance(t, tuple) and all(0 <= x < p for x in t) and (not t or t[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_helpers_return_canonical_tuples(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    poly = st.lists(st.integers(0, p - 1), max_size=4).map(pnorm)
    a, b = data.draw(poly), data.draw(poly)
    for c in list(range(p)) + [-1]:
        s = padd(a, b, p, c)
        assert _is_canonical(s, p)
        pairs = itertools.zip_longest(a, b, fillvalue=0)
        assert s == pnorm((x + c * y) % p for x, y in pairs)
    assert _is_canonical(pmul(a, b, p), p)
    g = pgcd(a, b, p)
    assert _is_canonical(g, p)
    if b:
        q, r = pdivmod(a, b, p)
        assert _is_canonical(q, p) and _is_canonical(r, p)
        assert len(r) < len(b) and padd(pmul(q, b, p), r, p) == a
        assert not pdivmod(b, g, p)[1]


def test_poly_module_saturation():
    M = PolyModule.from_rows(F2, 2, [[(0, 1), ()]])
    assert M.rows == (((1,), ()),)
    M2 = PolyModule.from_rows(F2, 2, [[(1,), (0, 1)], [(0, 1), (1,)]])
    assert M2.nrows == 2
    assert M2.eval0_subspace().dim == 2
    # (1+X) * (1, X) generates the same generic line; saturation recovers it
    M3 = PolyModule.from_rows(F2, 2, [[(1,), (0, 1)], [(1, 1), (0, 1, 1)]])
    assert M3.nrows == 1
    assert M3.rows == (((1,), (0, 1)),)
    assert M3 == PolyModule.from_rows(F2, 2, [[(1,), (0, 1)]])
    # X * (1, X) saturates to (1, X); X * identity to the identity
    assert PolyModule.from_rows(F2, 2, [[(0, 1), (0, 0, 1)]]).rows == (((1,), (0, 1)),)
    diag = PolyModule.from_rows(F3, 2, [[(0, 1), ()], [(), (0, 1)]])
    assert diag.rows == (((1,), ()), ((), (1,)))


def _poly_rows(data, p, m, n, deg):
    poly = st.lists(st.integers(0, p - 1), max_size=deg + 1).map(pnorm)
    return [data.draw(st.lists(poly, min_size=n, max_size=n)) for _ in range(m)]


def _product_rows(data, p, n):
    """U A0 for random U (m x r) and A0 (r x n), degrees <= 1 and <= 2: of
    rank at most r, and often a proper sublattice of its saturation."""
    r = data.draw(st.integers(0, n))
    m = data.draw(st.integers(1, n + 1))
    U, A0 = _poly_rows(data, p, m, r, 1), _poly_rows(data, p, r, n, 2)
    rows = []
    for u in U:
        row = [()] * n
        for c, a in zip(u, A0):
            row = [padd(x, pmul(c, y, p), p) for x, y in zip(row, a)]
        rows.append(row)
    return rows


def _sympy_rank(p, rows, ncols):
    x = symbols("x")
    K = GF(p)[x].get_field()
    entries = [[K.from_sympy(sum(c * x**i for i, c in enumerate(e))) for e in r] for r in rows]
    return DomainMatrix(entries, (len(rows), ncols), K).rank()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generic_rank_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        rows = _product_rows(data, p, n)
    else:
        rows = _poly_rows(data, p, data.draw(st.integers(1, 5)), n, 3)
    rank = generic_rank(PolyMatrix(PrimeField(p), n, rows))
    assert rank == ref_rank(p, rows, n)
    if DomainMatrix is not None:
        assert rank == _sympy_rank(p, rows, n)


def pdet(p, M):
    """Determinant over F_p[X] by cofactor expansion along the first row."""
    if not M:
        return (1,)
    det = ()
    for j, e in enumerate(M[0]):
        if e:
            minor = [r[:j] + r[j + 1 :] for r in M[1:]]
            det = padd(det, pmul(e, pdet(p, minor), p), p, (-1) ** j)
    return det


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_saturation_matches_minor_oracle(data):
    # B = from_rows(A) spans the same F_p(X)-space as A, and the gcd of its
    # maximal minors is 1, which makes it saturated; no Hermite form used
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 4))
    A = _product_rows(data, p, n)
    B = PolyModule.from_rows(PrimeField(p), n, A).rows
    r = ref_rank(p, A, n)
    assert len(B) == ref_rank(p, B, n) == r
    assert ref_rank(p, list(B) + A, n) == r
    g = ()
    for cols in itertools.combinations(range(n), r):
        g = pgcd(g, pdet(p, [[row[c] for c in cols] for row in B]), p)
    assert g == (1,)


def test_poly_module_operations():
    T = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    W = PolyModule.constant(Subspace.span(F2, 3, [[1, 0, 0]]))
    pre = W.preimage_const(T)
    assert pre.nrows == 2
    assert pre.eval0_subspace() == Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])
    inter = pre.intersect(PolyModule.constant(Subspace.span(F2, 3, [[0, 1, 0], [0, 0, 1]])))
    assert inter.nrows == 1
    total = W.sum(pre)
    assert total.nrows == 2


def test_poly_module_is_the_poly_matrix_of_its_basis():
    # a module equals, and hashes like, the PolyMatrix of the same rows, and
    # is as immutable
    M = PolyModule.from_rows(F3, 2, [[(1,), (0, 2)], [(0, 1), ()]])
    pm = PolyMatrix(F3, 2, M.rows)
    assert isinstance(M, PolyMatrix) and M == pm and pm == M and hash(M) == hash(pm)
    with pytest.raises(AttributeError):
        M.rows = ()
    # the Gram matrix of no rows is the 0 x 0 PolyMatrix, not the module
    zero = PolyModule.constant(Subspace.zero(F2, 2))
    gram = zero.gram(Matrix.from_rows(F2, [[0, 1], [1, 0]]))
    assert type(gram) is PolyMatrix and gram.nrows == gram.ncols == 0


# --- reference lattice operations: cofactor kernels and recombination ------


def pneg(a, p):
    return padd((), a, p, -1)


def ref_right_kernel(p, rows, ncols):
    """Polynomial spanning set of {u : A u = 0} over F_p(X), by cofactors."""
    A = [[pnorm(e) for e in r] for r in rows]
    pivots = fraction_free(p, A, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        u = [() for _ in range(ncols)]
        L = (1,)
        for rr, cc in pivots:
            L = pmul(L, A[rr][cc], p)
        u[f] = L
        for rr, cc in pivots:
            if A[rr][f]:
                others = (1,)
                for r2, c2 in pivots:
                    if r2 != rr:
                        others = pmul(others, A[r2][c2], p)
                u[cc] = pneg(pmul(A[rr][f], others, p), p)
        basis.append(strip_content(u, p))
    return basis


def ref_left_kernel(p, rows, ncols):
    """Polynomial spanning set of {x : x A = 0} over F_p(X)."""
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]
    return ref_right_kernel(p, transposed, len(rows))


def ref_intersect(A, B):
    p, n = A.field.p, A.ncols
    gens = []
    for combo in ref_left_kernel(p, list(A.rows) + list(B.rows), n):
        vec = [()] * n
        for c, row in zip(combo[: A.nrows], A.rows):
            vec = [padd(v, pmul(c, e, p), p) for v, e in zip(vec, row)]
        gens.append(vec)
    return PolyModule.from_rows(A.field, n, gens)


def ref_preimage_const(W, T):
    p, n = W.field.p, W.ncols
    rows = [[pconst(c, p) for c in r] for r in T.transpose().coord_rows()]
    rows += [[pneg(e, p) for e in r] for r in W.rows]
    gens = [combo[:n] for combo in ref_left_kernel(p, rows, n)]
    return PolyModule.from_rows(W.field, n, gens)


def _operator(data, field, n):
    vec = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
    return Matrix.from_rows(field, [data.draw(vec) for _ in range(n)], n)


def _poly_module(data, field, n):
    poly = st.lists(st.integers(0, field.p - 1), max_size=3).map(tuple)
    row = st.lists(poly, min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=1, max_size=n))
    return PolyModule.from_rows(field, n, rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_operations_match_cofactor_reference(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3])))
    n = data.draw(st.integers(1, 4))
    A = _poly_module(data, field, n)
    B = _poly_module(data, field, n)
    T = _operator(data, field, n)
    assert A.intersect(B) == ref_intersect(A, B)
    assert A.preimage_const(T) == ref_preimage_const(A, T)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fiber_lifts_match_brute_force(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3])))
    p, n = field.p, data.draw(st.integers(1, 4))
    # a constant module takes its lifts from its own rows, without an rref
    if data.draw(st.booleans()):
        M = PolyModule.constant(_subspace(data, field, n))
    else:
        M = _poly_module(data, field, n)
    fiber, lifts = _fiber_lifts(M)
    assert fiber == M.eval0_subspace()
    assert tuple(k for k, _ in lifts) == fiber.pivots
    # every combination of the basis with constant coefficients, by reduction
    zero = ((),) * n
    elements = {}
    for coeffs in itertools.product(range(p), repeat=M.nrows):
        elem = zero
        for c, b in zip(coeffs, M.rows):
            elem = tuple(padd(x, y, p, c) for x, y in zip(elem, b))
        elements[field.pack([peval0(e) for e in elem])] = elem
    # the reductions of a saturated basis are independent
    assert len(elements) == p**M.nrows
    assert set(elements) == set(fiber.vectors())
    for v, elem in elements.items():
        assert _combine(field, zero, lifts, v) == elem


def _subspace(data, field, n):
    vec = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
    return Subspace.span(field, n, data.draw(st.lists(vec, max_size=n)))


def _constant_flag(data, field, n):
    """A random chain of subspaces from 0 to F_p^n, both ends included."""
    vec = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
    S = Subspace.zero(field, n)
    flag = [S]
    for v in data.draw(st.lists(vec, max_size=n)):
        S = S.sum(Subspace.span(field, n, [v]))
        flag.append(S)
    return flag + [Subspace.full(field, n)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cleared_rank_equals_the_stacked_reference(data):
    # dim(L meet S) from rows cleared at S's pivots, against the rank of
    # the rows stacked over S; the rows may be dependent or of degree 3
    p = data.draw(st.sampled_from([2, 3, 5]))
    field, n = PrimeField(p), data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        rows = _product_rows(data, p, n)
    else:
        rows = _poly_rows(data, p, data.draw(st.integers(1, 4)), n, 3)
    module = PolyModule.from_rows(field, n, rows)
    r = ref_rank(p, rows, n)
    for S in _constant_flag(data, field, n):
        constant = [[pconst(c, p) for c in b] for b in S.basis_coords()]
        stacked = ref_rank(p, rows + constant, n)
        assert len(rows) - _cleared_rank(rows, S) == len(rows) + S.dim - stacked
        assert module.generic_meet_dim(S) == r + S.dim - stacked


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_constant_lattice_operations_match_gf(data):
    field = PrimeField(data.draw(st.sampled_from([2, 3, 5])))
    n = data.draw(st.integers(1, 4))
    A, B = _subspace(data, field, n), _subspace(data, field, n)
    T = _operator(data, field, n)
    PA = PolyModule.constant(A)
    assert PA == PolyModule.from_rows(field, n, [[pconst(c, field.p) for c in r] for r in A.basis_coords()])
    assert _fiber_lifts(PA)[0] == A
    assert PA.intersect(PolyModule.constant(B)) == PolyModule.constant(A.intersect(B))
    assert PA.preimage_const(T) == PolyModule.constant(preimage(T, A))


def test_lift_trivial_no_deformation():
    flag = (Subspace.span(F2, 2, [[1, 0]]), Subspace.full(F2, 2))
    L = Subspace.span(F2, 2, [[1, 0]])
    prob = LiftProblem(flag, L, (1, 1))
    pm = lift_subspace(prob)
    assert _degree(pm) == 0
    assert verify_lift(prob, pm).ok


def test_lift_hand_derived_case():
    # l=2, h=(1,2), Lbar=span{e1}, d=(1,1), d'=(0,1): basis {e1 + X e2}
    flag = (Subspace.span(F2, 2, [[1, 0]]), Subspace.full(F2, 2))
    L = Subspace.span(F2, 2, [[1, 0]])
    prob = LiftProblem(flag, L, (0, 1))
    pm = lift_subspace(prob)
    assert pm.rows == (((1,), (0, 1)),)
    report = verify_lift(prob, pm)
    assert report.ok
    assert report.generic_dims == (0, 1)


def test_verify_lift_refuses_wrong_lifts():
    line = Subspace.span(F2, 2, [[1, 0]])
    prob = LiftProblem((line, Subspace.full(F2, 2)), line, (0, 1))
    # the constant lift stays inside the first member: dims (1, 1)
    rep = verify_lift(prob, PolyMatrix(F2, 2, [[(1,), ()]]))
    assert rep.generic_dims == (1, 1) and rep.special_fiber_ok and rep.direct_summand_ok
    assert not rep.ok
    # X e1 reduces to 0 at X = 0, so it is no direct summand
    rep = verify_lift(prob, PolyMatrix(F2, 2, [[(0, 1), ()]]))
    assert not rep.direct_summand_ok and not rep.ok
    # e2 + X e1 lifts span e2 with the right generic dims
    rep = verify_lift(prob, PolyMatrix(F2, 2, [[(0, 1), (1,)]]))
    assert rep.generic_dims == (0, 1) and rep.direct_summand_ok
    assert not rep.special_fiber_ok and not rep.ok


def test_lift_feasibility_names():
    flag = (
        Subspace.span(F2, 3, [[1, 0, 0]]),
        Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]]),
        Subspace.full(F2, 3),
    )
    L12 = Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])  # dims (1, 2, 2)
    L13 = Subspace.span(F2, 3, [[1, 0, 0], [0, 0, 1]])  # dims (1, 1, 2)

    with pytest.raises(LiftInfeasibleError) as err:
        check_lift_feasible(LiftProblem(flag, L12, (1, 2, 1)))
    assert err.value.constraint == INEQ_TOP
    with pytest.raises(LiftInfeasibleError) as err:
        check_lift_feasible(LiftProblem(flag, L12, (1, 0, 2)))
    assert err.value.constraint == INEQ_MONOTONE
    with pytest.raises(LiftInfeasibleError) as err:
        check_lift_feasible(LiftProblem(flag, L13, (0, 2, 2)))
    assert err.value.constraint == INEQ_STEP
    with pytest.raises(LiftInfeasibleError) as err:
        check_lift_feasible(LiftProblem(flag, L13, (1, 2, 2)))
    assert err.value.constraint == INEQ_LE_SPECIAL


def test_lift_longer_flag_with_verifier():
    flag = (
        Subspace.span(F3, 4, [[1, 0, 0, 0]]),
        Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
        Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        Subspace.full(F3, 4),
    )
    L = Subspace.span(F3, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    # drop the two lower intersections as far as the step bounds allow
    prob = LiftProblem(flag, L, (0, 1, 2, 3))
    pm = lift_subspace(prob)
    assert verify_lift(prob, pm).ok


def test_isotropic_trivial_and_hand_case():
    # g=2, hyperbolic F_2^4: e1,e2,f1,f2 with <e_i, f_i> = 1
    Phi = Matrix.from_rows(
        F2,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    )
    M1 = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])  # Lagrangian
    flag = (M1, Subspace.full(F2, 4))
    # d' = d: constant Lagrangian lift
    L = M1
    prob = LiftProblem(flag, L, (2, 2), pairing=Phi)
    pm = lift_isotropic(prob)
    assert _degree(pm) == 0
    rep = verify_lift(prob, pm)
    assert rep.ok and rep.gram_zero

    # Lbar = span{e1, f2}, drop the M1-intersection from 1 to 0
    L = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    prob = LiftProblem(flag, L, (0, 2), pairing=Phi)
    pm = lift_isotropic(prob)
    rep = verify_lift(prob, pm)
    assert rep.ok and rep.gram_zero
    assert _degree(pm) == 1


def test_isotropic_lift_needs_a_zero_gram_matrix():
    # F_3^2, flag (span e1, F_3^2), special span e1, targets (0, 1): the
    # one lifted row e1 + c X e2 pairs with itself to 2 c X under the
    # symmetric form.  The search pairs a row only with the rows before it,
    # so the Gram test alone refuses it; under an alternating form it is 0.
    line = Subspace.span(F3, 2, [[1, 0]])
    flag = (line, Subspace.full(F3, 2))
    symmetric = LiftProblem(flag, line, (0, 1), pairing=Matrix.from_rows(F3, [[0, 1], [1, 0]]))
    check_isotropic_feasible(symmetric)
    with pytest.raises(LiftConstructionError, match="no isotropic lift found"):
        lift_isotropic(symmetric)
    alternating = LiftProblem(flag, line, (0, 1), pairing=Matrix.from_rows(F3, [[0, 1], [2, 0]]))
    rep = verify_lift(alternating, lift_isotropic(alternating))
    assert rep.ok and rep.gram_zero


def test_isotropic_feasibility_names():
    Phi = Matrix.from_rows(
        F2,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    )
    M1 = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    flag = (M1, Subspace.full(F2, 4))
    L = M1
    with pytest.raises(LiftInfeasibleError) as err:
        check_isotropic_feasible(LiftProblem(flag, L, (2, 2)))
    # no pairing at all
    assert err.value.constraint == "pairing is perfect"
    with pytest.raises(LiftInfeasibleError) as err:
        check_isotropic_feasible(LiftProblem(flag, L, (1, 1), pairing=Phi))
    assert err.value.constraint == POL_TOP
    not_lagrangian = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(LiftInfeasibleError) as err:
        check_isotropic_feasible(LiftProblem(flag, not_lagrangian, (1, 2), pairing=Phi))
    assert err.value.constraint == POL_LBAR
    bad_flag = (Subspace.span(F2, 4, [[1, 0, 0, 0]]), Subspace.full(F2, 4))
    with pytest.raises(LiftInfeasibleError) as err:
        check_isotropic_feasible(LiftProblem(bad_flag, L, (1, 2), pairing=Phi))
    assert err.value.constraint == POL_PERP


# --- reference lift search: two branches per level --------------------------


def ref_lift_solutions(flag, special, targets, pairing=None, node_cap=500000):
    """All lifts of `special` along a module flag, lazily, backtrackably:
    the search as it was before its two branches per level became one
    loop, kept as the reference `_lift_solutions` must match solution for
    solution and in where its node budget runs out.

    Each flag member is given by its `_fiber_lifts` pair, so a caller
    that reuses a module computes the pair once.  Yields lists of
    polynomial rows.  With a `pairing`, every finalized row must pair to
    zero with the rows finalized before it (isotropy); the first yielded
    solution is the plain greedy one.
    """
    field = special.field
    n = special.n
    l = len(flag)
    budget = [node_cap]
    zero = ((),) * n
    # per level, once: lifts of the special vectors new at that level, the
    # span perturbations must avoid, and the fiber lifts times X
    fibers, levels = [], []
    prev_cut = Subspace.zero(field, n)
    for fib, lifts in flag:
        cut = special.intersect(fib)
        bases = [_combine(field, zero, lifts, w) for w in prev_cut.complement_in(cut)]
        avoid0 = fibers[-1].sum(cut) if fibers else cut
        shifted = [(k, tuple((0,) + e if e else () for e in t)) for k, t in lifts]
        fibers.append(fib)
        levels.append((bases, avoid0, shifted))
        prev_cut = cut

    Phi = None if pairing is None else pairing.coord_rows()

    def pair_ok(f, finals):
        return Phi is None or all(not _bilinear(f, g, Phi, field.p) for g in finals)

    def rec(i, rows, pending, finals):
        # rows: the rows so far; pending: ids of rows awaiting a perturbation
        if budget[0] <= 0:
            raise LiftConstructionError("search budget exhausted")
        budget[0] -= 1
        if i == l:
            if not pending:
                yield list(rows)
            return
        bases, avoid0, shifted = levels[i]
        k_i = len(bases)
        keep = targets[i] - (targets[i - 1] if i else 0)
        if keep < 0:
            return
        if keep <= k_i:
            for subset in itertools.combinations(range(k_i), keep):
                chosen = set(subset)
                rows2 = list(rows)
                pending2 = list(pending)
                finals2 = list(finals)
                ok = True
                for idx in range(k_i):
                    base = bases[idx]
                    if idx in chosen:
                        if not pair_ok(base, finals2):
                            ok = False
                            break
                        rows2.append(base)
                        finals2.append(base)
                    else:
                        pending2.append(len(rows2))
                        rows2.append(base)  # perturbation appended later
                if ok:
                    yield from rec(i + 1, rows2, pending2, finals2)
        else:
            q = keep - k_i
            if q > len(pending):
                return
            rows2 = list(rows)
            finals_base = list(finals)
            for base in bases:
                if not pair_ok(base, finals_base):
                    return
                rows2.append(base)
                finals_base.append(base)

            def assign(j, rows3, finals3, avoid):
                if j == q:
                    yield from rec(i + 1, rows3, list(pending[q:]), finals3)
                    return
                rid = pending[j]
                for v in fibers[i].vectors():
                    if avoid.contains_row(v):
                        continue
                    f = _combine(field, rows3[rid], shifted, v)
                    if not pair_ok(f, finals3):
                        continue
                    rows4 = list(rows3)
                    rows4[rid] = f
                    yield from assign(
                        j + 1,
                        rows4,
                        finals3 + [f],
                        Subspace(field, n, avoid.rows + (v,)),
                    )

            try:
                yield from assign(0, rows2, finals_base, avoid0)
            finally:
                assign = None  # it refers to itself: break the cycle

    try:
        yield from rec(0, [], [], [])
    finally:
        rec = None  # likewise, so a finished search leaves no cyclic garbage


def _random_isotropic_problem(rng, field):
    """A random isotropic lift problem from verify's generators, or None;
    its targets need not be feasible."""
    g = rng.randint(1, 2)
    Phi = standard_symplectic(field, g, 1)[1]
    flag = _random_isotropic_flag(rng, field, Phi, g, rng.randint(2, 4))
    L = _extend_isotropic_to(rng, field, Phi, Subspace.zero(field, 2 * g), g)
    targets = _random_polarized_targets(rng, flag, L, g)
    return None if targets is None else LiftProblem(flag, L, targets, pairing=Phi)


def _random_search_problems(seed, plain, isotropic):
    rng = random.Random(seed)
    problems = [_random_lift_problem(rng, (F2, F3)[k % 2]) for k in range(plain)]
    k = 0
    while len(problems) < plain + isotropic:
        k += 1
        prob = _random_isotropic_problem(rng, (F2, F3)[k % 2])
        if prob is not None:
            problems.append(prob)
    return problems


def _drawn(search, limit):
    """The first `limit` solutions of a search, then "exhausted" if its
    budget ran out before it ended or reached the limit."""
    out = []
    try:
        for rows in search:
            out.append(rows)
            if len(out) == limit:
                break
    except LiftConstructionError:
        out.append("exhausted")
    return out


def _both_searches(prob, limit, node_cap=500000):
    flag = [_fiber_lifts(PolyModule.constant(F)) for F in prob.flag]
    args = (flag, prob.special, prob.targets, prob.pairing)
    return (
        _drawn(_lift_solutions(*args), limit),
        _drawn(ref_lift_solutions(*args, node_cap=node_cap), limit),
    )


def test_lift_search_yields_the_reference_sequence():
    perturbed = isotropic_solutions = 0
    for prob in _random_search_problems(15, 600, 100):
        got, want = _both_searches(prob, 51)
        assert got == want
        solutions = [rows for rows in got if rows != "exhausted"]
        perturbed += any(_degree(PolyMatrix(prob.special.field, prob.special.n, rows)) > 0
                         for rows in solutions)
        isotropic_solutions += prob.pairing is not None and bool(solutions)
    # both kinds of level occur: some solutions carry X-perturbations
    assert perturbed > 0 and isotropic_solutions > 0


def test_lift_search_exhausts_its_budget_where_the_reference_does(monkeypatch):
    problems = _random_search_problems(16, 300, 60)
    exhausted = 0
    for cap in (1, 3, 7, 20):
        monkeypatch.setattr(lift_module, "_NODE_CAP", cap)
        for prob in problems:
            got, want = _both_searches(prob, None, node_cap=cap)
            assert got == want
            exhausted += got[-1:] == ["exhausted"]
    assert exhausted > 0


# every problem criteria 6 and 7 hand to lift at seed 7, taken before the
# generators stopped building the subspaces they discard
VERIFY_INSTANCES_SHA256 = "8e2248f5435c119d49147e77fdb32dd119d58a67901712c54a91106535b2fba5"


def test_verify_draws_the_pinned_lift_instances(monkeypatch):
    records = []

    def recording(fn):
        def wrapped(prob):
            records.append(repr((
                prob.special.field.p,
                [F.basis_coords() for F in prob.flag],
                prob.special.basis_coords(),
                prob.targets,
            )))
            return fn(prob)
        return wrapped

    for name in ("check_lift_feasible", "lift_isotropic"):
        monkeypatch.setattr(lift_module, name, recording(getattr(lift_module, name)))
    assert criterion_lifting_lemma(7)[0] and criterion_isotropic(7)[0]
    assert len(records) == 1006
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == VERIFY_INSTANCES_SHA256


@pytest.mark.parametrize("p", [2, 3])
def test_random_subspace_stalls_after_201_draws(p):
    n = 3
    rng, twin = random.Random(5), random.Random(5)
    with pytest.raises(RuntimeError, match="^random subspace generation stalled$"):
        _random_subspace(rng, Subspace.zero(PrimeField(p), n), n + 1)
    for _ in range(201 * n):
        twin.randrange(p)
    assert rng.getstate() == twin.getstate()


def ref_extend_isotropic_to(rng, field, Phi, cur, dim):
    """The draw as it was first written: list the perp's vectors in
    `vectors()` order and skip to the i-th one outside cur."""
    p = field.p
    while cur.dim < dim:
        pp = perp(cur, Phi)
        i = rng.randrange(p**pp.dim - p**cur.dim)
        residues = map(cur.reduce_row, pp.vectors())
        outside = (r for r in residues if not field.row_is_zero(r))
        cur = cur._plus_residue(next(itertools.islice(outside, i, None)))
    return cur


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_extend_isotropic_matches_the_list_and_skip_draw(p, g):
    field = PrimeField(p)
    Phi = standard_symplectic(field, g, 1)[1]
    seeds = random.Random(10 * p + g)
    for start in range(g + 1):
        for _ in range(4):
            cur = ref_extend_isotropic_to(
                random.Random(seeds.getrandbits(32)), field, Phi, Subspace.zero(field, 2 * g), start
            )
            for dim in range(start, g + 1):
                seed = seeds.getrandbits(32)
                rng, twin = random.Random(seed), random.Random(seed)
                got = _extend_isotropic_to(rng, field, Phi, cur, dim)
                want = ref_extend_isotropic_to(twin, field, Phi, cur, dim)
                assert got == want and got.dim == dim
                assert rng.getstate() == twin.getstate()


def test_perp():
    Phi = Matrix.from_rows(
        F2,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
    )
    e1 = Subspace.span(F2, 4, [[1, 0, 0, 0]])
    assert perp(e1, Phi) == Subspace.span(
        F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert perp(Subspace.zero(F2, 4), Phi).dim == 4


def test_standard_symplectic_compatibilities():
    for g in (1, 2):
        T, Phi = standard_symplectic(F2, g, 3)
        n = 6 * g
        assert Phi.rank() == n
        rows = Phi.coord_rows()
        for i in range(n):
            assert rows[i][i] == 0  # alternating
        # T is self-adjoint for the form
        def as_polys(packed):
            return [pconst(c, 2) for c in F2.unpack(packed, n)]

        for i in range(n):
            for j in range(n):
                u, w = F2.unit_row(n, i), F2.unit_row(n, j)
                assert _bilinear(as_polys(T.apply(u)), as_polys(w), rows, 2) == \
                    _bilinear(as_polys(u), as_polys(T.apply(w)), rows, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_module_for_every_e(p):
    # (k[T]/T^e)^h for e <= 3, plain at h <= 4 and polarized at g <= 2:
    # T^e = 0 (and T^{e-1} != 0), rank T = (e-1) h, ker T^i of dimension
    # i h, and a pairing that is nondegenerate, alternating (Phi^t = -Phi,
    # zero diagonal: over F_2 the sign alone shows nothing) and makes T
    # self-adjoint, with <T^a e_i, T^c f_i> = 1 exactly when a + c = e - 1
    field = PrimeField(p)
    for e, h, polarized in itertools.product((1, 2, 3), (1, 2, 3, 4), (False, True)):
        if polarized and h % 2:
            continue
        M, pairing, kernels = _free_module(field, h, polarized, e)
        T, n = M.op, e * h
        assert (M.field, M.e, M.dim) == (field, e, n)
        assert matrix_power(T, e).rank() == 0 < matrix_power(T, e - 1).rank()
        assert T.rank() == (e - 1) * h
        for i in range(1, e):
            assert torsion_flag(M, i) == matrix_power(T, i).kernel()
            assert kernels[i - 1] == PolyModule.constant(torsion_flag(M, i))
            assert kernels[i - 1].nrows == i * h
        assert len(kernels) == e - 1
        if not polarized:
            assert pairing is None
            continue
        g = h // 2
        assert (T, pairing) == standard_symplectic(field, g, e)
        assert pairing.rank() == n
        Phi, Tc = pairing.coord_rows(), T.coord_rows()
        for i, j in itertools.product(range(n), repeat=2):
            assert Phi[i][j] == (-Phi[j][i]) % p
            # (T^t Phi)_{ij} == (Phi T)_{ij}: <T u, w> == <u, T w>
            assert sum(Tc[k][i] * Phi[k][j] for k in range(n)) % p == \
                sum(Phi[i][k] * Tc[k][j] for k in range(n)) % p
        for i, a, c in itertools.product(range(g), range(e), range(e)):
            assert Phi[e * i + a][e * (g + i) + c] == int(a + c == e - 1)


def test_polarized_normal_forms_g1():
    T, Phi = standard_symplectic(F2, 1, 3)
    for y in enum_Ypol(1):
        w1, w2, w = polarized_normal_form(y, F2)
        assert w.dim == 3 and w1.dim == 1 and w2.dim == 2
        assert perp(w1, Phi).contains(w1)
        assert perp(w, Phi) == w  # maximal isotropic
        from prflags.gf import preimage

        assert perp(w1, Phi) == preimage(matrix_power(T, 2), w1)
        assert perp(w2, Phi) == preimage(T, w2)


def test_degenerate_step_worked_example():
    pts = enum_Yadm(2, (1, 1, 1))
    y_from = next(
        p for p in pts if p.delta == (2, 1, 0) and p.alpha[0] == 2 and p.beta[0] == 2
    )
    y_to = next(p for p in pts if p.delta == (1, 1, 1))
    res = degenerate_step(y_from, y_to, F2)
    assert isinstance(res, Degeneration)
    assert res.generic == y_to
    assert all(type(w) is PolyModule for w in (res.omega1, res.omega2, res.omega))
    assert _generic_chain_ok(res)
    assert _special_chain_ok(res)
    # omega is not inside omega_2, so a chain starting at omega is no PR datum
    assert not _generic_chain_ok(dataclasses.replace(res, omega1=res.omega))
    # a special fiber of type (2, 0, 1) is not the normal form of y_from
    assert not _special_chain_ok(dataclasses.replace(res, omega1=res.omega2))
    # a repeated row leaves the special fiber short of full rank
    assert (res.module.e, res.module.dim) == (3, 6)
    doubled = PolyMatrix(F2, res.module.dim, res.omega.rows + res.omega.rows[:1])
    assert not _special_chain_ok(dataclasses.replace(res, omega=doubled))
    assert res.omega.eval0_subspace().dim == 3
    data = res.to_json_dict()
    assert data["to"] == y_to.to_json_dict()


def test_degenerate_step_trivial_is_constant():
    pts = enum_Yadm(2, (1, 1, 1))
    y = next(p for p in pts if p.delta == (2, 1, 0) and p.alpha[0] == 2 and p.beta[0] == 2)
    res = degenerate_step(y, y, F2)
    assert _degree(res.omega) <= 0
    assert res.generic == y


def test_degenerate_step_refuses_incomparable():
    pts = enum_Yadm(2, (1, 1, 1))
    m1 = next(p for p in pts if p.alpha[0] == 2 and p.beta[0] == 1)
    m2 = next(p for p in pts if p.alpha[0] == 1 and p.beta[0] == 2)
    with pytest.raises(StratOrderError):
        degenerate_step(m1, m2, F2)
    bottom = next(p for p in pts if p.delta == (1, 1, 1))
    with pytest.raises(StratOrderError):
        degenerate_step(bottom, m1, F2)  # wrong direction


def test_order_and_admissibility_give_the_final_lift_bounds():
    # the bounds degenerate_step leaves to its gate hold on every ordered pair
    pairs = 0
    for h in range(1, 6):
        for mu in _sorted_mus(h):
            pts = enum_Yadm(h, mu)
            for y, yp in itertools.product(pts, repeat=2):
                if not leq(y, yp):
                    continue
                pairs += 1
                (D1, D2, _), (A1, A2), (B1, _) = y.delta, y.alpha, y.beta
                (D1p, D2p, _), (B1p, _) = yp.delta, yp.beta
                assert D1 + A2 <= min(D1p + A2, B1p + mu[0])
                assert B1 <= B1p
                assert D1 + D2 <= min(D1p + D2p, A1 + B1p)
    assert pairs == 1254


def _no_search(*args):
    raise AssertionError("degenerate_step searched a refused pair")


def test_degenerate_step_refuses_targets_outside_yadm(monkeypatch):
    # in Y but not admissible: refused by the integer gate
    y_from = StrataPoint(2, (1, 1, 1), (2, 1, 0), (2, 0), (1, 1))
    y_to = StrataPoint(2, (1, 1, 1), (2, 1, 0), (1, 1), (1, 1))
    assert violation(y_from) is None and in_Y(y_to) and leq(y_to, y_from)
    with pytest.raises(StratOrderError, match="fails delta1"):
        degenerate_step(y_from, y_to, F2)
    # outside Y but meeting the inequality: refused before any search
    y_from = StrataPoint(2, (2, 2, 2), (2, 2, 2), (2, 2), (2, 2))
    y_to = StrataPoint(2, (2, 2, 2), (2, 2, 2), (2, 2), (2, 1))
    assert violation(y_from) is None and violation(y_to) == "sum(beta) == d2+d3"
    assert y_to.delta[0] + max(y_to.mu[1], y_to.delta[1]) <= y_to.alpha[0] + y_to.beta[0]
    assert leq(y_to, y_from)
    with monkeypatch.context() as m:
        m.setattr("prflags.lift._normal_flag", _no_search)
        m.setattr("prflags.lift._second_lift", _no_search)
        with pytest.raises(StratOrderError, match=r"y_to .* fails sum\(beta\) == d2\+d3$"):
            degenerate_step(y_from, y_to, F2)
    # every target in Y but not admissible at h <= 3, under each admissible source above it
    refused = 0
    for h in (1, 2, 3):
        for mu in _sorted_mus(h):
            sources = enum_Yadm(h, mu)
            for y_to in enum_Y(h, mu):
                for y_from in sources:
                    if violation(y_to) is None or not leq(y_to, y_from):
                        continue
                    with pytest.raises(StratOrderError):
                        degenerate_step(y_from, y_to, F2)
                    refused += 1
    assert refused == 39


def test_degenerate_step_refuses_sources_outside_yadm():
    # a source in Y but not admissible has no normal form; the gate refuses it
    refused = 0
    for h in (1, 2, 3):
        for mu in _sorted_mus(h):
            targets = enum_Yadm(h, mu)
            for y_from in enum_Y(h, mu):
                if violation(y_from) is None:
                    continue
                for y_to in targets:
                    if leq(y_to, y_from):
                        with pytest.raises(StratOrderError, match="y_from .* fails delta1"):
                            degenerate_step(y_from, y_to, F2)
                        refused += 1
    assert refused == 25


def test_every_refusal_names_the_failed_condition(monkeypatch):
    # normal_form, both points of degenerate_step (plain and polarized) and
    # polarized_normal_form name what violation returns, before any search
    monkeypatch.setattr("prflags.lift._normal_flag", _no_search)
    monkeypatch.setattr("prflags.lift._second_lift", _no_search)

    def refusal(fn, *args):
        with pytest.raises(StratOrderError) as err:
            fn(*args)
        return str(err.value)

    refused = {"normal_form": 0, "y_from": 0, "y_to": 0, "polarized_normal_form": 0}
    for h in (1, 2):
        desc = lambda k: itertools.combinations_with_replacement(range(h, -1, -1), k)
        for mu in _sorted_mus(h):
            for vectors in itertools.product(desc(3), desc(2), desc(2)):
                pt = StrataPoint(h, mu, *vectors)
                for polarized in (False, True):
                    failed = violation(pt, polarized)
                    if failed is None:
                        continue
                    fails = "%r fails %s" % (pt.sort_key(), failed)
                    # leq is reflexive, so the gate reaches the source
                    assert refusal(degenerate_step, pt, pt, F2, polarized) == "y_from " + fails
                    refused["y_from"] += 1
                    g = h // 2
                    sources = enum_Ypol(g) if polarized and mu == (g, g, g) and h == 2 * g else []
                    for y_from in sources if polarized else enum_Yadm(h, mu):
                        if leq(pt, y_from):
                            assert refusal(degenerate_step, y_from, pt, F2, polarized) == "y_to " + fails
                            refused["y_to"] += 1
                    if polarized:
                        assert refusal(polarized_normal_form, pt, F2) == "point " + fails
                        refused["polarized_normal_form"] += 1
                    else:
                        with pytest.raises(AdmissibilityError) as err:
                            normal_form(pt, F2)
                        assert err.value.inequality == failed
                        refused["normal_form"] += 1
    assert all(refused.values()), refused


def test_degenerate_step_polarized_g1():
    pol = enum_Ypol(1)
    _, Phi = standard_symplectic(F2, 1, 3)
    for y1 in pol:
        for y2 in pol:
            if leq(y2, y1):
                res = degenerate_step(y1, y2, F2, polarized=True)
                assert res.generic == y2
                assert _generic_chain_ok(res)
                assert _special_chain_ok(res)
                gram = res.omega.gram(Phi)
                assert all(not e for r in gram.rows for e in r)


def _stratum_pairs(field, hs):
    """Every pair, ordered or not, of points of Y^adm(h, mu), h in hs."""
    return [
        (a, b, field, False)
        for h in hs
        for mu in _sorted_mus(h)
        for a, b in itertools.product(enum_Yadm(h, mu), repeat=2)
    ]


def _polarized_pairs(field):
    """Every pair, ordered or not, of points of Y^pol(g), g <= 2."""
    return [
        (a, b, field, True) for g in (1, 2) for a, b in itertools.product(enum_Ypol(g), repeat=2)
    ]


def _degenerate_family():
    """Every ordered and unordered pair at h <= 3 over F_2 and F_3, and every
    polarized pair at g <= 2 over F_2."""
    return _stratum_pairs(F2, (1, 2, 3)) + _stratum_pairs(F3, (1, 2, 3)) + _polarized_pairs(F2)


def _degenerate_rest():
    """The other pairs of the 1,290-pair family: h <= 3 over F_5, h = 4
    over F_2, and every polarized pair at g <= 2 over F_3."""
    return (
        _stratum_pairs(PrimeField(5), (1, 2, 3))
        + _stratum_pairs(F2, (4,))
        + _polarized_pairs(F3)
    )


def _degenerate_outcome(y_from, y_to, field, polarized):
    try:
        res = degenerate_step(y_from, y_to, field, polarized=polarized)
    except StratOrderError as exc:
        return "refused: %s" % exc
    return json.dumps(res.to_json_dict(), sort_keys=True)


# re-pinned when stage b gained the member E: over F_2 and F_3, the two
# targets (2,1,1)|(2,1)|(1,1) and (2,2,0)|(2,1)|(2,0) of (3,1,0)|(3,0)|(2,0)
# at h = 3, mu = (2, 1, 1) now take other lifts that also reach them
DEGENERATE_FAMILY_SHA256 = "cdb1448c0ecd9ec27299dcbecbae3c0bb4ad733381bd4369f46586d6c1afc974"


# re-pinned when stage b gained the member E: the same two pairs over F_5
# and 20 pairs over F_2 at h = 4 now take other lifts that also reach y_to
DEGENERATE_REST_SHA256 = "1e32e598d2c6c888c18c13689f5b1124b04879639d64b82e7c0d30e38cc04641"


def _clear_degenerate_caches():
    # every lru_cache that prflags.lift defines, so that none leaks warm
    # entries into a cold-cache test
    for obj in vars(lift_module).values():
        if hasattr(obj, "cache_clear") and obj.__module__ == lift_module.__name__:
            obj.cache_clear()


def test_no_lift_search_gets_decreasing_targets(monkeypatch):
    # level i of `_lift_solutions` keeps targets[i] - targets[i - 1] rows,
    # and its docstring proves that no caller makes this negative; with cold
    # caches, every search of these families gets non-decreasing targets
    seen = []
    search = lift_module._lift_solutions

    def recorded(flag, special, targets, pairing=None):
        seen.append(tuple(targets))
        return search(flag, special, targets, pairing)

    monkeypatch.setattr(lift_module, "_lift_solutions", recorded)
    _clear_degenerate_caches()
    families = [(F2, h) for h in range(1, 5)] + [(F3, h) for h in range(1, 4)]
    for field, h in families:
        for mu in _sorted_mus(h):
            pts = enum_Yadm(h, mu)
            for a, b in itertools.product(pts, repeat=2):
                if leq(b, a):
                    degenerate_step(a, b, field)
    for g in (1, 2):
        pts = enum_Ypol(g)
        for a, b in itertools.product(pts, repeat=2):
            if leq(b, a):
                degenerate_step(a, b, F2, polarized=True)
    assert criterion_lifting_lemma(7)[0] and criterion_isotropic(7)[0]
    assert len(seen) > 1000
    assert all(t[0] >= 0 and all(x <= y for x, y in zip(t, t[1:])) for t in seen)


def test_a_first_lift_that_misses_y_to_is_a_theorem_gap(monkeypatch):
    # stage c draws once: a generic point other than y_to is reported, not
    # passed over for a later lift
    _clear_degenerate_caches()
    try:
        for pts, polarized in ((enum_Yadm(2, (1, 1, 1)), False), (enum_Ypol(1), True)):
            y_from, y_to = next((a, b) for a in pts for b in pts if a != b and leq(b, a))
            other = next(y for y in pts if y != y_to)
            drawn = []
            monkeypatch.setattr(
                lift_module, "_generic_point", lambda *args: drawn.append(args) or other
            )
            with pytest.raises(TheoremGapError) as err:
                degenerate_step(y_from, y_to, F2, polarized)
            monkeypatch.undo()
            assert len(drawn) == 1
            assert str(err.value) == "the first lift realized %r, not %r, from %r" % (
                other.sort_key(), y_to.sort_key(), y_from.sort_key()
            )
            assert degenerate_step(y_from, y_to, F2, polarized).generic == y_to
    finally:
        _clear_degenerate_caches()


def test_degenerate_step_results_pinned_with_cold_and_warm_caches():
    pairs = _degenerate_family()
    _clear_degenerate_caches()
    cold = [_degenerate_outcome(*pair) for pair in pairs]
    digest = hashlib.sha256("\n".join(cold).encode()).hexdigest()
    assert (len(pairs), sum(c.startswith("{") for c in cold)) == (454, 269)
    assert digest == DEGENERATE_FAMILY_SHA256
    caches = (_free_module, _normal_flag, _second_lift, _omega2)
    assert tuple(c.cache_info().currsize for c in caches) == (8, 136, 115, 77)
    warm = [_degenerate_outcome(*pair) for pair in reversed(pairs)]
    assert warm[::-1] == cold


def test_degenerate_step_results_pinned_over_f5_h4_and_polarized_f3():
    # 169 pairs over F_5, 551 over F_2 at h = 4 and 116 polarized over F_3:
    # with the family above, all 1,290 pairs are pinned
    pairs = _degenerate_rest()
    outcomes = [_degenerate_outcome(*pair) for pair in pairs]
    assert (len(pairs), sum(o.startswith("{") for o in outcomes)) == (836, 449)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == DEGENERATE_REST_SHA256


def test_degenerate_step_outcomes_do_not_depend_on_call_order():
    # each key's omega_2 is drawn by whichever caller of the key comes first
    pairs = _degenerate_family()
    order = list(range(len(pairs)))
    outcomes = []
    for shuffle in (list.reverse, random.Random(14).shuffle):
        shuffle(order)
        _clear_degenerate_caches()
        got = {i: _degenerate_outcome(*pairs[i]) for i in order}
        outcomes.append([got[i] for i in range(len(pairs))])
    assert outcomes[0] == outcomes[1]
    digest = hashlib.sha256("\n".join(outcomes[0]).encode()).hexdigest()
    assert digest == DEGENERATE_FAMILY_SHA256


# (field, h, mu, y_from, y_to) of the 11 pairs of the 1,290 pinned above whose
# omega_2 was the 9th, 17th, 49th, 55th or 501st that stage b kept before
# it had the member E, and the sha256 of their outcomes then
_SKIPPING_PAIRS = (
    (F2, 3, (2, 1, 1), ((3, 1, 0), (3, 0), (2, 0)), ((3, 1, 0), (2, 1), (2, 0))),
    (F3, 3, (2, 1, 1), ((3, 1, 0), (3, 0), (2, 0)), ((3, 1, 0), (2, 1), (2, 0))),
    (PrimeField(5), 3, (2, 1, 1), ((3, 1, 0), (3, 0), (2, 0)), ((3, 1, 0), (2, 1), (2, 0))),
    (F2, 4, (3, 2, 2), ((4, 2, 1), (4, 1), (3, 1)), ((4, 2, 1), (3, 2), (3, 1))),
    (F2, 4, (3, 2, 2), ((4, 3, 0), (4, 1), (3, 1)), ((4, 2, 1), (3, 2), (3, 1))),
    (F2, 4, (3, 2, 1), ((4, 2, 0), (4, 1), (3, 0)), ((4, 2, 0), (3, 2), (3, 0))),
    (F2, 4, (3, 1, 1), ((4, 1, 0), (4, 0), (2, 0)), ((4, 1, 0), (3, 1), (2, 0))),
    (F2, 4, (2, 2, 2), ((4, 2, 0), (4, 0), (3, 1)), ((4, 1, 1), (3, 1), (3, 1))),
    (F2, 4, (2, 2, 2), ((4, 2, 0), (4, 0), (3, 1)), ((4, 2, 0), (3, 1), (3, 1))),
    (F2, 4, (2, 2, 1), ((4, 1, 0), (4, 0), (3, 0)), ((4, 1, 0), (3, 1), (3, 0))),
    (F2, 4, (2, 1, 1), ((3, 1, 0), (3, 0), (2, 0)), ((3, 1, 0), (2, 1), (2, 0))),
)
SKIPPING_PAIRS_SHA256 = "bec121a2f5a3fe3cf43eca60fcaf8a7b37869118f792515b953e449f4b6d5f4f"


def test_stage_b_draws_once_where_it_used_to_skip(monkeypatch):
    # each key's first stage-b solution is the omega_2 reached before by
    # skipping: the outcomes are the same, for one search solution per key
    pairs = [
        (StrataPoint(h, mu, *a), StrataPoint(h, mu, *b), field, False)
        for field, h, mu, a, b in _SKIPPING_PAIRS
    ]
    cached, drawn = lift_module._omega2, []
    _clear_degenerate_caches()
    monkeypatch.setattr(lift_module, "_omega2", lambda *key: drawn.append(key) or cached(*key))
    outcomes = [_degenerate_outcome(*pair) for pair in pairs]
    assert all(o.startswith("{") for o in outcomes)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == SKIPPING_PAIRS_SHA256
    keys = set()
    for y_from, y_to, field, _ in pairs:
        free, w2bar, _, members, _ = _normal_flag(y_from, field, False)
        keys.add((free, members, w2bar, y_to.alpha[0]))
    # (4,2,1)|(4,1)|(3,1) at mu = (3, 2, 2) and (4,2,0)|(4,1)|(3,0) at
    # mu = (3, 2, 1) have one stage-b flag, so they share a key
    assert _second_lift.cache_info().misses == len(drawn) == len(keys) == 9


def test_stage_b_is_shared_safely_between_threads():
    # four threads race for the one F_3 omega_2 of a key that several
    # targets share, each in its own target order
    mu = (2, 1, 1)
    y_from = StrataPoint(3, mu, (3, 1, 0), (3, 0), (2, 0))
    targets = [b for b in enum_Yadm(3, mu) if leq(b, y_from) and b.alpha[0] == 2]
    cold = {}
    for b in targets:
        _clear_degenerate_caches()
        cold[b] = _degenerate_outcome(y_from, b, F3, False)
    _clear_degenerate_caches()
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(t):
        order = list(targets)
        random.Random(t).shuffle(order)
        barrier.wait()
        results[t] = {b: _degenerate_outcome(y_from, b, F3, False) for b in order}

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [cold] * 4


def test_polarized_stage_b_keeps_its_three_members():
    # with E in the polarized flag too, each of the first six omega_2 that
    # stage b keeps for this g = 3 pair leaves stage c no lift
    mu = (3, 3, 3)
    y_from = StrataPoint(6, mu, (6, 3, 0), (5, 1), (5, 1))
    y_to = StrataPoint(6, mu, (5, 3, 1), (3, 3), (5, 1))
    _clear_degenerate_caches()
    res = degenerate_step(y_from, y_to, F2, polarized=True)
    assert res.generic == y_to
    assert _generic_chain_ok(res) and _special_chain_ok(res)


def test_normal_flag_gives_alpha_1_and_room():
    # degenerate_step reads q = alpha_1(y_from) - alpha_1(y_to) from the two
    # points, which holds as the normal form has dim(w2bar meet ker T) =
    # alpha_1(y_from); stage b's members are nested, and only a plain flag
    # has E and a room
    sources = {(a, field, pol) for a, _, field, pol in _degenerate_family() + _degenerate_rest()}
    counts = {False: 0, True: 0}
    for y_from, field, polarized in sources:
        free, w2bar, _, members, room = _normal_flag(y_from, field, polarized)
        assert w2bar.intersect(torsion_flag(free[0], 1)).dim == y_from.alpha[0]
        assert all(b.contains(a) for a, b in zip(members, members[1:]))
        if polarized:
            assert len(members) == 3 and room is None
        else:
            assert len(members) == 4 and room >= 0
        counts[polarized] += 1
    assert counts == {False: 288, True: 28}


def test_every_ordered_pair_at_h5_over_f2_is_reached():
    # past the pinned family, checked as criterion 8 checks a degeneration
    pairs = 0
    for mu in _sorted_mus(5):
        pts = enum_Yadm(5, mu)
        for y_from, y_to in itertools.product(pts, repeat=2):
            if leq(y_to, y_from):
                res = degenerate_step(y_from, y_to, F2)
                assert res.generic == y_to
                assert _generic_chain_ok(res) and _special_chain_ok(res)
                pairs += 1
    assert pairs == 858


def _drawn_omega2(monkeypatch, pairs):
    """Every (omega_2, free module) that `degenerate_step` looks up over the
    pairs, from cold caches, in first-lookup order."""
    cached = lift_module._omega2
    seen = {}

    def record(Pw2, free):
        seen.setdefault((Pw2, free), None)
        return cached(Pw2, free)

    _clear_degenerate_caches()
    monkeypatch.setattr(lift_module, "_omega2", record)
    for pair in pairs:
        _degenerate_outcome(*pair)
    monkeypatch.undo()
    return list(seen)


def test_omega2_records_equal_the_uncached_computation(monkeypatch):
    drawn = _drawn_omega2(monkeypatch, _degenerate_family())
    records = {key: _omega2(*key) for key in drawn}
    assert _omega2.cache_info().misses == len(drawn)  # the lookups just made all hit
    assert all(records[key] == _omega2.__wrapped__(*key) for key in drawn)
    kept = [rec for rec in records.values() if rec is not None]
    assert (len(drawn), len(kept)) == (77, 73)
    for (Pw2, _), rec in records.items():
        assert rec is None or (rec[0] is Pw2 and len(rec[2]) == 4)


def test_omega2_is_shared_by_equal_modules_built_apart():
    mu = (2, 1, 1)
    y_from = StrataPoint(3, mu, (3, 1, 0), (3, 0), (2, 0))
    _clear_degenerate_caches()
    free, w2bar, _, members, room = _normal_flag(y_from, F2, False)
    q = y_from.alpha[0] - 2
    Pw2 = _second_lift(free, members, w2bar, (2, 2, 3 - q + min(q, room), 3))[0]
    _omega2.cache_clear()
    rows = [[padd(x, y, 2) for x, y in zip(Pw2.rows[0], Pw2.rows[-1])]]
    again = PolyModule.from_rows(F2, Pw2.ncols, rows + list(Pw2.rows[1:]))
    assert again == Pw2 and again is not Pw2 and again.rows is not Pw2.rows
    assert _omega2(Pw2, free) is _omega2(again, free)
    info = _omega2.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_omega2_cache_keys_on_polarized(monkeypatch):
    # the key is the free module, whose pairing is None unless polarized;
    # one rebuilt apart is equal and finds the same entry
    pol = enum_Ypol(2)
    drawn = _drawn_omega2(monkeypatch, [(a, b, F2, True) for a in pol for b in pol])
    polarized = _free_module(F2, 4, True, 3)
    Pw2 = next(Pw2 for Pw2, _ in drawn if _omega2(Pw2, polarized) is None)
    assert Pw2.ncols == 12
    _omega2.cache_clear()
    assert _omega2(Pw2, polarized) is None
    assert _omega2(Pw2, _free_module(F2, 4, False, 3)) is not None
    _free_module.cache_clear()
    rebuilt = _free_module(F2, 4, True, 3)
    assert rebuilt == polarized and rebuilt is not polarized
    assert _omega2(Pw2, rebuilt) is None
    assert _omega2.cache_info().currsize == 2


def test_lift_searches_leave_no_cyclic_garbage():
    pts = enum_Yadm(3, (2, 1, 1))
    pairs = [(a, b) for a in pts for b in pts if _degenerate_outcome(a, b, F2, False)[0] == "{"]
    flag = (Subspace.span(F2, 2, [[1, 0]]), Subspace.full(F2, 2))
    problem = LiftProblem(flag, Subspace.span(F2, 2, [[1, 0]]), (0, 1))
    _clear_degenerate_caches()
    gc.collect()
    gc.disable()
    try:
        for a, b in pairs:
            degenerate_step(a, b, F2)
            degenerate_step(a, b, F3)
        for _ in range(3):
            lift_subspace(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()
