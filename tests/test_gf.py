"""Linear algebra over prime fields, checked against exhaustive vector scans."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from prflags.gf import (
    F2,
    F3,
    AmbientMismatchError,
    EnumerationCapError,
    Matrix,
    PrimeField,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    preimage,
    quotient_dim,
    rref,
    subspaces_between,
)


def brute_span(field, n, vectors):
    """All packed vectors of the span, by closing under addition and scaling."""
    seen = {field.zero_row(n)}
    frontier = [field.pack(v) for v in vectors]
    while frontier:
        v = frontier.pop()
        for w in list(seen):
            for c in range(1, field.p):
                u = field.row_add(w, field.row_scale(v, c))
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return seen


def test_prime_validation():
    PrimeField(5)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_canonical_equality():
    A = Subspace.span(F2, 3, [[1, 1, 0], [0, 1, 1]])
    B = Subspace.span(F2, 3, [[1, 0, 1], [0, 1, 1]])
    assert A == B
    assert A.rows == B.rows
    assert hash(A) == hash(B)


def test_sum_identity_and_idempotence():
    A = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    zero = Subspace.zero(F2, 4)
    assert A.sum(zero) == A
    assert A.sum(A) == A


def test_sum_intersect_derived_example():
    A = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B = Subspace.span(F2, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert A.sum(B) == Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert A.intersect(B) == Subspace.span(F2, 4, [[0, 1, 0, 0]])
    assert A.intersect(Subspace.full(F2, 4)) == A
    assert A.intersect(Subspace.zero(F2, 4)).is_zero()


def test_ambient_mismatch():
    A = Subspace.span(F2, 3, [[1, 0, 0]])
    B = Subspace.span(F2, 4, [[1, 0, 0, 0]])
    with pytest.raises(AmbientMismatchError):
        A.sum(B)
    with pytest.raises(AmbientMismatchError):
        A.intersect(Subspace.span(F3, 3, [[1, 0, 0]]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modular_law(data):
    p = data.draw(st.sampled_from([2, 3]))
    field = PrimeField(p)
    n = data.draw(st.integers(2, 4))
    vecs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    A = Subspace.span(field, n, data.draw(st.lists(vecs, max_size=3)))
    B = Subspace.span(field, n, data.draw(st.lists(vecs, max_size=3)))
    assert A.intersect(B).dim + A.sum(B).dim == A.dim + B.dim


def brute_preimage(field, n, T, W):
    vectors = []
    for coords in itertools.product(range(field.p), repeat=n):
        v = field.pack(coords)
        if W.contains_row(T.apply(v)):
            vectors.append(coords)
    return Subspace.span(field, n, vectors)


def test_preimage_examples():
    J3 = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    W = Subspace.span(F2, 3, [[1, 0, 0]])
    got = preimage(J3, W)
    assert got == Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert got == brute_preimage(F2, 3, J3, W)
    assert preimage(J3, Subspace.full(F2, 3)) == Subspace.full(F2, 3)
    assert preimage(Matrix.zero(F2, 3, 3), W) == Subspace.full(F2, 3)


def test_image_and_quotient_dim():
    J3 = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert image(J3, Subspace.full(F2, 3)) == Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert image(J3, Subspace.zero(F2, 3)).is_zero()
    A = Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert quotient_dim(A, A) == 0
    with pytest.raises(AmbientMismatchError):
        quotient_dim(Subspace.span(F2, 3, [[1, 0, 0]]), A)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_preimage_image_adjunction(data):
    p = data.draw(st.sampled_from([2, 3]))
    field = PrimeField(p)
    n = data.draw(st.integers(2, 4))
    entries = st.integers(0, p - 1)
    T = Matrix.from_rows(
        field, data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    )
    vecs = st.lists(entries, min_size=n, max_size=n)
    W = Subspace.span(field, n, data.draw(st.lists(vecs, max_size=3)))
    pre = preimage(T, W)
    img = image(T, pre)
    assert W.contains(img)
    assert img == W.intersect(image(T, Subspace.full(field, n)))


def test_enumeration_counts():
    assert len(list(enumerate_subspaces(F2, 2, 1))) == 3
    assert len(list(enumerate_subspaces(F2, 4, 2))) == 35
    subs = list(enumerate_subspaces(F2, 3, 0))
    assert subs == [Subspace.zero(F2, 3)]
    # every subspace exactly once, canonical
    all4 = list(enumerate_subspaces(F2, 4, 2))
    assert len(set(all4)) == 35


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gaussian_binomial_matches_enumeration(p, n):
    field = PrimeField(p)
    for d in range(n + 1):
        want = gaussian_binomial(n, d, p)
        if want > 3000:
            continue
        assert sum(1 for _ in enumerate_subspaces(field, n, d)) == want


def test_gaussian_binomial_brute_force_oracle():
    # spans of all pairs of vectors in F_3^4
    field = F3
    seen = set()
    vecs = list(itertools.product(range(3), repeat=4))
    for a in vecs:
        for b in vecs:
            S = Subspace.span(field, 4, [a, b])
            if S.dim == 2:
                seen.add(S)
    assert len(seen) == gaussian_binomial(4, 2, 3) == 130


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as err:
        list(enumerate_subspaces(F2, 10, 5, cap=10))
    assert err.value.count == gaussian_binomial(10, 5, 2)


def test_subspaces_between():
    floor = Subspace.span(F2, 4, [[1, 0, 0, 0]])
    ceil = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    mids = list(subspaces_between(floor, ceil, 2))
    assert len(mids) == 3  # [2 choose 1]_2 in the quotient
    for S in mids:
        assert S.contains(floor) and ceil.contains(S) and S.dim == 2
    assert len(set(mids)) == 3


def test_matrix_inverse_mul_kernel():
    T = Matrix.from_rows(F3, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    if T.rank() == 3:
        assert T.mul(T.inverse()) == Matrix.identity(F3, 3)
    K = Matrix.from_rows(F2, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    ker = K.kernel()
    assert ker.dim == 2
    for v in ker.vectors():
        assert F2.row_is_zero(K.apply(v))


def reference_rref(coord_rows, n):
    """Gauss-Jordan over F_2 on coordinate lists; pivot = first nonzero column."""
    m = [list(r) for r in coord_rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(pivots), tuple(tuple(row) for row in m[: len(pivots)])


@st.composite
def f2_matrices(draw):
    """(ncols, coordinate rows): random rows with zero and duplicate rows mixed
    in, or a permuted unit upper-triangular square matrix (full rank)."""
    n = draw(st.integers(1, 10))
    bit = st.integers(0, 1)
    if draw(st.booleans()):
        rows = [
            [0] * i + [1] + [draw(bit) for _ in range(n - i - 1)] for i in range(n)
        ]
        return n, draw(st.permutations(rows))
    rows = draw(st.lists(st.lists(bit, min_size=n, max_size=n), max_size=12))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return n, rows


@settings(max_examples=200, deadline=None)
@given(f2_matrices(), st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=8))
@example((4, []), list(range(16)))
@example((3, [[0, 0, 0], [1, 1, 0], [1, 1, 0]]), list(range(8)))
def test_f2_kernel_matches_coordinate_gauss_jordan(mat, masks):
    n, coords = mat
    pivots, ref_rows = reference_rref(coords, n)
    packed = [F2.pack(r) for r in coords]

    got_pivots, got_rows = rref(F2, packed)
    assert got_pivots == pivots
    assert tuple(F2.unpack(r, n) for r in got_rows) == ref_rows
    assert rref(F2, packed[::-1]) == (got_pivots, got_rows)

    A = Matrix.from_rows(F2, coords, n)
    assert A.rank() == len(pivots)
    for mask in masks:
        v = F2.unpack(mask & ((1 << n) - 1), n)
        want = tuple(sum(a * b for a, b in zip(row, v)) % 2 for row in coords)
        assert F2.unpack(A.apply(F2.pack(v)), len(coords)) == want

    free = [j for j in range(n) if j not in pivots]
    ref_kernel = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for piv, row in zip(pivots, ref_rows):
            v[piv] = row[j]
        ref_kernel.append(v)
    assert A.kernel() == Subspace.span(F2, n, ref_kernel)
    assert A.kernel().dim == n - len(pivots)

    if len(coords) == n:
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(coords)]
        aug_pivots, aug_rows = reference_rref(aug, 2 * n)
        if aug_pivots[:n] == tuple(range(n)):
            inv = A.inverse()
            assert inv.coord_rows() == tuple(row[n:] for row in aug_rows[:n])
            assert A.mul(inv) == Matrix.identity(F2, n)
        else:
            with pytest.raises(ValueError):
                A.inverse()
