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
                u = field.row_add_scaled(w, v, c)
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
    return seen


def test_prime_validation():
    PrimeField(5)
    PrimeField(127)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    for p in (131, 257):  # rows hold one entry per byte lane
        with pytest.raises(ValueError, match="127"):
            PrimeField(p)


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
    assert preimage(Matrix.from_rows(F2, [[0] * 3] * 3), W) == Subspace.full(F2, 3)


def test_image_and_quotient_dim():
    J3 = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert image(J3, Subspace.full(F2, 3)) == Subspace.span(F2, 3, [[1, 0, 0], [0, 1, 0]])
    assert image(J3, Subspace.zero(F2, 3)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_preimage_image_adjunction(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    field = PrimeField(p)
    n = data.draw(st.integers(2, 4))
    entries = st.integers(0, p - 1)
    T = Matrix.from_rows(
        field, data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    )
    vecs = st.lists(entries, min_size=n, max_size=n)
    W = Subspace.span(field, n, data.draw(st.lists(vecs, max_size=3)))
    pre = preimage(T, W)
    assert pre == brute_preimage(field, n, T, W)
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


def test_floor_outside_ceiling_is_refused():
    line = Subspace.span(F2, 4, [[0, 0, 0, 1]])
    ceil = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    plane = Subspace.span(F2, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    for floor in (line, plane):
        with pytest.raises(AmbientMismatchError):
            floor.complement_in(ceil)
        for d in (0, 2, 3, 4):  # in range and out of range
            with pytest.raises(AmbientMismatchError):
                list(subspaces_between(floor, ceil, d))
    assert line.complement_in(line.sum(ceil)) == ceil.rows


def test_matrix_kernel():
    K = Matrix.from_rows(F2, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    ker = K.kernel()
    assert ker.dim == 2
    for v in ker.vectors():
        assert F2.row_is_zero(K.apply(v))


def reference_rref(coord_rows, n, p=2):
    """Gauss-Jordan mod p on coordinate lists; pivot = first nonzero column."""
    m = [[x % p for x in r] for r in coord_rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x - m[i][c] * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(pivots), tuple(tuple(row) for row in m[: len(pivots)])


@st.composite
def fp_matrices(draw, p):
    """(ncols, coordinate rows) over F_p: random rows with zero and duplicate
    rows mixed in, or a permuted upper-triangular square matrix with nonzero
    diagonal (full rank)."""
    n = draw(st.integers(1, 10))
    entry = st.integers(0, p - 1)
    if draw(st.booleans()):
        rows = [
            [0] * i + [draw(st.integers(1, p - 1))] + [draw(entry) for _ in range(n - i - 1)]
            for i in range(n)
        ]
        return n, draw(st.permutations(rows))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=12))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return n, rows


@settings(max_examples=200, deadline=None)
@given(fp_matrices(2), st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=8))
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 127])
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fp_kernel_matches_coordinate_gauss_jordan(p, data):
    field = PrimeField(p)
    n, coords = data.draw(fp_matrices(p))
    entry = st.integers(0, p - 1)
    pivots, ref_rows = reference_rref(coords, n, p)
    packed = [field.pack(r) for r in coords]

    got_pivots, got_rows = rref(field, packed)
    assert got_pivots == pivots
    assert tuple(field.unpack(r, n) for r in got_rows) == ref_rows
    assert rref(field, packed[::-1]) == (got_pivots, got_rows)

    A = Matrix.from_rows(field, coords, n)
    assert A.rank() == len(pivots)
    for v in data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4)):
        want = tuple(sum(a * b for a, b in zip(row, v)) % p for row in coords)
        assert field.unpack(A.apply(field.pack(v)), len(coords)) == want

    free = [j for j in range(n) if j not in pivots]
    ref_kernel = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for piv, row in zip(pivots, ref_rows):
            v[piv] = -row[j] % p
        ref_kernel.append(v)
    assert A.kernel() == Subspace.span(field, n, ref_kernel)
    assert A.kernel().dim == n - len(pivots)

    m = data.draw(st.integers(1, 4))
    B = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    want = tuple(
        tuple(sum(row[k] * B[k][j] for k in range(n)) % p for j in range(m)) for row in coords
    )
    assert A.mul(Matrix.from_rows(field, B, m)).coord_rows() == want

    a, b = (data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    c = data.draw(st.integers(-2 * p, 2 * p))
    pa, pb = field.pack(a), field.pack(b)
    assert field.unpack(field.row_add_scaled(pa, pb, 1), n) == tuple((x + y) % p for x, y in zip(a, b))
    assert field.unpack(field.row_scale(pa, c), n) == tuple(x * c % p for x in a)
    assert field.unpack(field.row_add_scaled(pa, pb, c), n) == tuple(
        (x + c * y) % p for x, y in zip(a, b)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_apply_keeps_byte_lanes_reduced(n):
    # over F_127 every third term of p - 1 would overflow a byte lane
    field = PrimeField(127)
    A = Matrix.from_rows(field, [[126] * n, [1] * n, ([126, 125] * n)[:n]], n)
    v = field.pack([126] * n)
    want = (126 * 126 * n % 127, 126 * n % 127, (126 * 126 * ((n + 1) // 2) + 125 * 126 * (n // 2)) % 127)
    assert field.unpack(A.apply(v), 3) == want
