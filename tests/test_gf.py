"""Linear algebra over prime fields, checked against exhaustive vector scans."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from prflags.gf import (
    DEFAULT_ENUM_CAP,
    F2,
    F3,
    AmbientMismatchError,
    EnumerationCapError,
    Matrix,
    PrimeField,
    Subspace,
    _right_block,
    _rref,
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


def zassenhaus(A, B):
    """A meet B by the double-block trick, whatever the operands."""
    f, n = A.field, A.n
    ext = [f.row_join(r, r, n) for r in A.rows]
    ext += [f.row_join(r, f.zero_row(n), n) for r in B.rows]
    return _right_block(f, n, n, ext)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_intersect_gives_a_zero_or_whole_operand_as_the_double_block_would(p):
    field = PrimeField(p)
    proper = 0
    for n in (1, 2, 3):
        subspaces = [S for d in range(n + 1) for S in enumerate_subspaces(field, n, d)]
        for A, B in itertools.product(subspaces, repeat=2):
            got = A.intersect(B)
            assert got == zassenhaus(A, B)
            assert set(got.vectors()) == set(A.vectors()) & set(B.vectors())
            if A.is_zero() or B.dim == n:
                assert got is A
            elif B.is_zero() or A.dim == n:
                assert got is B
            else:
                proper += 1  # the double block itself
    # every pair of proper subspaces, the p + 1 lines of F_p^2 and the
    # p^2 + p + 1 lines and as many planes of F_p^3, keeps the double block
    assert proper == (p + 1) ** 2 + (2 * (p * p + p + 1)) ** 2


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


@st.composite
def extension_cases(draw):
    """(p, n, basis of S, v) with v in S, or with v's residue modulo S at a
    drawn column off S's pivots and a drawn leading entry there."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    entry = st.integers(0, p - 1)
    S = Subspace.span(
        PrimeField(p), n, draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    )
    free = [q for q in range(n) if q not in S.pivots]
    v = [0] * n
    if free and draw(st.booleans()):
        q = draw(st.sampled_from(free))
        v[q] = draw(st.integers(1, p - 1))
        for j in free:
            if j > q:
                v[j] = draw(entry)
    for b in S.basis_coords():
        c = draw(entry)
        v = [(x + c * y) % p for x, y in zip(v, b)]
    return p, n, S.basis_coords(), v


@settings(max_examples=200, deadline=None)
@given(extension_cases())
@example((2, 4, [[0, 1, 0, 0], [0, 0, 1, 0]], [1, 1, 0, 0]))  # new pivot before S's
@example((5, 4, [[1, 0, 0, 0], [0, 0, 0, 1]], [0, 0, 3, 1]))  # between, residue leads with 3
@example((2, 4, [[1, 0, 1, 0], [0, 0, 0, 1]], [0, 0, 1, 1]))  # between; the older row meets its column
@example((3, 4, [[1, 1, 0, 0]], [0, 2, 1, 0]))  # after; the older row meets its column
@example((3, 3, [[1, 2, 0]], [2, 1, 0]))  # v in S
def test_plus_row_is_the_rref_of_the_grown_rows(case):
    p, n, basis, v = case
    field = PrimeField(p)
    S = Subspace.span(field, n, basis)
    v = field.pack(v)
    before = _rref.cache_info()
    got = S.plus_row(v)
    assert _rref.cache_info() == before
    want = Subspace(field, n, S.rows + (v,))
    assert got == want and hash(got) == hash(want)
    assert got.pivots == want.pivots
    assert (got is S) == S.contains_row(v)


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


def ref_enumerate_subspaces(field, n, d, cap=DEFAULT_ENUM_CAP):
    """`enumerate_subspaces` as it was before it shared one echelon-row
    generator with `subspaces_between`: coordinate lists packed per
    subspace.  Kept as the reference for the canonical order."""
    count = gaussian_binomial(n, d, field.p)
    if cap is not None and count > cap:
        raise EnumerationCapError(count, cap)
    if d == 0:
        yield Subspace.zero(field, n)
        return
    p = field.p
    for pivots in itertools.combinations(range(n), d):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for vals in itertools.product(range(p), repeat=len(free)):
            rows = []
            for i in range(d):
                coords = [0] * n
                coords[pivots[i]] = 1
                rows.append(coords)
            for (i, j), v in zip(free, vals):
                rows[i][j] = v
            packed = [field.pack(r) for r in rows]
            yield Subspace(field, n, packed, _canonical=True)


def ref_subspaces_between(floor, ceiling, d, cap=DEFAULT_ENUM_CAP):
    """`subspaces_between` as it was: enumerate the quotient's subspaces,
    then lift each coefficient by coefficient."""
    comp = floor.complement_in(ceiling)
    if d < floor.dim or d > ceiling.dim:
        return
    q = len(comp)
    f, n = floor.field, floor.n
    for small in ref_enumerate_subspaces(f, q, d - floor.dim, cap=cap):
        lifted = []
        for r in small.rows:
            v = f.zero_row(n)
            for i in range(q):
                c = f.row_get(r, i)
                if c:
                    v = f.row_add_scaled(v, comp[i], c)
            lifted.append(v)
        yield Subspace(f, n, floor.rows + tuple(lifted))


def _random_pair(rng, field, n):
    """A random floor <= ceiling in F_p^n: the floor is spanned by random
    combinations of the ceiling's basis."""
    ceiling = Subspace.span(field, n, [[rng.randrange(field.p) for _ in range(n)]
                                       for _ in range(rng.randint(0, n))])
    floor = Subspace(field, n, [
        functools.reduce(lambda v, b: field.row_add_scaled(v, b, rng.randrange(field.p)),
                         ceiling.rows, field.zero_row(n))
        for _ in range(rng.randint(0, ceiling.dim))
    ])
    return floor, ceiling


def ref_complement_in(floor, ceiling):
    """`Subspace.complement_in` as it was before it read its residues from
    one elimination pass: each residue reduced by a `Subspace` rebuilt
    after the one before it."""
    ext = []
    span = floor
    for r in ceiling.rows:
        res = span.reduce_row(r)
        if not floor.field.row_is_zero(res):
            ext.append(res)
            span = Subspace(floor.field, floor.n, span.rows + (res,))
    if floor.dim + len(ext) != ceiling.dim:
        raise AmbientMismatchError("complement_in requires containment")
    return tuple(ext)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complement_in_gives_the_former_residues(p):
    field, rng = PrimeField(p), random.Random(100 + p)
    nested = refused = 0
    for n in range(7):
        for _ in range(20):
            floor, ceiling = _random_pair(rng, field, n)
            assert floor.complement_in(ceiling) == ref_complement_in(floor, ceiling)
            nested += 1
            # a floor outside the ceiling (the pair reversed, or an unrelated
            # span) is refused by both
            other = Subspace(field, n, [field.pack([rng.randrange(p) for _ in range(n)])
                                        for _ in range(rng.randint(0, n))])
            for outside in (ceiling, other):
                if floor.contains(outside):
                    continue
                for complement_in in (Subspace.complement_in, ref_complement_in):
                    with pytest.raises(AmbientMismatchError):
                        complement_in(outside, floor)
                refused += 1
    assert nested == 140 and refused > 100, refused


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumerators_keep_the_former_order_and_cap(p):
    field, rng = PrimeField(p), random.Random(p)
    compared = refused = 0
    for n in range(6):
        for _ in range(12):
            floor, ceiling = _random_pair(rng, field, n)
            for d in range(n + 2):
                runs = []
                between = gaussian_binomial(ceiling.dim - floor.dim, d - floor.dim, p)
                if between <= 2000:
                    runs.append((subspaces_between, ref_subspaces_between, (floor, ceiling, d), between))
                whole = gaussian_binomial(n, d, p)
                if whole <= 2000:
                    runs.append((enumerate_subspaces, ref_enumerate_subspaces, (field, n, d), whole))
                for new, old, args, count in runs:
                    got = [S.rows for S in new(*args)]
                    assert got == [S.rows for S in old(*args)], (p, n, d, new.__name__)
                    compared += len(got)
                    if not count:
                        continue
                    # one below the count: both refuse at the first next(), not at the call
                    gens = [new(*args, cap=count - 1), old(*args, cap=count - 1)]
                    errors = []
                    for gen in gens:
                        with pytest.raises(EnumerationCapError) as err:
                            next(gen)
                        errors.append((err.value.count, err.value.cap))
                    assert errors[0] == errors[1] == (count, count - 1)
                    refused += 1
    assert compared > 1000 and refused > 100, (compared, refused)


def test_matrix_kernel():
    K = Matrix.from_rows(F2, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    ker = K.kernel()
    assert ker.dim == 2
    for v in ker.vectors():
        assert F2.row_is_zero(K.apply(v))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transpose_and_kernel_of_every_shape_up_to_3_by_3(p):
    field, rng = PrimeField(p), random.Random(p)
    for m, n in itertools.product(range(4), repeat=2):  # 0 rows and 0 columns included
        for _ in range(5):
            coords = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            A = Matrix.from_rows(field, coords, n)
            At = A.transpose()
            assert (At.nrows, At.ncols) == (n, m)
            assert At.coord_rows() == tuple(tuple(row[j] for row in coords) for j in range(n))
            assert At.transpose() == A
            # a fresh matrix: the kernel reads the transpose, not apply's column cache
            fresh = Matrix(field, m, n, A.rows)
            ker = fresh.kernel()
            assert fresh._cols is None
            want = [v for v in itertools.product(range(p), repeat=n)
                    if not any(sum(a * b for a, b in zip(row, v)) % p for row in coords)]
            assert ker.n == n and set(ker.vectors()) == {field.pack(v) for v in want}


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
    for rows in (packed, tuple(packed), (r for r in packed)):
        assert rref(F2, rows) == _rref.__wrapped__(F2, packed) == (got_pivots, got_rows)

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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_f2_kernel_reduces_every_vector_of_a_subspace_to_its_basis(data):
    """All vectors of a random subspace in a random order: most rows reduce
    through several pivots, and all but dim of them are dependent."""
    n = data.draw(st.integers(1, 10))
    basis = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), max_size=min(n, 6))
    )
    packed = data.draw(st.permutations(sorted(brute_span(F2, n, basis))))
    pivots, ref_rows = reference_rref([F2.unpack(r, n) for r in packed], n)
    got_pivots, got_rows = _rref.__wrapped__(F2, packed)
    assert got_pivots == pivots
    assert tuple(F2.unpack(r, n) for r in got_rows) == ref_rows
    assert rref(F2, packed) == (got_pivots, got_rows)


def test_equal_fields_built_apart_are_one_key_and_stay_immutable():
    field = PrimeField(3)
    assert field is not F3 and hash(field) == hash(F3)
    assert {F3: "F3"}[field] == "F3" and len({F3, field}) == 1
    with pytest.raises(AttributeError):
        field.p = 5
    with pytest.raises(AttributeError):
        field._hash = 0


def test_rref_cache_is_shared_by_equal_fields_built_apart():
    rows = (F3.pack([1, 2, 0]), F3.pack([2, 1, 1]), F3.pack([0, 0, 2]))
    want = rref(F3, rows)
    hits = _rref.cache_info().hits
    assert rref(PrimeField(3), list(rows)) is want
    assert _rref.cache_info().hits == hits + 1


def test_rref_cache_stays_within_its_bound():
    _rref.cache_clear()
    bound = _rref.cache_info().maxsize
    inputs = [(F2, [m, m >> 1]) for m in range(1, 512)]
    inputs += [
        (field, [field.pack(v)])
        for field in (F3, PrimeField(5))
        for v in itertools.product(range(field.p), repeat=4)
        if any(v)
    ]
    assert len(inputs) > bound
    for field, rows in inputs:
        pivots, got = rref(field, rows)
        assert _rref.cache_info().currsize <= bound
        assert type(pivots) is tuple and type(got) is tuple  # shared, so immutable
        n = 10 if field.p == 2 else 4
        assert (pivots, tuple(field.unpack(r, n) for r in got)) == reference_rref(
            [field.unpack(r, n) for r in rows], n, field.p
        )
    assert _rref.cache_info().currsize == bound
    first = rref(*inputs[0])  # evicted long ago: an equal result, computed anew
    assert first == _rref.__wrapped__(*inputs[0])
    assert rref(*inputs[-1]) is rref(*inputs[-1])


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
    for rows in (packed, tuple(packed), (r for r in packed)):
        assert rref(field, rows) == _rref.__wrapped__(field, packed) == (got_pivots, got_rows)

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
