"""Exact linear algebra over prime finite fields.

Vectors live in F_p^n and are handled as packed rows: an int bitmask for
p = 2, a bytes vector of reduced entries otherwise.  Odd-p rows are added a
whole row at a time, one entry per byte lane: the rows are read as big
integers, summed (a sum of two reduced entries fits in a byte while
p <= MAX_PRIME) and reduced lane-wise by a 256-byte translation table.
Subspaces always carry their reduced row-echelon basis, so two subspaces
are equal exactly when their packed bases are identical.  Kernels,
intersections and preimages are each the right block of one `rref` of
joined rows [left | right].  `rref` results are memoized by value in one
bounded cache and shared between callers as immutable tuples; the F_2
elimination reduces a row only at the pivots it hits.  A subspace grows by
one vector without `rref`: `Subspace.plus_row` scales the vector's residue
to 1 at its pivot, clears that column from the older rows and inserts it in
pivot order (verify's instance generators, the lift search's `avoid` and
`pr.subspace_in_flag` grow subspaces this way).  One echelon-row
enumerator, `_echelon_rows`, lists the subspaces of a span in canonical
order for both `enumerate_subspaces` and `subspaces_between`.  Everything
here is immutable and pure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

DEFAULT_ENUM_CAP = 10**7
_RREF_CACHE_SIZE = 512  # distinct (field, rows) inputs whose echelon form is kept
MAX_PRIME = 127  # 2 * (p - 1) must fit in one byte lane


class AmbientMismatchError(ValueError):
    """Operands live in different ambient spaces or over different fields."""


class EnumerationCapError(RuntimeError):
    """A subspace enumeration would exceed the configured cap."""

    def __init__(self, count, cap):
        super().__init__("enumeration of %d subspaces exceeds cap %d" % (count, cap))
        self.count = count
        self.cap = cap


def _is_prime(p):
    if p < 2:
        return False
    return all(p % q for q in range(2, math.isqrt(p) + 1))


class PrimeField:
    """The prime field F_p; also the codec for packed row vectors."""

    __slots__ = ("p", "_mod", "_mul", "_hash")

    def __init__(self, p=2):
        if p > MAX_PRIME:
            raise ValueError("%r exceeds %d, the largest supported prime" % (p, MAX_PRIME))
        if not _is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_hash", hash(("PrimeField", p)))
        # byte-lane tables: i -> i mod p, and for each c, i -> c*i mod p
        object.__setattr__(self, "_mod", bytes(i % p for i in range(256)))
        object.__setattr__(
            self, "_mul", tuple(bytes(c * i % p for i in range(256)) for c in range(p))
        )

    def __setattr__(self, *a):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    # packed-row codec ---------------------------------------------------

    def pack(self, coords):
        if self.p == 2:
            row = 0
            for i, c in enumerate(coords):
                if c % 2:
                    row |= 1 << i
            return row
        return bytes(c % self.p for c in coords)

    def unpack(self, row, n):
        if self.p == 2:
            return tuple((row >> i) & 1 for i in range(n))
        return tuple(row)

    def zero_row(self, n):
        return 0 if self.p == 2 else bytes(n)

    def unit_row(self, n, i):
        if self.p == 2:
            return 1 << i
        return bytes(i) + b"\1" + bytes(n - i - 1)

    def row_add_scaled(self, a, b, c):
        """a + c*b, for any integer c."""
        if self.p == 2:
            return a ^ b if c & 1 else a
        s = int.from_bytes(a, "big") + int.from_bytes(b.translate(self._mul[c % self.p]), "big")
        return s.to_bytes(len(a), "big").translate(self._mod)

    def row_scale(self, a, c):
        if self.p == 2:
            return a if c & 1 else 0
        return a.translate(self._mul[c % self.p])

    def row_get(self, a, i):
        if self.p == 2:
            return (a >> i) & 1
        return a[i]

    def row_is_zero(self, a):
        return not a if self.p == 2 else not a.lstrip(b"\0")

    def row_support_min(self, a):
        if self.p == 2:
            return (a & -a).bit_length() - 1
        rest = a.lstrip(b"\0")
        if not rest:
            raise ValueError("zero row has no support")
        return len(a) - len(rest)

    def row_join(self, a, b, n):
        """Concatenate a packed row a of length n and a packed row b."""
        if self.p == 2:
            return a | (b << n)
        return a + b

    def row_split(self, ab, n):
        if self.p == 2:
            return ab & ((1 << n) - 1), ab >> n
        return ab[:n], ab[n:]

    def inv(self, c):
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(c, self.p - 2, self.p)


F2 = PrimeField(2)
F3 = PrimeField(3)


def rref(field, rows):
    """Reduced row-echelon basis of the span of `rows` (packed).

    Returns (pivots, rows), two tuples, with rows sorted by pivot column;
    the result is the canonical basis of the row space, independent of
    input order.  Results are memoized by value in a bounded cache, so
    equal inputs share one immutable result.  Over F_2 the rows are int
    bitmasks, elimination is plain XOR, and an incoming row is reduced
    only at the pivots it hits.
    """
    return _rref(field, tuple(rows))


@functools.lru_cache(maxsize=_RREF_CACHE_SIZE)
def _rref(field, rows):
    return _eliminate(field, rows, [])


def _eliminate(field, rows, kept):
    """The elimination behind `rref`, uncached; appends to `kept` each row
    that enlarges the span, reduced by the basis before it (the residue
    `Subspace.reduce_row` gives, before scaling)."""
    if field.p == 2:
        basis = {}  # lowest set bit of a basis row -> the row, kept fully reduced
        mask = 0  # the pivot bits: each basis row is zero at every other one
        for row in rows:
            hit = row & mask
            while hit:
                low = hit & -hit
                row ^= basis[low]
                hit ^= low
            if not row:
                continue
            kept.append(row)
            low = row & -row
            for q, b in basis.items():
                if b & low:
                    basis[q] = b ^ row
            basis[low] = row
            mask |= low
        ordered = sorted(basis.items())
        return (
            tuple(low.bit_length() - 1 for low, _ in ordered),
            tuple(r for _, r in ordered),
        )
    basis = {}  # pivot column -> the row (1 at the pivot), kept fully reduced
    for row in rows:
        for piv, b in basis.items():
            c = row[piv]
            if c:
                row = field.row_add_scaled(row, b, -c)
        rest = row.lstrip(b"\0")
        if not rest:
            continue
        kept.append(row)
        piv = len(row) - len(rest)
        if rest[0] != 1:
            row = field.row_scale(row, field.inv(rest[0]))
        for q, b in basis.items():
            c = b[piv]
            if c:
                basis[q] = field.row_add_scaled(b, row, -c)
        basis[piv] = row
    ordered = sorted(basis.items())
    return tuple(q for q, _ in ordered), tuple(r for _, r in ordered)


class Subspace:
    """A subspace of F_p^n, stored as its canonical reduced-echelon basis."""

    __slots__ = ("field", "n", "pivots", "rows", "_hash")

    def __init__(self, field, n, packed_rows, _canonical=False):
        if _canonical:
            rows = tuple(packed_rows)
            pivots = tuple(field.row_support_min(r) for r in rows)
        else:
            pivots, rows = rref(field, packed_rows)
        self._fill(field, n, pivots, rows)

    def _fill(self, field, n, pivots, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((field.p, n, rows)))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    # constructors -------------------------------------------------------

    @classmethod
    def span(cls, field, n, coord_rows):
        return cls(field, n, [field.pack(r) for r in coord_rows])

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, (), _canonical=True)

    @classmethod
    def full(cls, field, n):
        return cls(field, n, [field.unit_row(n, i) for i in range(n)], _canonical=True)

    # basic queries ------------------------------------------------------

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def reduce_row(self, row):
        """Residue of a packed vector modulo this subspace."""
        f = self.field
        if f.p == 2:
            for piv, b in zip(self.pivots, self.rows):
                if row >> piv & 1:
                    row ^= b
            return row
        for piv, b in zip(self.pivots, self.rows):
            c = row[piv]
            if c:
                row = f.row_add_scaled(row, b, -c)
        return row

    def contains_row(self, row):
        return self.field.row_is_zero(self.reduce_row(row))

    def plus_row(self, row):
        """The span of this subspace and one packed vector: `self` when the
        vector lies in it, else one elimination step on its residue."""
        return self._plus_residue(self.reduce_row(row))

    def _plus_residue(self, res):
        """`plus_row` of a vector whose residue `reduce_row` gave, for a
        caller that took the residue to test membership.  The residue is
        zero at every pivot, so scaled to 1 at its own pivot it clears that
        column from the older rows, and inserted in pivot order it makes the
        reduced echelon basis of the sum, with no `rref` and no cache entry."""
        f = self.field
        if f.p == 2:
            if not res:
                return self
            low = res & -res
            piv = low.bit_length() - 1
            rows = [b ^ res if b & low else b for b in self.rows]
        else:
            rest = res.lstrip(b"\0")
            if not rest:
                return self
            piv = len(res) - len(rest)
            if rest[0] != 1:
                res = f.row_scale(res, f.inv(rest[0]))
            rows = [f.row_add_scaled(b, res, -b[piv]) if b[piv] else b for b in self.rows]
        k = bisect.bisect(self.pivots, piv)
        rows.insert(k, res)
        S = object.__new__(Subspace)
        S._fill(f, self.n, self.pivots[:k] + (piv,) + self.pivots[k:], tuple(rows))
        return S

    def contains(self, other):
        self._check(other)
        return all(self.contains_row(r) for r in other.rows)

    def coordinates_of(self, row):
        """Coefficients of a vector over the canonical basis.

        The basis is reduced, so the coefficient of each basis row is the
        vector's entry at that row's pivot column.
        """
        if not self.contains_row(row):
            raise ValueError("vector not in subspace")
        return tuple(self.field.row_get(row, piv) for piv in self.pivots)

    def basis_coords(self):
        return tuple(self.field.unpack(r, self.n) for r in self.rows)

    def vectors(self):
        """All packed vectors of the subspace, in deterministic order."""
        f, rows = self.field, self.rows
        for coeffs in itertools.product(range(f.p), repeat=len(rows)):
            v = f.zero_row(self.n)
            for c, b in zip(coeffs, rows):
                if c:
                    v = f.row_add_scaled(v, b, c)
            yield v

    def _check(self, other):
        if self.field != other.field or self.n != other.n:
            raise AmbientMismatchError(
                "subspaces in F_%d^%d and F_%d^%d do not match"
                % (self.field.p, self.n, other.field.p, other.n)
            )

    # lattice operations -------------------------------------------------

    def sum(self, other):
        self._check(other)
        return Subspace(self.field, self.n, self.rows + other.rows)

    def intersect(self, other):
        """Intersection via the Zassenhaus double-block trick.  A zero or
        whole operand gives an operand at once: bases are canonical, so it
        is the subspace the trick would build."""
        self._check(other)
        f, n = self.field, self.n
        if not self.rows or len(other.rows) == n:
            return self
        if not other.rows or len(self.rows) == n:
            return other
        ext = [f.row_join(r, r, n) for r in self.rows]
        ext += [f.row_join(r, f.zero_row(n), n) for r in other.rows]
        return _right_block(f, n, n, ext)

    def complement_in(self, other):
        """Packed vectors extending this basis to a basis of `other`: the
        residues one `_eliminate` pass keeps after this (reduced) basis.
        They extend it to a basis of self + other, which is `other` exactly
        when its dimension is dim other."""
        self._check(other)
        kept = []
        _eliminate(self.field, self.rows + other.rows, kept)
        if len(kept) != other.dim:
            raise AmbientMismatchError("complement_in requires containment")
        return tuple(kept[self.dim:])

    # dunder -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Subspace(F%d^%d, dim=%d)" % (self.field.p, self.n, self.dim)


class Matrix:
    """A matrix over a prime field, stored as packed rows."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_cols")

    def __init__(self, field, nrows, ncols, packed_rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(packed_rows))
        object.__setattr__(self, "_cols", None)  # column images, made on first apply
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, field, coord_rows, ncols=None):
        coord_rows = [tuple(r) for r in coord_rows]
        if ncols is None:
            ncols = len(coord_rows[0]) if coord_rows else 0
        return cls(field, len(coord_rows), ncols, [field.pack(r) for r in coord_rows])

    def coord_rows(self):
        return tuple(self.field.unpack(r, self.ncols) for r in self.rows)

    def apply(self, vec):
        """Matrix-vector product; vec is packed of length ncols.

        The product is the sum of the images of the columns, cached on first
        use: over F_2 the column as a bitmask, over odd p the column scaled
        by each c in F_p as one big integer of byte lanes.  Lanes are
        reduced whenever another term could overflow them, and at the end.
        """
        f = self.field
        cols = self._cols
        if f.p == 2:
            if cols is None:
                cols = self.transpose().rows
                object.__setattr__(self, "_cols", cols)
            out = 0
            while vec:
                low = vec & -vec
                out ^= cols[low.bit_length() - 1]
                vec ^= low
            return out
        if cols is None:
            cols = tuple(
                tuple(int.from_bytes(col.translate(m), "big") for m in f._mul)
                for col in self.transpose().rows
            )
            object.__setattr__(self, "_cols", cols)
        n, mod = self.nrows, f._mod
        room = 255 // (f.p - 1)  # terms of at most p - 1 a lane can hold
        out = terms = 0
        for x, images in zip(vec, cols):
            if x:
                out += images[x]
                terms += 1
                if terms == room:
                    out = int.from_bytes(out.to_bytes(n, "big").translate(mod), "big")
                    terms = 1  # the reduced sum is one term
        return out.to_bytes(n, "big").translate(mod)

    def mul(self, other):
        if self.ncols != other.nrows or self.field != other.field:
            raise AmbientMismatchError("matrix shapes do not compose")
        f = self.field
        rows = []
        for r in self.rows:
            acc = f.zero_row(other.ncols)
            for j in range(self.ncols):
                c = f.row_get(r, j)
                if c:
                    acc = f.row_add_scaled(acc, other.rows[j], c)
            rows.append(acc)
        return Matrix(f, self.nrows, other.ncols, rows)

    def transpose(self):
        """One pass over the entries: over F_2 each column gathers one bit
        per row, over odd p the byte lanes of the rows are zipped."""
        if self.field.p == 2:
            cols = [
                sum(1 << i for i, r in enumerate(self.rows) if r >> j & 1)
                for j in range(self.ncols)
            ]
        else:
            cols = list(map(bytes, zip(*self.rows))) if self.rows else [b""] * self.ncols
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def rank(self):
        _, rows = rref(self.field, self.rows)
        return len(rows)

    def kernel(self):
        """Subspace {v : A v = 0}: the rows [A e_j | e_j] span {(A v, v)};
        the columns A e_j are the rows of the transpose."""
        f, m, n = self.field, self.nrows, self.ncols
        ext = [f.row_join(col, f.unit_row(n, j), m) for j, col in enumerate(self.transpose().rows)]
        return _right_block(f, m, n, ext)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.p, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(F%d, %dx%d)" % (self.field.p, self.nrows, self.ncols)


# operator-vs-subspace operations ----------------------------------------


def image(T, W):
    """Image T(W) of a subspace under an operator."""
    _check_op(T, W)
    return Subspace(W.field, W.n, [T.apply(r) for r in W.rows])


def preimage(T, W):
    """Preimage {v : T v in W} of a subspace under an operator.

    With r the (linear) residue map modulo W, the rows [r(T e_j) | e_j]
    span {(r(T v), v)}; its vectors with zero left half are exactly the
    (0, v) with T v in W.
    """
    _check_op(T, W)
    f, n = W.field, W.n
    if W.dim == n:
        return Subspace.full(f, n)
    ext = [
        f.row_join(W.reduce_row(T.apply(f.unit_row(n, j))), f.unit_row(n, j), n)
        for j in range(n)
    ]
    return _right_block(f, n, n, ext)


def _right_block(f, left, n, joined_rows):
    """The subspace {v : (0 | v) in the span of the joined rows} of F_p^n,
    each row a left half of width `left` joined to a right half of width n.

    In the reduced echelon basis of the span the rows with zero left half
    come last and span that intersection; their right halves are already
    the reduced echelon basis of the answer.
    """
    pivots, rows = rref(f, joined_rows)
    right = [f.row_split(r, left)[1] for piv, r in zip(pivots, rows) if piv >= left]
    return Subspace(f, n, right, _canonical=True)


def _check_op(T, W):
    if T.field != W.field or T.ncols != W.n or T.nrows != W.n:
        raise AmbientMismatchError("operator does not act on the ambient space")


# enumeration --------------------------------------------------------------


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _echelon_rows(f, basis, d, cap):
    """The rows sum_j c_ij basis_j for every reduced echelon d x len(basis)
    matrix c, in canonical order (pivot columns lexicographic, then free
    entries lexicographic, row by row).  A row's candidates depend only on
    its own pivot, so they are built once per choice of pivots and the
    matrices are their product.  Refuses to start if the count exceeds cap.
    """
    q = len(basis)
    count = gaussian_binomial(q, d, f.p)
    if cap is not None and count > cap:
        raise EnumerationCapError(count, cap)
    for pivots in itertools.combinations(range(q), d):
        candidates = []
        for piv in pivots:
            free = [j for j in range(piv + 1, q) if j not in pivots]
            rows = []
            for vals in itertools.product(range(f.p), repeat=len(free)):
                row = basis[piv]
                for j, c in zip(free, vals):
                    if c:
                        row = f.row_add_scaled(row, basis[j], c)
                rows.append(row)
            candidates.append(rows)
        yield from itertools.product(*candidates)


def enumerate_subspaces(field, n, d, cap=DEFAULT_ENUM_CAP):
    """Yield every d-dimensional subspace of F_p^n exactly once.

    Subspaces come out in canonical order (pivot columns lexicographic,
    then free entries lexicographic); refuses to start if the Gaussian
    binomial count exceeds `cap`.
    """
    units = [field.unit_row(n, i) for i in range(n)]
    for rows in _echelon_rows(field, units, d, cap):
        yield Subspace(field, n, rows, _canonical=True)


def subspaces_between(floor, ceiling, d, cap=DEFAULT_ENUM_CAP):
    """Yield every subspace S with floor <= S <= ceiling and dim S = d, in
    canonical order over the basis floor.complement_in(ceiling) of the quotient."""
    comp = floor.complement_in(ceiling)
    if d < floor.dim or d > ceiling.dim:
        return
    f, n = floor.field, floor.n
    for rows in _echelon_rows(f, comp, d - floor.dim, cap):
        yield Subspace(f, n, floor.rows + rows)
