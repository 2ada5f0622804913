"""Exact matrices over the rationals, with the integer lattice algorithms
(Hermite normal form, integer kernels, lattice membership) that the rest
of the package is built on.

Entries are Python ints or fractions.Fraction; nothing here ever rounds.
Products and eliminations compute on ints, each operand or row scaled by
its common denominator, so Fractions appear only in their results. Every
product runs on ``_kernels.rows_product``, which this module exports for
the loops that compose row tuples without building a Matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from functools import cache, cached_property
from operator import add, mul, sub
from typing import Iterable, Sequence

from ._kernels import rows_product
from .errors import ValidationError

Scalar = int | Fraction

# isinstance(x, int) as a builtin that map() calls without a Python frame
_is_int = int.__instancecheck__


def _norm(x) -> Scalar:
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(d * values, d) as ints, for the least d > 0 clearing the
    denominators of the int or Fraction values; d = 1 for ints."""
    if all(map(_is_int, values)):
        return list(values), 1
    d = lcm(*[x.denominator for x in values])
    return [x.numerator * (d // x.denominator) for x in values], d


def primitive_tuple(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a nonzero int or
    Fraction vector: v times the positive rational that clears its
    denominators and divides out its content."""
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple([x // g for x in ints])


def _divided(values: Iterable[int], d: int) -> list[Scalar]:
    """values / d as normalized entries: ints where d divides."""
    if d == 1:
        return list(values)
    return [x // d if x % d == 0 else Fraction(x, d) for x in values]


class Matrix:
    """Immutable exact matrix. Use @ for matrix product, * for scalars."""

    __slots__ = ("_rows", "_nrows", "_ncols", "_integral")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_norm(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValueError("matrix rows must be non-empty and equal length")
        self._rows = rows
        self._nrows = len(rows)
        self._ncols = width
        self._integral = None

    @classmethod
    def trusted(cls, rows: tuple, integral: bool | None = None) -> "Matrix":
        """Internal constructor for results computed in this package: rows
        is a non-empty tuple of equal-length non-empty tuples of normalized
        entries (ints, and Fractions whose denominator is not 1), and
        integral, when given, says whether every entry is an int. Nothing
        is checked. The document parser normalizes each entry once and
        builds its matrices here; outside callers use Matrix(...)."""
        m = object.__new__(cls)
        m._rows = rows
        m._nrows = len(rows)
        m._ncols = len(rows[0])
        m._integral = integral
        return m

    @classmethod
    def _from_flat_entries(
        cls, flat: list, ncols: int, integral: bool | None = None
    ) -> "Matrix":
        """trusted() on normalized row-major entries."""
        return cls.trusted(
            tuple([tuple(flat[i:i + ncols]) for i in range(0, len(flat), ncols)]),
            integral,
        )

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _identity(n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls.trusted(((0,) * c,) * r, True)

    @classmethod
    def column(cls, entries: Sequence) -> "Matrix":
        return cls([[x] for x in entries])

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return self._nrows, self._ncols

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._rows)

    def flat(self) -> list:
        return [x for row in self._rows for x in row]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self._rows]})"

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        rows = [list(map(op, r1, r2)) for r1, r2 in zip(self._rows, other._rows)]
        if self.is_integral and other.is_integral:
            return Matrix.trusted(tuple(map(tuple, rows)), True)
        return Matrix(rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return Matrix.trusted(
            tuple([tuple([-x for x in r]) for r in self._rows]), self._integral
        )

    def __mul__(self, scalar) -> "Matrix":
        if isinstance(scalar, int) and self.is_integral:
            return Matrix.trusted(tuple([tuple([x * scalar for x in r]) for r in self._rows]), True)
        s = _norm(scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar))
        return Matrix([[x * s for x in r] for r in self._rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self._ncols != other._nrows:
            raise ValueError("shape mismatch in product")
        if self.is_integral and other.is_integral:
            return Matrix.trusted(rows_product(self._rows, other._rows), True)
        a, da = self.to_integer()
        b, db = other.to_integer()
        d = da * db
        return Matrix.trusted(
            tuple([tuple(_divided(row, d)) for row in rows_product(a._rows, b._rows)]),
            d == 1 or None,
        )

    def transpose(self) -> "Matrix":
        return Matrix.trusted(tuple(zip(*self._rows)), self._integral)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    @property
    def is_square(self) -> bool:
        return self._nrows == self._ncols

    @property
    def is_integral(self) -> bool:
        if self._integral is None:
            self._integral = all(all(map(_is_int, row)) for row in self._rows)
        return self._integral

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and self == self.T

    @property
    def is_alternating(self) -> bool:
        return (
            self.is_square
            and all(self._rows[i][i] == 0 for i in range(self._nrows))
            and self == -self.T
        )

    def to_integer(self) -> tuple["Matrix", int]:
        """Return (d*self, d) for the least d > 0 clearing denominators."""
        flat, d = clear_denominators(self.flat())
        return (self if d == 1 else Matrix._from_flat_entries(flat, self._ncols, True)), d

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant needs a square matrix")
        m, pivots, up, down = _gauss_jordan(self._rows, self._ncols)
        if len(pivots) < self._nrows:
            return Fraction(0)
        return Fraction(prod(m[k][k] for k in pivots) * prod(up), prod(down))

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse needs a square matrix")
        n = self._nrows
        aug = [row + tuple([int(i == j) for j in range(n)])
               for i, row in enumerate(self._rows)]
        m, pivots, _, _ = _gauss_jordan(aug, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return Matrix.trusted(
            tuple([tuple(_divided(row[n:], row[k])) for k, row in enumerate(m)])
        )

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form over Q, with pivot column indices."""
        m, pivots, _, _ = _gauss_jordan(self._rows, self._ncols)
        for k, col in enumerate(pivots):
            m[k] = _divided(m[k], m[k][col])
        return Matrix.trusted(tuple(map(tuple, m))), tuple(pivots)

    def rank(self) -> int:
        return len(_gauss_jordan(self._rows, self._ncols)[1])

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """Exact solution X of self @ X = rhs, or None if inconsistent.
        Free variables are set to zero."""
        if rhs.nrows != self._nrows:
            raise ValueError("shape mismatch")
        n = self._ncols
        m, pivots, _, _ = _gauss_jordan(
            [r1 + r2 for r1, r2 in zip(self._rows, rhs._rows)], n
        )
        if any(any(row[n:]) for row in m[len(pivots):]):
            return None
        out = [(0,) * rhs.ncols] * n
        for row, p in zip(m, pivots):
            out[p] = tuple(_divided(row[n:], row[p]))
        return Matrix.trusted(tuple(out))

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return _norm(sum(self._rows[i][i] for i in range(self._nrows)))


@cache
def _identity(n: int) -> Matrix:
    """The n x n identity, built once per size: a Matrix never changes."""
    return Matrix.trusted(tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]), True)


def trace_gram(left: Sequence[Matrix], right: Sequence[Matrix]) -> Matrix:
    """Matrix of Tr(a @ b) for a in left (rows) and b in right (columns).
    Tr(a @ b) is the dot product of a's entries with b.T's, so the Gram
    matrix is one product of the stacked flattenings."""
    lstack = Matrix.trusted(tuple(tuple(a.flat()) for a in left))
    rstack = Matrix.trusted(tuple(zip(*(b.T.flat() for b in right))))
    return lstack @ rstack


def _gauss_jordan(rows: Iterable[Sequence], width: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination on a copy of rows, pivoting
    on the first ``width`` columns.

    Each row is scaled to integers and divided by its content. Clearing a
    pivot column from row i replaces it by p * row_i - f * row_r (p the
    pivot, f the entry of row i), divided by its content, so every entry
    stays an integer and every row primitive (Bareiss 1968 divides by the
    previous pivot instead). Pivot row k holds pivot column pivots[k];
    dividing it by that entry gives the reduced row echelon form.

    Returns the integer rows, the pivot columns, and two factor lists
    with det(rows) = det(result) * prod(up) / prod(down) for square
    rows."""
    m, up, down = [], [], []
    for row in rows:
        ints, d = clear_denominators(row)
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
            up.append(g)
        m.append(ints)
        down.append(d)
    pivots = []
    r = 0
    nrows = len(m)
    for col in range(width):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            up.append(-1)
        prow = m[r]
        p = prow[col]
        for i in range(nrows):
            f = m[i][col]
            if f and i != r:
                new = [p * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                    up.append(g)
                down.append(p)
                m[i] = new
        pivots.append(col)
        r += 1
    return m, pivots, up, down


def semidefinite_rank(rows: Sequence[Sequence[int]]) -> int | None:
    """Rank of an integer symmetric matrix when it is positive
    semidefinite, None when it is not.

    Fraction-free symmetric elimination (Bareiss 1968) with positive
    diagonal pivots. Each step takes the first positive diagonal entry of
    the remaining block as pivot and replaces the block by the Schur
    complement times the pivot minor, so every division is exact and the
    signs of the block are those of the Schur complement. A negative
    diagonal entry means not semidefinite. When no positive one is left,
    the matrix is semidefinite exactly when the remaining block is zero."""
    a = [list(row) for row in rows]
    left = list(range(len(a)))
    prev = 1
    rank = 0
    while left:
        k = None
        for i in left:
            d = a[i][i]
            if d < 0:
                return None
            if d > 0 and k is None:
                k = i
        if k is None:
            return None if any(a[i][j] for i in left for j in left) else rank
        left.remove(k)
        row_k = a[k]
        p = row_k[k]
        for i in left:
            row_i = a[i]
            f = row_i[k]
            for j in left:
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
        rank += 1
    return rank


def definiteness_sign(m: Matrix) -> int:
    """+1 / -1 when the symmetric matrix is positive / negative definite,
    0 otherwise. Definite means semidefinite of full rank, read from
    semidefinite_rank of m and of -m scaled integral."""
    if not m.is_symmetric:
        raise ValueError("definiteness test needs a symmetric matrix")
    scaled, _ = m.to_integer()
    if semidefinite_rank(scaled.rows) == m.nrows:
        return 1
    if semidefinite_rank((-scaled).rows) == m.nrows:
        return -1
    return 0


# --- integer lattice algorithms -------------------------------------------

def _integer_matrix(rows: Iterable[Sequence[int]]) -> Matrix:
    return Matrix.trusted(tuple(map(tuple, rows)), True)


def _require_integral(m: Matrix, what: str) -> None:
    if not m.is_integral:
        raise ValueError(f"{what} needs an integer matrix")


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot). Pivot selection is the
    smallest absolute value (lowest row index on ties), which fixes the
    output bit-for-bit.
    """
    _require_integral(m, "hermite_normal_form")
    r, c = m.shape
    h = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    prow = 0
    for col in range(c):
        while True:
            nz = [i for i in range(prow, r) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != prow:
                h[prow], h[i0] = h[i0], h[prow]
                u[prow], u[i0] = u[i0], u[prow]
            if len(nz) == 1:
                break
            pv = h[prow][col]
            for i in range(prow + 1, r):
                if h[i][col] != 0:
                    q = h[i][col] // pv
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[prow])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[prow])]
        if prow < r and h[prow][col] != 0:
            if h[prow][col] < 0:
                h[prow] = [-x for x in h[prow]]
                u[prow] = [-x for x in u[prow]]
            pv = h[prow][col]
            for i in range(prow):
                q = h[i][col] // pv
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[prow])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[prow])]
            prow += 1
            if prow == r:
                break
    return _integer_matrix(h), _integer_matrix(u)


def integer_kernel_matrix(c: Matrix) -> Matrix | None:
    """Z-basis (as rows, HNF-canonical) of {x in Z^n : c @ x = 0};
    None when the kernel is zero. The lattice returned is saturated."""
    _require_integral(c, "integer_kernel_matrix")
    h, u = hermite_normal_form(c.T)
    zero_rows = [i for i in range(h.nrows) if all(x == 0 for x in h.row(i))]
    if not zero_rows:
        return None
    canon, _ = hermite_normal_form(_integer_matrix(u.row(i) for i in zero_rows))
    return _integer_matrix(canon.rows[:len(zero_rows)])


def commutator_rows(c: Matrix) -> list[list]:
    """Constraint rows of M -> M @ c - c @ M on row-major M, one row per
    entry (i, j): (M c)[i][j] puts c[k][j] on M[i][k], (c M)[i][j] puts
    c[i][k] on M[k][j]."""
    n = c.nrows
    cols = [c.col(j) for j in range(n)]
    rows = []
    for i, c_row in enumerate(c.rows):
        for j in range(n):
            row = [0] * (n * n)
            row[i * n:(i + 1) * n] = cols[j]
            for k, x in enumerate(c_row):
                row[k * n + j] -= x
            rows.append(row)
    return rows


def matrix_kernel_basis(rows: Iterable[Sequence], shape: tuple[int, int]) -> list[Matrix]:
    """Z-basis of the integer p*q matrices M whose row-major entries satisfy
    every constraint row (row . vec(M) = 0).

    Rows may be rational; each is scaled integral. Zero and repeated rows
    are dropped, which leaves the kernel unchanged. Basis is HNF-canonical,
    so output is deterministic and independent of the row order.
    """
    p, q = shape
    distinct = {}
    for row in rows:
        if len(row) != p * q:
            raise ValueError("constraint row length does not match shape")
        scaled = tuple(clear_denominators(row)[0])
        if any(scaled):
            distinct[scaled] = None
    kernel = integer_kernel_matrix(_integer_matrix(distinct or [[0] * (p * q)]))
    if kernel is None:
        return []
    return [Matrix._from_flat_entries(row, q, True) for row in kernel.rows]


def span_lattice(rows: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """HNF-canonical Z-basis (as rows) of the integer points of the Q-span
    of rational rows, not all zero: the basis integer_kernel_matrix gives
    when that lattice is a kernel.

    The reduced rows R hold an identity block at their pivots, so an
    integer point of the span is c @ R for its own pivot entries c, and
    the points are the integer c with c @ R integral. When R is integral
    that is every c, and R is a basis. Otherwise, with d clearing R's
    denominators, c @ (d R) must vanish mod d at the other columns: the
    integer kernel of [C | -d I] in the unknowns (c, y), C those columns
    mod d, holds each such c once, with y = c @ C / d, so its rows' first
    coordinates are a basis of them."""
    reduced, pivots = _integer_matrix(clear_denominators(row)[0] for row in rows).rref()
    k = len(pivots)
    if not k:
        raise ValueError("span_lattice: the rows are all zero, so their span is empty")
    ints, d = clear_denominators([x for row in reduced.rows[:k] for x in row])
    n = reduced.ncols
    scaled = [ints[i:i + n] for i in range(0, k * n, n)]
    if d > 1:
        others = [
            col for col in dict.fromkeys(
                tuple([row[j] % d for row in scaled]) for j in range(n) if j not in pivots
            ) if any(col)
        ]
        m = len(others)
        constraints = [
            [*col, *(-d if s == t else 0 for t in range(m))] for s, col in enumerate(others)
        ]
        kernel = integer_kernel_matrix(_integer_matrix(constraints))
        scaled = [
            [x // d for x in row]
            for row in rows_product([row[:k] for row in kernel.rows], scaled)
        ]
    return hermite_normal_form(_integer_matrix(scaled))[0].rows


class MatrixLattice:
    """Exact coordinates of matrices in a fixed basis of independent
    integral matrices.

    Subclasses hold ``basis`` and set ``membership`` to the invariant name
    and message raised for a matrix outside the span of the basis.
    """

    basis: tuple[Matrix, ...]
    membership: tuple[str, str]

    @cached_property
    def _solver(self) -> tuple[tuple[int, ...], tuple[tuple, ...], tuple[tuple, ...]]:
        """Entry positions where the basis is independent, the inverse of
        the basis restricted to them, and the flattened basis. Built once
        per lattice."""
        flats = Matrix.trusted(tuple(tuple(b.flat()) for b in self.basis))
        _, pivots = flats.rref()
        block = Matrix.trusted(tuple(flats.col(p) for p in pivots))
        return pivots, block.inverse().rows, flats.rows

    def coordinates(self, m: Matrix) -> tuple[Fraction, ...]:
        """Exact coordinates of m in the basis; raises when m is outside.

        The coordinates c come from the pivot entries alone, so m lies in
        the span exactly when d * m = sum (d * c_i) * b_i, for d clearing
        the denominators of c and m: a check on integers, summed over the
        nonzero c_i only."""
        if m.shape != self.basis[0].shape:
            raise ValueError("shape mismatch")
        pivots, inv, flats = self._solver
        flat = m.flat()
        rhs = [flat[p] for p in pivots]
        coords = tuple(Fraction(sum(map(mul, row, rhs))) for row in inv)
        ints, _ = clear_denominators(coords + tuple(flat))
        acc = [0] * len(flat)
        for c, b in zip(ints, flats):
            if c:
                acc = [x + c * y for x, y in zip(acc, b)]
        if acc != ints[len(coords):]:
            raise ValidationError(*self.membership)
        return coords

    def matrix_of(self, images: Sequence[Matrix]) -> Matrix:
        """The matrix whose column j holds the coordinates of images[j]:
        a map written in this basis. Raises as coordinates does."""
        return Matrix(list(zip(*map(self.coordinates, images))))

    def from_coordinates(self, coords: Sequence) -> Matrix:
        if len(coords) != len(self.basis):
            raise ValueError("coordinate length mismatch")
        acc = Matrix.zeros(*self.basis[0].shape)
        for c, b in zip(coords, self.basis):
            if c != 0:
                acc = acc + b * Fraction(c)
        return acc


def in_lattice_plus_integers(cols: Matrix, t: Sequence) -> bool:
    """Whether rational t lies in (column span of cols over Q) + Z^n.

    The rows of W, a saturated basis of the left kernel of cols, cut out
    span_Q(cols) and map Z^n onto Z^k; so t - z lies in the span for some
    integral z exactly when W @ t is integral."""
    _require_integral(cols, "in_lattice_plus_integers")
    w = integer_kernel_matrix(cols.T)  # rows w with w @ cols = 0
    if w is None:
        return True  # span is everything
    return all(sum(map(mul, row, t)).denominator == 1 for row in w.rows)
