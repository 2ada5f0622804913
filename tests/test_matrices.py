import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecrafter.matrices import (
    Matrix,
    _gauss_jordan,
    commutator_rows,
    definiteness_sign,
    hermite_normal_form,
    in_lattice_plus_integers,
    integer_kernel_matrix,
    matrix_kernel_basis,
    semidefinite_rank,
    span_lattice,
    trace_gram,
)

from conftest import antisymmetry_rows, block_diag, congruence_rows, positive_definite, vstack


def rand_int_matrix(rng, n, m, lo=-9, hi=9):
    return Matrix([[rng.randrange(lo, hi + 1) for _ in range(m)] for _ in range(n)])


small_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def int_matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return Matrix(rows)


@st.composite
def product_operands(draw):
    """a (n x k) and b (k x m), each integral or with Fraction entries,
    its integrality computed already or left unknown."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    fractions = st.builds(Fraction, small_entries, st.integers(1, 6))

    def operand(r, c):
        entries = draw(st.sampled_from((small_entries, st.one_of(small_entries, fractions))))
        mat = Matrix([[draw(entries) for _ in range(c)] for _ in range(r)])
        if draw(st.booleans()):
            mat.is_integral
        return mat

    return operand(n, k), operand(k, m)


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_product_matches_the_fraction_sums(case):
    """Integral, Fraction and mixed operands: the entries of the row by
    column Fraction sums, normalized, and the integral flag they have."""
    a, b = case
    want = [
        [Fraction(sum(map(mul, map(Fraction, row), col))) for col in zip(*b.rows)]
        for row in a.rows
    ]
    got = a @ b
    assert got.rows == tuple(map(tuple, want))
    assert [type(x) for row in got.rows for x in row] == [
        int if x.denominator == 1 else Fraction for row in want for x in row
    ]
    assert got.is_integral is all(x.denominator == 1 for row in want for x in row)


@settings(max_examples=200, deadline=None)
@given(
    product_operands(),
    st.one_of(small_entries, st.builds(Fraction, small_entries, st.integers(1, 6))),
)
def test_scalar_multiple_matches_the_fraction_products(case, scalar):
    """Integral or Fraction matrices times int or Fraction scalars, from
    either side: the normalized products and the integral flag they have
    (an int times an integral matrix takes the path that skips _norm)."""
    a, _ = case
    want = tuple(tuple(Fraction(x) * scalar for x in row) for row in a.rows)
    for got in (a * scalar, scalar * a):
        assert got.rows == want
        assert [type(x) for row in got.rows for x in row] == [
            int if x.denominator == 1 else Fraction for row in want for x in row
        ]
        assert got.is_integral is all(x.denominator == 1 for row in want for x in row)


class TestArithmetic:
    def test_constructor_rejects_ragged(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_matmul_and_inverse(self):
        m = Matrix([[2, 1], [1, 1]])
        inv = m.inverse()
        assert m @ inv == Matrix.identity(2)
        assert inv @ m == Matrix.identity(2)

    def test_det_triangular(self):
        m = Matrix([[2, 5, 1], [0, 3, 7], [0, 0, 4]])
        assert m.det() == 24

    def test_det_multiplicative(self):
        rng = random.Random(8)
        for _ in range(30):
            a = rand_int_matrix(rng, 3, 3)
            b = rand_int_matrix(rng, 3, 3)
            assert (a @ b).det() == a.det() * b.det()

    def test_solve_round_trip(self):
        rng = random.Random(15)
        for _ in range(30):
            a = rand_int_matrix(rng, 3, 3)
            if a.det() == 0:
                continue
            b = Matrix([[rng.randrange(-9, 10)] for _ in range(3)])
            x = a.solve(b)
            assert a @ x == b

    def test_rank_and_rref(self):
        m = Matrix([[1, 2], [2, 4], [3, 6]])
        assert m.rank() == 1
        assert Matrix([[1, 0], [0, 1], [1, 1]]).rank() == 2

    def test_to_integer_clears_denominators(self):
        m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [1, 0]])
        cleared, den = m.to_integer()
        assert den == 6
        assert cleared == Matrix([[3, 2], [6, 0]])
        assert cleared.is_integral

    def test_trace_and_transpose(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.trace() == 5
        assert m.T == Matrix([[1, 3], [2, 4]])

    def test_block_diag_and_vstack(self):
        a = Matrix([[1]])
        b = Matrix([[2, 0], [0, 3]])
        d = block_diag(a, b)
        assert d.rows == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
        s = vstack(a.T @ a, Matrix([[5]]))
        assert s.rows == ((1,), (5,))

    def test_hashable_and_frozen(self):
        m = Matrix([[1, 2], [3, 4]])
        assert hash(m) == hash(Matrix([[1, 2], [3, 4]]))
        assert len({m, Matrix([[1, 2], [3, 4]])}) == 1


class TestHermite:
    def test_known_form(self):
        h, u = hermite_normal_form(Matrix([[2, 4], [1, 1]]))
        assert h == Matrix([[1, 1], [0, 2]])
        assert u @ Matrix([[2, 4], [1, 1]]) == h
        assert abs(u.det()) == 1

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_reassembly_and_unimodularity(self, m):
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(u.det()) == 1
        # row echelon with nonnegative pivots and reduced entries above
        last = -1
        for i in range(h.nrows):
            row = h.rows[i]
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                continue
            p = nz[0]
            assert p > last
            last = p
            assert row[p] > 0
            for k in range(i):
                assert 0 <= h.rows[k][p] < row[p]

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(20):
            m = rand_int_matrix(rng, 3, 4)
            h, _ = hermite_normal_form(m)
            h2, _ = hermite_normal_form(h)
            assert h == h2


class TestIntegerKernels:
    def test_kernel_is_saturated(self):
        # kernel of (1 2 3): the lattice of integer relations
        k = integer_kernel_matrix(Matrix([[1, 2, 3]]))
        assert k.nrows == 2
        for row in k.rows:
            assert row[0] * 1 + row[1] * 2 + row[2] * 3 == 0
        # (1, 1, -1) must be expressible with integer coefficients
        assert reference_solve_integer(k.T, [1, 1, -1]) is not None
        assert reference_solve_integer(k.T, [0, 3, -2]) is not None

    def test_full_rank_kernel_is_none(self):
        assert integer_kernel_matrix(Matrix([[1, 0], [0, 1]])) is None

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_kernel_vectors_annihilate(self, m):
        k = integer_kernel_matrix(m)
        if k is None:
            assert m.rank() == m.ncols
            return
        assert k.nrows == m.ncols - m.rank()
        assert (m @ k.T).is_zero

    def test_kernel_is_canonical(self):
        # two generating sets of the same kernel give identical output
        a = Matrix([[2, 4, 6]])
        b = Matrix([[1, 2, 3], [3, 6, 9]])
        assert integer_kernel_matrix(a) == integer_kernel_matrix(b)

    @pytest.mark.parametrize("rows", [[[0, 0, 0]], [[0, 0], [0, 0]]])
    def test_span_of_zero_rows_is_refused(self, rows):
        """Rows that are all zero span no lattice: span_lattice names the
        empty span instead of failing on an index."""
        with pytest.raises(ValueError, match="span is empty"):
            span_lattice(rows)

    def test_matrix_kernel_basis_commutant(self):
        j = Matrix([[0, -1], [1, 0]])
        basis = matrix_kernel_basis(commutator_rows(j), (2, 2))
        assert len(basis) == 2
        for m in basis:
            assert m @ j == j @ m

    def test_matrix_kernel_basis_without_constraints_is_everything(self):
        basis = matrix_kernel_basis([[0, 0, 0, 0]], (2, 2))
        assert basis == [Matrix([row[:2], row[2:]]) for row in Matrix.identity(4).rows]

    def test_matrix_kernel_basis_rejects_short_rows(self):
        with pytest.raises(ValueError):
            matrix_kernel_basis([[1, 0, 0]], (2, 2))

    def test_solve_integer(self):
        a = Matrix([[2, 0], [0, 3]])
        assert reference_solve_integer(a, [4, 9]) == [2, 3]
        assert reference_solve_integer(a, [3, 9]) is None
        assert reference_solve_integer(Matrix([[1, 1], [2, 2]]), [1, 3]) is None

    @settings(max_examples=40, deadline=None)
    @given(int_matrices(max_dim=3), st.lists(small_entries, min_size=3, max_size=3))
    def test_solve_integer_round_trip(self, a, x):
        x = x[: a.ncols]
        if len(x) < a.ncols:
            x = x + [0] * (a.ncols - len(x))
        b = a @ Matrix([[xi] for xi in x])
        sol = reference_solve_integer(a, [b[i, 0] for i in range(a.nrows)])
        assert sol is not None
        back = a @ Matrix([[s] for s in sol])
        assert back == b


# --- lattice membership -------------------------------------------------------
#
# The reference decides t in span_Q(cols) + Z^n by solving W @ x = W @ t in
# integers through a second Hermite form, W being the saturated left kernel
# of cols; the package reads the same verdict off the integrality of W @ t.

def reference_solve_integer(a: Matrix, b) -> list[int] | None:
    """Integer solution x of a @ x = b, or None. b may be rational."""
    r, c = a.shape
    if len(b) != r:
        raise ValueError("shape mismatch")
    h, u = hermite_normal_form(a.T)  # a @ u.T = h.T, columns of h.T echelon
    pivots = []
    for i in range(h.nrows):
        row = h.row(i)
        j = next((k for k in range(len(row)) if row[k] != 0), None)
        if j is None:
            break
        pivots.append((i, j))
    resid = [Fraction(x) for x in b]
    z = [0] * c
    for i, j in pivots:
        val = resid[j] / h[i, j]
        if val.denominator != 1:
            return None
        zi = int(val)
        z[i] = zi
        if zi:
            resid = [x - zi * y for x, y in zip(resid, h.row(i))]
    if any(x != 0 for x in resid):
        return None
    ut = u.T
    return [int(sum(ut[i, k] * z[k] for k in range(c))) for i in range(c)]


def reference_in_lattice_plus_integers(cols: Matrix, t) -> bool:
    w = integer_kernel_matrix(cols.T)
    if w is None:
        return True
    y = [sum(x * ti for x, ti in zip(row, t)) for row in w.rows]
    return reference_solve_integer(w, y) is not None


def test_in_lattice_plus_integers():
    for member in (in_lattice_plus_integers, reference_in_lattice_plus_integers):
        # column span of (1, 2) over Q, plus integer vectors
        cols = Matrix([[1], [2]])
        assert member(cols, [Fraction(1, 2), Fraction(1)])
        assert member(cols, [Fraction(1, 2), Fraction(0)])
        assert not member(cols, [Fraction(1, 4), Fraction(0)])
        # zero map: only integer vectors remain
        zero = Matrix([[0, 0], [0, 0]])
        assert member(zero, [Fraction(2), Fraction(-1)])
        assert not member(zero, [Fraction(1, 2), Fraction(0)])


@st.composite
def membership_inputs(draw):
    """An integer n x m matrix (n <= 4) and a rational n-vector: either a
    rational combination of the columns plus an integer vector, possibly
    pushed off by 1/d in one coordinate, or an arbitrary rational vector."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    cols = Matrix([draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)])
    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
    if draw(st.booleans()):
        q = draw(st.lists(fractions, min_size=m, max_size=m))
        t = [sum(x * qj for x, qj in zip(row, q)) + draw(entries) for row in cols.rows]
        if draw(st.booleans()):
            t[draw(st.integers(0, n - 1))] += Fraction(1, draw(st.integers(2, 6)))
    else:
        t = draw(st.lists(fractions, min_size=n, max_size=n))
    return cols, [Fraction(x) for x in t]


@settings(max_examples=300, deadline=None)
@given(membership_inputs())
@example((Matrix([[2], [4]]), [Fraction(1, 2), Fraction(0)]))
@example((Matrix([[2, 0], [0, 3]]), [Fraction(1, 3), Fraction(1, 2)]))
@example((Matrix([[0], [0]]), [Fraction(1, 2), Fraction(1)]))
def test_membership_matches_the_integer_solve(case):
    """Reading integrality off W @ t agrees with solving W @ x = W @ t."""
    cols, t = case
    assert in_lattice_plus_integers(cols, t) == reference_in_lattice_plus_integers(cols, t)


class TestDefiniteness:
    def test_signs(self):
        assert definiteness_sign(Matrix([[2, 0], [0, 3]])) == 1
        assert definiteness_sign(Matrix([[-2, 0], [0, -3]])) == -1
        assert definiteness_sign(Matrix([[1, 0], [0, -1]])) == 0
        assert definiteness_sign(Matrix([[1, 0], [0, 0]])) == 0

    def test_positive_definite_sylvester(self):
        assert definiteness_sign(Matrix([[2, 1], [1, 2]])) == 1
        assert definiteness_sign(Matrix([[1, 2], [2, 1]])) != 1

    @settings(max_examples=40, deadline=None)
    @given(int_matrices(max_dim=3))
    def test_gram_matrices_are_nonneg(self, m):
        gram = m.T @ m
        assert definiteness_sign(gram) in (0, 1)
        if m.rank() == m.ncols:
            assert definiteness_sign(gram) == 1


def closure_rows(op, n):
    """Reference: the constraint rows of a linear map on n x n matrices,
    read off by applying it to every unit matrix (column k*n + l is the
    flattened image of the unit matrix at (k, l))."""
    images = []
    for k in range(n):
        for l in range(n):
            unit = Matrix([[int((i, j) == (k, l)) for j in range(n)] for i in range(n)])
            images.append(op(unit).flat())
    return [[img[r] for img in images] for r in range(len(images[0]))]


def closure_kernel_basis(op, n):
    """Reference: the kernel basis as built from a closure, each row
    scaled integral, zero rows kept."""
    rows = []
    for row in closure_rows(op, n):
        d = lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * d) for x in row])
    kernel = integer_kernel_matrix(Matrix(rows))
    if kernel is None:
        return []
    return [Matrix([row[i * n:(i + 1) * n] for i in range(n)]) for row in kernel.rows]


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_scalars = st.one_of(small_entries, small_fractions)


def square_matrices(n, entries=small_scalars):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


square_sizes = st.integers(min_value=1, max_value=4)


def cofactor_det(rows):
    """Reference: Laplace expansion along the first row."""
    if len(rows) == 1:
        return Fraction(rows[0][0])
    return sum(
        (-1) ** j * rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def minors_sign(m):
    """Reference: Sylvester's criterion on the leading principal minors,
    each by cofactor expansion."""
    minors = [cofactor_det([r[: k + 1] for r in m.rows[: k + 1]]) for k in range(m.nrows)]
    if all(d > 0 for d in minors):
        return 1
    if all((d > 0 if k % 2 else d < 0) for k, d in enumerate(minors)):
        return -1
    return 0


def principal_minors_rank(m):
    """Reference: m is positive semidefinite iff every principal minor
    (not only the leading ones) is nonnegative; its rank by Matrix.rank."""
    n = m.nrows
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            if cofactor_det([[m[i, j] for j in idx] for i in idx]) < 0:
                return None
    return m.rank()


@st.composite
def symmetric_int_matrices(draw):
    """Gram matrices a.T @ a (positive definite, or singular when a is),
    their negatives, and a + a.T (often indefinite)."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-4, max_value=4)
    a = Matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["gram", "negative", "sum"]))
    if kind == "sum":
        return a + a.T
    gram = a.T @ a
    return gram if kind == "gram" else -gram


@st.composite
def upper_triangle_symmetric(draw):
    """Symmetric matrices from an arbitrary upper triangle, up to 5x5:
    mostly indefinite, with some large entries."""
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.one_of(st.integers(-6, 6), st.integers(-10**12, 10**12))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return Matrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])


class TestElimination:
    """det, definiteness_sign, semidefinite_rank and positive_definite are
    checked against cofactor expansion."""

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(symmetric_int_matrices(), upper_triangle_symmetric()))
    @example(Matrix([[2, 1], [1, 2]]))  # positive definite
    @example(Matrix([[1, 2], [2, 4]]))  # singular, positive semidefinite
    @example(Matrix([[2, 3], [3, 2]]))  # indefinite after a positive pivot
    @example(Matrix([[0, 1], [1, 0]]))  # zero leading minor
    @example(Matrix([[0, 0, 0], [0, 2, 1], [0, 1, 2]]))  # semidefinite_rank swaps pivots
    @example(Matrix([[1, 1, 0], [1, 2, 1], [0, 1, 2]]))  # pivots 1, 1, 1
    @example(Matrix([[4, 2, 2], [2, 5, 1], [2, 1, 6]]))  # pivots need exact division
    def test_positive_definite_matches_sylvester(self, m):
        want = minors_sign(m) == 1
        assert positive_definite(m.rows) is want
        assert (semidefinite_rank(m.rows) == m.nrows) is want

    def test_positive_definite_leaves_its_input_alone(self):
        rows = [[4, 2, 2], [2, 5, 1], [2, 1, 6]]
        assert positive_definite(rows)
        assert rows == [[4, 2, 2], [2, 5, 1], [2, 1, 6]]

    @settings(max_examples=150, deadline=None)
    @given(symmetric_int_matrices())
    @example(Matrix([[0, 0], [0, 0]]))  # zero: semidefinite of rank 0
    @example(Matrix([[0, 1], [1, 0]]))  # zero diagonal, nonzero block
    @example(Matrix([[1, 2], [2, 4]]))  # rank 1 after one pivot
    @example(Matrix([[0, 0], [0, -1]]))  # negative entry behind a zero
    @example(Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]]))  # zero block after a pivot
    @example(Matrix([[0, 0, 0], [0, 2, 1], [0, 1, 2]]))  # first pivot not in row 0
    def test_semidefinite_rank_matches_principal_minors(self, m):
        assert semidefinite_rank(m.rows) == principal_minors_rank(m)

    def test_semidefinite_rank_examples_reach_every_outcome(self):
        outcomes = {
            principal_minors_rank(Matrix(rows))
            for rows in ([[0, 1], [1, 0]], [[1, 2], [2, 4]], [[2, 1], [1, 2]])
        }
        assert outcomes == {None, 1, 2}

    @settings(max_examples=150, deadline=None)
    @given(symmetric_int_matrices())
    @example(Matrix([[0, 1], [1, 0]]))  # indefinite, zero leading minor
    @example(Matrix([[1, 1], [1, 1]]))  # singular, positive semidefinite
    @example(Matrix([[0, 0], [0, 2]]))  # singular, first pivot missing
    @example(Matrix([[-2, 1], [1, -2]]))  # negative definite
    @example(Matrix([[-1, 0], [0, 0]]))  # singular, negative semidefinite
    @example(Matrix([[2, 3], [3, 2]]))  # indefinite, no row swap
    def test_definiteness_sign_matches_leading_minors(self, m):
        assert definiteness_sign(m) == minors_sign(m)
        assert (definiteness_sign(m) == 1) == (minors_sign(m) == 1)

    def test_examples_reach_every_sign(self):
        signs = {
            minors_sign(Matrix(rows))
            for rows in ([[0, 1], [1, 0]], [[-2, 1], [1, -2]], [[2, 1], [1, 2]])
        }
        assert signs == {-1, 0, 1}

    @settings(max_examples=150, deadline=None)
    @given(square_sizes.flatmap(lambda n: square_matrices(n)))
    def test_det_matches_cofactor_expansion(self, m):
        assert m.det() == cofactor_det(m.rows)

    @settings(max_examples=60, deadline=None)
    @given(square_sizes.flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
    def test_trace_gram_matches_products(self, ab):
        a, b = ab
        gram = trace_gram([a, b], [b, a.T])
        assert gram == Matrix([[(x @ y).trace() for y in (b, a.T)] for x in (a, b)])


class TestConstraintRows:
    """The constraint rows equal the closure they replace, evaluated on
    unit matrices. The congruence and antisymmetry rows are the form
    lattice oracle's, in conftest."""

    @settings(max_examples=60, deadline=None)
    @given(square_sizes.flatmap(square_matrices))
    def test_commutator_rows_match_closure(self, c):
        assert commutator_rows(c) == closure_rows(lambda m: m @ c - c @ m, c.nrows)

    @settings(max_examples=60, deadline=None)
    @given(square_sizes.flatmap(square_matrices))
    def test_congruence_rows_match_closure(self, g):
        assert congruence_rows(g) == closure_rows(lambda m: g.T @ m @ g - m, g.nrows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_antisymmetry_rows_match_closure(self, n):
        assert antisymmetry_rows(n) == closure_rows(lambda m: m + m.T, n)

    def test_rational_complex_structure(self):
        # J = P J0 P^-1 with det P = 2: rational, and still J @ J = -I
        p = Matrix([[2, 0], [0, 1]])
        j = p @ Matrix([[0, -1], [1, 0]]) @ p.inverse()
        assert not j.is_integral
        assert j @ j == -Matrix.identity(2)

        def op(f):
            return vstack(f + f.T, j.T @ f @ j - f)

        rows = antisymmetry_rows(2) + congruence_rows(j)
        assert rows == closure_rows(op, 2)
        basis = matrix_kernel_basis(rows, (2, 2))
        assert basis == closure_kernel_basis(op, 2)
        assert basis
        for f in basis:
            assert f == -f.T and j.T @ f @ j == f

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(square_matrices(n, small_entries), square_matrices(n))
    ))
    def test_kernel_basis_matches_closure(self, pair):
        c, g = pair

        def op(m):
            return vstack(m @ c - c @ m, g.T @ m @ g - m)

        rows = commutator_rows(c) + congruence_rows(g)
        assert matrix_kernel_basis(rows, c.shape) == closure_kernel_basis(op, c.nrows)


# --- the Fraction reference the integer layer is checked against -----------

def reference_eliminate(rows, width, above):
    """Gaussian elimination over Q, entry by entry in Fractions (the
    elimination the integer layer replaced): each pivot row scaled to 1,
    its column cleared below it, and above it too when ``above``. Returns
    the reduced rows, the pivot columns, each pivot's value before scaling
    and the number of row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, values, swaps = [], [], 0
    r = 0
    for col in range(width):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(0 if above else r + 1, len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        values.append(pv)
        r += 1
    return m, pivots, values, swaps


def reference_rref(m):
    red, pivots, _, _ = reference_eliminate(m.rows, m.ncols, above=True)
    return Matrix(red), tuple(pivots)


def reference_det(m):
    _, pivots, values, swaps = reference_eliminate(m.rows, m.ncols, above=False)
    if len(pivots) < m.nrows:
        return Fraction(0)
    out = Fraction((-1) ** swaps)
    for v in values:
        out *= v
    return out


def reference_inverse(m):
    n = m.nrows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.rows)]
    red, pivots, _, _ = reference_eliminate(aug, n, above=True)
    if len(pivots) < n:
        return None
    return Matrix([row[n:] for row in red])


def reference_solve(a, b):
    aug = Matrix([list(r1) + list(r2) for r1, r2 in zip(a.rows, b.rows)])
    red, pivots = reference_rref(aug)
    n = a.ncols
    if any(p >= n for p in pivots):
        return None
    out = [[0] * b.ncols for _ in range(n)]
    for r, p in enumerate(pivots):
        for j in range(b.ncols):
            out[p][j] = red[r, n + j]
    return Matrix(out)


def reference_product(a, b):
    return Matrix([
        [sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b.rows)]
        for row in a.rows
    ])


def is_normalized(m):
    """Every entry is an int exactly when its denominator is 1, and the
    matrix's integrality flag agrees with its entries."""
    entries = m.flat()
    ok = all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in entries
    )
    return ok and m.is_integral == all(type(x) is int for x in entries)


# zero-heavy entries reach skipped pivot columns; the last strategy has
# denominators far past a machine word
oracle_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30),
)
oracle_sizes = st.integers(min_value=1, max_value=5)


@st.composite
def oracle_matrices(draw, nrows=None, ncols=None):
    """Square, wide and tall rational matrices, some with a zero row or a
    row that is a multiple of another (singular)."""
    n = nrows or draw(oracle_sizes)
    m = ncols or draw(oracle_sizes)
    rows = draw(st.lists(
        st.lists(oracle_entries, min_size=m, max_size=m), min_size=n, max_size=n
    ))
    kind = draw(st.sampled_from(["plain", "zero_row", "dependent"]))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "zero_row":
        rows[i] = [0] * m
    elif kind == "dependent" and n > 1:
        j = (i + 1) % n
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
        rows[i] = [c * x for x in rows[j]]
    return Matrix(rows)


class TestIntegerLayerOracle:
    """rref, rank, solve, inverse, det and @ compute on integers and
    equal the Fraction reference, with every entry normalized."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_matrices())
    @example(Matrix([[0, 0], [0, 0]]))
    @example(Matrix([[0, 2, 4], [0, 1, 2]]))
    @example(Matrix([[Fraction(1, 10**20), 1], [1, Fraction(10**20, 3)]]))
    def test_rref_and_rank(self, m):
        red, pivots = m.rref()
        assert (red, pivots) == reference_rref(m)
        assert m.rank() == len(pivots)
        assert is_normalized(red)

    @settings(max_examples=100, deadline=None)
    @given(oracle_sizes.flatmap(lambda n: oracle_matrices(n, n)))
    @example(Matrix([[0, 1], [1, 0]]))  # one row swap: det -1
    @example(Matrix([[Fraction(2, 3), Fraction(-5, 7)], [Fraction(1, 9), 4]]))
    def test_det_and_inverse(self, m):
        det = m.det()
        assert type(det) is Fraction
        assert det == reference_det(m)
        assert str(det) == str(reference_det(m))
        want = reference_inverse(m)
        if want is None:
            assert det == 0
            with pytest.raises(ValueError):
                m.inverse()
        else:
            inv = m.inverse()
            assert inv == want
            assert is_normalized(inv)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(oracle_sizes, oracle_sizes, oracle_sizes).flatmap(
        lambda s: st.tuples(oracle_matrices(s[0], s[1]), oracle_matrices(s[0], s[2]))
    ))
    def test_solve(self, ab):
        a, b = ab
        x = a.solve(b)
        assert x == reference_solve(a, b)
        if x is not None:
            assert a @ x == b
            assert is_normalized(x)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(oracle_sizes, oracle_sizes, oracle_sizes).flatmap(
        lambda s: st.tuples(oracle_matrices(s[0], s[1]), oracle_matrices(s[1], s[2]))
    ))
    def test_product(self, ab):
        a, b = ab
        prod = a @ b
        assert prod == reference_product(a, b)
        for m in (prod, a.T, -a, a.to_integer()[0], a + a, a - a, a * 3):
            assert is_normalized(m)

    @settings(max_examples=60, deadline=None)
    @given(int_matrices())
    def test_integer_results_are_normalized(self, m):
        h, u = hermite_normal_form(m)
        results = [h, u, Matrix.identity(m.nrows), Matrix.zeros(m.nrows, m.ncols)]
        kernel = integer_kernel_matrix(m)
        if kernel is not None:
            results.append(kernel)
        results += matrix_kernel_basis(m.rows, (1, m.ncols))
        results.append(trace_gram([m], [m.T]))
        for r in results:
            assert r.is_integral and is_normalized(r)

    @settings(max_examples=100, deadline=None)
    @given(oracle_matrices())
    def test_elimination_rows_are_primitive_integers(self, m):
        """Each row of the fraction-free elimination is an integer row with
        content 1 (or zero), so entries stay small, and dividing the pivot
        rows by their pivots gives the reduced form."""
        rows, pivots, _, _ = _gauss_jordan(m.rows, m.ncols)
        for row in rows:
            assert all(type(x) is int for x in row)
            assert gcd(*row) in (0, 1)
        reduced = [
            [Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)
        ] + [list(row) for row in rows[len(pivots):]]
        assert (Matrix(reduced), tuple(pivots)) == reference_rref(m)

    def test_large_entries(self):
        # Hilbert matrix of order 6 with a scaled last row: a large
        # determinant denominator and an inverse with large entries
        h = Matrix([[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)])
        assert h.det() == reference_det(h) == Fraction(1, 186313420339200000)
        assert h.inverse() == reference_inverse(h)
        assert h @ h.inverse() == Matrix.identity(6)
