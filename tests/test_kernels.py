"""The integer kernels against independent oracles: naive products,
cofactor expansion, Fraction arithmetic, generic row-by-row products for
the compiled linear maps, and the elimination loop positive_definite
(in conftest) for the compiled Sylvester test.
"""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conecrafter import _kernels
from conecrafter.matrices import Matrix
from conecrafter.pipeline import (
    _problem_domain,
    build_domain,
    build_torus_problem,
    prepare_torus,
)
from conecrafter.reduction import find_eta, hyperbolic_domain

from conftest import load_corpus, positive_definite


def test_backend_reports_something():
    assert _kernels.BACKEND == "pure"


def naive_mul(a, b, n, k, m):
    return [
        sum(a[i * k + t] * b[t * m + j] for t in range(k))
        for i in range(n)
        for j in range(m)
    ]


def test_imat_mul_matches_naive():
    rng = random.Random(1201)
    for _ in range(80):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        a = [rng.randrange(-50, 51) for _ in range(n * k)]
        b = [rng.randrange(-50, 51) for _ in range(k * m)]
        assert _kernels.imat_mul(a, b, n, k, m) == naive_mul(a, b, n, k, m)


def test_imat_mul_big_integers():
    # entries far beyond machine words must not overflow
    a = [10**30, -3, 7, 10**25]
    b = [2, 10**40, -1, 5]
    got = _kernels.imat_mul(a, b, 2, 2, 2)
    assert got == naive_mul(a, b, 2, 2, 2)


def laplace_charpoly(a, n):
    """det(x*I - A) by cofactor expansion over polynomial coefficients."""

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def padd(p, q):
        out = [0] * max(len(p), len(q))
        for i, pi in enumerate(p):
            out[i] += pi
        for j, qj in enumerate(q):
            out[j] += qj
        return out

    # entries of x*I - A as coefficient lists
    entries = [
        [[-a[i * n + j]] if i != j else [-a[i * n + j], 1] for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = [0]
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = pmul(entries[r][c], minor)
            if pos % 2:
                term = [-t for t in term]
            total = padd(total, term)
        return total

    out = det(tuple(range(n)), tuple(range(n)))
    return out + [0] * (n + 1 - len(out))


def test_berkowitz_matches_laplace():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randrange(1, 6)
        a = [rng.randrange(-9, 10) for _ in range(n * n)]
        assert _kernels.berkowitz_charpoly(a, n) == laplace_charpoly(a, n)


def test_berkowitz_identity_and_empty():
    assert _kernels.berkowitz_charpoly([], 0) == [1]
    # det(xI - I) = (x - 1)^2 = 1 - 2x + x^2
    assert _kernels.berkowitz_charpoly([1, 0, 0, 1], 2) == [1, -2, 1]


def test_poly_sign_at_matches_fractions():
    rng = random.Random(3)
    for _ in range(300):
        deg = rng.randrange(0, 7)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg + 1)]
        p = rng.randrange(-30, 31)
        q = rng.randrange(1, 12)
        x = Fraction(p, q)
        val = sum(c * x**i for i, c in enumerate(coeffs))
        want = (val > 0) - (val < 0)
        assert _kernels.poly_sign_at(coeffs, p, q) == want


def test_sign_variations_known():
    assert _kernels.sign_variations([]) == 0
    assert _kernels.sign_variations([1, 1, 1]) == 0
    assert _kernels.sign_variations([1, -1, 1]) == 2
    assert _kernels.sign_variations([1, 0, -1]) == 1
    assert _kernels.sign_variations([0, 0, 1, 0, 0, -1, 0]) == 1
    assert _kernels.sign_variations([-1, 0, 0, -1]) == 0


# --- compiled linear maps ---------------------------------------------------

HUGE = 10**5000  # past the 4300-digit int-to-str limit

coefficients = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.integers(-10**6, 10**6),
    st.builds(lambda sign, low: sign * (HUGE + low), st.sampled_from((1, -1)), st.integers(0, 9)),
)


def generic_map(rows, v):
    return tuple(sum(map(mul, row, v)) for row in rows)


@st.composite
def matrices_and_vectors(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(coefficients, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    v = tuple(draw(st.lists(coefficients, min_size=ncols, max_size=ncols)))
    return rows, v


def closed_search(rows):
    """The orbit search with no letters: its facet test alone, which
    returns () for a start in the closed cone of the rows, else None."""
    return _kernels.orbit_search([], [], (0,) * len(rows[0]), rows)


def in_closed_cone(rows, v):
    return () if all(x >= 0 for x in generic_map(rows, v)) else None


@settings(max_examples=200, deadline=None)
@given(matrices_and_vectors())
@example(([[0, 0], [1, -1]], (HUGE, -HUGE)))
@example(([[HUGE, -1, 0, 1]], (1, 1, 1, 1)))
def test_linear_map_matches_the_generic_product(case):
    rows, v = case
    want = generic_map(rows, v)
    assert _kernels.linear_map(rows)(v) == want
    assert closed_search(rows)(v, 1) == in_closed_cone(rows, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.lists(st.lists(coefficients, min_size=r, max_size=r), min_size=16, max_size=16),
    st.lists(coefficients, min_size=r, max_size=r).map(tuple),
)))
def test_form_maps_match_the_generic_product(case):
    """16 x r maps, the shape of a rank-4 torus's Hermitian form map."""
    rows, v = case
    assert _kernels.linear_map(rows)(v) == generic_map(rows, v)


@st.composite
def one_shape_twice(draw):
    """Two matrices of one kernel shape, the same zero and +-1 entries,
    every other entry c of the first scaled in the second by -1, 2 or 3,
    and vectors to apply both to."""
    first, _ = draw(matrices_and_vectors())
    assume(any(abs(c) > 1 for row in first for c in row))
    second = [
        [c if abs(c) <= 1 else draw(st.sampled_from((-1, 2, 3))) * c for c in row]
        for row in first
    ]
    width = len(first[0])
    vector = st.lists(coefficients, min_size=width, max_size=width).map(tuple)
    vectors = draw(st.lists(vector, min_size=1, max_size=4))
    return first, second, vectors


@settings(max_examples=100, deadline=None)
@given(one_shape_twice())
@example(([[2, 0], [1, -7]], [[-2, 0], [1, 21]], [(1, 1)]))
def test_kernels_of_one_shape_keep_their_own_coefficients(case):
    """The two kernels share one compiled build, and each binds its own
    coefficients: a compile cache that handed the second the first's
    kernel gives the first's products."""
    first, second, vectors = case
    oracles = ((_kernels.linear_map, generic_map, ()), (closed_search, in_closed_cone, (1,)))
    for make, oracle, budget in oracles:
        kernels = [make(rows) for rows in (first, second)]
        assert kernels[0].__code__ is kernels[1].__code__
        for rows, kernel in zip((first, second), kernels):
            assert [kernel(v, *budget) for v in vectors] == [oracle(rows, v) for v in vectors]


def test_the_compile_cache_is_bounded():
    """Past COMPILE_CACHE_SIZE distinct shapes the least recently used
    source is dropped, and a dropped shape compiles again when built."""
    size = _kernels.COMPILE_CACHE_SIZE
    for width in range(1, size + 20):
        assert _kernels.linear_map([[2] * width])((1,) * width) == (2 * width,)
    info = _kernels._builder.cache_info()
    assert info.maxsize == size
    assert info.currsize == size
    assert _kernels.linear_map([[2]])((5,)) == (10,)
    assert _kernels._builder.cache_info().misses == info.misses + 1


# --- compiled products ------------------------------------------------------

# n x k by k x m with k * m past PRODUCT_COMPILE_CAP: the generic loop
ABOVE_CAP = (2, 9, 8)


def fraction_product(a, b):
    """a @ b by the triple loop, every term and sum a Fraction."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = Fraction(0)
            for t in range(len(b)):
                total += Fraction(a[i][t]) * Fraction(b[t][j])
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


@st.composite
def product_operands(draw, entries=coefficients):
    n, k, m = draw(st.one_of(st.tuples(*[st.integers(1, 6)] * 3), st.just(ABOVE_CAP)))
    a = tuple(tuple(draw(st.lists(entries, min_size=k, max_size=k))) for _ in range(n))
    b = tuple(tuple(draw(st.lists(entries, min_size=m, max_size=m))) for _ in range(k))
    return a, b


fraction_entries = st.one_of(
    coefficients,
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 30)),
    st.builds(lambda x: Fraction(x, 7), coefficients),
)


@settings(max_examples=300, deadline=None)
@given(product_operands())
@example((((HUGE, -1, 0),), ((1,), (-HUGE,), (5,))))
@example(((((-1,) * ABOVE_CAP[1]),) * ABOVE_CAP[0], ((HUGE,) * ABOVE_CAP[2],) * ABOVE_CAP[1]))
def test_rows_product_matches_the_fraction_sums(case):
    """Integer operands from 1 x 1 x 1 to 6 x 6 x 6, and one shape past
    the compile cap: equal sums, every entry an int."""
    a, b = case
    got = _kernels.rows_product(a, b)
    assert got == fraction_product(a, b)
    assert all(type(x) is int for row in got for x in row)
    n, k, m = len(a), len(b), len(b[0])
    assert _kernels.imat_mul(list(sum(a, ())), list(sum(b, ())), n, k, m) == list(sum(got, ()))


@settings(max_examples=200, deadline=None)
@given(product_operands(fraction_entries))
def test_matrix_product_matches_the_fraction_sums(case):
    """Fraction operands through Matrix @, whose non-integral path clears
    denominators before the kernel: the normalized sums."""
    a, b = case
    got = (Matrix(a) @ Matrix(b)).rows
    want = fraction_product(a, b)
    assert got == want
    assert [type(x) for row in got for x in row] == [
        int if x.denominator == 1 else Fraction for row in want for x in row
    ]


@settings(max_examples=100, deadline=None)
@given(product_operands(), st.integers(1, 6), st.data())
def test_products_of_one_shape_share_one_kernel(case, n, data):
    """A second product with the right factor's shape, other values and
    another row count runs the same compiled code, recompiled or not,
    and each returns its own sums."""
    a, b = case
    k, m = len(b), len(b[0])
    assume(k * m <= _kernels.PRODUCT_COMPILE_CAP)
    rows = st.lists(coefficients, min_size=k, max_size=k).map(tuple)
    a2 = tuple(data.draw(rows) for _ in range(n))
    b2 = tuple(tuple(-x if x else 7 for x in row) for row in b)
    _kernels._product_kernel.cache_clear()
    first = _kernels._product_kernel(k, m)
    _kernels._product_kernel.cache_clear()
    second = _kernels._product_kernel(k, m)
    assert first is not second
    assert first.__code__ is second.__code__
    assert first(a, b) == fraction_product(a, b)
    assert second(a2, b2) == fraction_product(a2, b2)
    assert first(a2, b2) == second(a2, b2)


def test_the_product_cache_is_bounded():
    """Every shape under the cap compiles once; past COMPILE_CACHE_SIZE
    shapes the least recently used is dropped and compiles again when
    used, and a right factor past the cap compiles nothing."""
    cap = _kernels.PRODUCT_COMPILE_CAP
    shapes = [(k, m) for k in range(1, cap + 1) for m in range(1, cap // k + 1)]
    assert len(shapes) > _kernels.COMPILE_CACHE_SIZE
    _kernels._product_kernel.cache_clear()
    for k, m in shapes:
        b = tuple(tuple(range(t * m, (t + 1) * m)) for t in range(k))
        assert _kernels.rows_product(((1,) * k,), b) == (tuple(map(sum, zip(*b))),)
    info = _kernels._product_kernel.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (
        _kernels.COMPILE_CACHE_SIZE, _kernels.COMPILE_CACHE_SIZE, len(shapes)
    )
    assert _kernels.rows_product(((3,),), ((5,),)) == ((15,),)
    assert _kernels._product_kernel.cache_info().misses == info.misses + 1
    n, k, m = ABOVE_CAP
    assert k * m > cap
    assert _kernels.rows_product(((1,) * k,) * n, ((1,) * m,) * k) == ((k,) * m,) * n
    assert _kernels._product_kernel.cache_info().misses == info.misses + 1


def test_linear_map_checks_its_input_width():
    with pytest.raises(ValueError):
        _kernels.linear_map([[1, 2], [3]])
    with pytest.raises(ValueError):
        _kernels.linear_map([[1, 2]])((1, 2, 3))


def test_no_coefficient_reaches_the_source():
    compiled = _kernels.linear_map([[HUGE, 7], [-1, 0]])
    names = compiled.__code__.co_freevars
    assert set(names) == {"k0", "k1"}
    assert all(not isinstance(c, int) or abs(c) <= 1 for c in compiled.__code__.co_consts)
    for n in (0, 1, 4, 8):
        test = positive_definite_test(n)
        assert test.__code__.co_freevars == ()
        assert all(not isinstance(c, int) or abs(c) <= 1 for c in test.__code__.co_consts)


def positive_definite_test(n):
    """u -> whether the n x n integer symmetric matrix whose upper
    triangle, row by row, is u is positive definite: the compiled
    Sylvester test on the identity map."""
    size = n * (n + 1) // 2
    return _kernels.positive_definite_form([[int(i == j) for j in range(size)] for i in range(size)], n)


def upper_triangle(m):
    n = len(m)
    return tuple(m[i][j] for i in range(n) for j in range(i, n))


@st.composite
def symmetric_matrices(draw, max_n=8):
    """Symmetric integer matrices up to max_n x max_n: Gram matrices of
    up to n + 1 vectors (semidefinite, definite when the vectors span)
    shifted by 0, +-1 or +-HUGE on the diagonal, arbitrary symmetric ones
    (mostly indefinite), and zero ones. Entries past HUGE go into the
    arbitrary ones only up to 4 x 4: the elimination's exact divisions of
    their minors grow quadratically with the digits."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(("gram", "symmetric", "zero")))
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "symmetric":
        entries = coefficients if n <= 4 else st.integers(-10**6, 10**6)
        upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    vectors = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n + 1
    ))
    shift = draw(st.sampled_from((0, 1, -1, HUGE, -HUGE)))
    return [
        [sum(v[i] * v[j] for v in vectors) + shift * (i == j) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
@example([])
@example([[0]])
@example([[-1]])
@example([[1, 1], [1, 1]])  # semidefinite, second minor 0
@example([[0, 0], [0, 1]])  # first minor 0, rest positive
@example([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
@example([[HUGE, 1], [1, HUGE]])
@example([[HUGE, HUGE], [HUGE, HUGE + 1]])
# leading minors 1000, 39, 74, 20: dividing the last step by any pivot but
# the previous one (39) truncates 20 * 39 to 0
@example([[1000, 31, 2, 2], [31, 1, 0, 1], [2, 0, 2, 0], [2, 1, 0, 24]])
def test_positive_definite_test_matches_the_elimination_loop(m):
    assert positive_definite_test(len(m))(upper_triangle(m)) is positive_definite(m)


def test_positive_definite_test_reaches_both_verdicts_at_every_size():
    for n in range(9):
        test = positive_definite_test(n)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert test(upper_triangle(identity))
        if n:
            assert not test(upper_triangle([[-x for x in row] for row in identity]))
            last = [row[:] for row in identity]
            last[-1][-1] = 0
            assert not test(upper_triangle(last))


def test_positive_definite_test_checks_its_input_width():
    with pytest.raises(ValueError):
        positive_definite_test(2)((1, 0))


def _search(name):
    """A domain and the orbit search verify builds on it: the problem's
    generators and eta for a corpus document, no letters for the sector."""
    if name == "hyperbolic_sector":
        domain = hyperbolic_domain(Matrix([[3, 2], [4, 3]]), (0, 1))
        return domain, _kernels.orbit_search([], [], (0, 0), domain.facets)
    doc = load_corpus(name + ".json")
    if name == "p2_minkowski":
        problem, domain = _problem_domain(doc)
    else:
        ctx = prepare_torus(doc)
        built = build_domain(ctx)
        problem, domain = build_torus_problem(ctx, built), built.domain
    gens = [m.rows for _, m, _ in problem.symmetric_generators]
    inverses = [k for _, _, k in problem.symmetric_generators]
    return domain, _kernels.orbit_search(gens, inverses, find_eta(problem), domain.facets)


@pytest.mark.parametrize("name", [
    "p2_minkowski", "elliptic_gauss", "bielliptic_z4", "hyperbolic_z8", "hyperbolic_sector",
])
def test_closed_test_matches_contains(name):
    """The search's first test is the closed domain's membership: it
    returns () exactly for a start that contains holds for, and a start
    outside spends the one node of its budget and returns None."""
    domain, search = _search(name)
    rng = random.Random(name)
    points = [tuple(rng.randint(-9, 9) for _ in range(domain.dim)) for _ in range(400)]
    points += list(domain.rays) + [tuple(0 for _ in range(domain.dim))]
    verdicts = [domain.contains(p) for p in points]
    assert [search(p, 1) for p in points] == [() if inside else None for inside in verdicts]
    assert True in verdicts and False in verdicts
