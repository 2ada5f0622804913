"""The integer-tuple search loops against the Matrix and Fraction versions
they replaced.

The reference functions below are the earlier implementations, kept
verbatim in behaviour: the group closure composes AffineAuto objects
(with the tests' own affine_compose), the word ball and the tiling search
compose Matrix objects (the search now returns generator indices, which
name the same words), the eta search transposes each ball element per
candidate, the overlap search forms every image of every sample point,
the sampler tests every candidate for interiority, and the tiling loop
searches every sample, repeated or not.
The domain's interior samples and a lattice's Hermitian form are formed
by the generic sums the compiled linear maps replaced, and the samplers
draw with rng.randint and rng.randrange, which the bound draw on
rng.getrandbits replaced; a change to CPython's randint would show here.
The primitive vector of a ray and of a polynomial were two loops, and the
root tests took the squarefree part before the Sturm chain took it again;
the group's linear generators were deduplicated by each caller,
invariance was tested against the linear part of every element, and the
center was cut out by the rows of J and of every generator as well as
the basis.
A problem document's cone check lived in pipeline.build_problem, the
orbit search found each symmetric generator's inverse by a pairwise
product search, and the word ball was built per length as Matrix objects.
The rewritten functions must give equal results: the same group elements
in the same order, the same words, matrices, points and images, the same
reports with one failure per occurrence, and the same errors.
"""

import heapq
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecrafter._kernels import linear_form
from conecrafter.cone import compute_ns, invariant_ns
from conecrafter.documents import parse_document
import conecrafter.endo as endo
from conecrafter.endo import _commutant, center_basis, invariant_subalgebra
from conecrafter.errors import (
    ClosureError,
    InternalInvariantError,
    SearchExhausted,
    ValidationError,
)
from conecrafter.matrices import Matrix, primitive_tuple
from conecrafter.polynomials import (
    Polynomial,
    all_roots_nonnegative,
    all_roots_positive,
)
from conecrafter.pipeline import (
    build_domain,
    build_torus_problem,
    prepare_torus,
)
from conecrafter.reduction import (
    WORD_LENGTH,
    GroupWord,
    OverlapWitness,
    PolyhedralCone,
    ReductionProblem,
    TilingFailure,
    TilingReport,
    _best_first_reduce,
    _tiling_samples,
    _uniform,
    binary_quadratic_problem,
    find_eta,
    find_interior_overlap,
    hyperbolic_domain,
    verify_tiling,
)
from conecrafter.torus import AffineAuto, GroupAction, close_group, is_polarization_invariant

from conftest import (
    PROBLEM_DOCUMENT_CHANGES,
    affine_compose,
    count_roots_in_interval,
    ei_power_data,
    load_corpus,
    minkowski_domain_p2,
    read_corpus_json,
    transported_data,
)

SEEDS = (42, 7, 1003)


# --- reference implementations ----------------------------------------------

def reference_close_group(generators, max_order=64):
    gens = list(generators)
    n = gens[0].linear.nrows
    ident = AffineAuto(Matrix.identity(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = affine_compose(g, h)
                if gh not in seen:
                    if len(seen) >= max_order:
                        raise ClosureError(
                            f"group does not close within {max_order} elements"
                        )
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    ordered = [ident] + sorted(
        (g for g in seen if g != ident),
        key=lambda g: (g.linear.rows, g.translation),
    )
    return GroupAction(tuple(ordered), reference_linear_generators(gens))


def _apply_matrix(m, v):
    return tuple(sum(map(mul, row, v)) for row in m.rows)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def reference_interior_samples(domain, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coeffs = [rng.randint(1, 9) for _ in domain.rays]
        out.append(tuple(
            sum(c * r[i] for c, r in zip(coeffs, domain.rays))
            for i in range(domain.dim)
        ))
    return out


def reference_hermitian_rows(lattice, coords):
    fracs = [Fraction(c) for c in coords]
    d = lcm(*(f.denominator for f in fracs))
    n = lattice.torus.rank
    flat = None
    for c, form in zip([int(f * d) for f in fracs], lattice.hermitian_forms):
        if c:
            term = form if c == 1 else [c * x for x in form]
            flat = term if flat is None else list(map(add, flat, term))
    if flat is None:
        return [[0] * n for _ in range(n)]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def reference_primitive_tuple(v):
    fracs = [Fraction(x) for x in v]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def reference_primitive_integer(p):
    """The former Polynomial.primitive_integer."""
    if p.is_zero:
        return []
    d = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            d = d * c.denominator // gcd(d, c.denominator)
    ints = [int(c * d) for c in p.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [c // g for c in ints]


def reference_all_roots_positive(p):
    q = p.squarefree_part()
    if q.degree == 0:
        return True
    return count_roots_in_interval(q, 0, None) == q.degree


def reference_all_roots_nonnegative(p):
    q = p.squarefree_part()
    if q.degree == 0:
        return True
    if q.coeffs[0] == 0:
        q = Polynomial(q.coeffs[1:])
        if q.degree == 0:
            return True
    return count_roots_in_interval(q, 0, None) == q.degree


def reference_linear_generators(autos):
    """The loop invariant_ns ran over the elements: the distinct
    non-identity linear parts, in order."""
    ident = Matrix.identity(autos[0].linear.nrows)
    gens = []
    for g in autos:
        if g.linear != ident and g.linear not in gens:
            gens.append(g.linear)
    return tuple(gens)


def reference_word_ball(problem, max_length):
    ident = Matrix.identity(problem.dim)
    frontier = [((), ident)]
    seen = {ident}
    out = []
    for _ in range(max_length):
        nxt = []
        for letters, mat in frontier:
            for name, gen, _ in problem.symmetric_generators:
                m2 = gen @ mat
                if m2 in seen:
                    continue
                seen.add(m2)
                entry = (letters + ((name, 1),), m2)
                nxt.append(entry)
                out.append(entry)
        frontier = nxt
    return out


_DISCRIMINANT = Matrix([[0, 0, -2], [0, 1, 0], [-2, 0, 0]])


def reference_build_problem(doc):
    """The binary quadratic form problem with the document's generators,
    each checked to preserve b^2 - 4ac and keep the base point interior."""
    base = binary_quadratic_problem()
    if not doc.generators:
        return base
    problem = replace(base, generators=doc.generators)
    point = Matrix.column(problem.base_point)
    for name, g in problem.generators:
        if g.T @ _DISCRIMINANT @ g != _DISCRIMINANT or not problem.is_interior((g @ point).col(0)):
            raise ValidationError(
                "generator_cone", f"generator {name} must map the cone of positive forms onto itself"
            )
    return problem


def reference_inverse_indices(problem):
    """For each symmetric generator, the index of the first one whose
    product with it is the identity."""
    gens = [m for _, m, _ in problem.symmetric_generators]
    ident = Matrix.identity(problem.dim)
    return [next(j for j, b in enumerate(gens) if b @ a == ident) for a in gens]


def reference_find_eta(problem, seed=42, max_candidates=1000, stabilizer_word_length=4):
    ball = [m for _, m in reference_word_ball(problem, stabilizer_word_length)]
    rng = random.Random(seed)
    base = problem.base_point
    tried = 0
    scale = 1
    while tried < max_candidates:
        tried += 1
        pt = tuple(scale * x + rng.randint(-scale, scale) for x in base)
        if tried % 50 == 0:
            scale += 1
        if not problem.is_interior(pt):
            continue
        eta = primitive_tuple(_apply_matrix(problem.pairing, pt))
        if any(_apply_matrix(m.T, eta) == eta for m in ball):
            continue
        return eta
    raise SearchExhausted(
        f"no generic dual-interior covector within {max_candidates} candidates"
    )


def reference_best_first_reduce(problem, domain, start, eta, max_nodes):
    gens = [(name, m) for name, m, _ in problem.symmetric_generators]
    seen = {start}
    parent = {}
    heap = [(_dot(eta, start), 0, start)]
    counter = 1
    popped = 0
    while heap and popped < max_nodes:
        _, _, cur = heapq.heappop(heap)
        popped += 1
        if domain.contains(cur):
            letters = []
            mat = Matrix.identity(problem.dim)
            node = cur
            chain = []
            while node in parent:
                prev, name, gmat = parent[node]
                chain.append((name, gmat))
                node = prev
            for name, gmat in reversed(chain):
                letters.append((name, 1))
                mat = gmat @ mat
            word = GroupWord(tuple(letters), mat)
            if _apply_matrix(word.matrix, start) != cur:
                raise InternalInvariantError("reduction path does not recompose")
            return word
        for name, gmat in gens:
            nxt = _apply_matrix(gmat, cur)
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (cur, name, gmat)
            heapq.heappush(heap, (_dot(eta, nxt), counter, nxt))
            counter += 1
    return None


def reference_tiling_samples(problem, domain, count, seed):
    rng = random.Random(seed)
    samples = []
    attempts = 0
    scale = 2
    while len(samples) < count // 2 and attempts < 200 * count:
        attempts += 1
        pt = tuple(scale * x + rng.randint(-3 * scale, 3 * scale) for x in problem.base_point)
        if attempts % 100 == 0:
            scale += 1
        if problem.is_interior(pt):
            samples.append(pt)
    gens = problem.symmetric_generators
    for pt in reference_interior_samples(domain, count - len(samples), seed + 1):
        cur = pt
        if gens:
            for _ in range(rng.randint(1, 8)):
                _, gmat, _ = gens[rng.randrange(len(gens))]
                cur = _apply_matrix(gmat, cur)
        samples.append(cur if problem.is_interior(cur) else pt)
    return samples


def reference_verify_tiling(problem, domain, samples=1000, seed=42, max_steps=20_000):
    eta = reference_find_eta(problem, seed=seed)
    pts = reference_tiling_samples(problem, domain, samples, seed)
    verified = 0
    failures = []
    for pt in pts:
        word = reference_best_first_reduce(problem, domain, pt, eta, max_steps)
        if word is None:
            failures.append(TilingFailure(pt, "search budget exhausted"))
            continue
        if not domain.contains(_apply_matrix(word.matrix, pt)):
            failures.append(TilingFailure(pt, "certificate recheck failed"))
            continue
        verified += 1
    return TilingReport(len(pts), verified, eta, tuple(failures))


def reference_find_interior_overlap(problem, domain, seed=42, word_length=4, samples=200):
    pts = [
        p for p in reference_interior_samples(domain, samples, seed)
        if domain.contains(p, strict=True)
    ]
    for letters, mat in reference_word_ball(problem, word_length):
        for pt in pts:
            image = _apply_matrix(mat, pt)
            if domain.contains(image, strict=True):
                return OverlapWitness(GroupWord(letters, mat), pt, image)
    return None


# --- group closure ----------------------------------------------------------

@st.composite
def affine_generators(draw):
    """Signed permutation matrices with translations in (1/N)Z^n, N <= 12."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        linear = Matrix([[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)])
        den = draw(st.integers(1, 12))
        nums = draw(st.lists(st.integers(-den, 2 * den), min_size=n, max_size=n))
        gens.append(AffineAuto(linear, tuple(Fraction(x, den) for x in nums)))
    return gens


def _closure_outcome(fn, gens, max_order):
    try:
        return fn(gens, max_order=max_order).elements
    except ClosureError as exc:
        return ("ClosureError", str(exc))


class TestCloseGroup:
    @settings(max_examples=150, deadline=None)
    @given(affine_generators(), st.sampled_from((8, 24, 64)))
    def test_matches_the_compose_closure(self, gens, max_order):
        got = _closure_outcome(close_group, gens, max_order)
        assert got == _closure_outcome(reference_close_group, gens, max_order)
        if not isinstance(got[0], str):
            assert all(
                isinstance(x, (int, Fraction)) and 0 <= x < 1 for g in got for x in g.translation
            )

    def test_translations_of_several_denominators(self):
        swap = Matrix([[0, 1], [1, 0]])
        gens = [
            AffineAuto(swap, (Fraction(1, 3), Fraction(0))),
            AffineAuto(Matrix.identity(2), (Fraction(1, 4), Fraction(1, 2))),
        ]
        got = close_group(gens, max_order=128)
        assert got.elements == reference_close_group(gens, max_order=128).elements
        assert got.order == 96

    def test_shear_error_at_max_order(self):
        shear = AffineAuto(Matrix([[1, 1], [0, 1]]))
        with pytest.raises(ClosureError) as got:
            close_group([shear], max_order=32)
        with pytest.raises(ClosureError) as want:
            reference_close_group([shear], max_order=32)
        assert str(got.value) == str(want.value) == "group does not close within 32 elements"

    def test_non_integral_linear_part_raises(self):
        half = AffineAuto(Matrix([[Fraction(1, 2), 0], [0, 2]]))
        with pytest.raises(ValueError):
            close_group([half])


# --- searches ---------------------------------------------------------------

def _p2():
    doc = load_corpus("p2_minkowski.json")
    return binary_quadratic_problem(doc.generators), PolyhedralCone.from_rays(doc.domain_rays)


def _torus(name):
    ctx = prepare_torus(load_corpus(name + ".json"))
    built = build_domain(ctx)
    return build_torus_problem(ctx, built), built.domain


def _hyperbolic_problem():
    action = Matrix([[3, 2], [4, 3]])
    return ReductionProblem(
        dim=2,
        generators=(("A", action),),
        pairing=Matrix([[2, 0], [0, 1]]),
        base_point=(0, 1),
        is_interior=lambda v: v[1] * v[1] > 2 * v[0] * v[0] and v[1] > 0,
        is_closure=lambda v: v[1] * v[1] >= 2 * v[0] * v[0] and v[1] >= 0,
    )


PROBLEMS = ["p2_minkowski", "elliptic_gauss", "bielliptic_z4", "hyperbolic_z8"]


def _problem(name):
    if name == "p2_minkowski":
        return _p2()
    if name == "hyperbolic_sector":
        problem = _hyperbolic_problem()
        return problem, hyperbolic_domain(problem.generators[0][1], problem.base_point)
    return _torus(name)


def _problem_documents():
    """p2_minkowski, m15_generator_leaves_cone and the four changed copies
    of p2_minkowski, as parsed documents."""
    docs = [load_corpus("p2_minkowski.json"), load_corpus("mutants/m15_generator_leaves_cone.json")]
    for change, _, _ in PROBLEM_DOCUMENT_CHANGES:
        data = read_corpus_json("p2_minkowski.json")
        data.update(change)
        docs.append(parse_document(data))
    return docs


def _build_outcome(fn, doc):
    try:
        return fn(doc).generators
    except ValidationError as exc:
        return ("ValidationError", exc.invariant, str(exc))


@pytest.mark.parametrize("doc", _problem_documents(), ids=lambda doc: doc.name)
def test_problem_document_checks_match_build_problem(doc):
    """The same generators, or the same first error, as the checks of
    pipeline.build_problem."""
    got = _build_outcome(lambda d: binary_quadratic_problem(d.generators), doc)
    assert got == _build_outcome(reference_build_problem, doc)


def _assert_table_and_ball(problem):
    """The inverse indices recorded as the table dedupes are those of the
    pairwise product search, and the one word ball is the per-length
    Matrix ball at WORD_LENGTH, as row tuples."""
    assert [k for _, _, k in problem.symmetric_generators] == reference_inverse_indices(problem)
    assert problem.word_ball == tuple(
        (letters, m.rows) for letters, m in reference_word_ball(problem, WORD_LENGTH)
    )


@pytest.mark.parametrize("name", PROBLEMS + ["hyperbolic_sector"])
def test_generator_table_and_word_ball(name):
    """The ball reads no seed, so it runs once per problem."""
    _assert_table_and_ball(_problem(name)[0])


@pytest.mark.parametrize("doc", _problem_documents(), ids=lambda doc: doc.name)
def test_document_generator_table_and_word_ball(doc):
    """On each document's generators, with the form cone check left out:
    m15's and two of the changed copies move the cone. The copy with a
    generator that is not unimodular has no problem."""
    try:
        problem = replace(binary_quadratic_problem(), generators=doc.generators)
    except ValidationError as exc:
        assert exc.invariant == "generator_unimodular"
        return
    _assert_table_and_ball(problem)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS)
class TestSearchesMatchTheMatrixVersions:
    def test_find_eta(self, name, seed):
        problem, _ = _problem(name)
        assert find_eta(problem, seed=seed) == reference_find_eta(problem, seed=seed)

    def test_best_first_reduce(self, name, seed):
        """The search returns indices into symmetric_generators; named,
        they spell the reference's word."""
        problem, domain = _problem(name)
        eta = reference_find_eta(problem, seed=seed)
        eta_form = linear_form(eta)
        names = [gen_name for gen_name, _, _ in problem.symmetric_generators]

        def letters(path):
            return None if path is None else tuple((names[k], 1) for k in path)

        def reference_letters(word):
            return None if word is None else word.letters

        for pt in _tiling_samples(problem, domain, 150, seed):
            for budget in (20_000, 1, 3):
                got = _best_first_reduce(problem, domain, pt, eta_form, budget)
                want = reference_best_first_reduce(problem, domain, pt, eta, budget)
                assert letters(got) == reference_letters(want)

    def test_find_interior_overlap(self, name, seed):
        problem, domain = _problem(name)
        got = find_interior_overlap(problem, domain, seed=seed)
        assert got == reference_find_interior_overlap(problem, domain, seed=seed)


@pytest.mark.parametrize("max_steps", (1, 3, 20_000))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS + ["hyperbolic_sector"])
def test_verify_tiling_matches_the_per_sample_loop(name, seed, max_steps):
    """Searching each distinct sample once changes no report: the same
    samples, count, eta and failures, one failure per occurrence."""
    problem, domain = _problem(name)
    pts = _tiling_samples(problem, domain, 1000, seed)
    assert pts == reference_tiling_samples(problem, domain, 1000, seed)
    got = verify_tiling(problem, domain, samples=1000, seed=seed, max_steps=max_steps)
    assert got == reference_verify_tiling(problem, domain, 1000, seed, max_steps)
    assert got.verified + len(got.failures) == got.samples == 1000
    failed = {f.point for f in got.failures}
    assert [f.point for f in got.failures] == [p for p in pts if p in failed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["hyperbolic_z8", "hyperbolic_sector"])
def test_repeated_failures_are_listed_per_occurrence(name, seed):
    problem, domain = _problem(name)
    got = verify_tiling(problem, domain, samples=1000, seed=seed, max_steps=1)
    points = [f.point for f in got.failures]
    assert len(points) > len(set(points)) > 0
    assert got == reference_verify_tiling(problem, domain, 1000, seed, 1)


def _assert_same_witness(got, want):
    assert want is not None
    assert got.word.letters == want.word.letters
    assert got.word.matrix == want.word.matrix
    assert got.point == want.point
    assert got.image == want.image


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_sector_witness(seed):
    problem = _hyperbolic_problem()
    wide = PolyhedralCone.from_rays([(-2, 3), (2, 3)])
    got = find_interior_overlap(problem, wide, seed=seed)
    _assert_same_witness(got, reference_find_interior_overlap(problem, wide, seed=seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_enlarged_minkowski_witness(seed):
    problem = binary_quadratic_problem()
    enlarged = PolyhedralCone.from_rays([(0, 0, 1), (1, 1, 1), (1, -1, 1)])
    got = find_interior_overlap(problem, enlarged, seed=seed)
    _assert_same_witness(got, reference_find_interior_overlap(problem, enlarged, seed=seed))


def test_overlap_without_interior_points_is_none():
    problem = binary_quadratic_problem()
    domain = minkowski_domain_p2()
    assert find_interior_overlap(problem, domain, samples=0) is None
    assert reference_find_interior_overlap(problem, domain, samples=0) is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS + ["hyperbolic_sector"])
def test_interior_samples_match_the_generic_sums(name, seed):
    _, domain = _problem(name)
    for count in (0, 1, 200, 1000):
        got = domain.interior_samples(count, seed)
        assert got == reference_interior_samples(domain, count, seed)
        assert all(type(x) is int for p in got for x in p)


@pytest.mark.parametrize("seed", SEEDS + (1000,))
@pytest.mark.parametrize("name", PROBLEMS)
def test_samples_match_the_randint_draws(name, seed):
    problem, domain = _problem(name)
    for count in (0, 1, 7, 1000):
        got = _tiling_samples(problem, domain, count, seed)
        assert got == reference_tiling_samples(problem, domain, count, seed)
        assert domain.interior_samples(count, seed) == (
            reference_interior_samples(domain, count, seed)
        )


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9, 16, 17, 2**40, 2**40 + 1])
@pytest.mark.parametrize("low", [0, -7, 10**30])
def test_uniform_draw_matches_randint(width, low):
    """Ranges of size 1, 2^k and 2^k + 1: the same values, and the same
    bits taken from the stream, as randint."""
    for seed in SEEDS:
        rng = random.Random(seed)
        reference = random.Random(seed)
        draw = _uniform(rng, low, low + width - 1)
        assert [draw() for _ in range(300)] == [
            reference.randint(low, low + width - 1) for _ in range(300)
        ]
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("name", ["elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"])
def test_hermitian_rows_match_the_per_form_loop(name):
    ctx = prepare_torus(load_corpus(name + ".json"))
    t = ctx.invariant_torus
    rng = random.Random(name)
    for lattice in (invariant_ns(t, ctx.group), compute_ns(t)):
        classes = [
            [0] * lattice.rank,
            [1] + [0] * (lattice.rank - 1),
            list(lattice.coordinates(t.e)),
        ]
        classes += [[rng.randint(-9, 9) for _ in range(lattice.rank)] for _ in range(60)]
        classes += [
            [rng.choice((0, 1, -1, 10**40)) for _ in range(lattice.rank)] for _ in range(20)
        ]
        classes += [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(lattice.rank)]
            for _ in range(60)
        ]
        for coords in classes:
            got = lattice._hermitian_rows(coords)
            assert [list(row) for row in got] == reference_hermitian_rows(lattice, coords)


# --- primitive vectors, root tests and linear generators --------------------

HUGE = 10**5000  # past the 4300-digit int-to-str limit

big_ints = st.one_of(
    st.integers(-50, 50),
    st.builds(lambda sign, k: sign * HUGE + k, st.sampled_from((1, -1)), st.integers(-10**6, 10**6)),
)
rationals = st.one_of(
    big_ints,
    st.builds(Fraction, big_ints, st.one_of(
        st.integers(1, 60), st.builds(lambda low: HUGE + low, st.integers(1, 9)),
    )),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(big_ints, rationals, st.just(0)), min_size=0, max_size=6))
def test_primitive_tuple_matches_the_fraction_loop(v):
    got = _outcome(primitive_tuple, v)
    assert got == _outcome(reference_primitive_tuple, v)
    if not isinstance(got[0], str):
        assert all(type(x) is int for x in got)
        assert gcd(*got) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6).filter(any))
def test_primitive_tuple_of_coefficients_matches_primitive_integer(coeffs):
    p = Polynomial(coeffs)
    assert list(primitive_tuple(p.coeffs)) == reference_primitive_integer(p)


@st.composite
def root_test_polynomials(draw):
    """Products of (q x - r)^m over small rational roots, 0 among them, with
    an optional x^2 + b x + c, times a nonzero scale; or random integer
    coefficients."""
    if draw(st.booleans()):
        return Polynomial(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=7).filter(any)))
    p = Polynomial([draw(st.sampled_from((1, -1, 2, Fraction(-3, 7))))])
    for _ in range(draw(st.integers(0, 4))):
        r, q = draw(st.integers(-4, 4)), draw(st.sampled_from((1, 1, 2, 3)))
        for _ in range(draw(st.integers(1, 3))):
            p = p * Polynomial([-r, q])
    if draw(st.booleans()):
        p = p * Polynomial([draw(st.integers(-4, 9)), draw(st.integers(-4, 4)), 1])
    return p


@settings(max_examples=400, deadline=None)
@given(root_test_polynomials())
def test_root_tests_match_the_two_pass_versions(p):
    assert all_roots_positive(p) == reference_all_roots_positive(p)
    assert all_roots_nonnegative(p) == reference_all_roots_nonnegative(p)


@pytest.mark.parametrize("p,positive,nonnegative", [
    (Polynomial([0, 0, 1]), False, True),                 # x^2
    (Polynomial([0, -3, 1]), False, True),                # x (x - 3)
    (Polynomial([0, 0, -3, 1]) * Polynomial([-3, 1]), False, True),
    (Polynomial([1, -2, 1]), True, True),                 # (x - 1)^2
    (Polynomial([0, 1, 1]), False, False),                # x (x + 1)
    (Polynomial([0, 1, 0, 1]), False, False),             # x (x^2 + 1)
    (Polynomial([5]), True, True),
])
def test_root_tests_on_repeated_and_zero_roots(p, positive, nonnegative):
    assert all_roots_positive(p) == reference_all_roots_positive(p) == positive
    assert all_roots_nonnegative(p) == reference_all_roots_nonnegative(p) == nonnegative


@pytest.mark.parametrize("name", ["elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"])
def test_linear_generators_of_the_corpus_groups(name):
    doc = load_corpus(name + ".json")
    group = prepare_torus(doc).group
    assert group.linear_parts == reference_linear_generators(group.elements)
    want = reference_linear_generators(doc.generators) if doc.generators else ()
    assert group.linear_generators == want


def test_linear_generators_of_a_group_that_repeats_linear_parts():
    """A rotation and a pure translation: each linear part appears once per
    translation, and the identity's with the nonzero translations too. The
    translation's linear part is the identity, so only the rotation is a
    linear generator."""
    rotation = AffineAuto(Matrix([[0, -1], [1, 0]]))
    shift = AffineAuto(Matrix.identity(2), (Fraction(1, 2), Fraction(1, 2)))
    group = close_group([rotation, shift])
    assert group.order == 8
    want = reference_linear_generators(group.elements)
    assert group.linear_parts == want
    assert want == (Matrix([[-1, 0], [0, -1]]), Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]]))
    assert group.linear_generators == (Matrix([[0, -1], [1, 0]]),)


def _ei2_with(name, polarization, generators):
    data = ei_power_data(2)
    data["name"] = name
    data["polarization"] = polarization
    data["group"] = {"generators": [{"linear": g} for g in generators]}
    return data


_SWAP = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


def _generator_set_tori():
    """The corpus tori; E_i^2 under the factor swap with the polarization
    diag(E, 2E), which the swap moves, so it is averaged; cyclic E_i^n for
    n = 2..4; E_i^2 under diag(J, I) and the swap, a non-abelian group of
    order 32 with two generators; and seeded transports of those with a
    group."""
    tori = [read_corpus_json(name + ".json") for name in (
        "elliptic_gauss", "product_gauss_squared", "elliptic_rational_j",
        "bielliptic_z4", "hyperbolic_z8",
    )]
    tori.append(_ei2_with(
        "ei2_swap_averaged",
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]],
        [_SWAP],
    ))
    tori += [ei_power_data(n, cyclic=True) for n in (2, 3, 4)]
    tori.append(_ei2_with(
        "ei2_nonabelian",
        ei_power_data(2)["polarization"],
        [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], _SWAP],
    ))
    return tori + [transported_data(d, seed) for d in tori if "group" in d for seed in (1, 2)]


GENERATOR_SET_TORI = _generator_set_tori()


@pytest.mark.parametrize("data", GENERATOR_SET_TORI, ids=[d["name"] for d in GENERATOR_SET_TORI])
def test_invariance_from_the_generators_matches_all_elements(data):
    """Invariance under the group's generators cuts out the same algebra,
    center, form lattice and polarization verdict as invariance under
    every element, in the same canonical bases."""
    ctx = prepare_torus(parse_document(data))
    t, group = ctx.invariant_torus, ctx.group
    every = replace(group, linear_generators=reference_linear_generators(group.elements))
    assert set(group.linear_generators) <= set(every.linear_generators)
    got, want = invariant_subalgebra(t, group), invariant_subalgebra(t, every)
    assert got.basis == want.basis
    assert got.center == want.center
    assert invariant_ns(t, group).basis == invariant_ns(t, every).basis
    for torus in (ctx.torus, t):
        assert is_polarization_invariant(torus, group) == is_polarization_invariant(torus, every)


def reference_center_basis(algebra):
    """The center cut out by the commutator rows of every constraint (J
    and the linear generators) and of every basis element."""
    return _commutant(algebra.torus, algebra.commutants + algebra.basis, "center")


@pytest.mark.parametrize("data", GENERATOR_SET_TORI, ids=[d["name"] for d in GENERATOR_SET_TORI])
def test_center_from_fewer_rows_matches_all_rows(monkeypatch, data):
    """center_basis leaves out J's rows and those of every linear
    generator that commutes with the others; the basis is the same. Both
    generators of the non-abelian group keep their rows."""
    ctx = prepare_torus(parse_document(data))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    constrained = []
    original = endo.commutator_rows

    def recorded(m):
        constrained.append(m)
        return original(m)

    monkeypatch.setattr(endo, "commutator_rows", recorded)
    got = center_basis(sub)
    monkeypatch.undo()
    assert got == reference_center_basis(sub)
    extra = constrained[: len(constrained) - sub.dim]
    assert constrained[len(extra):] == list(sub.basis)
    assert sub.torus.j not in extra
    if data["name"].startswith("ei2_nonabelian"):
        assert extra == list(ctx.group.linear_generators)


def test_generator_set_tori_cover_the_cases():
    """Some groups have fewer generators than non-identity linear parts,
    one is not abelian, and one document's polarization is averaged."""
    contexts = {d["name"]: prepare_torus(parse_document(d)) for d in GENERATOR_SET_TORI}
    fewer = [n for n, c in contexts.items() if len(c.group.linear_generators) < len(c.group.linear_parts)]
    assert {"hyperbolic_z8", "bielliptic_z4", "ei4_cyclic", "ei2_nonabelian"} <= set(fewer)
    assert contexts["ei2_swap_averaged"].averaged
    a, b = contexts["ei2_nonabelian"].group.linear_generators
    assert contexts["ei2_nonabelian"].group.order == 32 and a @ b != b @ a
