"""The integer-tuple search loops against the Matrix and Fraction versions
they replaced.

The reference functions below are the earlier implementations, kept
verbatim in behaviour: the group closure composes AffineAuto objects
(with the tests' own affine_compose), the word ball and the tiling search
compose Matrix objects (the search now returns generator indices, which
name the same words), the orbit search formed each child of a node when
the node popped (eager_best_first_reduce; the compiled search forms it
when the child's entry pops), the eta search transposes each ball
element per candidate and tests every candidate, repeated or not, the
overlap search forms every image of every sample point, the sampler
tests every candidate for interiority, and the tiling loop searches every
sample, repeated or not. verify_tiling certified a path by replaying it
letter by letter and testing the end point (reference_replay, on the
compiled search's paths); it now tests the sample against the domain's
facets pulled back through the path's word.
The domain's interior samples and a lattice's Hermitian form are formed
by the generic sums the compiled linear maps replaced, and the samplers
draw with rng.randint and rng.randrange, which the inline draws on
rng.getrandbits and the bulk read of the coefficients replaced; a change
to CPython's randint would show here.
The primitive vector of a ray and of a polynomial were two loops, and the
root tests took the squarefree part before the Sturm chain took it again;
the group's linear generators were deduplicated by each caller,
invariance was tested against the linear part of every element, and the
center was cut out by the rows of J and of every generator as well as
the basis. decompose and cone_structure took the general route on every
algebra: the kernel for the center, Lagrange idempotents with their
checks, and a projection and kernel per factor, even for a commutative
algebra or a single factor (conftest keeps that route as the oracle).
endo computed its two Rosati verdicts on the algebra's basis, as a
closure check and a d x d trace Gram matrix (conftest keeps both).
A problem document's cone check lived in pipeline.build_problem, the
orbit search found each symmetric generator's inverse by a pairwise
product search, and the word ball was built per length as Matrix objects.
The rewritten functions must give equal results: the same group elements
in the same order, the same words, matrices, points and images, the same
reports with one failure per occurrence, and the same errors.
"""

import heapq
import random
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecrafter._kernels as kernels
from conecrafter._kernels import orbit_search
from conecrafter.cone import compute_ns, cone_structure, invariant_ns
from conecrafter.documents import parse_document
import conecrafter.endo as endo
import conecrafter.matrices as matrices
from conecrafter.endo import center_basis, compute_end, group_algebra_center, invariant_subalgebra
from conecrafter.errors import (
    ClosureError,
    ConecrafterError,
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
    run_endo,
)
from conecrafter.reduction import (
    P2_GENERATORS,
    WORD_LENGTH,
    GroupWord,
    OverlapWitness,
    PolyhedralCone,
    ReductionProblem,
    TilingFailure,
    TilingReport,
    _tiling_samples,
    binary_quadratic_problem,
    find_eta,
    find_interior_overlap,
    hyperbolic_domain,
    verify_tiling,
)
from conecrafter.torus import AffineAuto, GroupAction, close_group, is_polarization_invariant
from conecrafter.wedderburn import decompose

from conftest import (
    PROBLEM_DOCUMENT_CHANGES,
    affine_compose,
    count_roots_in_interval,
    ei_power_data,
    load_corpus,
    minkowski_domain_p2,
    read_corpus_json,
    reference_center_basis,
    reference_cone_structure,
    reference_decompose,
    reference_form_lattice,
    reference_ns_from_end,
    rosati_fixes_algebra,
    trace_positivity_check,
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
    problem = ReductionProblem(
        base.dim, doc.generators, base.pairing, base.base_point, base.is_interior, base.is_closure
    )
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


def eager_best_first_reduce(problem, domain, start, eta, max_nodes):
    """The orbit search as verify_tiling ran it before the compiled lazy
    kernel, on int tuples: every child of a popped node is formed and
    tested for repeats when the node pops, and max_nodes counts pops. A
    node reached by a letter is not moved by the letter's inverse."""
    gens = problem.symmetric_generators
    if domain.contains(start):
        return ()
    seen = {start}
    parent = {}
    heap = [(_dot(eta, start), 0, start, None)]
    counter = 1
    popped = 0
    while heap and popped < max_nodes:
        _, _, cur, came = heapq.heappop(heap)
        popped += 1
        if domain.contains(cur):
            path = []
            while cur in parent:
                cur, k = parent[cur]
                path.append(k)
            return tuple(reversed(path))
        for k, (_, gmat, _) in enumerate(gens):
            if came is not None and k == gens[came][2]:
                continue
            nxt = _apply_matrix(gmat, cur)
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (cur, k)
            heapq.heappush(heap, (_dot(eta, nxt), counter, nxt, k))
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


def reference_replay(problem, domain, samples=1000, seed=42, max_steps=20_000):
    """verify_tiling as it certified a sample before the facet recheck:
    the compiled search's path replayed letter by letter on the
    generators' rows, and the end point tested with domain.contains. Each
    distinct sample is searched and replayed once, and a failure is listed
    per occurrence."""
    eta = reference_find_eta(problem, seed=seed)
    pts = reference_tiling_samples(problem, domain, samples, seed)
    mats = [m for _, m, _ in problem.symmetric_generators]
    inverses = [k for _, _, k in problem.symmetric_generators]
    search = orbit_search([m.rows for m in mats], inverses, eta, domain.facets)
    outcomes = {}
    verified = 0
    failures = []
    for pt in pts:
        if pt not in outcomes:
            path = search(pt, max_steps)
            if path is None:
                outcomes[pt] = TilingFailure(pt, "search budget exhausted")
            else:
                end = pt
                for k in path:
                    end = _apply_matrix(mats[k], end)
                fine = domain.contains(end)
                outcomes[pt] = None if fine else TilingFailure(pt, "certificate recheck failed")
        if outcomes[pt] is None:
            verified += 1
        else:
            failures.append(outcomes[pt])
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
    if name.startswith("p2_letters_"):
        # the p2 cone under some of S, T, N: N alone makes one symmetric
        # generator, S and T three
        letters = name.removeprefix("p2_letters_")
        generators = [(n, g) for n, g in P2_GENERATORS if n in letters]
        return binary_quadratic_problem(generators), minkowski_domain_p2()
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
        base = binary_quadratic_problem()
        problem = ReductionProblem(
            base.dim, doc.generators, base.pairing, base.base_point, base.is_interior, base.is_closure
        )
    except ValidationError as exc:
        assert exc.invariant == "generator_unimodular"
        return
    _assert_table_and_ball(problem)


# every budget up to 8 nodes, where a miscounted or misordered pop shows,
# and the default
BUDGETS = (1, 2, 3, 4, 5, 6, 7, 8, 20_000)


def _search_kernel(problem, domain, eta):
    gens = [m.rows for _, m, _ in problem.symmetric_generators]
    inverses = [k for _, _, k in problem.symmetric_generators]
    return orbit_search(gens, inverses, eta, domain.facets)


@pytest.mark.parametrize("name", PROBLEMS + ["hyperbolic_sector", "p2_letters_N", "p2_letters_ST"])
def test_search_kernel_matches_the_eager_search(monkeypatch, name):
    """On every distinct tiling sample at each seed, the compiled lazy
    search returns the eager search's path, or None, at every budget.
    The kernels of all five seeds are built first and share one source,
    so a kernel that kept another seed's eta would show here."""
    problem, domain = _problem(name)
    etas = {seed: find_eta(problem, seed=seed) for seed in SEEDS + (31337, 4)}
    sources = []
    original = kernels._builder

    def recorded(source):
        sources.append(source)
        return original(source)

    monkeypatch.setattr(kernels, "_builder", recorded)
    searches = {seed: _search_kernel(problem, domain, eta) for seed, eta in etas.items()}
    assert len(sources) == 5 and len(set(sources)) == 1
    assert len({search.__code__ for search in searches.values()}) == 1
    # S and T without N reach the domain from about four fifths of the
    # samples, each within 16 nodes; the rest exhaust any budget, and at
    # 20000 nodes they cost the kernel alone about 30 s
    budgets = BUDGETS[:-1] + (200,) if name == "p2_letters_ST" else BUDGETS
    for seed in SEEDS:
        eta, search = etas[seed], searches[seed]
        for pt in dict.fromkeys(_tiling_samples(problem, domain, 1000, seed)):
            for budget in budgets:
                assert search(pt, budget) == eager_best_first_reduce(problem, domain, pt, eta, budget)


def _eta_outcome(fn, problem, seed, max_candidates):
    try:
        return fn(problem, seed=seed, max_candidates=max_candidates)
    except SearchExhausted as exc:
        return ("SearchExhausted", str(exc))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS)
class TestSearchesMatchTheMatrixVersions:
    def test_find_eta(self, name, seed):
        """find_eta draws its offsets inline and tests each distinct point
        once; at every max_candidates from 0 to 80, and at the default, it
        returns the reference's eta or raises its SearchExhausted message.
        On p2_minkowski each seed needs more than the 50 candidates of
        scale 1, so draws past the scale change (offsets in [-2, 2], 3 bits
        a try) are compared too."""
        problem, _ = _problem(name)
        for budget in (*range(81), 1000):
            got = _eta_outcome(find_eta, problem, seed, budget)
            assert got == _eta_outcome(reference_find_eta, problem, seed, budget), budget
        if name == "p2_minkowski":
            assert _eta_outcome(find_eta, problem, seed, 50)[0] == "SearchExhausted"

    def test_best_first_reduce(self, name, seed):
        """The compiled search returns indices into symmetric_generators;
        named, they spell the reference's word, at every budget."""
        problem, domain = _problem(name)
        eta = reference_find_eta(problem, seed=seed)
        search = _search_kernel(problem, domain, eta)
        names = [gen_name for gen_name, _, _ in problem.symmetric_generators]

        def letters(path):
            return None if path is None else tuple((names[k], 1) for k in path)

        def reference_letters(word):
            return None if word is None else word.letters

        for pt in _tiling_samples(problem, domain, 150, seed):
            for budget in BUDGETS:
                want = reference_best_first_reduce(problem, domain, pt, eta, budget)
                assert letters(search(pt, budget)) == reference_letters(want)

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


@pytest.mark.parametrize("max_steps", (1, 3, None))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", PROBLEMS + ["p2_letters_ST"])
def test_facet_recheck_matches_the_step_by_step_replay(name, seed, max_steps):
    """Testing a sample against the domain's facets pulled back through
    its path's word gives the report that replaying the path and testing
    the end point gives: the same verified count and the same failures,
    one per occurrence, in order. None is the default budget; on
    p2_letters_ST, whose unreachable samples exhaust any budget, it is
    200."""
    problem, domain = _problem(name)
    if max_steps is None:
        max_steps = 200 if name == "p2_letters_ST" else 20_000
    got = verify_tiling(problem, domain, samples=1000, seed=seed, max_steps=max_steps)
    assert got == reference_replay(problem, domain, 1000, seed, max_steps)
    if name == "p2_letters_ST":
        assert any(f.reason == "search budget exhausted" for f in got.failures)


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
def test_interior_samples_match_the_generic_sums(monkeypatch, name, seed):
    """The coefficients are read in bulk, one getrandbits call for
    several outputs, and a call that keeps too few is topped up by
    another. The domains have 1 (elliptic_gauss), 2 and 3 rays; at these
    counts some draw tops up, which the recorded draw counts show."""
    _, domain = _problem(name)
    counts = (0, 1, 7, 200, 1000, 5000)
    want = [reference_interior_samples(domain, count, seed) for count in counts]
    draws = []

    class Recorded(random.Random):
        def getrandbits(self, k):
            draws[-1] += 1
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Recorded)
    for count, expected in zip(counts, want):
        draws.append(0)
        got = domain.interior_samples(count, seed)
        assert got == expected
        assert all(type(x) is int for p in got for x in p)
    assert draws[0] == 0 and max(draws) > 1


@pytest.mark.parametrize("seed", SEEDS + (1000,))
@pytest.mark.parametrize("name", PROBLEMS + ["p2_letters_N", "p2_letters_ST"])
def test_samples_match_the_randint_draws(name, seed):
    """The samplers draw inline by randrange's rejection rule. Letter
    ranges of size 1, 2, 3 and 4, coefficient ranges of size 9 and shift
    ranges of size 13, 19, ...: the values randint gives."""
    problem, domain = _problem(name)
    for count in (0, 1, 7, 1000):
        got = _tiling_samples(problem, domain, count, seed)
        assert got == reference_tiling_samples(problem, domain, count, seed)
        assert domain.interior_samples(count, seed) == (
            reference_interior_samples(domain, count, seed)
        )


@pytest.mark.parametrize("name", ["elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"])
def test_hermitian_rows_match_the_per_form_loop(name):
    ctx = prepare_torus(load_corpus(name + ".json"))
    t = ctx.invariant_torus
    rng = random.Random(name)
    for lattice in (invariant_ns(invariant_subalgebra(t, ctx.group)), compute_ns(t)):
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
    every element, in the same canonical bases. The lattice under every
    element is the congruence kernel of the form lattice oracle."""
    ctx = prepare_torus(parse_document(data))
    t, group = ctx.invariant_torus, ctx.group
    every = GroupAction(group.elements, reference_linear_generators(group.elements))
    assert set(group.linear_generators) <= set(every.linear_generators)
    got, want = invariant_subalgebra(t, group), invariant_subalgebra(t, every)
    assert got.basis == want.basis
    assert got.center == want.center
    assert invariant_ns(got).basis == reference_form_lattice(t, (t.j, *every.linear_generators))
    for torus in (ctx.torus, t):
        assert is_polarization_invariant(torus, group) == is_polarization_invariant(torus, every)


def _ei4_nonabelian_doubled():
    """E_i^4 = (E_i^2)^2 with ei2_nonabelian's group acting on both halves:
    its invariant algebra is M_2(Q(i)), of dimension 8 = rank, not
    commutative, and cut out by two generators that do not commute."""
    def doubled(g):
        return [row + [0] * 4 for row in g] + [[0] * 4 + row for row in g]

    data = ei_power_data(4)
    data["name"] = "ei4_nonabelian_doubled"
    data["group"] = {"generators": [
        {"linear": doubled([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])},
        {"linear": doubled(_SWAP)},
    ]}
    return data


CENTER_TORI = GENERATOR_SET_TORI + [_ei4_nonabelian_doubled()]


@pytest.mark.parametrize("data", CENTER_TORI, ids=[d["name"] for d in CENTER_TORI])
def test_center_from_fewer_rows_matches_all_rows(monkeypatch, data):
    """A commutative algebra is its own center: center_basis returns its
    basis. Otherwise it reads the center off the algebra that J and the
    group generate. Neither route builds a commutator row, and either way
    the basis is the all-rows one."""
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
    commutative = all(a @ b == b @ a for a in sub.basis for b in sub.basis)
    assert (got is sub.basis) == commutative
    assert constrained == []


def test_center_tori_cover_both_routes():
    """The commutative shortcut and the kernel both run: product_gauss_squared's
    algebra (dimension 8 on rank 4) fails the dimension pre-filter, and the
    doubled torus's passes it but does not commute."""
    routes = {}
    for data in CENTER_TORI:
        ctx = prepare_torus(parse_document(data))
        sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        routes[data["name"]] = (sub.dim <= sub.rank, sub.center is sub.basis)
    assert routes["product_gauss_squared"] == (False, False)
    assert routes["ei4_nonabelian_doubled"] == (True, False)
    assert routes["bielliptic_z4"] == routes["hyperbolic_z8"] == (True, True)


def _monomial_generator(rng, n):
    """A random element of the monomial group of E_i^n: factor k goes to
    factor perm[k], multiplied by i^a_k, which commutes with J and keeps
    the polarization. Half of them fix every factor, and a_k = 0 is drawn
    more often, so that factors on which the group acts alike, and with
    them non-commutative invariant algebras, come up."""
    units = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]]
    perm = rng.sample(range(n), n) if rng.random() < 0.5 else list(range(n))
    g = [[0] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        u = units[rng.choice((0, 0, 0, 0, 0, 1, 2, 3))]
        for i in range(2):
            for j in range(2):
                g[2 * perm[k] + i][2 * k + j] = u[i][j]
    return {"linear": g}


def _small_group_tori(count=12, seed=2024):
    """E_i^n (n = 1..3) with one or two seeded monomial generators whose
    group has order at most 64, and one transported copy of each."""
    rng = random.Random(seed)
    tori = []
    while len(tori) < count:
        n = rng.randint(1, 3)
        data = ei_power_data(n)
        data["name"] = f"ei{n}_monomial{len(tori)}"
        data["group"] = {"generators": [_monomial_generator(rng, n) for _ in range(rng.randint(1, 2))]}
        try:
            order = prepare_torus(parse_document(data)).group.order
        except ClosureError:
            continue
        if order > 1:
            tori.append(data)
    return tori + [transported_data(d, 1) for d in tori]


SMALL_GROUP_TORI = _small_group_tori()
CENTER_ORACLE_TORI = (
    SMALL_GROUP_TORI + CENTER_TORI + [read_corpus_json("elliptic_rational_j.json")]
)


@pytest.mark.parametrize("data", CENTER_ORACLE_TORI, ids=[d["name"] for d in CENTER_ORACLE_TORI])
def test_group_algebra_center_matches_the_commutant(data):
    """Z(B), read off the class sums of the group and J times them, is
    the center that the commutator rows of the constraints and of every
    basis element cut out, on every algebra, commutative or not; so is
    whatever center_basis returns."""
    ctx = prepare_torus(parse_document(data))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    want = reference_center_basis(sub)
    assert group_algebra_center(sub) == want
    assert center_basis(sub) == want


def test_center_oracle_tori_cover_the_routes(monkeypatch):
    """Some small-group algebras are not commutative, so center_basis
    takes Z(B) on them; and on elliptic_rational_j, whose J is not
    integral, the reduced class sums have denominators, so the span is
    saturated by a kernel before its canonical basis is taken."""
    routes = set()
    for data in SMALL_GROUP_TORI:
        ctx = prepare_torus(parse_document(data))
        sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        routes.add(sub.center is sub.basis)
    assert routes == {True, False}
    ctx = prepare_torus(load_corpus("elliptic_rational_j.json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    want = reference_center_basis(sub)
    kernels = []
    original = matrices.integer_kernel_matrix

    def counted(c):
        kernels.append(c)
        return original(c)

    monkeypatch.setattr(matrices, "integer_kernel_matrix", counted)
    assert group_algebra_center(sub) == want
    assert len(kernels) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_center_dimension_closed_forms(n):
    """The center of plain E_i^n's algebra M_n(Q(i)) is Q(i), of
    dimension 2. The cyclic permutation's invariant algebra is
    Q(i)[x]/(x^n - 1), its own center, of dimension 2n."""
    for cyclic, want in ((False, 2), (True, 2 * n)):
        ctx = prepare_torus(parse_document(ei_power_data(n, cyclic=cyclic)))
        sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        assert len(group_algebra_center(sub)) == len(center_basis(sub)) == want


def _ladder_tori():
    plain = [ei_power_data(n) for n in (1, 2, 3, 4)]
    return plain + [transported_data(d, seed) for d in plain for seed in (1, 2)]


DECOMPOSITION_TORI = CENTER_TORI + _ladder_tori()


def _decomposition_outcome(fn, *args):
    try:
        return fn(*args)
    except ConecrafterError as exc:
        return (type(exc).__name__, str(exc))


def _form_oracle_tori():
    """The center and decomposition oracles' tori (with their transported
    copies, the seeded monomial groups and elliptic_rational_j) and plain
    and cyclic E_i^n for n = 1..4, each once."""
    tori = CENTER_ORACLE_TORI + DECOMPOSITION_TORI
    tori += [ei_power_data(n, cyclic) for n in (1, 2, 3, 4) for cyclic in (False, True)]
    return list({d["name"]: d for d in tori}.values())


FORM_ORACLE_TORI = _form_oracle_tori()

# the decomposition tori, the other form-oracle tori, and each of those not
# yet transported moved by a third transport. Its seed gives
# ei3_cyclic_transported6 an invariant lattice whose canonical basis has
# pivots 2, where a factor's fixed forms have coordinates that are not yet
# in Hermite normal form. Transporting a transported torus again can take
# minutes in the factor search before desk_scale.
CONE_ORACLE_TORI = (
    DECOMPOSITION_TORI
    + [d for d in FORM_ORACLE_TORI if d not in DECOMPOSITION_TORI]
    + [transported_data(d, 6) for d in FORM_ORACLE_TORI if "transported" not in d["name"]]
)


@pytest.mark.parametrize("data", CONE_ORACLE_TORI, ids=[d["name"] for d in CONE_ORACLE_TORI])
def test_decomposition_and_cone_match_the_general_route(data):
    """decompose and cone_structure skip work for a commutative algebra, a
    simple one and a single factor, and read each factor's piece off its
    fixed forms. They give the same factors as the general route (kind,
    size, idempotent, center polynomial, dimensions, fixed forms) and the
    same pieces and flags as its projections P: F -> E e E^-1 F e. The
    base class E @ e that build_domain reads for a factor has the
    coordinates P [E]. A document that exceeds the factoring budget
    raises the same error on both routes."""
    ctx = prepare_torus(parse_document(data))
    t, group = ctx.invariant_torus, ctx.group
    sub = invariant_subalgebra(t, group)
    got = _decomposition_outcome(decompose, sub)
    want = _decomposition_outcome(reference_decompose, sub)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        assert _decomposition_outcome(cone_structure, t, group) == want
        return
    assert len(got.factors) == len(want)
    for g, w in zip(got.factors, want):
        assert g == w
    structure = cone_structure(t, group)
    inv, cones = reference_cone_structure(t, group)
    assert structure.invariant.basis == inv.basis
    assert len(structure.factors) == len(cones)
    e_coords = Matrix.column(inv.coordinates(t.e))
    for g, (flag, projection, piece) in zip(structure.factors, cones):
        assert (g.flag, g.piece) == (flag, piece)
        base = inv.coordinates(t.e @ g.factor.idempotent)
        assert Matrix.column(base) == projection @ e_coords


def test_cone_oracle_tori_reach_the_hermite_step():
    """On ei3_cyclic_transported6 the invariant lattice's canonical basis
    has a pivot above 1, and a factor's fixed forms have invariant
    coordinates that the Hermite normal form still changes, so the oracle
    above checks that step."""
    data = next(d for d in CONE_ORACLE_TORI if d["name"] == "ei3_cyclic_transported6")
    ctx = prepare_torus(parse_document(data))
    structure = cone_structure(ctx.invariant_torus, ctx.group)
    inv = structure.invariant
    assert max(next(x for x in b.flat() if x) for b in inv.basis) > 1
    raw = [
        tuple(tuple(inv.coordinates(Matrix._from_flat_entries(row, inv.torus.rank, True))) for row in fc.factor.forms)
        for fc in structure.factors
    ]
    assert any(r != fc.piece for r, fc in zip(raw, structure.factors))


def _rosati_oracles(algebra):
    return trace_positivity_check(algebra), rosati_fixes_algebra(algebra)


@pytest.mark.parametrize("data", CONE_ORACLE_TORI, ids=[d["name"] for d in CONE_ORACLE_TORI])
def test_rosati_verdicts_match_the_basis_oracles(data):
    """endo reads trace_positive and rosati_closed off the validated
    polarization. On every torus that builds they equal the d x d oracles
    on the invariant algebra and on End(T): the trace pairing
    Tr(x @ rosati(y)) on the basis is positive definite, and the Rosati
    image of each basis element lies in the span. A torus that exceeds
    the factoring budget exits with desk_scale before any verdict."""
    doc = parse_document(data)
    report = _decomposition_outcome(run_endo, doc)
    if isinstance(report, tuple):
        assert report == ("DeskScaleError", "factor search budget exceeded")
        return
    ctx = prepare_torus(doc)
    t = ctx.invariant_torus
    verdicts = (report["trace_positive"], report["rosati_closed"])
    assert verdicts == _rosati_oracles(invariant_subalgebra(t, ctx.group)) == _rosati_oracles(compute_end(t))


@pytest.mark.parametrize("data", CONE_ORACLE_TORI, ids=[d["name"] for d in CONE_ORACLE_TORI])
def test_rosati_oracles_catch_a_basis_outside_the_commutant(data):
    """The oracles, not endo, now catch a commutant fault: an algebra
    whose first basis element is replaced by the unit matrix at (0, 0),
    which commutes with no J (J @ e_0 = c e_0 would need c^2 = -1), fails
    at least one of them."""
    ctx = prepare_torus(parse_document(data))
    t = ctx.invariant_torus
    r = t.rank
    unit = Matrix([[int(i == j == 0) for j in range(r)] for i in range(r)])
    assert unit @ t.j != t.j @ unit
    for algebra in (invariant_subalgebra(t, ctx.group), compute_end(t)):
        broken = endo.EndoAlgebra(
            algebra.torus, (unit, *algebra.basis[1:]), algebra.commutants, algebra.linear_parts
        )
        assert _rosati_oracles(broken) != (True, True)


@pytest.mark.parametrize("data", FORM_ORACLE_TORI, ids=[d["name"] for d in FORM_ORACLE_TORI])
def test_form_lattices_from_the_algebras_match_the_kernel(data):
    """NS(T), solved on the upper entries of F, and the invariant lattice
    read off the invariant algebra, as the integer points of the span of
    the forms E @ b - (E @ b).T, have the canonical bases of the kernels
    that the antisymmetry and congruence rows cut out in all r^2 entries,
    basis for basis."""
    ctx = prepare_torus(parse_document(data))
    t, group = ctx.invariant_torus, ctx.group
    assert compute_ns(t).basis == reference_form_lattice(t, (t.j,))
    sub = invariant_subalgebra(t, group)
    assert invariant_ns(sub).basis == reference_form_lattice(t, (t.j, *group.linear_generators))


@pytest.mark.parametrize("data", FORM_ORACLE_TORI, ids=[d["name"] for d in FORM_ORACLE_TORI])
def test_ns_solved_directly_matches_the_forms_of_end(data):
    """compute_ns solves J.T F J = F on the r(r-1)/2 upper entries of F and
    builds no End(T). It gives the basis that reading NS(T) off End(T)
    gave (conftest.reference_ns_from_end), basis for basis, on the corpus
    tori, elliptic_rational_j's rational J, and the transported and ladder
    tori."""
    t = prepare_torus(parse_document(data)).invariant_torus
    assert compute_ns(t).basis == reference_ns_from_end(t)


def test_form_oracle_tori_cover_the_cases():
    """The form oracle runs on a non-integral J, on transported tori, on
    groups with and without linear generators, and on algebras that are
    and are not commutative."""
    names = {d["name"] for d in FORM_ORACLE_TORI}
    assert {"elliptic_rational_j", "ei1", "ei4", "ei1_cyclic", "ei4_cyclic", "ei3_transported2"} <= names
    assert {d["name"] for d in SMALL_GROUP_TORI} <= names
    shapes = set()
    for data in FORM_ORACLE_TORI:
        ctx = prepare_torus(parse_document(data))
        sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        shapes.add((bool(ctx.group.linear_generators), sub.center is sub.basis))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_generator_set_tori_cover_the_cases():
    """Some groups have fewer generators than non-identity linear parts,
    one is not abelian, and one document's polarization is averaged."""
    contexts = {d["name"]: prepare_torus(parse_document(d)) for d in GENERATOR_SET_TORI}
    fewer = [n for n, c in contexts.items() if len(c.group.linear_generators) < len(c.group.linear_parts)]
    assert {"hyperbolic_z8", "bielliptic_z4", "ei4_cyclic", "ei2_nonabelian"} <= set(fewer)
    assert contexts["ei2_swap_averaged"].averaged
    a, b = contexts["ei2_nonabelian"].group.linear_generators
    assert contexts["ei2_nonabelian"].group.order == 32 and a @ b != b @ a
