"""Structures that a document needs many times are built once: the center
of an algebra, the inverse of the polarization, the symmetric generators
of a reduction problem, the coordinate solver of a lattice, the factor
pieces of a cone, the freeness of an action, the validation of a
torus, the integer forms of a lattice, the word ball of a verification,
the compiled linear maps of a problem and a domain, the compiled interior
test of a torus problem, the squarefree part of a polynomial whose roots
are tested, the Rosati images of an algebra in the tests' oracles (one
stacked product for the basis), the forms of an algebra's basis (one
stacked product, shared by its decomposition and its form lattice, and
reduced once).
Decomposing an algebra takes no Fraction gcd, and a single factor takes
no inversion for its idempotent, coordinates or Hermite normal form.
Structures a command does not read are not built: the form lattices for
endo, the full one for funddom, a Matrix per tiling sample for verify,
the full endomorphism algebra for every command but endo and those that
read the full form lattice, the Rosati images and any d x d Gram matrix
for every command (endo reads its two Rosati verdicts off validation),
any compiled function for cone and funddom. With no linear generator, the invariant
algebra and lattice are the full ones, and are not built twice. Invariance is tested against the group's
generators, not all of its elements. Sampled points
repeat, and verify tests each distinct candidate for interiority once and
searches each distinct sample once."""

import sys
from functools import cached_property

import pytest

import conecrafter._kernels as kernels
import conecrafter.cone as cone
import conecrafter.endo as endo
import conecrafter.matrices as matrices
import conecrafter.pipeline as pipeline
import conecrafter.polynomials as polynomials
import conecrafter.reduction as reduction
import conecrafter.torus as torus
import conecrafter.wedderburn as wedderburn
from conecrafter.cone import compute_ns, is_ample, is_nef
from conecrafter.documents import parse_document
from conecrafter.endo import compute_end, invariant_subalgebra, rosati
from conecrafter.errors import ValidationError
from conecrafter.matrices import Matrix
from conecrafter.pipeline import (
    build_domain,
    prepare_torus,
    run_check,
    run_cone,
    run_endo,
    run_funddom,
    run_verify,
)
from conecrafter.reduction import ReductionProblem, binary_quadratic_problem
from conecrafter.torus import PolarizedTorus
from conecrafter.wedderburn import decompose

import conftest
from conftest import (
    ei_power_data,
    load_corpus,
    read_corpus_json,
    rosati_fixes_algebra,
    rosati_images,
    trace_positivity_check,
)

TORI = ["elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"]


def test_decompose_computes_the_center_once(monkeypatch):
    calls = []
    original = endo.center_basis

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(endo, "center_basis", counted)
    ctx = prepare_torus(load_corpus("bielliptic_z4.json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    dec = decompose(sub)
    assert len(dec.factors) > 1
    assert calls == [sub]
    decompose(sub)
    assert len(calls) == 1


def test_invariance_is_tested_against_the_generators(monkeypatch):
    """hyperbolic_z8's group has order 8 and one generator, so its
    invariant algebra is cut out by J and that generator: 2 constraints,
    not J and the 7 other elements, and one kernel. The invariant form
    lattice is read off that algebra: it builds no constraint row and
    takes no kernel of its own."""
    constraints, kernels = [], []
    original_rows, original_kernel = endo.commutator_rows, matrices.integer_kernel_matrix

    def recorded(m):
        constraints.append(m)
        return original_rows(m)

    def kernel(c):
        kernels.append(c)
        return original_kernel(c)

    ctx = prepare_torus(load_corpus("hyperbolic_z8.json"))
    t, group = ctx.invariant_torus, ctx.group
    monkeypatch.setattr(endo, "commutator_rows", recorded)
    monkeypatch.setattr(matrices, "integer_kernel_matrix", kernel)
    assert group.order == 8 and len(group.linear_parts) == 7
    (generator,) = group.linear_generators
    sub = invariant_subalgebra(t, group)
    assert sub.commutants == (t.j, generator)
    assert constraints == [t.j, generator]
    assert len(kernels) == 1
    constraints.clear()
    kernels.clear()
    cone.invariant_ns(sub)
    assert constraints == kernels == []


def _count_stacked(monkeypatch, name):
    """Record the matrices passed to each call of the stacked helper name
    (endo's form_vectors, or the oracles' rosati_all in conftest), at every
    module that binds it."""
    stacked = []
    modules = (endo, wedderburn, cone, conftest)
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counted(t, phis):
        stacked.append(tuple(phis))
        return original(t, phis)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return stacked


@pytest.mark.parametrize("name", TORI)
def test_rosati_images_once_per_algebra(monkeypatch, name):
    """decompose takes no stacked Rosati images: it reads the fixed parts
    off forms, one stacked product per cut of the basis and, unless the
    algebra is its own center, of the center. The oracles of endo's two
    Rosati verdicts share the basis's images, taken in one stacked call.
    No central idempotent takes a Rosati image: its check reads whether
    E @ e is alternating."""
    single = []
    original = endo.rosati

    def counted(t, phi):
        single.append(phi)
        return original(t, phi)

    stacked = _count_stacked(monkeypatch, "rosati_all")
    forms = _count_stacked(monkeypatch, "form_vectors")
    monkeypatch.setattr(endo, "rosati", counted)
    ctx = prepare_torus(load_corpus(name + ".json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    dec = decompose(sub)
    commutative = sub.center is sub.basis
    assert commutative == (name != "product_gauss_squared")
    assert stacked == []
    assert len(forms) == len(dec.factors) * (1 if commutative else 2)
    assert single == []
    assert trace_positivity_check(sub) and rosati_fixes_algebra(sub)
    assert stacked == [sub.basis]
    assert rosati_images(sub) == tuple(original(sub.torus, b) for b in sub.basis)


@pytest.mark.parametrize("name", ["bielliptic_z4", "hyperbolic_z8", "elliptic_gauss"])
def test_commutative_algebra_is_its_own_center(monkeypatch, name):
    """A commutative algebra's center is its basis: center_basis builds no
    commutator rows, and decompose takes no forms of the center, only
    those of the basis (a single factor) or of its cuts (one per
    factor)."""
    rows = []
    original_rows = endo.commutator_rows

    def counted_rows(m):
        rows.append(m)
        return original_rows(m)

    ctx = prepare_torus(load_corpus(name + ".json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    forms = _count_stacked(monkeypatch, "form_vectors")
    monkeypatch.setattr(endo, "commutator_rows", counted_rows)
    dec = decompose(sub)
    assert sub.center is sub.basis
    assert rows == []
    if len(dec.factors) == 1:
        assert forms == [sub.basis]
    else:
        assert len(forms) == len(dec.factors) and sub.basis not in forms


@pytest.mark.parametrize("name,factors", [
    ("elliptic_gauss", 1), ("hyperbolic_z8", 1), ("product_gauss_squared", 1), ("bielliptic_z4", 2),
])
def test_a_single_factor_splits_at_the_identity(monkeypatch, name, factors):
    """A single factor's idempotent is I: central_idempotents inverts no
    q(z) + m(z), and cone_structure takes no coordinates, matrix_of or
    Hermite normal form for its piece, which is the whole lattice.
    bielliptic_z4's two factors take one inversion and one HNF each, and
    the coordinates of each fixed form; the first coordinates build the
    lattice's solver, which inverts its pivot block once."""
    calls = []

    def counting(owner, attr):
        original = getattr(owner, attr)

        def counted(*args):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(owner, attr, counted)

    ctx = prepare_torus(load_corpus(name + ".json"))
    counting(wedderburn.Matrix, "inverse")
    counting(cone, "hermite_normal_form")
    counting(cone.NSLattice, "matrix_of")
    counting(cone.NSLattice, "coordinates")
    structure = cone.cone_structure(ctx.invariant_torus, ctx.group)
    assert len(structure.factors) == factors
    want = [] if factors == 1 else ["inverse"] * factors + [
        name for fc in structure.factors for name in ["coordinates"] * fc.ns_dim + ["hermite_normal_form"]
    ]
    if want:
        want.insert(factors + 1, "inverse")
    assert calls == want


@pytest.mark.parametrize("run", [run_cone, run_funddom, run_verify])
@pytest.mark.parametrize("name", TORI)
def test_each_algebra_reduces_its_forms_once(monkeypatch, run, name):
    """The forms of an algebra's basis are reduced once per command, by
    EndoAlgebra.form_lattice: for the invariant algebra, a single
    factor's fixed forms and the invariant lattice share it, and the full
    algebra's serves the full lattice. Every module that binds span_lattice
    gets the counter, and so does wedderburn's rank."""
    built, reduced = [], []
    original_forms = endo.EndoAlgebra.__dict__["forms"].func

    def recorded(self):
        forms = original_forms(self)
        built.append(forms)
        return forms

    forms = cached_property(recorded)
    forms.__set_name__(endo.EndoAlgebra, "forms")
    monkeypatch.setattr(endo.EndoAlgebra, "forms", forms)

    def counting(module, attr):
        original = getattr(module, attr)

        def counted(rows):
            reduced.append(rows)
            return original(rows)

        monkeypatch.setattr(module, attr, counted)

    original = matrices.span_lattice
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("conecrafter") and getattr(module, "span_lattice", None) is original:
            counting(module, "span_lattice")
    counting(wedderburn, "_rank")
    kwargs = {"samples": 20} if run is run_verify else {}
    run(load_corpus(name + ".json"), **kwargs)
    assert built
    assert [sum(rows is forms for rows in reduced) for forms in built] == [1] * len(built)


def test_ampleness_inverts_the_polarization_once(monkeypatch):
    doc = load_corpus("product_gauss_squared.json")
    t = PolarizedTorus(doc.torus.j, doc.torus.e)
    inverted = []
    original = Matrix.inverse

    def counted(self):
        if self == t.e:
            inverted.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    assert is_ample(t, t.e)
    assert is_nef(t, t.e)
    assert not is_ample(t, -t.e)
    assert rosati(t, t.j) == -t.j
    assert len(inverted) == 1


def test_symmetric_generators_are_built_once():
    prob = binary_quadratic_problem()
    first = prob.symmetric_generators
    assert prob.symmetric_generators is first
    prob.word_ball
    assert prob.symmetric_generators is first


def test_each_lattice_is_solved_once(monkeypatch):
    reduced = []
    original = Matrix.rref

    def counted(self):
        reduced.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    t = prepare_torus(load_corpus("bielliptic_z4.json")).invariant_torus
    end = compute_end(t)
    ns = compute_ns(t)
    units = [
        Matrix([[int((i, j) == (k, l)) for j in range(t.rank)] for i in range(t.rank)])
        for k in range(t.rank) for l in range(t.rank)
    ]
    # a unit matrix off the commutant of J, and a form that is not alternating
    off_end = next(u for u in units if u @ t.j != t.j @ u)
    for lattice, outside in ((end, off_end), (ns, units[0])):
        before = len(reduced)
        for _ in range(3):
            for b in lattice.basis:
                assert lattice.from_coordinates(lattice.coordinates(b)) == b
        with pytest.raises(ValidationError) as exc:
            lattice.coordinates(outside)
        assert exc.value.invariant == lattice.membership[0]
        assert len(reduced) - before <= 1


@pytest.mark.parametrize("name", TORI)
def test_build_domain_projects_only_inside_cone_structure(monkeypatch, name):
    """Only cone_structure cuts out the factors; the ampleness tests also
    map forms to endomorphisms and are not counted."""
    depth = [0]
    outside = []
    original = cone.ns_to_endo

    def scoped(fn):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    def counted(t, f):
        if depth[0] == 0:
            outside.append(f)
        return original(t, f)

    for fn in ("cone_structure", "is_ample", "is_nef"):
        monkeypatch.setattr(cone, fn, scoped(getattr(cone, fn)))
    monkeypatch.setattr(pipeline, "cone_structure", cone.cone_structure)
    monkeypatch.setattr(cone, "ns_to_endo", counted)
    monkeypatch.setattr(pipeline, "ns_to_endo", counted, raising=False)
    build_domain(prepare_torus(load_corpus(name + ".json")))
    assert outside == []


@pytest.mark.parametrize("name", ["bielliptic_z4", "hyperbolic_z8"])
def test_check_decides_freeness_once(monkeypatch, name):
    calls = []
    original = pipeline.action_is_free

    def counted(t, group):
        calls.append(group)
        return original(t, group)

    monkeypatch.setattr(pipeline, "action_is_free", counted)
    run_check(load_corpus(name + ".json"))
    assert len(calls) == 1


def test_endo_builds_no_form_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("endo needs no form lattice")

    monkeypatch.setattr(cone, "compute_ns", refuse)
    monkeypatch.setattr(cone, "invariant_ns", refuse)
    for name in TORI:
        assert run_endo(load_corpus(name + ".json"))["factors"]


@pytest.mark.parametrize("name", ["bielliptic_z4", "hyperbolic_z8"])
def test_check_validates_the_torus_once(monkeypatch, name):
    calls = []
    original = torus.validate_torus

    def counted(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(torus, "validate_torus", counted)
    monkeypatch.setattr(pipeline, "validate_torus", counted)
    assert run_check(load_corpus(name + ".json"))["verdict"] == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("run,builds", [
    (run_funddom, 0), (run_cone, 1), (run_verify, 1),
])
def test_full_form_lattice_only_where_read(monkeypatch, run, builds):
    calls = []
    original = cone.compute_ns

    def counted(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(cone, "compute_ns", counted)
    run(load_corpus("hyperbolic_z8.json"))
    assert len(calls) == builds


def test_coordinate_ampleness_builds_its_forms_once(monkeypatch):
    def refuse(m):
        raise AssertionError("no characteristic polynomial in lattice coordinates")

    monkeypatch.setattr(cone, "char_poly", refuse)
    monkeypatch.setattr(polynomials, "char_poly", refuse)
    products = []
    original = Matrix.__matmul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    ctx = prepare_torus(load_corpus("bielliptic_z4.json"))
    lattice = compute_ns(ctx.invariant_torus)
    e = lattice.coordinates(ctx.invariant_torus.e)
    units = [[int(i == k) for i in range(lattice.rank)] for k in range(lattice.rank)]
    classes = [[k * x for x in e] for k in (-1, 0, 1, 2)] + units
    products.clear()
    verdicts = [(lattice.is_ample_coords(c), lattice.is_nef_coords(c)) for c in classes]
    built = len(products)
    assert 0 < built <= lattice.rank + 1
    for _ in range(2):
        for c in classes:
            lattice.is_ample_coords(c)
            lattice.is_nef_coords(c)
    assert len(products) == built
    assert set(verdicts) == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("name", ["p2_minkowski", "hyperbolic_z8"])
def test_verify_builds_one_word_ball(monkeypatch, name):
    """find_eta and find_interior_overlap read the same ball, built once."""
    builds = []
    original = ReductionProblem.__dict__["word_ball"].func

    def counted(self):
        builds.append(self)
        return original(self)

    ball = cached_property(counted)
    ball.__set_name__(ReductionProblem, "word_ball")
    monkeypatch.setattr(ReductionProblem, "word_ball", ball)
    assert run_verify(load_corpus(name + ".json"), samples=20)["complete"]
    assert len(builds) == 1


def test_verify_builds_no_matrix_per_sample(monkeypatch):
    """bielliptic_z4 has no normalizer, so its problem has no generator and
    every sample reduces by the identity word."""
    built = [0]
    original = Matrix.__init__

    def counted(self, rows):
        built[0] += 1
        original(self, rows)

    monkeypatch.setattr(Matrix, "__init__", counted)
    counts = []
    for samples in (100, 200):
        built[0] = 0
        report = run_verify(load_corpus("bielliptic_z4.json"), samples=samples)
        assert report["complete"] and report["verified"] == samples
        counts.append(built[0])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("run,builds", [
    (run_endo, 1), (run_cone, 0), (run_funddom, 0), (run_verify, 0),
])
@pytest.mark.parametrize("name", ["bielliptic_z4", "product_gauss_squared"])
def test_full_algebra_only_for_endo(monkeypatch, run, builds, name):
    """Only endo reads End(T) itself (for end_dim); builds counts those
    builds. The other commands work in the invariant subalgebra, which
    lies in End(T) by construction, and build End(T) only to read the
    full form lattice off it: once per command that reads that lattice
    (cone and verify). Both counts are of a torus whose group has a
    linear generator (bielliptic_z4). With none (product_gauss_squared),
    J alone cuts out the invariant subalgebra, which is then End(T), and
    no command builds it again. Every module that binds compute_end gets
    the counter."""
    calls, lattices = [], []
    original, original_ns = endo.compute_end, cone.compute_ns

    def counted(t):
        calls.append(t)
        return original(t)

    def counted_ns(t):
        lattices.append(t)
        return original_ns(t)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("conecrafter") and getattr(module, "compute_end", None) is original:
            monkeypatch.setattr(module, "compute_end", counted)
    monkeypatch.setattr(cone, "compute_ns", counted_ns)
    doc = load_corpus(name + ".json")
    linear = bool(prepare_torus(doc).group.linear_generators)
    assert linear == (name == "bielliptic_z4")
    run(doc)
    assert len(lattices) == (linear and run in (run_cone, run_verify))
    assert len(calls) == (builds + len(lattices) if linear else 0)


@pytest.mark.parametrize("run,verdicts", [
    (run_endo, 1), (run_cone, 0), (run_funddom, 0), (run_verify, 0),
])
@pytest.mark.parametrize("name", TORI)
def test_only_endo_takes_rosati_images(monkeypatch, run, verdicts, name):
    """No command takes a stacked Rosati image, endo included: only endo
    reports the two Rosati verdicts, and it reads them off the validated
    polarization. cone, funddom and verify read the algebra's forms."""
    stacked = _count_stacked(monkeypatch, "rosati_all")
    report = run(load_corpus(name + ".json"))
    assert stacked == []
    assert ("trace_positive" in report, "rosati_closed" in report) == (verdicts, verdicts)


@pytest.mark.parametrize("data", [
    read_corpus_json("product_gauss_squared.json"), ei_power_data(2), ei_power_data(3),
], ids=["product_gauss_squared", "ei2", "ei3"])
def test_endo_tests_definiteness_on_rank_sized_matrices(monkeypatch, data):
    """During endo, semidefinite_rank sees only r x r matrices (the
    validation of E @ J), never a d x d Gram matrix on the invariant
    algebra: on these tori d = r^2 / 2 differs from r."""
    shapes = []
    original = matrices.semidefinite_rank

    def recorded(rows):
        shapes.append((len(rows), len(rows[0])))
        return original(rows)

    monkeypatch.setattr(matrices, "semidefinite_rank", recorded)
    r = data["rank"]
    report = run_endo(parse_document(data))
    assert report["trace_positive"] is True and report["invariant_dim"] != r
    assert shapes and set(shapes) == {(r, r)}


@pytest.mark.parametrize("run,lattices", [
    (run_endo, 0), (run_cone, 1), (run_funddom, 1), (run_verify, 1),
])
@pytest.mark.parametrize("name", ["elliptic_gauss", "elliptic_rational_j", "product_gauss_squared"])
def test_no_linear_generator_builds_one_commutant_and_one_lattice(monkeypatch, run, lattices, name):
    """With no linear generator the invariant algebra is End(T) and the
    invariant lattice is the full form lattice, so a command builds one
    commutant (the invariant algebra; the center comes from J alone) and
    at most one form lattice (cone and verify read the full lattice as
    the invariant one; endo reads none)."""
    built = {"commutant": [], "lattice": []}

    def counting(module, attr, kind):
        original = getattr(module, attr)

        def counted(*args):
            built[kind].append(args[0])
            return original(*args)

        monkeypatch.setattr(module, attr, counted)

    counting(endo, "_commutant", "commutant")
    counting(cone, "_form_lattice", "lattice")
    doc = load_corpus(name + ".json")
    assert not prepare_torus(doc).group.linear_generators
    run(doc)
    assert len(built["commutant"]) == 1
    assert len(built["lattice"]) == lattices


@pytest.mark.parametrize("name", ["elliptic_gauss", "bielliptic_z4", "hyperbolic_z8"])
def test_verify_tests_and_searches_each_point_once(monkeypatch, name):
    """At seed 1003 the 1000 samples of elliptic_gauss hold 36 distinct
    points, drawn from 54 distinct candidates; bielliptic_z4's hold 416,
    from 919. The interior tests are counted through the compiled test
    build_torus_problem binds as the problem's is_interior (hyperbolic_z8
    tests more candidates than it draws samples).

    The orbit search is compiled once, before the first sample, and each
    distinct sample is searched once: a start inside the domain returns
    the empty path at the search's first test, so nothing gates it. The
    two tori without generators build a search with no letters."""
    sampling = [False]
    tested = []
    built = []
    searched = []
    sampled = []
    original_build = pipeline.positive_definite_form
    original_samples = reduction._tiling_samples
    original_search = reduction.orbit_search

    def counted_build(rows, n):
        test = original_build(rows, n)

        def counted_test(coords):
            if sampling[0]:
                tested.append(tuple(coords))
            return test(coords)

        return counted_test

    def recorded_samples(*args):
        sampling[0] = True
        try:
            pts = original_samples(*args)
        finally:
            sampling[0] = False
        sampled.extend(pts)
        return pts

    def counted_search(gens, *args):
        built.append(len(gens))
        search = original_search(gens, *args)

        def counted(start, max_nodes):
            searched.append(start)
            return search(start, max_nodes)

        return counted

    monkeypatch.setattr(pipeline, "positive_definite_form", counted_build)
    monkeypatch.setattr(reduction, "_tiling_samples", recorded_samples)
    monkeypatch.setattr(reduction, "orbit_search", counted_search)
    report = run_verify(load_corpus(name + ".json"), seed=1003)
    assert report["complete"] and report["verified"] == len(sampled) == 1000
    assert len(set(sampled)) < len(set(tested))
    assert len(tested) == len(set(tested))
    assert len(tested) < 1000 or name == "hyperbolic_z8"
    assert len(built) == 1 and (built[0] > 0) == (name == "hyperbolic_z8")
    assert searched == list(dict.fromkeys(sampled))


def _count_compiles(monkeypatch):
    compiled = []
    original = kernels._compile

    def counted(body, values):
        compiled.append(body)
        return original(body, values)

    monkeypatch.setattr(kernels, "_compile", counted)
    return compiled


@pytest.mark.parametrize("name", ["p2_minkowski", "hyperbolic_z8"])
def test_verify_compiles_per_problem_not_per_sample(monkeypatch, name):
    """Generator steps, the domain's ray combination and the torus
    problem's interior test are compiled once per object: doubling the
    samples compiles nothing more. linear_map and positive_definite_form
    compile through _compile; the orbit search goes to _builder itself.
    The stored problem tests ampleness without a lattice, so only the
    torus compiles a Sylvester test, and it compiles one: the form map and
    the elimination in one function."""
    lattices = {"p2_minkowski": 0, "hyperbolic_z8": 1}[name]
    compiled = _count_compiles(monkeypatch)
    eliminations = [0]
    original_test = pipeline.positive_definite_form

    def counted_test(rows, n):
        eliminations[0] += 1
        return original_test(rows, n)

    monkeypatch.setattr(pipeline, "positive_definite_form", counted_test)
    counts = []
    for samples in (100, 200):
        compiled.clear()
        eliminations[0] = 0
        report = run_verify(load_corpus(name + ".json"), samples=samples)
        assert report["complete"] and report["verified"] == samples
        counts.append((len(compiled), eliminations[0]))
    assert counts[0] == counts[1]
    assert counts[0][0] > counts[0][1] == lattices
    assert sum("return False" in "\n".join(body) for body in compiled) == lattices


@pytest.mark.parametrize("run,name", [
    *[(run_cone, name) for name in TORI],
    *[(run_funddom, name) for name in [*TORI, "p2_minkowski"]],
])
def test_cone_and_funddom_compile_nothing(monkeypatch, run, name):
    """Each tests a handful of classes per lattice, fewer than a compile
    pays back, so their ampleness and nefness tests run uncompiled."""
    compiled = _count_compiles(monkeypatch)
    run(load_corpus(name + ".json"))
    assert compiled == []


def _count_squarefree_parts(monkeypatch):
    taken = []
    original = polynomials.Polynomial.squarefree_part

    def counted(self):
        taken.append(self)
        return original(self)

    monkeypatch.setattr(polynomials.Polynomial, "squarefree_part", counted)
    return taken


@pytest.mark.parametrize("test", [is_ample, is_nef])
def test_an_ampleness_test_takes_one_squarefree_part(monkeypatch, test):
    """The root tests read the squarefree degree, and a root at 0, from
    the Sturm chain, which is the one place that takes the squarefree
    part."""
    taken = _count_squarefree_parts(monkeypatch)
    doc = load_corpus("product_gauss_squared.json")
    t = PolarizedTorus(doc.torus.j, doc.torus.e)
    assert test(t, t.e)
    assert len(taken) == 1


def test_decompose_takes_no_squarefree_part_of_the_center_polynomial(monkeypatch):
    """The center's minimal polynomial is factored once, and the factor
    multiplicities show whether it is squarefree. Each factor comes back
    irreducible, so its Sturm root count takes no squarefree part either."""
    taken = _count_squarefree_parts(monkeypatch)
    found = []
    original = wedderburn.primitive_center_element

    def recorded(*args):
        z, mu = original(*args)
        found.append(mu)
        return z, mu

    monkeypatch.setattr(wedderburn, "primitive_center_element", recorded)
    ctx = prepare_torus(load_corpus("bielliptic_z4.json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    taken.clear()
    dec = decompose(sub)
    assert [mu.degree for mu in found] == [4]
    assert len(dec.factors) == 2
    assert taken == []


@pytest.mark.parametrize("name", [*TORI, "elliptic_rational_j"])
def test_decompose_takes_no_polynomial_gcd(monkeypatch, name):
    """The squarefree test of the center polynomial reads the last member
    of its Sturm chain, and the idempotents come from the integer
    remainder sequence, so no Fraction gcd runs."""
    taken = []
    original = polynomials.Polynomial.gcd

    def counted(self, other):
        taken.append((self, other))
        return original(self, other)

    ctx = prepare_torus(load_corpus(name + ".json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    monkeypatch.setattr(polynomials.Polynomial, "gcd", counted)
    assert decompose(sub).factors
    assert taken == []
