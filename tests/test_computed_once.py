"""Structures that a document needs many times are built once: the center
of an algebra, the inverse of the polarization, the symmetric generators
of a reduction problem, the coordinate solver of a lattice, the factor
projections of a cone, the freeness of an action, the validation of a
torus, the integer forms of a lattice, the word ball of a verification,
the compiled linear maps of a problem and a domain, the compiled interior
test of a torus problem, the squarefree part of a polynomial whose roots
are tested, the Rosati images of an algebra (one stacked product for the
basis, one for the center). Decomposing an algebra takes no Fraction gcd.
Structures a command does not read are not built: the form lattices for
endo, the full one for funddom, a Matrix per tiling sample for verify,
the full endomorphism algebra for every command but endo, any compiled
function for cone and funddom. Invariance is tested against the group's
generators, not all of its elements. Sampled points
repeat, and verify tests each distinct candidate for interiority once and
searches each distinct sample once."""

import sys
from functools import cached_property

import pytest

import conecrafter._kernels as kernels
import conecrafter.cone as cone
import conecrafter.endo as endo
import conecrafter.pipeline as pipeline
import conecrafter.polynomials as polynomials
import conecrafter.reduction as reduction
import conecrafter.torus as torus
import conecrafter.wedderburn as wedderburn
from conecrafter.cone import compute_ns, is_ample, is_nef
from conecrafter.endo import (
    compute_end,
    invariant_subalgebra,
    rosati,
    rosati_fixes_algebra,
    trace_positivity_check,
)
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

from conftest import load_corpus

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
    invariant algebra and form lattice are cut out by J and that
    generator: 2 constraints, not J and the 7 other elements."""
    constraints = []

    def recording(module, name):
        original = getattr(module, name)

        def recorded(m):
            constraints.append((name, m))
            return original(m)

        monkeypatch.setattr(module, name, recorded)

    recording(endo, "commutator_rows")
    recording(cone, "congruence_rows")
    ctx = prepare_torus(load_corpus("hyperbolic_z8.json"))
    t, group = ctx.invariant_torus, ctx.group
    assert group.order == 8 and len(group.linear_parts) == 7
    (generator,) = group.linear_generators
    sub = invariant_subalgebra(t, group)
    assert sub.commutants == (t.j, generator)
    assert constraints == [("commutator_rows", t.j), ("commutator_rows", generator)]
    constraints.clear()
    cone.invariant_ns(t, group)
    assert constraints == [("congruence_rows", t.j), ("congruence_rows", generator)]


@pytest.mark.parametrize("name", TORI)
def test_rosati_images_once_per_algebra(monkeypatch, name):
    """endo's trace pairing, closure check and decomposition share the
    Rosati images of the basis, taken in one stacked call; the center's
    are taken in one more per decomposition, and each central
    idempotent's once for its check."""
    stacked, single = [], []
    original_all, original = endo.rosati_all, endo.rosati

    def counted_all(t, phis):
        stacked.append(tuple(phis))
        return original_all(t, phis)

    def counted(t, phi):
        single.append(phi)
        return original(t, phi)

    monkeypatch.setattr(endo, "rosati_all", counted_all)
    monkeypatch.setattr(wedderburn, "rosati_all", counted_all)
    monkeypatch.setattr(endo, "rosati", counted)
    ctx = prepare_torus(load_corpus(name + ".json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    dec = decompose(sub)
    assert trace_positivity_check(sub) and rosati_fixes_algebra(sub)
    assert len(stacked) == 2 and sub.basis in stacked and sub.center in stacked
    assert len(single) == len(dec.factors)
    assert sub.rosati_images == tuple(original(sub.torus, b) for b in sub.basis)


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
    """Only endo reads End(T) (for end_dim); the other commands work in the
    invariant subalgebra, which lies in End(T) by construction. Every
    module that binds compute_end gets the counter."""
    calls = []
    original = endo.compute_end

    def counted(t):
        calls.append(t)
        return original(t)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("conecrafter") and getattr(module, "compute_end", None) is original:
            monkeypatch.setattr(module, "compute_end", counted)
    run(load_corpus(name + ".json"))
    assert len(calls) == builds


@pytest.mark.parametrize("name", ["elliptic_gauss", "bielliptic_z4"])
def test_verify_tests_and_searches_each_point_once(monkeypatch, name):
    """At seed 1003 the 1000 samples of elliptic_gauss hold 36 distinct
    points, drawn from 54 distinct candidates; bielliptic_z4's hold 416,
    from 919. The interior tests are counted through the compiled test
    build_torus_problem binds as the problem's is_interior."""
    sampling = [False]
    tested = []
    searched = []
    sampled = []
    original_build = pipeline.positive_definite_form
    original_samples = reduction._tiling_samples
    original_search = reduction._best_first_reduce

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

    def counted_search(problem, domain, start, *args):
        searched.append(start)
        return original_search(problem, domain, start, *args)

    monkeypatch.setattr(pipeline, "positive_definite_form", counted_build)
    monkeypatch.setattr(reduction, "_tiling_samples", recorded_samples)
    monkeypatch.setattr(reduction, "_best_first_reduce", counted_search)
    report = run_verify(load_corpus(name + ".json"), seed=1003)
    assert report["complete"] and report["verified"] == len(sampled) == 1000
    assert len(set(sampled)) < len(set(tested)) < 1000
    assert len(tested) == len(set(tested))
    assert sorted(searched) == sorted(set(sampled))


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
    """Generator steps, the eta priority, the domain's membership test and
    ray combination, and the torus problem's interior test are compiled
    once per object: doubling the samples compiles nothing more.
    linear_map, linear_form, nonnegative_test and positive_definite_form
    all compile through _compile. The stored problem tests ampleness
    without a lattice, so only the torus compiles a Sylvester test, and
    it compiles one: the form map and the elimination in one function."""
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
