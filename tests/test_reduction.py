import itertools
import random

import pytest

import conecrafter.reduction as reduction
from conecrafter.errors import DeskScaleError, SearchExhausted, ValidationError
from conecrafter.matrices import Matrix, primitive_tuple
from conecrafter.reduction import (
    GAUSS_N,
    GAUSS_S,
    GAUSS_T,
    P2_ACTION_N,
    P2_ACTION_S,
    P2_ACTION_T,
    WORD_LENGTH,
    GroupWord,
    PolyhedralCone,
    ReductionProblem,
    binary_quadratic_problem,
    find_eta,
    find_interior_overlap,
    gauss_reduce,
    hyperbolic_domain,
    is_gauss_reduced,
    pell_fundamental_unit,
    pell_positive_unit,
    transform_form,
    verify_tiling,
)

from conftest import minkowski_domain_p2


def positive_definite_forms(bound):
    for a in range(1, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(1, bound + 1):
                if 4 * a * c - b * b > 0:
                    yield (a, b, c)


class TestGaussReduce:
    def test_generator_matrices(self):
        assert GAUSS_S == Matrix([[0, -1], [1, 0]])
        assert GAUSS_T == Matrix([[1, 1], [0, 1]])
        assert GAUSS_N == Matrix([[1, 0], [0, -1]])

    def test_transform_form_is_substitution(self):
        # gamma^T M gamma for the Gram matrix M = [[a, b/2], [b/2, c]],
        # checked through the integral doubled form to stay exact
        rng = random.Random(2)
        for _ in range(50):
            form = (rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
            g = Matrix([[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)])
            a, b, c = form
            doubled = Matrix([[2 * a, b], [b, 2 * c]])
            image = g.T @ doubled @ g
            na, nb, nc = transform_form(form, g)
            assert image == Matrix([[2 * na, nb], [nb, 2 * nc]])

    def test_exhaustive_reduction(self):
        """Every positive definite form with coefficients up to 15 reduces
        to the fundamental chamber with an exactly verified certificate."""
        for form in positive_definite_forms(15):
            reduced, word = gauss_reduce(form)
            a, b, c = reduced
            assert is_gauss_reduced(reduced), (form, reduced)
            assert 4 * a * c - b * b == 4 * form[0] * form[2] - form[1] ** 2
            assert transform_form(form, word.matrix) == reduced
            assert abs(word.matrix.det()) == 1
            for letter, power in word.letters:
                assert letter in ("S", "T", "N")
                assert power != 0

    def test_reduced_forms_are_fixed_points(self):
        for form in positive_definite_forms(8):
            if not is_gauss_reduced(form):
                continue
            again, word = gauss_reduce(form)
            assert again == form
            assert word.matrix == Matrix.identity(2)

    def test_frozen_words(self):
        cases = {
            (7, 10, 4): ((1, 0, 3), [("T", -1), ("S", 1), ("T", -2)]),
            (2, -1, 3): ((2, 1, 3), [("N", 1)]),
            (1, 0, 1): ((1, 0, 1), []),
            (10, 34, 29): ((1, 0, 1), [("T", -2), ("S", 1), ("T", -3)]),
            (5, -7, 3): ((1, 1, 3), [("T", 1), ("S", 1), ("T", 2)]),
        }
        for form, (want_reduced, want_word) in cases.items():
            reduced, word = gauss_reduce(form)
            assert reduced == want_reduced
            assert list(word.letters) == want_word

    def test_is_gauss_reduced(self):
        assert is_gauss_reduced((1, 0, 1))
        assert is_gauss_reduced((1, 1, 1))
        assert is_gauss_reduced((2, 1, 3))
        assert not is_gauss_reduced((2, 3, 4))
        assert not is_gauss_reduced((3, 1, 2))
        assert not is_gauss_reduced((2, -1, 3))

    def test_indefinite_rejected(self):
        with pytest.raises(ValidationError) as exc:
            gauss_reduce((1, 5, 1))
        assert exc.value.invariant == "form_definite"
        with pytest.raises(ValidationError):
            gauss_reduce((-1, 0, -1))


class TestP2Action:
    def test_action_matrices_mirror_substitution(self):
        """The 3x3 coordinate actions must agree with the 2x2 substitutions
        on every form."""
        pairs = [
            (P2_ACTION_S, GAUSS_S),
            (P2_ACTION_T, GAUSS_T),
            (P2_ACTION_N, GAUSS_N),
        ]
        rng = random.Random(6)
        for action, g in pairs:
            for _ in range(40):
                form = tuple(rng.randrange(-9, 10) for _ in range(3))
                direct = transform_form(form, g)
                moved = action @ Matrix([[x] for x in form])
                assert tuple(moved[i, 0] for i in range(3)) == direct

    def test_actions_are_unimodular(self):
        for action in (P2_ACTION_S, P2_ACTION_T, P2_ACTION_N):
            assert abs(action.det()) == 1
            assert action.is_integral


class TestMinkowskiDomain:
    def test_rays_and_facets(self):
        dom = minkowski_domain_p2()
        assert dom.rays == ((0, 0, 1), (1, 0, 1), (1, 1, 1))
        assert set(dom.facets) == {(-1, 0, 1), (0, 1, 0), (1, -1, 0)}

    def test_membership_is_the_reduction_condition(self):
        dom = minkowski_domain_p2()
        for form in positive_definite_forms(10):
            assert dom.contains(form) == is_gauss_reduced(form)

    def test_strict_membership(self):
        dom = minkowski_domain_p2()
        assert dom.contains((2, 1, 3), strict=True)
        assert not dom.contains((1, 0, 1), strict=True)  # b = 0 boundary
        assert not dom.contains((1, 1, 1), strict=True)  # a = b boundary


class TestPell:
    FROZEN = {
        2: (1, 1, -1),
        3: (2, 1, 1),
        5: (2, 1, -1),
        7: (8, 3, 1),
        13: (18, 5, -1),
    }

    def test_fundamental_units(self):
        for d, (x, y, norm) in self.FROZEN.items():
            sol = pell_fundamental_unit(d)
            assert (sol.x, sol.y, sol.norm) == (x, y, norm)
            assert x * x - d * y * y == norm

    def test_positive_units(self):
        want = {2: (3, 2), 3: (2, 1), 5: (9, 4), 7: (8, 3), 13: (649, 180)}
        for d, (x, y) in want.items():
            assert pell_positive_unit(d) == (x, y)
            assert x * x - d * y * y == 1

    def test_negative_unit_squares_to_positive(self):
        for d in (2, 5, 13):
            sol = pell_fundamental_unit(d)
            assert sol.norm == -1
            x, y = pell_positive_unit(d)
            # (x0 + y0 sqrt d)^2 = x + y sqrt d
            assert x == sol.x**2 + d * sol.y**2
            assert y == 2 * sol.x * sol.y

    def test_minimality(self):
        for d, (x, y) in {2: (3, 2), 3: (2, 1), 5: (9, 4)}.items():
            for yy in range(1, y):
                xx2 = 1 + d * yy * yy
                assert int(xx2**0.5) ** 2 != xx2, (d, yy)

    def test_bad_inputs(self):
        for bad in (0, 1, -3):
            with pytest.raises(ValidationError) as exc:
                pell_fundamental_unit(bad)
            assert exc.value.invariant == "pell_input"
        with pytest.raises(ValidationError):
            pell_fundamental_unit(9)

    def test_larger_discriminants_satisfy_identity(self):
        for d in (6, 10, 11, 14, 19, 61):
            sol = pell_fundamental_unit(d)
            assert sol.x * sol.x - d * sol.y * sol.y == sol.norm
            assert sol.norm in (1, -1)
            x, y = pell_positive_unit(d)
            assert x * x - d * y * y == 1
        # the famously large D = 61 case
        assert pell_positive_unit(61) == (1766319049, 226153980)


class TestPolyhedralCone:
    def test_from_rays_square(self):
        cone = PolyhedralCone.from_rays([(1, 0), (0, 1)])
        assert cone.contains((2, 3))
        assert cone.contains((2, 3), strict=True)
        assert cone.contains((1, 0))
        assert not cone.contains((1, 0), strict=True)
        assert not cone.contains((-1, 2))

    def test_facets_support_the_cone(self):
        cone = PolyhedralCone.from_rays([(0, 0, 1), (1, 0, 1), (1, 1, 1)])
        for ray in cone.rays:
            for facet in cone.facets:
                assert sum(f * r for f, r in zip(facet, ray)) >= 0

    def test_needs_rays(self):
        with pytest.raises(ValidationError) as exc:
            PolyhedralCone.from_rays([])
        assert exc.value.invariant == "cone_rays"

    def test_rays_must_span(self):
        with pytest.raises(ValidationError) as exc:
            PolyhedralCone.from_rays([(1, 0, 0), (0, 1, 0)])
        assert exc.value.invariant == "cone_rank"

    def test_pointedness(self):
        with pytest.raises(ValidationError) as exc:
            PolyhedralCone.from_rays([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert exc.value.invariant == "cone_pointed"

    def test_dimension_cap(self):
        rays = [tuple(1 if i == j else 0 for j in range(5)) for i in range(5)]
        with pytest.raises(DeskScaleError):
            PolyhedralCone.from_rays(rays)

    def test_interior_samples_are_interior(self):
        cone = PolyhedralCone.from_rays([(0, 1), (2, 3)])
        pts = cone.interior_samples(50, seed=1)
        assert len(pts) == 50
        for p in pts:
            assert cone.contains(p, strict=True)

    def test_samples_deterministic(self):
        cone = minkowski_domain_p2()
        assert cone.interior_samples(20, seed=9) == cone.interior_samples(20, seed=9)


def test_primitive_tuple():
    assert primitive_tuple((4, 6)) == (2, 3)
    assert primitive_tuple((0, 0, 5)) == (0, 0, 1)
    from fractions import Fraction

    assert primitive_tuple((Fraction(1, 2), Fraction(1, 3))) == (3, 2)


class TestHyperbolicDomain:
    ACTION = Matrix([[3, 2], [4, 3]])

    def test_corpus_domain(self):
        dom = hyperbolic_domain(self.ACTION, (0, 1))
        assert dom.rays == ((0, 1), (2, 3))

    def test_action_maps_ray_to_ray(self):
        dom = hyperbolic_domain(self.ACTION, (0, 1))
        moved = self.ACTION @ Matrix([[0], [1]])
        assert primitive_tuple((moved[0, 0], moved[1, 0])) == dom.rays[1]

    def test_rejects_low_trace(self):
        with pytest.raises(ValidationError) as exc:
            hyperbolic_domain(Matrix([[0, -1], [1, 0]]), (1, 1))
        assert exc.value.invariant == "hyperbolic_action"

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValidationError) as exc:
            hyperbolic_domain(Matrix([[2, 0], [0, 2]]), (1, 1))
        assert exc.value.invariant == "hyperbolic_action"

    def test_rejects_eigenvector_base(self):
        # (1, 1) is an eigenvector of [[2, 1], [1, 2]]... use a det 1 matrix
        m = Matrix([[2, 1], [1, 1]])  # eigenvector directions irrational
        dom = hyperbolic_domain(m, (1, 0))
        assert len(dom.rays) == 2
        # an integer eigenvector only exists for square discriminant, which
        # the trace/determinant screen already excludes; base on a lattice
        # point proportional to an eigenvector is impossible here
        with pytest.raises(ValidationError) as exc:
            hyperbolic_domain(Matrix([[3, 2], [4, 3]]), (0, 0))
        assert exc.value.invariant == "hyperbolic_base"


class TestReductionProblem:
    def test_binary_quadratic_problem_predicates(self):
        prob = binary_quadratic_problem()
        assert prob.dim == 3
        for form in positive_definite_forms(6):
            assert prob.is_interior(form)
            assert prob.is_closure(form)
        assert not prob.is_interior((1, 5, 1))
        assert prob.is_closure((0, 0, 1))
        assert not prob.is_closure((0, 1, 0))
        assert not prob.is_closure((-1, 0, 1))

    def test_symmetric_generators_include_inverses(self):
        prob = binary_quadratic_problem()
        table = prob.symmetric_generators
        gens = {name: m for name, m, _ in table}
        for name, mat in prob.generators:
            assert name in gens
            inv = mat.inverse()
            assert any(m == inv for _, m, _ in table)
        for _, m, k in table:
            assert table[k][1] @ m == Matrix.identity(3)

    def test_word_ball_excludes_identity_and_recomposes(self):
        prob = binary_quadratic_problem()
        gens = {name: m for name, m, _ in prob.symmetric_generators}
        ball = prob.word_ball
        mats = [rows for _, rows in ball]
        assert Matrix.identity(3).rows not in mats
        assert len(set(mats)) == len(mats)  # one shortest word per element
        assert max(len(letters) for letters, _ in ball) == WORD_LENGTH
        for letters, rows in ball:
            acc = Matrix.identity(3)
            for name, power in letters:
                assert power == 1
                acc = gens[name] @ acc
            assert acc.rows == rows

    def test_base_point_must_be_interior(self):
        prob = binary_quadratic_problem()
        with pytest.raises(ValidationError) as exc:
            ReductionProblem(
                dim=3,
                generators=prob.generators,
                pairing=prob.pairing,
                base_point=(0, 1, 0),
                is_interior=prob.is_interior,
                is_closure=prob.is_closure,
            )
        assert exc.value.invariant == "base_point"


class TestFindEta:
    def test_p2_eta(self):
        prob = binary_quadratic_problem()
        eta = find_eta(prob)
        assert eta == (1, 1, 4)
        for _, mat, _ in prob.symmetric_generators:
            assert any(
                sum(mat[j, i] * eta[j] for j in range(3)) != eta[i] for i in range(3)
            )

    def test_eta_deterministic(self):
        prob = binary_quadratic_problem()
        assert find_eta(prob) == find_eta(prob)

    def test_exhaustion(self):
        prob = binary_quadratic_problem()
        with pytest.raises(SearchExhausted):
            find_eta(prob, max_candidates=0)


class TestVerifyTiling:
    def test_minkowski_tiles(self):
        prob = binary_quadratic_problem()
        report = verify_tiling(prob, minkowski_domain_p2(), samples=120, seed=4)
        assert report.complete
        assert report.verified == report.samples == 120
        assert report.failures == ()

    def test_eta_override(self):
        prob = binary_quadratic_problem()
        report = verify_tiling(
            prob, minkowski_domain_p2(), samples=40, eta=(1, 1, 4)
        )
        assert report.complete
        assert report.eta == (1, 1, 4)

    def test_budget_exhaustion_reported(self):
        prob = binary_quadratic_problem()
        report = verify_tiling(prob, minkowski_domain_p2(), samples=25, max_steps=1)
        assert not report.complete
        assert report.failures
        assert all(f.reason == "search budget exhausted" for f in report.failures)

    def test_replay_catches_a_mismatched_step(self, monkeypatch):
        """A compiled search whose step for T is N's disagrees with T's
        matrix: it sends the search to points the replay on the matrices
        does not reach. Only the rows the search is built from change."""
        prob = binary_quadratic_problem()
        names = [name for name, _, _ in prob.symmetric_generators]
        original = reduction.orbit_search

        def mismatched(gens, *args):
            gens = list(gens)
            gens[names.index("T")] = gens[names.index("N")]
            return original(gens, *args)

        monkeypatch.setattr(reduction, "orbit_search", mismatched)
        report = verify_tiling(prob, minkowski_domain_p2(), samples=200, seed=4)
        assert not report.complete
        assert any(f.reason == "certificate recheck failed" for f in report.failures)

    def test_domain_outside_cone_rejected(self):
        prob = binary_quadratic_problem()
        bad = PolyhedralCone.from_rays([(0, 0, 1), (1, 0, 1), (0, 1, 0)])
        with pytest.raises(ValidationError) as exc:
            verify_tiling(prob, bad, samples=5)
        assert exc.value.invariant == "domain_rays"

    def test_hyperbolic_sector_tiles(self):
        # A preserves 2x^2 - y^2, so the positive cone is y^2 > 2x^2 with
        # y > 0; the sector between (0,1) and A(0,1) is a fundamental domain
        action = Matrix([[3, 2], [4, 3]])
        dom = hyperbolic_domain(action, (0, 1))
        prob = ReductionProblem(
            dim=2,
            generators=(("A", action),),
            pairing=Matrix([[2, 0], [0, 1]]),
            base_point=(0, 1),
            is_interior=lambda v: v[1] * v[1] > 2 * v[0] * v[0] and v[1] > 0,
            is_closure=lambda v: v[1] * v[1] >= 2 * v[0] * v[0] and v[1] >= 0,
        )
        report = verify_tiling(prob, dom, samples=100, seed=3)
        assert report.complete
        assert report.verified == 100

    def test_enlarged_hyperbolic_sector_overlaps(self):
        # doubling the sector to (A^{-1} base, A base) overlaps itself
        action = Matrix([[3, 2], [4, 3]])
        prob = ReductionProblem(
            dim=2,
            generators=(("A", action),),
            pairing=Matrix([[2, 0], [0, 1]]),
            base_point=(0, 1),
            is_interior=lambda v: v[1] * v[1] > 2 * v[0] * v[0] and v[1] > 0,
            is_closure=lambda v: v[1] * v[1] >= 2 * v[0] * v[0] and v[1] >= 0,
        )
        wide = PolyhedralCone.from_rays([(-2, 3), (2, 3)])
        witness = find_interior_overlap(prob, wide)
        assert witness is not None
        assert wide.contains(witness.point, strict=True)
        assert wide.contains(witness.image, strict=True)
        good = hyperbolic_domain(action, (0, 1))
        assert find_interior_overlap(prob, good) is None


class TestInteriorOverlap:
    def test_minkowski_has_no_witness(self):
        prob = binary_quadratic_problem()
        assert find_interior_overlap(prob, minkowski_domain_p2()) is None

    def test_enlarged_domain_has_witness(self):
        # -a <= b <= a <= c glues two copies of the chamber along b = 0
        prob = binary_quadratic_problem()
        enlarged = PolyhedralCone.from_rays([(0, 0, 1), (1, 1, 1), (1, -1, 1)])
        witness = find_interior_overlap(prob, enlarged)
        assert witness is not None
        a, b, c = witness.point
        assert b != 0  # the reflection fixes b = 0 only
        assert enlarged.contains(witness.point, strict=True)
        assert enlarged.contains(witness.image, strict=True)
        moved = witness.word.matrix @ Matrix([[x] for x in witness.point])
        assert tuple(moved[i, 0] for i in range(3)) == witness.image
        assert witness.word.matrix != Matrix.identity(3)
