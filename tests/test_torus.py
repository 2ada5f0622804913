from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecrafter.errors import ClosureError, ValidationError
from conecrafter.matrices import Matrix
from conecrafter.torus import (
    AffineAuto,
    GroupAction,
    PolarizedTorus,
    action_is_free,
    close_group,
    has_translations,
    invariant_polarization,
    is_free,
    is_polarization_invariant,
    normalize_polarization,
    trivial_group,
    validate_automorphism,
    validate_torus,
)

from conftest import affine_compose, block_diag

R = Matrix([[0, -1], [1, 0]])
E1 = Matrix([[0, 1], [-1, 0]])

ELLIPTIC = PolarizedTorus(R, E1)
PRODUCT = PolarizedTorus(block_diag(R, R), block_diag(E1, E1))


def check_names(checks):
    return {c.name: c.passed for c in checks}


class TestValidation:
    def test_elliptic_all_pass(self):
        report = validate_torus(ELLIPTIC)
        names = check_names(report.checks)
        assert names == {
            "complex_structure_square": True,
            "polarization_integral": True,
            "polarization_alternating": True,
            "polarization_compatible": True,
            "polarization_definite": True,
        }
        assert report.sign == 1

    def test_j_not_square_root(self):
        bad = PolarizedTorus(Matrix([[0, 1], [1, 0]]), E1)
        report = validate_torus(bad)
        assert check_names(report.checks)["complex_structure_square"] is False

    def test_polarization_not_alternating(self):
        bad = PolarizedTorus(R, Matrix([[0, 1], [1, 0]]))
        assert check_names(validate_torus(bad).checks)["polarization_alternating"] is False

    def test_polarization_not_integral(self):
        bad = PolarizedTorus(R, Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]))
        assert check_names(validate_torus(bad).checks)["polarization_integral"] is False

    def test_incompatible_polarization(self):
        # E pairs the two factors, J rotates them separately: J^T E J != E
        e = Matrix([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ])
        j = block_diag(R, Matrix([[1, -1], [2, -1]]))
        report = validate_torus(PolarizedTorus(j, e))
        assert check_names(report.checks)["polarization_compatible"] is False

    def test_indefinite_sign(self):
        report = validate_torus(PolarizedTorus(block_diag(R, R), block_diag(E1, -E1)))
        assert report.sign == 0

    def test_rank_must_be_even(self):
        with pytest.raises(ValidationError):
            PolarizedTorus(Matrix([[1]]), Matrix([[0]]))


class TestNormalization:
    def test_positive_untouched(self):
        t, flipped = normalize_polarization(ELLIPTIC)
        assert not flipped
        assert t.e == E1

    def test_negative_flipped(self):
        t, flipped = normalize_polarization(PolarizedTorus(R, -E1))
        assert flipped
        assert t.e == E1
        assert validate_torus(t).sign == 1

    def test_indefinite_rejected(self):
        bad = PolarizedTorus(block_diag(R, R), block_diag(E1, -E1))
        with pytest.raises(ValidationError) as exc:
            normalize_polarization(bad)
        assert exc.value.invariant == "polarization_definite"

    def test_other_failure_wins(self):
        bad = PolarizedTorus(R, Matrix([[0, 1], [1, 0]]))
        with pytest.raises(ValidationError) as exc:
            normalize_polarization(bad)
        assert exc.value.invariant != "polarization_definite"


class TestAffineAuto:
    def test_translation_reduced_mod_one(self):
        g = AffineAuto(Matrix.identity(2), (Fraction(5, 4), Fraction(-1, 4)))
        assert g.translation == (Fraction(1, 4), Fraction(3, 4))

    def test_compose_formula(self):
        a = AffineAuto(R, (Fraction(1, 2), Fraction(0)))
        b = AffineAuto(Matrix.identity(2), (Fraction(1, 4), Fraction(1, 4)))
        ab = affine_compose(a, b)
        # x -> R(x + (1/4,1/4)) + (1/2,0) = Rx + (-1/4+1/2, 1/4)
        assert ab.linear == R
        assert ab.translation == (Fraction(1, 4), Fraction(1, 4))

    def test_associativity(self):
        a = AffineAuto(R, (Fraction(1, 2), Fraction(1, 3)))
        b = AffineAuto(Matrix([[1, 1], [0, 1]]), (Fraction(1, 4), Fraction(0)))
        c = AffineAuto(Matrix([[1, 0], [1, 1]]), (Fraction(0), Fraction(1, 5)))
        assert affine_compose(affine_compose(a, b), c) == affine_compose(a, affine_compose(b, c))

    def test_is_translation(self):
        assert AffineAuto(Matrix.identity(2), (Fraction(1, 2), Fraction(0))).is_translation
        assert not AffineAuto(R, (Fraction(1, 2), Fraction(0))).is_translation
        assert not AffineAuto(Matrix.identity(2)).is_translation  # identity is not


class TestAutomorphismChecks:
    def test_good_generator(self):
        checks = check_names(validate_automorphism(ELLIPTIC, AffineAuto(R)))
        assert all(checks.values())

    def test_not_unimodular(self):
        checks = check_names(validate_automorphism(ELLIPTIC, AffineAuto(2 * R)))
        assert checks["unimodular"] is False

    def test_not_holomorphic(self):
        g = AffineAuto(Matrix([[1, 1], [0, 1]]))
        checks = check_names(validate_automorphism(ELLIPTIC, g))
        assert checks["holomorphic"] is False

    def test_not_integral(self):
        g = AffineAuto(Matrix([[Fraction(1, 2), 0], [0, 2]]))
        checks = check_names(validate_automorphism(ELLIPTIC, g))
        assert checks["linear_integral"] is False


class TestGroupClosure:
    def test_cyclic_four(self):
        group = close_group([AffineAuto(R)])
        assert len(group.elements) == 4
        assert group.elements[0].is_identity

    def test_order_eight(self):
        c = Matrix([
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ])
        group = close_group([AffineAuto(c)])
        assert len(group.elements) == 8

    def test_translation_order(self):
        g = AffineAuto(Matrix.identity(2), (Fraction(1, 4), Fraction(0)))
        group = close_group([g])
        assert len(group.elements) == 4

    def test_never_closes(self):
        shear = AffineAuto(Matrix([[1, 1], [0, 1]]))
        with pytest.raises(ClosureError):
            close_group([shear], max_order=32)

    def test_closure_is_a_group(self):
        group = close_group([AffineAuto(R, (Fraction(1, 2), Fraction(0)))])
        elems = set(group.elements)
        for a in elems:
            assert any(affine_compose(a, b).is_identity for b in elems)
            for b in elems:
                assert affine_compose(a, b) in elems

    def test_trivial_group(self):
        group = trivial_group(4)
        assert len(group.elements) == 1
        assert group.elements[0].is_identity


class TestFreeness:
    def test_linear_action_never_free(self):
        # fixes the origin
        assert not is_free(ELLIPTIC, AffineAuto(R))

    def test_pure_translation_is_free(self):
        g = AffineAuto(Matrix.identity(2), (Fraction(1, 2), Fraction(0)))
        assert is_free(ELLIPTIC, g)

    def test_quarter_turn_with_shift(self):
        # R fixes x = (I - R)^{-1} t mod Z^2 for any t, never free
        g = AffineAuto(R, (Fraction(1, 4), Fraction(0)))
        assert not is_free(ELLIPTIC, g)

    def test_bielliptic_generator_is_free(self):
        lin = block_diag(R, Matrix.identity(2))
        t = (Fraction(0), Fraction(0), Fraction(1, 4), Fraction(0))
        g = AffineAuto(lin, t)
        assert is_free(PRODUCT, g)
        group = close_group([g])
        assert len(group.elements) == 4
        assert action_is_free(PRODUCT, group)

    def test_action_free_skips_identity(self):
        assert action_is_free(ELLIPTIC, trivial_group(2))

    def test_has_translations(self):
        shift = AffineAuto(Matrix.identity(2), (Fraction(1, 2), Fraction(0)))
        assert has_translations(close_group([shift]))
        assert not has_translations(close_group([AffineAuto(R)]))


class TestInvariantPolarization:
    def test_invariant_already(self):
        group = close_group([AffineAuto(R)])
        assert is_polarization_invariant(ELLIPTIC, group)
        avg = invariant_polarization(ELLIPTIC, group)
        assert avg == len(group.elements) * E1

    def test_averaging_makes_invariant(self):
        # swap of the two elliptic factors with unequal polarization weights
        swap = Matrix([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        t = PolarizedTorus(block_diag(R, R), block_diag(E1, 2 * E1))
        group = close_group([AffineAuto(swap)])
        assert not is_polarization_invariant(t, group)
        avg = invariant_polarization(t, group)
        fixed = PolarizedTorus(t.j, avg)
        assert is_polarization_invariant(fixed, group)
        assert validate_torus(fixed).sign == 1
        assert avg == block_diag(3 * E1, 3 * E1)


# --- the definiteness sign against the halved symmetric part --------------------

def _sym(m: Matrix) -> Matrix:
    """The halved symmetric part (m + m.T) / 2 that the definiteness check
    once read, kept as the reference."""
    return (m + m.T) * Fraction(1, 2)


def _fraction_det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _sylvester_sign(m: Matrix) -> int:
    """+1 / -1 / 0 for a positive / negative / not definite symmetric m,
    by Sylvester's criterion on Fraction leading principal minors."""
    minors = [_fraction_det([r[:k] for r in m.rows[:k]]) for k in range(1, m.nrows + 1)]
    if all(d > 0 for d in minors):
        return 1
    if all((-1) ** k * d > 0 for k, d in enumerate(minors, 1)):
        return -1
    return 0


_scalars = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)


@st.composite
def _square(draw, n):
    return Matrix([[draw(_scalars) for _ in range(n)] for _ in range(n)])


@st.composite
def _random_pairs(draw):
    n = draw(st.sampled_from([2, 4]))
    return draw(_square(n)), draw(_square(n))


@st.composite
def _definite_pairs(draw):
    """E = s (M.T M + I) + (K - K.T) and J = c I: E @ J is definite with
    the sign of s * c, and not symmetric unless K is."""
    n = draw(st.sampled_from([2, 4]))
    m, k = draw(_square(n)), draw(_square(n))
    s = draw(st.sampled_from([1, -1, Fraction(1, 3), Fraction(-5, 2)]))
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]))
    e = (m.T @ m + Matrix.identity(n)) * s + (k - k.T)
    return e, Matrix.identity(n) * c


@settings(max_examples=300, deadline=None)
@given(st.one_of(_random_pairs(), _definite_pairs()))
def test_definiteness_sign_matches_the_halved_symmetric_part(pair):
    e, j = pair
    assert validate_torus(PolarizedTorus(j, e)).sign == _sylvester_sign(_sym(e @ j))


def test_sign_of_a_non_symmetric_e_j():
    """E @ J = E is not symmetric; its symmetric part diag(2, 1) is."""
    e = Matrix([[2, 1], [-1, 1]])
    assert validate_torus(PolarizedTorus(Matrix.identity(2), e)).sign == 1
    assert validate_torus(PolarizedTorus(Matrix.identity(2) * Fraction(-1, 2), e)).sign == -1
