import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecrafter.cone import (
    compute_ns,
    cone_structure,
    invariant_ns,
    is_ample,
    is_nef,
    ns_to_endo,
)
from conecrafter.endo import invariant_subalgebra
from conecrafter.errors import ValidationError
from conecrafter.matrices import Matrix, integer_kernel_matrix
from conecrafter.pipeline import prepare_torus
from conecrafter.torus import AffineAuto, PolarizedTorus, close_group

from conftest import block_diag, load_corpus, vstack

R = Matrix([[0, -1], [1, 0]])
E1 = Matrix([[0, 1], [-1, 0]])


def ctx_for(name):
    return prepare_torus(load_corpus(name + ".json"))


def product_class(a, b, c, d):
    """The general invariant class on the squared elliptic curve: a and b
    weight the two factors, c and d the two real directions of the graph
    correspondence."""
    return Matrix([
        [0, a, d, c],
        [-a, 0, -c, d],
        [-d, c, 0, b],
        [-c, -d, -b, 0],
    ])


class TestNSLattice:
    @pytest.mark.parametrize("name,full,inv", [
        ("elliptic_gauss", 1, 1),
        ("product_gauss_squared", 4, 4),
        ("bielliptic_z4", 4, 2),
        ("hyperbolic_z8", 4, 2),
    ])
    def test_ranks(self, name, full, inv):
        ctx = ctx_for(name)
        assert compute_ns(ctx.invariant_torus).rank == full
        assert invariant_ns(invariant_subalgebra(ctx.invariant_torus, ctx.group)).rank == inv

    def test_basis_elements_are_classes(self):
        for name in ("product_gauss_squared", "hyperbolic_z8"):
            ctx = ctx_for(name)
            t = ctx.invariant_torus
            for f in compute_ns(t).basis:
                assert f.is_integral
                assert f.is_alternating
                assert t.j.T @ f @ t.j == f

    def test_invariant_basis_is_invariant(self):
        ctx = ctx_for("hyperbolic_z8")
        t = ctx.invariant_torus
        inv = invariant_ns(invariant_subalgebra(t, ctx.group))
        for f in inv.basis:
            for g in ctx.group.elements:
                assert g.linear.T @ f @ g.linear == f

    def test_coordinate_round_trip(self):
        rng = random.Random(3)
        ctx = ctx_for("product_gauss_squared")
        ns = compute_ns(ctx.invariant_torus)
        for _ in range(20):
            coords = [rng.randrange(-9, 10) for _ in range(ns.rank)]
            f = ns.from_coordinates(coords)
            assert list(ns.coordinates(f)) == coords

    def test_product_coordinates_are_closed_form(self):
        ns = compute_ns(ctx_for("product_gauss_squared").invariant_torus)
        assert list(ns.coordinates(product_class(1, 2, 3, 4))) == [1, 4, 3, 2]

    def test_membership_error(self):
        ctx = ctx_for("hyperbolic_z8")
        ns = invariant_ns(invariant_subalgebra(ctx.invariant_torus, ctx.group))
        stray = compute_ns(ctx.invariant_torus).basis[0]
        with pytest.raises(ValidationError) as exc:
            ns.coordinates(stray)
        assert exc.value.invariant == "ns_membership"


class TestAmpleness:
    def test_polarization_is_ample(self):
        for name in ("elliptic_gauss", "product_gauss_squared", "hyperbolic_z8"):
            t = ctx_for(name).invariant_torus
            assert is_ample(t, t.e)
            assert is_nef(t, t.e)
            assert not is_ample(t, -t.e)
            assert not is_nef(t, -t.e)

    def test_zero_is_nef_only(self):
        t = ctx_for("elliptic_gauss").invariant_torus
        zero = Matrix.zeros(2, 2)
        assert is_nef(t, zero)
        assert not is_ample(t, zero)

    def test_grid_against_closed_form(self):
        """Positivity on the squared elliptic curve has a closed form:
        ample iff a > 0 and ab > c^2 + d^2, nef iff the non-strict system
        holds with b >= 0.  Sweep a full grid and compare."""
        ns = compute_ns(ctx_for("product_gauss_squared").invariant_torus)
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
            coords = [a, d, c, b]
            want_ample = a > 0 and a * b - c * c - d * d > 0
            want_nef = a >= 0 and b >= 0 and a * b - c * c - d * d >= 0
            assert ns.is_ample_coords(coords) == want_ample, (a, b, c, d)
            assert ns.is_nef_coords(coords) == want_nef, (a, b, c, d)

    def test_corpus_verdicts_bielliptic(self):
        ctx = ctx_for("bielliptic_z4")
        ns = invariant_ns(invariant_subalgebra(ctx.invariant_torus, ctx.group))
        verdicts = [
            ([1, 1], True, True),
            ([1, 0], False, True),
            ([0, 3], False, True),
            ([-1, 2], False, False),
            ([2, 5], True, True),
        ]
        for coords, ample, nef in verdicts:
            assert ns.is_ample_coords(coords) == ample, coords
            assert ns.is_nef_coords(coords) == nef, coords

    def test_corpus_verdicts_hyperbolic(self):
        # the invariant cone is the sector y > sqrt(2) |x|
        ctx = ctx_for("hyperbolic_z8")
        ns = invariant_ns(invariant_subalgebra(ctx.invariant_torus, ctx.group))
        for coords, ample in [
            ([0, 1], True),
            ([1, 3], True),
            ([-1, 3], True),
            ([1, 1], False),
            ([2, 3], True),   # 9 > 8
            ([3, 4], False),  # 16 < 18
            ([1, 0], False),
        ]:
            assert ns.is_ample_coords(coords) == ample, coords
        # boundary: 2y^2 = x^2 has no integer points except 0, so test the
        # closure through nef of scaled boundary-adjacent classes
        assert not ns.is_nef_coords([2, 2])
        assert ns.is_nef_coords([0, 0])

    def test_ample_implies_nef_random(self):
        rng = random.Random(11)
        ns = compute_ns(ctx_for("product_gauss_squared").invariant_torus)
        for _ in range(100):
            coords = [rng.randrange(-6, 7) for _ in range(4)]
            if ns.is_ample_coords(coords):
                assert ns.is_nef_coords(coords)


def ei_torus(n, sign=1):
    """E_i^n with its product polarization, times sign."""
    return PolarizedTorus(block_diag(*[R] * n), block_diag(*[E1 * sign] * n))


def cyclic_shift(n):
    """The automorphism of E_i^n moving factor k to factor k + 1 mod n."""
    return Matrix([
        [int(i // 2 == (j // 2 + 1) % n and i % 2 == j % 2) for j in range(2 * n)]
        for i in range(2 * n)
    ])


@cache
def coordinate_lattices():
    """Full and invariant lattices of the corpus tori and of E_i^n, n <= 3,
    and the full lattice of E_i^2 under -E (E J negative definite)."""
    out = []
    for name in ("elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"):
        ctx = ctx_for(name)
        sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        out += [compute_ns(ctx.invariant_torus), invariant_ns(sub)]
    for n in (1, 2, 3):
        out.append(compute_ns(ei_torus(n)))
        if n > 1:
            group = close_group([AffineAuto(cyclic_shift(n))])
            out.append(invariant_ns(invariant_subalgebra(ei_torus(n), group)))
    out.append(compute_ns(ei_torus(2, sign=-1)))
    return tuple(out)


def boundary_classes(ns):
    """0, the basis forms and the polarization, each with both signs, and
    the polarization plus or minus each basis form."""
    e = list(ns.coordinates(ns.torus.e))
    units = [[int(i == k) for i in range(ns.rank)] for k in range(ns.rank)]
    out = [[0] * ns.rank]
    for v in units + [e]:
        out += [v, [-x for x in v]]
    for u in units:
        out += [[x + y for x, y in zip(e, u)], [x - y for x, y in zip(e, u)]]
    return out


@st.composite
def lattice_classes(draw):
    lattices = coordinate_lattices()
    ns = lattices[draw(st.integers(0, len(lattices) - 1))]
    small = st.integers(-4, 4)
    kind = draw(st.sampled_from(["boundary", "box", "near_e", "rational"]))
    if kind == "boundary":
        coords = draw(st.sampled_from(boundary_classes(ns)))
    elif kind == "box":
        coords = draw(st.lists(small, min_size=ns.rank, max_size=ns.rank))
    else:
        e = ns.coordinates(ns.torus.e)
        scale = draw(st.integers(1, 3))
        shift = draw(st.lists(small, min_size=ns.rank, max_size=ns.rank))
        coords = [scale * x + d for x, d in zip(e, shift)]
        if kind == "rational":
            dens = draw(st.lists(st.integers(1, 6), min_size=ns.rank, max_size=ns.rank))
            coords = [Fraction(c, d) for c, d in zip(coords, dens)]
    return ns, coords


class TestCoordinateAmpleness:
    """is_ample_coords / is_nef_coords (inertia of F J) against the
    bare-form is_ample / is_nef (roots of the characteristic polynomial
    of E^-1 F) on the same class."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_classes())
    def test_matches_characteristic_polynomial(self, drawn):
        ns, coords = drawn
        f = ns.from_coordinates(coords)
        assert ns.is_ample_coords(coords) == is_ample(ns.torus, f)
        assert ns.is_nef_coords(coords) == is_nef(ns.torus, f)

    def test_every_boundary_class_matches(self):
        """Every boundary class of every lattice, as ints and divided by 3
        and by 7 as Fractions (a positive scaling keeps both verdicts)."""
        for ns in coordinate_lattices():
            for coords in boundary_classes(ns):
                f = ns.from_coordinates(coords)
                want = (is_ample(ns.torus, f), is_nef(ns.torus, f))
                for d in (1, 3, 7):
                    scaled = [Fraction(c, d) for c in coords] if d > 1 else coords
                    assert (ns.is_ample_coords(scaled), ns.is_nef_coords(scaled)) == want

    def test_boundary_draws_reach_every_verdict(self):
        verdicts = set()
        for ns in coordinate_lattices():
            for coords in boundary_classes(ns):
                if any(coords):
                    f = ns.from_coordinates(coords)
                    verdicts.add((is_ample(ns.torus, f), is_nef(ns.torus, f)))
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_wrong_length_raises(self):
        ns = compute_ns(ctx_for("product_gauss_squared").invariant_torus)
        for test in (ns.is_ample_coords, ns.is_nef_coords):
            for coords in ([1, 2, 3], [1, 2, 3, 4, 5]):
                with pytest.raises(ValueError, match="coordinate length mismatch"):
                    test(coords)


class TestEndoBridge:
    def test_round_trip(self):
        rng = random.Random(5)
        t = ctx_for("product_gauss_squared").invariant_torus
        ns = compute_ns(t)
        for _ in range(10):
            f = ns.from_coordinates([rng.randrange(-5, 6) for _ in range(4)])
            phi = ns_to_endo(t, f)
            assert t.e @ phi == f

    def test_image_is_rosati_fixed(self):
        from conecrafter.endo import rosati

        t = ctx_for("product_gauss_squared").invariant_torus
        ns = compute_ns(t)
        for f in ns.basis:
            phi = ns_to_endo(t, f)
            assert rosati(t, phi) == phi

    def test_polarization_maps_to_identity(self):
        t = ctx_for("elliptic_gauss").invariant_torus
        assert ns_to_endo(t, t.e) == Matrix.identity(2)


class TestPairing:
    def test_symmetric_and_matches_entries(self):
        ctx = ctx_for("hyperbolic_z8")
        t = ctx.invariant_torus
        ns = invariant_ns(invariant_subalgebra(t, ctx.group))
        pm = ns.pairing_matrix
        assert pm.is_symmetric
        for i, fi in enumerate(ns.basis):
            for j, fj in enumerate(ns.basis):
                assert (ns_to_endo(t, fi) @ ns_to_endo(t, fj)).trace() == pm[i, j]

    def test_hyperbolic_pairing_diagonal(self):
        ctx = ctx_for("hyperbolic_z8")
        ns = invariant_ns(invariant_subalgebra(ctx.invariant_torus, ctx.group))
        cleared, den = ns.pairing_matrix.to_integer()
        assert cleared == den * Matrix([[8, 0], [0, 4]])

    def test_polarization_self_pairing_positive(self):
        for name in ("elliptic_gauss", "product_gauss_squared", "hyperbolic_z8"):
            t = ctx_for(name).invariant_torus
            assert (ns_to_endo(t, t.e) @ ns_to_endo(t, t.e)).trace() > 0


class TestPullback:
    def test_matches_conjugation(self):
        rng = random.Random(19)
        ctx = ctx_for("bielliptic_z4")
        t = ctx.invariant_torus
        ns = compute_ns(t)
        for g in ctx.group.elements:
            p = ns.pullback_matrix(g.linear)
            for _ in range(5):
                coords = [rng.randrange(-4, 5) for _ in range(ns.rank)]
                f = ns.from_coordinates(coords)
                pulled = g.linear.T @ f @ g.linear
                lifted = p @ Matrix([[c] for c in coords])
                assert ns.from_coordinates(
                    [lifted[i, 0] for i in range(ns.rank)]
                ) == pulled

    def test_group_preserves_ampleness(self):
        rng = random.Random(23)
        ctx = ctx_for("bielliptic_z4")
        t = ctx.invariant_torus
        ns = compute_ns(t)
        for _ in range(30):
            coords = [rng.randrange(-4, 5) for _ in range(4)]
            f = ns.from_coordinates(coords)
            for g in ctx.group.elements:
                assert is_ample(t, f) == is_ample(t, g.linear.T @ f @ g.linear)


class TestConeStructure:
    @pytest.mark.parametrize("name,flags,dims", [
        ("elliptic_gauss", ["ray"], [1]),
        ("product_gauss_squared", ["higher_rank"], [4]),
        ("bielliptic_z4", ["ray", "ray"], [1, 1]),
        ("hyperbolic_z8", ["hyperbolic"], [2]),
    ])
    def test_flags(self, name, flags, dims):
        ctx = ctx_for(name)
        cs = cone_structure(ctx.invariant_torus, ctx.group)
        assert [fc.flag for fc in cs.factors] == flags
        assert [f.ns_dim for f in cs.factors] == dims
        assert sum(f.ns_dim for f in cs.factors) == cs.invariant.rank

    def test_labels_match_decomposition(self):
        ctx = ctx_for("bielliptic_z4")
        cs = cone_structure(ctx.invariant_torus, ctx.group)
        assert [fc.factor.label for fc in cs.factors] == ["ComplexMatrix(1)", "ComplexMatrix(1)"]

    def test_requires_invariant_polarization(self):
        swap = Matrix([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ])
        t = PolarizedTorus(block_diag(R, R), block_diag(E1, 2 * E1))
        group = close_group([AffineAuto(swap)])
        with pytest.raises(ValidationError) as exc:
            cone_structure(t, group)
        assert exc.value.invariant == "polarization_invariant"


def three_factor_torus():
    """E_i^3 with the order-4 action diag(R, -I, I): the three curves carry
    distinct characters, so End^G is Q(i)^3 and the cone has three rays."""
    i2 = Matrix.identity(2)
    t = PolarizedTorus(block_diag(R, R, R), block_diag(E1, E1, E1))
    return t, close_group([AffineAuto(block_diag(R, -i2, i2))])


def reference_pieces(cs):
    """The factor pieces as first built: project every invariant basis form
    through each idempotent, then take the integer kernel of the other
    factors' projections stacked (the whole lattice for a single factor)."""
    t, inv = cs.torus, cs.invariant
    projections = []
    for sf in cs.decomposition.factors:
        e = sf.idempotent
        cols = [inv.coordinates(t.e @ e @ t.e.inverse() @ b @ e) for b in inv.basis]
        projections.append(Matrix([[c[i] for c in cols] for i in range(inv.rank)]))
    pieces = []
    for i in range(len(projections)):
        others = [p for j, p in enumerate(projections) if j != i]
        if not others:
            pieces.append(Matrix.identity(inv.rank).rows)
            continue
        kernel = integer_kernel_matrix(vstack(*others).to_integer()[0])
        pieces.append(kernel.rows)
    return projections, pieces


class TestFactorPieces:
    @pytest.mark.parametrize("name", [
        "elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8", "three_factor",
    ])
    def test_projections_and_pieces(self, name):
        if name == "three_factor":
            t, group = three_factor_torus()
        else:
            ctx = ctx_for(name)
            t, group = ctx.invariant_torus, ctx.group
        """Each piece, read off its factor's fixed forms, is the one the
        reference projections give, and the projection fixes it."""
        cs = cone_structure(t, group)
        projections, pieces = reference_pieces(cs)
        ident = Matrix.identity(cs.invariant.rank)
        total = Matrix.zeros(cs.invariant.rank, cs.invariant.rank)
        for fc, p, piece in zip(cs.factors, projections, pieces, strict=True):
            assert p @ p == p
            assert fc.piece == piece
            assert p @ Matrix(fc.piece).T == Matrix(fc.piece).T
            assert fc.ns_dim == len(piece) == fc.factor.fixed_dim
            total = total + p
        assert total == ident

    def test_three_factor_torus_has_three_rays(self):
        cs = cone_structure(*three_factor_torus())
        assert [fc.flag for fc in cs.factors] == ["ray", "ray", "ray"]
        assert cs.invariant.rank == 3
