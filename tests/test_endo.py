import itertools
import random
from fractions import Fraction

import pytest

from conecrafter.endo import center_basis, compute_end, invariant_subalgebra, rosati
from conecrafter.errors import ValidationError
from conecrafter.documents import parse_document
from conecrafter.matrices import Matrix, definiteness_sign
from conecrafter.pipeline import prepare_torus, run_cone, run_endo

from conftest import (
    algebra_contains,
    ei_power_data,
    load_corpus,
    read_corpus_json,
    rosati_fixes_algebra,
    rosati_gram,
    trace_positivity_check,
    transported_data,
)

CORPUS_NAMES = [
    "elliptic_gauss",
    "product_gauss_squared",
    "bielliptic_z4",
    "hyperbolic_z8",
]


def contexts():
    return {n: prepare_torus(load_corpus(n + ".json")) for n in CORPUS_NAMES}


CTX = contexts()


def commutant_nullity(*mats):
    """Independent oracle: dimension of {M : MA = AM for every A} by plain
    Gaussian elimination over Fractions, no package linear algebra."""
    n = mats[0].nrows
    rows = []
    # entry (a, b) of MA - AM as a linear functional on vec(M)
    for mat in mats:
        for a in range(n):
            for b in range(n):
                coeffs = [Fraction(0)] * (n * n)
                for k in range(n):
                    coeffs[a * n + k] += Fraction(mat[k, b])
                    coeffs[k * n + b] -= Fraction(mat[a, k])
                rows.append(coeffs)
    rank = 0
    ncols = n * n
    pivot_col = 0
    while pivot_col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][pivot_col] != 0:
                pivot = r
                break
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][pivot_col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][pivot_col] != 0:
                f = rows[r][pivot_col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return ncols - rank


class TestComputeEnd:
    @pytest.mark.parametrize("name,dim", [
        ("elliptic_gauss", 2),
        ("product_gauss_squared", 8),
        ("bielliptic_z4", 8),
        ("hyperbolic_z8", 8),
    ])
    def test_dimension_matches_independent_oracle(self, name, dim):
        ctx = CTX[name]
        alg = compute_end(ctx.invariant_torus)
        assert alg.dim == dim
        assert commutant_nullity(ctx.invariant_torus.j) == dim

    def test_basis_elements_commute_with_j(self):
        for ctx in CTX.values():
            t = ctx.invariant_torus
            for b in compute_end(t).basis:
                assert b @ t.j == t.j @ b

    def test_basis_is_integral_and_independent(self):
        for ctx in CTX.values():
            alg = compute_end(ctx.invariant_torus)
            flat = Matrix([list(b.flat()) for b in alg.basis])
            assert flat.rank() == alg.dim
            for b in alg.basis:
                assert b.is_integral

    def test_elliptic_box_enumeration(self):
        """Every integer matrix in the box [-3,3]^4 commuting with J must be
        an integer combination of the computed basis, and the count must be
        exactly the 49 combinations a*I + b*J allows."""
        t = CTX["elliptic_gauss"].invariant_torus
        alg = compute_end(t)
        found = 0
        for entries in itertools.product(range(-3, 4), repeat=4):
            m = Matrix([entries[:2], entries[2:]])
            if m @ t.j != t.j @ m:
                continue
            found += 1
            coords = alg.coordinates(m)
            assert all(c.denominator == 1 for c in coords)
            assert alg.from_coordinates(coords) == m
        assert found == 49

    def test_contains_and_membership_error(self):
        t = CTX["elliptic_gauss"].invariant_torus
        alg = compute_end(t)
        assert algebra_contains(alg, 3 * t.j)
        outside = Matrix([[1, 1], [0, 1]])
        assert not algebra_contains(alg, outside)
        with pytest.raises(ValidationError) as exc:
            alg.coordinates(outside)
        assert exc.value.invariant == "algebra_membership"

    def test_unit_coordinates(self):
        for ctx in CTX.values():
            alg = compute_end(ctx.invariant_torus)
            ident = Matrix.identity(ctx.invariant_torus.rank)
            assert alg.from_coordinates(alg.coordinates(ident)) == ident


class TestRosati:
    def random_elements(self, alg, rng, count=8):
        for _ in range(count):
            coords = [rng.randrange(-3, 4) for _ in range(alg.dim)]
            yield alg.from_coordinates(coords)

    def test_adjoint_identity(self):
        rng = random.Random(23)
        for ctx in CTX.values():
            t = ctx.invariant_torus
            alg = compute_end(t)
            for phi in self.random_elements(alg, rng):
                conj = rosati(t, phi)
                assert conj.T @ t.e == t.e @ phi

    def test_involution(self):
        rng = random.Random(29)
        for ctx in CTX.values():
            t = ctx.invariant_torus
            alg = compute_end(t)
            for phi in self.random_elements(alg, rng):
                assert rosati(t, rosati(t, phi)) == phi

    def test_anti_multiplicative(self):
        rng = random.Random(37)
        for ctx in CTX.values():
            t = ctx.invariant_torus
            alg = compute_end(t)
            elems = list(self.random_elements(alg, rng, count=4))
            for f in elems:
                for g in elems:
                    assert rosati(t, f @ g) == rosati(t, g) @ rosati(t, f)

    def test_inverts_polarization_preserving_elements(self):
        for name in ("bielliptic_z4", "hyperbolic_z8"):
            ctx = CTX[name]
            t = ctx.invariant_torus
            for g in ctx.group.elements:
                lin = g.linear
                assert lin.T @ t.e @ lin == t.e
                assert rosati(t, lin) == lin.inverse()

    def test_fixes_algebra_and_trace_positive(self):
        # the d x d oracles of the two verdicts that endo reads off validation
        for ctx in CTX.values():
            alg = compute_end(ctx.invariant_torus)
            assert rosati_fixes_algebra(alg)
            assert trace_positivity_check(alg)

    def test_trace_positivity_fails_off_algebra(self):
        # an indefinite symmetric pairing is caught by the minor test
        t = CTX["elliptic_gauss"].invariant_torus
        alg = compute_end(t)
        gram = rosati_gram(alg)
        assert gram.is_symmetric
        assert definiteness_sign(gram) == 1
        assert definiteness_sign(-gram) != 1


class TestInvariantSubalgebra:
    @pytest.mark.parametrize("name,dim", [
        ("elliptic_gauss", 2),
        ("product_gauss_squared", 8),
        ("bielliptic_z4", 4),
        ("hyperbolic_z8", 4),
    ])
    def test_dimensions(self, name, dim):
        ctx = CTX[name]
        inv = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        assert inv.dim == dim

    def test_elements_commute_with_group(self):
        ctx = CTX["hyperbolic_z8"]
        inv = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        for b in inv.basis:
            for g in ctx.group.elements:
                assert b @ g.linear == g.linear @ b

    @pytest.mark.parametrize("name,dim", [
        ("elliptic_gauss", 2),
        ("product_gauss_squared", 8),
        ("bielliptic_z4", 4),
        ("hyperbolic_z8", 4),
    ])
    def test_dimension_matches_independent_oracle(self, name, dim):
        # basis elements satisfy every constraint and are independent; the
        # elimination oracle pins the solution space dimension, so together
        # they certify the basis spans exactly the invariant algebra
        ctx = CTX[name]
        t = ctx.invariant_torus
        inv = invariant_subalgebra(t, ctx.group)
        constraints = [t.j] + [g.linear for g in ctx.group.elements[1:]]
        assert commutant_nullity(*constraints) == dim
        flat = Matrix([list(b.flat()) for b in inv.basis])
        assert flat.rank() == dim
        for b in inv.basis:
            for c in constraints:
                assert b @ c == c @ b


# --- tori with a rational J ---------------------------------------------------
# A rational J with J^2 = -I makes Q^r a Q(i)-space of dimension r/2, so
# End^0 = M_{r/2}(Q(i)) has dimension r^2/2 over Q, and the forms fixed by
# J are the Hermitian forms on Q(i)^{r/2}, of rank (r/2)^2. These closed
# forms, and the transports below, share no code with the package.

TORUS_CORPUS = [*CORPUS_NAMES, "elliptic_rational_j"]


def _rational_j_tori() -> list[dict]:
    tori = [read_corpus_json(n + ".json") for n in TORUS_CORPUS]
    tori += [ei_power_data(n) for n in (1, 2, 3, 4)]
    return tori + [transported_data(d, seed) for d in tori for seed in (1, 2)]


RATIONAL_J_TORI = _rational_j_tori()


@pytest.mark.parametrize("data", RATIONAL_J_TORI, ids=[d["name"] for d in RATIONAL_J_TORI])
def test_rational_j_gives_a_q_i_space(data):
    doc = parse_document(data)
    r = data["rank"]
    assert run_endo(doc)["end_dim"] == r * r // 2
    assert run_cone(doc)["ns_rank"] == (r // 2) ** 2
    ctx = prepare_torus(doc)
    full = compute_end(ctx.invariant_torus)
    assert all(algebra_contains(full, b) for b in invariant_subalgebra(ctx.invariant_torus, ctx.group).basis)


def test_transport_moves_every_entry_it_should():
    """The transport is a real change of basis: J, E and the generators
    change, and P^-1 t is read back as a translation."""
    data = read_corpus_json("bielliptic_z4.json")
    moved = transported_data(data, 1)
    assert moved["complex_structure"] != data["complex_structure"]
    assert moved["polarization"] != data["polarization"]
    assert moved["group"]["generators"][0]["linear"] != data["group"]["generators"][0]["linear"]
    assert parse_document(moved).generators[0].translation != (0, 0, Fraction(1, 4), 0)


class TestMatrixOf:
    def test_columns_are_coordinates_and_outside_raises(self):
        rng = random.Random(43)
        alg = compute_end(CTX["bielliptic_z4"].invariant_torus)
        images = [
            alg.from_coordinates([rng.randrange(-3, 4) for _ in range(alg.dim)])
            for _ in range(5)
        ]
        m = alg.matrix_of(images)
        assert m.shape == (alg.dim, 5)
        for j, image in enumerate(images):
            assert alg.from_coordinates(m.col(j)) == image
        outside = Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ValidationError) as exc:
            alg.matrix_of([*images, outside])
        assert exc.value.invariant == "algebra_membership"


class TestCenter:
    def test_center_dims(self):
        for name in CORPUS_NAMES:
            alg = compute_end(CTX[name].invariant_torus)
            assert len(center_basis(alg)) == 2

    def test_center_elements_commute_with_everything(self):
        alg = compute_end(CTX["product_gauss_squared"].invariant_torus)
        for z in center_basis(alg):
            for b in alg.basis:
                assert z @ b == b @ z
