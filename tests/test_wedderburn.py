import pytest

from conecrafter import wedderburn
from conecrafter.endo import compute_end, invariant_subalgebra, rosati
from conecrafter.errors import InternalInvariantError, ValidationError
from conecrafter.matrices import Matrix
from conecrafter.documents import parse_document
from conecrafter.pipeline import prepare_torus, run_endo
from conecrafter.polynomials import Polynomial, count_real_roots
from conecrafter.wedderburn import (
    central_idempotents,
    decompose,
    lookup_kind,
    minimal_polynomial,
)

from conftest import block_diag, evaluate_matrix, load_corpus, reference_central_idempotents


def ctx_for(name):
    return prepare_torus(load_corpus(name + ".json"))


class TestKindTable:
    def test_known_entries(self):
        assert lookup_kind(1, 1) == ("RealMatrix", 1)
        assert lookup_kind(2, 1) == ("ComplexMatrix", 1)
        assert lookup_kind(4, 1) == ("QuaternionMatrix", 1)
        assert lookup_kind(4, 3) == ("RealMatrix", 2)
        assert lookup_kind(8, 4) == ("ComplexMatrix", 2)
        assert lookup_kind(9, 6) == ("RealMatrix", 3)
        assert lookup_kind(16, 6) == ("QuaternionMatrix", 2)

    def test_table_matches_closed_forms(self):
        # RealMatrix(l): d = l^2, f = l(l+1)/2
        # ComplexMatrix(m): d = 2m^2, f = m^2
        # QuaternionMatrix(t): d = 4t^2, f = 2t^2 - t
        # lookup_kind accepts exactly these (d, f), with no size cap.
        max_dim = 400
        want = {}
        size = 1
        while size**2 <= max_dim:
            want[(size**2, size * (size + 1) // 2)] = ("RealMatrix", size)
            size += 1
        size = 1
        while 2 * size**2 <= max_dim:
            want[(2 * size**2, size**2)] = ("ComplexMatrix", size)
            size += 1
        size = 1
        while 4 * size**2 <= max_dim:
            want[(4 * size**2, 2 * size**2 - size)] = ("QuaternionMatrix", size)
            size += 1
        for d in range(max_dim + 1):
            for f in range(d + 1):
                if (d, f) in want:
                    assert lookup_kind(d, f) == want[(d, f)]
                else:
                    with pytest.raises(ValidationError):
                        lookup_kind(d, f)

    def test_signatures_are_disjoint(self):
        # the three families never share a (dimension, fixed dimension) pair
        seen = {}
        for size in range(1, 30):
            for kind, d, f in (
                ("RealMatrix", size**2, size * (size + 1) // 2),
                ("ComplexMatrix", 2 * size**2, size**2),
                ("QuaternionMatrix", 4 * size**2, 2 * size**2 - size),
            ):
                key = (d, f)
                assert key not in seen, (key, kind, seen[key])
                seen[key] = kind

    def test_unknown_signature_rejected(self):
        with pytest.raises(ValidationError) as exc:
            lookup_kind(3, 2)
        assert exc.value.invariant == "classification"


class TestMinimalPolynomial:
    def test_rotation(self):
        m = Matrix([[0, -1], [1, 0]])
        p = minimal_polynomial(m, m.nrows)
        assert p.coeffs == (1, 0, 1)

    def test_identity(self):
        m = Matrix.identity(3)
        p = minimal_polynomial(m, m.nrows)
        assert p.coeffs == (-1, 1)

    def test_distinct_diagonal(self):
        m = Matrix([[2, 0], [0, 5]])
        p = minimal_polynomial(m, m.nrows)
        # (x-2)(x-5)
        assert p.coeffs == (10, -7, 1)

    def test_repeated_eigenvalue_drops_degree(self):
        m = block_diag(Matrix([[3]]), Matrix([[3]]))
        p = minimal_polynomial(m, m.nrows)
        assert p.coeffs == (-3, 1)

    def test_annihilates(self):
        m = Matrix([[1, 2, 0], [0, 1, 0], [3, 0, 2]])
        p = minimal_polynomial(m, m.nrows)
        assert evaluate_matrix(p, m).is_zero
        assert p.leading == 1

    def test_degree_bound(self):
        """A bound at or above the degree gives the same polynomial; a
        bound below it is an internal error, not a wrong answer."""
        m = block_diag(Matrix([[0, -1], [1, 0]]), Matrix([[0, -1], [1, 0]]))
        for k in (2, 3, 4):
            assert minimal_polynomial(m, k).coeffs == (1, 0, 1)
        with pytest.raises(InternalInvariantError):
            minimal_polynomial(m, 1)


class TestCentralIdempotents:
    @pytest.mark.parametrize("name,count", [
        ("elliptic_gauss", 1),
        ("product_gauss_squared", 1),
        ("bielliptic_z4", 2),
        ("hyperbolic_z8", 1),
    ])
    def test_partition_of_unity(self, name, count):
        ctx = ctx_for(name)
        t = ctx.invariant_torus
        alg = invariant_subalgebra(t, ctx.group)
        idems = central_idempotents(alg)
        assert len(idems) == count
        total = Matrix.zeros(t.rank, t.rank)
        for e, _ in idems:
            assert e @ e == e
            assert rosati(t, e) == e
            total = total + e
        for (a, _), (b, _) in zip(idems, idems[1:]):
            assert (a @ b).is_zero
            assert (b @ a).is_zero
        assert total == Matrix.identity(t.rank)

    @pytest.mark.parametrize("name", [
        "elliptic_gauss", "elliptic_rational_j", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8",
    ])
    @pytest.mark.parametrize("invariant", [False, True], ids=["full", "invariant"])
    def test_matches_the_lagrange_polynomials(self, name, invariant):
        """q_i(z) @ (q_i(z) + m_i(z))^-1 is L_i(z) for the Lagrange
        polynomial L_i = u_i * q_i that extended Euclid on Fractions gives,
        factor by factor and in the same order, on the full and the
        invariant algebra of each corpus torus."""
        ctx = ctx_for(name)
        t = ctx.invariant_torus
        alg = invariant_subalgebra(t, ctx.group) if invariant else compute_end(t)
        assert central_idempotents(alg) == reference_central_idempotents(alg, alg.center)

    def test_idempotents_are_central(self):
        ctx = ctx_for("bielliptic_z4")
        alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        for e, _ in central_idempotents(alg):
            for b in alg.basis:
                assert e @ b == b @ e

    def test_repeated_factor_is_an_internal_error(self, monkeypatch):
        """The factoring's ValueError on a repeated factor surfaces as the
        broken identity it is, a center that is not semisimple."""
        alg = compute_end(ctx_for("elliptic_gauss").invariant_torus)
        repeated = Polynomial([1, -1, -1, 1])  # (x - 1)^2 (x + 1)
        monkeypatch.setattr(
            wedderburn, "primitive_center_element",
            lambda algebra, center: (Matrix.identity(algebra.rank), repeated),
        )
        with pytest.raises(InternalInvariantError, match="must be squarefree"):
            central_idempotents(alg)

    @pytest.mark.parametrize("use_j,mu,factors,message", [
        (False, [1, -2, 1], [[-1, 1], [-1, 1]], "pairwise coprime"),
        (True, [1, 0, 1], [[-1, 1], [1, 1]], "not idempotent"),
    ], ids=["shared_factor", "factors_of_another_polynomial"])
    def test_broken_factors_are_internal_errors(self, monkeypatch, use_j, mu, factors, message):
        """z = I with mu = (x - 1)^2 factored as x - 1 twice: q(z) + m(z)
        is 0, so it has no inverse. z = J with mu = x^2 + 1 factored as
        x - 1 and x + 1: q = x + 1 gives e = (J + I) @ (2J)^-1 = (I - J)/2,
        and e @ e = -J/2 is not e."""
        t = ctx_for("elliptic_gauss").invariant_torus
        alg = compute_end(t)
        z = t.j if use_j else Matrix.identity(alg.rank)
        monkeypatch.setattr(
            wedderburn, "primitive_center_element", lambda algebra, center: (z, Polynomial(mu))
        )
        monkeypatch.setattr(
            wedderburn, "factor_squarefree_small", lambda p: [Polynomial(f) for f in factors]
        )
        with pytest.raises(InternalInvariantError, match=message):
            central_idempotents(alg)


class TestDecompose:
    def test_elliptic(self):
        alg = compute_end(ctx_for("elliptic_gauss").invariant_torus)
        decomp = decompose(alg)
        assert [f.label for f in decomp.factors] == ["ComplexMatrix(1)"]
        f = decomp.factors[0]
        assert (f.center_degree, f.places, f.dim, f.fixed_dim) == (2, 1, 2, 1)
        # center Q(i) generated by J: x^2 - 4x + 13 for the sampled element
        assert count_real_roots(Polynomial(list(f.center_poly))) == 0

    def test_product_full_matrix_algebra(self):
        alg = compute_end(ctx_for("product_gauss_squared").invariant_torus)
        decomp = decompose(alg)
        assert [f.label for f in decomp.factors] == ["ComplexMatrix(2)"]
        f = decomp.factors[0]
        assert (f.center_degree, f.places, f.dim, f.fixed_dim) == (2, 1, 8, 4)

    def test_bielliptic_invariant_splits(self):
        ctx = ctx_for("bielliptic_z4")
        alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        decomp = decompose(alg)
        assert [f.label for f in decomp.factors] == ["ComplexMatrix(1)", "ComplexMatrix(1)"]
        assert sum(f.center_degree for f in decomp.factors) == 4
        for f in decomp.factors:
            assert (f.center_degree, f.places, f.dim, f.fixed_dim) == (2, 1, 2, 1)

    def test_hyperbolic_invariant_cm_quartic(self):
        ctx = ctx_for("hyperbolic_z8")
        alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        decomp = decompose(alg)
        assert [f.label for f in decomp.factors] == ["ComplexMatrix(1)"]
        f = decomp.factors[0]
        assert (f.center_degree, f.places, f.dim, f.fixed_dim) == (4, 2, 4, 2)
        p = Polynomial(list(f.center_poly))
        assert p.degree == 4
        assert count_real_roots(p) == 0  # CM: totally imaginary

    def test_default_seed_center_polys(self):
        ctx = ctx_for("hyperbolic_z8")
        alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        assert list(decompose(alg).factors[0].center_poly) == [578, -68, 18, -8, 1]

    def test_factor_dims_sum_to_algebra_dim(self):
        for name in ("elliptic_gauss", "product_gauss_squared", "bielliptic_z4", "hyperbolic_z8"):
            ctx = ctx_for(name)
            alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
            decomp = decompose(alg)
            assert sum(f.dim for f in decomp.factors) == alg.dim

    def test_deterministic(self):
        ctx = ctx_for("bielliptic_z4")
        alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        a = decompose(alg)
        b = decompose(alg)
        assert [f.idempotent for f in a.factors] == [f.idempotent for f in b.factors]
        assert [f.center_poly for f in a.factors] == [f.center_poly for f in b.factors]


def test_rank_12_torus_is_complex_matrix_6():
    """E_i^6: End is M_6(Q(i)), with (d, f) = (72, 36) past any table of
    kinds up to dimension 64."""
    n = 6
    rot = [[0, -1], [1, 0]]
    blocks = [[[0] * (2 * n) for _ in range(2 * n)] for _ in range(2)]
    for k in range(n):
        for i in range(2):
            for j in range(2):
                blocks[0][2 * k + i][2 * k + j] = rot[i][j]
                blocks[1][2 * k + i][2 * k + j] = -rot[i][j]
    doc = parse_document({
        "schema": "conecrafter/1",
        "kind": "torus",
        "name": "ei6",
        "complex_structure": blocks[0],
        "polarization": blocks[1],
    })
    report = run_endo(doc)
    assert report["end_dim"] == report["invariant_dim"] == 72
    assert [f["label"] for f in report["factors"]] == ["ComplexMatrix(6)"]
    assert (report["factors"][0]["dim"], report["factors"][0]["fixed_dim"]) == (72, 36)
