import copy
import json
from fractions import Fraction

import pytest

from conecrafter.cli import main
from conecrafter.documents import parse_document
from conecrafter.errors import ValidationError
from conecrafter.matrices import Matrix
from conecrafter.pipeline import (
    build_domain,
    build_torus_problem,
    prepare_torus,
    run_check,
    run_cone,
    run_endo,
    run_funddom,
    run_reduce,
    run_verify,
)

from conftest import load_corpus, read_corpus_json


def doc_for(name):
    return load_corpus(name + ".json")


def make_swap_doc(weights=(1, 2), expect=False):
    """Product of two elliptic curves with a factor swap; unequal weights
    make the polarization non-invariant so averaging kicks in."""
    w1, w2 = weights
    return parse_document({
        "schema": "conecrafter/1",
        "kind": "torus",
        "name": "swap_test",
        "complex_structure": [
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ],
        "polarization": [
            [0, w1, 0, 0],
            [-w1, 0, 0, 0],
            [0, 0, 0, w2],
            [0, 0, -w2, 0],
        ],
        "group": {
            "generators": [
                {
                    "linear": [
                        [0, 0, 1, 0],
                        [0, 0, 0, 1],
                        [1, 0, 0, 0],
                        [0, 1, 0, 0],
                    ]
                }
            ]
        },
        "expect_ghv": expect,
    })


class TestPrepareTorus:
    def test_no_flip_no_average(self):
        ctx = prepare_torus(doc_for("hyperbolic_z8"))
        assert not ctx.flipped
        assert not ctx.averaged
        assert ctx.invariant_torus.e == ctx.torus.e
        assert len(ctx.group.elements) == 8
        assert not ctx.is_ghv

    def test_flip(self):
        data = read_corpus_json("elliptic_gauss.json")
        data["polarization"] = [[0, -1], [1, 0]]
        ctx = prepare_torus(parse_document(data))
        assert ctx.flipped
        assert ctx.torus.e == Matrix([[0, 1], [-1, 0]])

    def test_averaging(self):
        ctx = prepare_torus(make_swap_doc())
        assert ctx.averaged
        e = ctx.invariant_torus.e
        # sum of E and its swap pullback: both blocks get weight 3
        assert e[0, 1] == e[2, 3] == 3
        for g in ctx.group.elements:
            assert g.linear.T @ e @ g.linear == e

    def test_bielliptic_is_ghv(self):
        ctx = prepare_torus(doc_for("bielliptic_z4"))
        assert ctx.is_ghv
        assert len(ctx.group.elements) == 4

    def test_expectation_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            prepare_torus(make_swap_doc(expect=True))  # swap fixes 0, not free
        assert exc.value.invariant == "expectation"

    def test_generator_check_failures_surface(self):
        data = read_corpus_json("bielliptic_z4.json")
        data["group"]["generators"][0]["linear"][0][0] = 5
        with pytest.raises(ValidationError):
            prepare_torus(parse_document(data))


class TestRunCheck:
    def test_elliptic_report(self):
        rep = run_check(doc_for("elliptic_gauss"))
        assert rep["schema"] == "conecrafter/1"
        assert rep["command"] == "check"
        assert rep["kind"] == "torus"
        assert rep["verdict"] == "pass"
        assert rep["is_ghv"] is False
        assert all(c["passed"] for c in rep["checks"])
        assert rep["group"] == {
            "order": 1,
            "is_free": True,
            "has_translations": False,
            "preserves_polarization": True,
        }

    def test_bielliptic_report(self):
        rep = run_check(doc_for("bielliptic_z4"))
        assert rep["is_ghv"] is True
        assert rep["expect_ghv"] is True
        assert rep["group"]["order"] == 4
        assert rep["group"]["is_free"] is True
        assert rep["group"]["has_translations"] is False

    def test_hyperbolic_not_free(self):
        rep = run_check(doc_for("hyperbolic_z8"))
        assert rep["group"]["order"] == 8
        assert rep["group"]["is_free"] is False
        assert rep["is_ghv"] is False

    def test_problem_document_check(self):
        rep = run_check(doc_for("p2_minkowski"))
        assert rep["kind"] == "reduction_problem"
        assert rep["verdict"] == "pass"


class TestRunEndo:
    @pytest.mark.parametrize("name,end_dim,inv_dim,labels", [
        ("elliptic_gauss", 2, 2, ["ComplexMatrix(1)"]),
        ("product_gauss_squared", 8, 8, ["ComplexMatrix(2)"]),
        ("bielliptic_z4", 8, 4, ["ComplexMatrix(1)", "ComplexMatrix(1)"]),
        ("hyperbolic_z8", 8, 4, ["ComplexMatrix(1)"]),
    ])
    def test_dimensions_and_labels(self, name, end_dim, inv_dim, labels):
        rep = run_endo(doc_for(name))
        assert rep["end_dim"] == end_dim
        assert rep["invariant_dim"] == inv_dim
        assert [f["label"] for f in rep["factors"]] == labels
        assert rep["trace_positive"] is True
        assert rep["rosati_closed"] is True

    def test_hyperbolic_factor_detail(self):
        rep = run_endo(doc_for("hyperbolic_z8"))
        f = rep["factors"][0]
        assert f["center_degree"] == 4
        assert f["places"] == 2
        assert f["dim"] == 4
        assert f["fixed_dim"] == 2
        assert f["center_poly"] == [578, -68, 18, -8, 1]

    def test_averaged_flag(self):
        rep = run_endo(make_swap_doc())
        assert rep["polarization_averaged"] is True

    def test_needs_torus(self):
        with pytest.raises(ValidationError) as exc:
            run_endo(doc_for("p2_minkowski"))
        assert exc.value.invariant == "document_kind"


class TestRunCone:
    def test_product_class_verdicts(self):
        rep = run_cone(doc_for("product_gauss_squared"))
        assert rep["ns_rank"] == 4
        assert rep["invariant_rank"] == 4
        assert [f["flag"] for f in rep["factors"]] == ["higher_rank"]
        got = [(c["ample"], c["nef"]) for c in rep["test_classes"]]
        assert got == [
            (True, True),
            (False, True),
            (False, True),
            (True, True),
            (False, False),
            (False, True),
        ]

    def test_bielliptic_rays(self):
        rep = run_cone(doc_for("bielliptic_z4"))
        assert rep["invariant_rank"] == 2
        assert [f["flag"] for f in rep["factors"]] == ["ray", "ray"]
        got = [(c["ample"], c["nef"]) for c in rep["test_classes"]]
        assert got == [
            (True, True),
            (False, True),
            (False, True),
            (False, False),
            (True, True),
        ]

    def test_class_shape_error(self):
        data = read_corpus_json("hyperbolic_z8.json")
        data["test_classes"] = [[1, 2, 3]]
        with pytest.raises(ValidationError) as exc:
            run_cone(parse_document(data))
        assert exc.value.invariant == "test_class_shape"


# One hyperbolic_z8 normalizer per check, each passing every earlier check.
NORMALIZER_VIOLATIONS = {
    "normalizer_integral": [["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "normalizer_unimodular": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    "normalizer_holomorphic": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    # U + U with U = [[1, 1], [0, 1]] commutes with J but not with the group
    "normalizer_group": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
}


class TestRunFunddom:
    def test_hyperbolic_domain(self):
        rep = run_funddom(doc_for("hyperbolic_z8"))
        assert rep["supported"] is True
        assert rep["rays"] == [[0, 1], [2, 3]]
        assert rep["facets"] == [[-3, 2], [1, 0]]
        assert rep["factors"][0]["action"] == [[3, 2], [4, 3]]

    def test_elliptic_single_ray(self):
        rep = run_funddom(doc_for("elliptic_gauss"))
        assert rep["dim"] == 1
        assert len(rep["rays"]) == 1

    def test_bielliptic_product_of_rays(self):
        rep = run_funddom(doc_for("bielliptic_z4"))
        assert rep["dim"] == 2
        assert [f["flag"] for f in rep["factors"]] == ["ray", "ray"]
        # orthant spanned by the two factor rays
        assert len(rep["rays"]) == 2

    def test_higher_rank_downgrades(self):
        rep = run_funddom(doc_for("product_gauss_squared"))
        assert rep["supported"] is False
        assert rep["downgrade"].startswith("verifier-only")
        assert "rays" not in rep
        (factor,) = rep["factors"]
        assert factor["flag"] == "higher_rank"
        assert factor["downgrade"].startswith("verifier-only")

    def test_higher_rank_verify_downgrades(self):
        rep = run_verify(doc_for("product_gauss_squared"), samples=10)
        assert rep["complete"] is True
        assert rep["samples"] == 0
        assert rep["downgrade"].startswith("verifier-only")
        assert rep["overlap"] is None
        assert "pushdown" not in rep

    def test_hyperbolic_needs_normalizer(self):
        data = read_corpus_json("hyperbolic_z8.json")
        del data["normalizer"]
        with pytest.raises(ValidationError) as exc:
            run_funddom(parse_document(data))
        assert exc.value.invariant == "funddom_normalizer"

    def test_normalizer_must_normalize(self, capsys, tmp_path):
        data = read_corpus_json("hyperbolic_z8.json")
        path = tmp_path / "normalizer.json"
        for invariant, normalizer in NORMALIZER_VIOLATIONS.items():
            data["normalizer"] = normalizer
            path.write_text(json.dumps(data))
            for command in ("funddom", "verify"):
                code = main([command, str(path)])
                report = json.loads(capsys.readouterr().out)
                assert (code, report["error"]["invariant"]) == (2, invariant), command

    def test_problem_document_funddom(self):
        rep = run_funddom(doc_for("p2_minkowski"))
        assert rep["rays"] == [[0, 0, 1], [1, 0, 1], [1, 1, 1]]
        assert sorted(rep["facets"]) == [[-1, 0, 1], [0, 1, 0], [1, -1, 0]]


def _block_diag(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


def reference_descends(group, gamma: Matrix) -> bool:
    """Whether gamma^-1 (L, t) gamma = (gamma^-1 L gamma, gamma^-1 t) lies
    in G for every element (L, t) of G, each conjugate formed on its own
    with Fraction translations mod 1."""
    inv = gamma.inverse()
    elements = {(g.linear, tuple(Fraction(x) % 1 for x in g.translation)) for g in group.elements}
    for g in group.elements:
        moved = tuple(Fraction(sum(a * x for a, x in zip(row, g.translation))) % 1 for row in inv.rows)
        if (inv @ g.linear @ gamma, moved) not in elements:
            return False
    return True


class TestNormalizerDescent:
    """m16 is B x E_i, with B, g and N from hyperbolic_z8, G generated by
    (g + 1, translation by (1/8, 0) on E_i), and the normalizer N + R for
    the rotation R of E_i. N commutes with g, so N^m + R^k conjugates the
    generator to (g + 1, R^-k (1/8, 0)), and only elements with linear part
    g + 1 carry a translation whose E_i part is (1/8, 0). So N^m + R^k
    descends to X = A/G exactly when 4 | k."""

    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("m", [1, 2])
    def test_descends_exactly_when_four_divides_k(self, m, k):
        data = read_corpus_json("mutants/m16_normalizer_not_descending.json")
        n = Matrix([row[:4] for row in data["normalizer"][:4]])
        r = Matrix([[0, -1], [1, 0]])
        n_m, r_k = Matrix.identity(4), Matrix.identity(2)
        for _ in range(m):
            n_m = n_m @ n
        for _ in range(k):
            r_k = r_k @ r
        gamma = _block_diag([list(row) for row in n_m.rows], [list(row) for row in r_k.rows])
        data["normalizer"] = gamma
        ctx = prepare_torus(parse_document(data))
        descends = k % 4 == 0
        assert reference_descends(ctx.group, Matrix(gamma)) == descends
        if descends:
            assert build_domain(ctx).domain is not None
        else:
            with pytest.raises(ValidationError) as exc:
                build_domain(ctx)
            assert exc.value.invariant == "normalizer_descent"

    def test_linear_descent_passes_before_the_translations_fail(self):
        """m16's normalizer passes the linear check, so only the translation
        check rejects it; check, endo and cone do not read the normalizer."""
        doc = load_corpus("mutants/m16_normalizer_not_descending.json")
        ctx = prepare_torus(doc)
        inv = doc.normalizer.inverse()
        linears = set(ctx.group.linear_parts)
        assert {inv @ g @ doc.normalizer for g in linears} == linears
        assert not reference_descends(ctx.group, doc.normalizer)
        assert run_check(doc)["verdict"] == "pass"
        for run in (run_funddom, run_verify):
            with pytest.raises(ValidationError) as exc:
                run(doc)
            assert exc.value.invariant == "normalizer_descent"


class TestRunReduce:
    def test_frozen_results(self):
        rep = run_reduce(doc_for("p2_minkowski"))
        rows = {tuple(r["form"]): r for r in rep["results"]}
        assert rows[(7, 10, 4)]["reduced"] == [1, 0, 3]
        assert rows[(7, 10, 4)]["word"] == [["T", -1], ["S", 1], ["T", -2]]
        assert rows[(7, 10, 4)]["gamma"] == [[-1, 1], [1, -2]]
        assert rows[(2, -1, 3)]["reduced"] == [2, 1, 3]
        assert rows[(2, -1, 3)]["word"] == [["N", 1]]
        assert rows[(1, 0, 1)]["word"] == []
        assert rows[(10, 34, 29)]["reduced"] == [1, 0, 1]
        assert rows[(5, -7, 3)]["reduced"] == [1, 1, 3]
        assert all(r["verified"] for r in rep["results"])

    def test_needs_problem(self):
        with pytest.raises(ValidationError) as exc:
            run_reduce(doc_for("bielliptic_z4"))
        assert exc.value.invariant == "document_kind"


class TestRunVerify:
    def test_p2_complete(self):
        rep = run_verify(doc_for("p2_minkowski"), samples=60)
        assert rep["complete"] is True
        assert rep["eta"] == [1, 1, 4]
        assert rep["verified"] == rep["samples"] == 60
        assert rep["failures"] == []
        assert rep["overlap"] is None

    def test_hyperbolic_pushdown(self):
        rep = run_verify(doc_for("hyperbolic_z8"), samples=40)
        assert rep["complete"] is True
        assert rep["eta"] == [-1, 1]
        push = rep["pushdown"]
        assert push["group_order"] == 8
        assert push["verified"] is True
        pullback = Matrix(push["pullback"])
        pushforward = Matrix(push["pushforward"])
        assert pushforward @ pullback == 8 * Matrix.identity(2)

    def test_bielliptic_pushdown_identities(self):
        rep = run_verify(doc_for("bielliptic_z4"), samples=20)
        assert rep["complete"] is True
        push = rep["pushdown"]
        assert push["group_order"] == 4
        assert push["pullback"] == [[1, 0], [0, 0], [0, 0], [0, 1]]
        assert push["pushforward"] == [[4, 0, 0, 0], [0, 0, 0, 4]]
        pullback = Matrix(push["pullback"])
        pushforward = Matrix(push["pushforward"])
        assert pushforward @ pullback == 4 * Matrix.identity(2)

    def test_deterministic(self):
        a = run_verify(doc_for("hyperbolic_z8"), samples=25)
        b = run_verify(doc_for("hyperbolic_z8"), samples=25)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestBuildDomain:
    def test_hyperbolic_summary(self):
        ctx = prepare_torus(doc_for("hyperbolic_z8"))
        built = build_domain(ctx)
        assert built.normalizer_action == Matrix([[3, 2], [4, 3]])
        assert built.domain.rays == ((0, 1), (2, 3))
        assert built.factor_summaries[0]["flag"] == "hyperbolic"

    def test_torus_problem_round_trip(self):
        ctx = prepare_torus(doc_for("hyperbolic_z8"))
        built = build_domain(ctx)
        prob = build_torus_problem(ctx, built)
        assert prob.dim == 2
        # polarization coordinates are the interior base point
        assert prob.base_point == (0, 1)
        assert prob.is_interior(prob.base_point)
        for ray in built.domain.rays:
            assert prob.is_closure(ray)

    def test_ray_domains_have_no_generators(self):
        ctx = prepare_torus(doc_for("bielliptic_z4"))
        built = build_domain(ctx)
        prob = build_torus_problem(ctx, built)
        assert prob.generators == ()
        assert built.normalizer_action is None
