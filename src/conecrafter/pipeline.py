"""Stages turning a parsed document into a deterministic report dict.

Reports hold only JSON-ready values (ints, "p/q" strings, lists, bools),
in a fixed key order, so serializing the same document twice is
byte-identical. Anything that varies, like wall clock timing, stays out.

Every command that takes a reduction problem document (check, funddom,
reduce and verify) reads it through ``_problem_domain``, so each rejects
the same documents with the same report. The problem, and the check that
its generators map the form cone onto itself, come from
``reduction.binary_quadratic_problem``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._kernels import positive_definite_form
from .cone import ConeStructure, cone_structure
from .documents import SCHEMA, ProblemDocument, TorusDocument
from .endo import compute_end, invariant_subalgebra, rosati_fixes_algebra, trace_positivity_check
from .errors import InternalInvariantError, ValidationError
from .matrices import Matrix, primitive_tuple
from .reduction import (
    P2_GENERATORS,
    PolyhedralCone,
    ReductionProblem,
    binary_quadratic_problem,
    find_interior_overlap,
    gauss_reduce,
    hyperbolic_domain,
    is_gauss_reduced,
    pushdown_domain,
    transform_form,
    verify_tiling,
)
from .torus import (
    AffineAuto,
    GroupAction,
    PolarizedTorus,
    TorusReport,
    action_is_free,
    close_group,
    has_translations,
    invariant_polarization,
    is_polarization_invariant,
    normalize_polarization,
    trivial_group,
    validate_automorphism,
    validate_torus,
)
from .wedderburn import decompose


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, Matrix):
        return [[_jsonable(v) for v in row] for row in x.rows]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _header(command: str, doc) -> dict:
    """The keys every report starts with, in their fixed order."""
    return {"schema": SCHEMA, "command": command, "document": doc.name}


@dataclass(frozen=True)
class TorusContext:
    document: TorusDocument
    report: TorusReport  # the document's torus, before normalization
    torus: PolarizedTorus
    flipped: bool
    group: GroupAction
    averaged: bool
    invariant_torus: PolarizedTorus

    @cached_property
    def is_free(self) -> bool:
        return action_is_free(self.torus, self.group)

    @property
    def is_ghv(self) -> bool:
        """Whether X = A/G is generalized hyperelliptic: a nontrivial group
        acting freely, with no translation."""
        return (
            self.group.order > 1
            and not has_translations(self.group)
            and self.is_free
        )


def prepare_torus(doc: TorusDocument) -> TorusContext:
    """Validate invariants, normalize the polarization sign, close the
    group, and average the polarization when the action moves it."""
    report = validate_torus(doc.torus)
    torus, flipped = normalize_polarization(doc.torus, report)
    for i, g in enumerate(doc.generators):
        for check in validate_automorphism(torus, g):
            if not check.passed:
                raise ValidationError(check.name, f"generator {i}: {check.detail}")
    if doc.generators:
        group = close_group(doc.generators)
    else:
        group = trivial_group(torus.rank)
    averaged = False
    inv_torus = torus
    if not is_polarization_invariant(torus, group):
        e_avg = invariant_polarization(torus, group)
        inv_torus = PolarizedTorus(torus.j, e_avg)
        averaged_report = validate_torus(inv_torus)
        if not averaged_report.ok or averaged_report.sign <= 0:
            raise InternalInvariantError("averaged polarization must stay definite")
        averaged = True
    ctx = TorusContext(doc, report, torus, flipped, group, averaged, inv_torus)
    if doc.expect_ghv is not None and ctx.is_ghv != doc.expect_ghv:
        raise ValidationError(
            "expectation",
            f"document claims expect_ghv={doc.expect_ghv} but the action "
            f"{'is' if ctx.is_ghv else 'is not'} a free translation-free action",
        )
    return ctx


def run_check(doc) -> dict:
    if doc.kind == "reduction_problem":
        return _check_problem(doc)
    ctx = prepare_torus(doc)
    checks = [{"name": c.name, "passed": c.passed} for c in ctx.report.checks]
    return {
        **_header("check", doc),
        "kind": doc.kind,
        "checks": checks,
        "polarization_flipped": ctx.flipped,
        "group": {
            "order": ctx.group.order,
            "is_free": ctx.is_free,
            "has_translations": has_translations(ctx.group),
            "preserves_polarization": not ctx.averaged,
        },
        "is_ghv": ctx.is_ghv,
        "expect_ghv": doc.expect_ghv,
        "verdict": "pass",
    }


def _problem_domain(doc: ProblemDocument) -> tuple[ReductionProblem, PolyhedralCone]:
    """The document's reduction problem, with its generators validated,
    and its domain, whose rays must lie in the closed cone. check, funddom,
    reduce and verify all read a problem document through here."""
    problem = binary_quadratic_problem(doc.generators)
    domain = PolyhedralCone.from_rays(doc.domain_rays)
    if not all(problem.is_closure(r) for r in domain.rays):
        raise ValidationError("domain_rays", "rays must lie in the closed cone")
    return problem, domain


def _check_problem(doc: ProblemDocument) -> dict:
    problem, domain = _problem_domain(doc)
    return {
        **_header("check", doc),
        "kind": doc.kind,
        "cone": doc.cone,
        "generators": [name for name, _ in problem.generators],
        "domain": {"rays": _jsonable(domain.rays), "facets": _jsonable(domain.facets)},
        "verdict": "pass",
    }


def _require_torus(doc):
    if doc.kind != "torus":
        raise ValidationError("document_kind", "this command needs a torus document")


def _require_problem(doc):
    if doc.kind != "reduction_problem":
        raise ValidationError("document_kind", "this command needs a reduction problem")


def run_endo(doc) -> dict:
    _require_torus(doc)
    ctx = prepare_torus(doc)
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    dec = decompose(sub)
    return {
        **_header("endo", doc),
        "end_dim": compute_end(ctx.invariant_torus).dim,
        "invariant_dim": sub.dim,
        "polarization_averaged": ctx.averaged,
        "trace_positive": trace_positivity_check(sub),
        "rosati_closed": rosati_fixes_algebra(sub),
        "factors": [
            {
                "label": f.label,
                "kind": f.kind,
                "size": f.size,
                "center_degree": f.center_degree,
                "places": f.places,
                "dim": f.dim,
                "fixed_dim": f.fixed_dim,
                "center_poly": _jsonable(f.center_poly),
            }
            for f in dec.factors
        ],
    }


def run_cone(doc) -> dict:
    _require_torus(doc)
    ctx = prepare_torus(doc)
    structure = cone_structure(ctx.invariant_torus, ctx.group)
    classes = []
    for coords in doc.test_classes:
        if len(coords) != structure.invariant.rank:
            raise ValidationError(
                "test_class_shape",
                f"class {list(coords)} has length {len(coords)}, "
                f"invariant lattice has rank {structure.invariant.rank}",
            )
        classes.append(
            {
                "coords": list(coords),
                "ample": structure.invariant.is_ample_coords(coords),
                "nef": structure.invariant.is_nef_coords(coords),
            }
        )
    return {
        **_header("cone", doc),
        "ns_rank": structure.ns.rank,
        "invariant_rank": structure.invariant.rank,
        "polarization_averaged": ctx.averaged,
        "factors": [
            {"label": fc.factor.label, "flag": fc.flag, "ns_dim": fc.ns_dim}
            for fc in structure.factors
        ],
        "test_classes": classes,
    }


@dataclass(frozen=True)
class DomainConstruction:
    structure: ConeStructure
    domain: PolyhedralCone | None
    factor_summaries: tuple[dict, ...]
    normalizer_action: Matrix | None
    downgrades: tuple[str, ...] = ()


def build_domain(ctx: TorusContext) -> DomainConstruction:
    """Fundamental domain of the induced automorphism action on the
    invariant ample cone, assembled factor by factor.

    Ray factors contribute their nef generator. A hyperbolic factor needs
    the document's normalizer element; its induced action on the factor
    pins down the sector between a base class and its image. Factors of
    higher rank have no construction here: they downgrade to verifier-only
    status, leaving ``domain`` unset, and stay checkable through a
    reduction problem document with user-supplied generators.
    """
    structure = cone_structure(ctx.invariant_torus, ctx.group)
    t = ctx.invariant_torus
    norm_action = None
    normalizer = ctx.document.normalizer
    if normalizer is not None:
        _validate_normalizer(ctx, normalizer)
        norm_action = structure.invariant.pullback_matrix(normalizer)
        if not norm_action.is_integral:
            raise ValidationError(
                "normalizer_lattice", "normalizer must preserve the invariant lattice"
            )
    e_coords = Matrix.column(structure.invariant.coordinates(t.e))
    global_rays = []
    summaries = []
    downgrades = []
    for fc in structure.factors:
        piece = fc.piece
        if fc.flag == "ray":
            ray = piece[0]
            if not structure.invariant.is_nef_coords(ray):
                ray = tuple(-x for x in ray)
            if not structure.invariant.is_nef_coords(ray):
                raise InternalInvariantError("ray factor has no nef generator")
            global_rays.append(ray)
            summaries.append({"label": fc.factor.label, "flag": fc.flag, "rays": [_jsonable(ray)]})
        elif fc.flag == "hyperbolic":
            if norm_action is None:
                raise ValidationError(
                    "funddom_normalizer",
                    "a hyperbolic factor needs a normalizer element to cut a "
                    "rational polyhedral domain",
                )
            # basis holds the piece's vectors as columns, so the solution X
            # of basis @ X = Y holds Y's columns in piece coordinates
            basis = Matrix(piece).T
            local_action = basis.solve(norm_action @ basis)
            base_local = basis.solve(fc.projection @ e_coords)
            if local_action is None or base_local is None:
                raise InternalInvariantError("vector left its factor piece")
            if not local_action.is_integral:
                raise ValidationError(
                    "normalizer_factors", "normalizer must preserve each factor piece lattice"
                )
            local = hyperbolic_domain(local_action, primitive_tuple(base_local.col(0)))
            rays = [(basis @ Matrix.column(r)).col(0) for r in local.rays]
            global_rays.extend(rays)
            summaries.append(
                {
                    "label": fc.factor.label,
                    "flag": fc.flag,
                    "action": _jsonable(local_action),
                    "rays": _jsonable(rays),
                }
            )
        else:
            downgrades.append(fc.factor.label)
            summaries.append(
                {
                    "label": fc.factor.label,
                    "flag": fc.flag,
                    "downgrade": "verifier-only: no domain construction for this factor",
                }
            )
    if downgrades:
        return DomainConstruction(structure, None, tuple(summaries), norm_action, tuple(downgrades))
    domain = PolyhedralCone.from_rays(global_rays)
    return DomainConstruction(structure, domain, tuple(summaries), norm_action)


def _validate_normalizer(ctx: TorusContext, gamma: Matrix) -> None:
    t = ctx.invariant_torus
    if not gamma.is_integral:
        raise ValidationError("normalizer_integral", "normalizer must be integral")
    if gamma.det() not in (1, -1):
        raise ValidationError("normalizer_unimodular", "normalizer must be unimodular")
    if (gamma @ t.j) != (t.j @ gamma):
        raise ValidationError("normalizer_holomorphic", "normalizer must commute with J")
    inv = gamma.inverse()
    # conjugation fixes the identity, so the others must map onto each other
    conjugates = {g: inv @ g @ gamma for g in ctx.group.linear_parts}
    if not set(conjugates.values()) <= set(conjugates):
        raise ValidationError("normalizer_group", "normalizer must normalize the group action")
    # gamma acts on X = A/G when gamma^-1 (L, t) gamma = (gamma^-1 L gamma,
    # gamma^-1 t), translations mod 1, lies in G for every (L, t) in G
    elements = set(ctx.group.elements)
    for g in ctx.group.elements:
        moved = tuple(sum(map(mul, row, g.translation)) for row in inv.rows)
        if AffineAuto(conjugates.get(g.linear, g.linear), moved) not in elements:
            raise ValidationError(
                "normalizer_descent", "normalizer must conjugate the group into itself"
            )


def run_funddom(doc) -> dict:
    if doc.kind == "reduction_problem":
        _, domain = _problem_domain(doc)
        return {
            **_header("funddom", doc),
            "supported": True,
            "dim": domain.dim,
            "rays": _jsonable(domain.rays),
            "facets": _jsonable(domain.facets),
            "factors": [{"label": doc.cone, "flag": "higher_rank"}],
        }
    ctx = prepare_torus(doc)
    built = build_domain(ctx)
    if built.domain is None:
        return {
            **_header("funddom", doc),
            "supported": False,
            "downgrade": _downgrade_message(built),
            "factors": list(built.factor_summaries),
        }
    return {
        **_header("funddom", doc),
        "supported": True,
        "dim": built.domain.dim,
        "rays": _jsonable(built.domain.rays),
        "facets": _jsonable(built.domain.facets),
        "factors": list(built.factor_summaries),
    }


def _downgrade_message(built: DomainConstruction) -> str:
    labels = ", ".join(built.downgrades)
    return (
        f"verifier-only: no fundamental domain construction for factor(s) {labels}; "
        "supply a reduction problem document with explicit generators to verify"
    )


def build_torus_problem(ctx: TorusContext, built: DomainConstruction) -> ReductionProblem:
    """The tiling problem on the invariant lattice. Its interior test runs
    thousands of times on integer coordinates, so it is compiled."""
    inv = built.structure.invariant
    gens = []
    if built.normalizer_action is not None:
        gens.append(("A", built.normalizer_action))
    pairing, _ = inv.pairing_matrix.to_integer()
    base = inv.coordinates(ctx.invariant_torus.e)
    if any(Fraction(x).denominator != 1 for x in base):
        raise InternalInvariantError("polarization fell outside the invariant lattice")
    base_int = tuple(int(x) for x in base)
    return ReductionProblem(
        dim=inv.rank,
        generators=tuple(gens),
        pairing=pairing,
        base_point=base_int,
        is_interior=positive_definite_form(inv.upper_rows, ctx.invariant_torus.rank),
        is_closure=inv.is_nef_coords,
    )


def run_reduce(doc) -> dict:
    _require_problem(doc)
    _problem_domain(doc)
    if doc.generators and not set(P2_GENERATORS) <= set(doc.generators):
        raise ValidationError("reduce_generators", "reduce's words need S, T and N with their actions")
    results = []
    for form in doc.test_forms:
        reduced, word = gauss_reduce(form)
        results.append(
            {
                "form": list(form),
                "reduced": list(reduced),
                "word": [[name, power] for name, power in word.letters],
                "gamma": _jsonable(word.matrix),
                "verified": transform_form(form, word.matrix) == reduced
                and is_gauss_reduced(reduced),
            }
        )
    return {
        **_header("reduce", doc),
        "results": results,
    }


def run_verify(doc, seed: int = 42, samples: int = 1000, max_steps: int = 20_000) -> dict:
    if samples < 0:
        raise ValidationError("verify_budget", f"samples must be at least 0, got {samples}")
    if max_steps < 1:
        raise ValidationError("verify_budget", f"max_steps must be at least 1, got {max_steps}")
    if doc.kind == "reduction_problem":
        problem, domain = _problem_domain(doc)
        pushdown = None
    else:
        ctx = prepare_torus(doc)
        built = build_domain(ctx)
        if built.domain is None:
            return {
                **_header("verify", doc),
                "downgrade": _downgrade_message(built),
                "eta": None,
                "samples": 0,
                "verified": 0,
                "failures": [],
                "overlap": None,
                "complete": True,
            }
        problem = build_torus_problem(ctx, built)
        domain = built.domain
        pushdown = pushdown_domain(built.structure)
    tiling = verify_tiling(problem, domain, samples=samples, seed=seed, max_steps=max_steps)
    overlap = find_interior_overlap(problem, domain, seed=seed)
    report = {
        **_header("verify", doc),
        "eta": _jsonable(tiling.eta),
        "samples": tiling.samples,
        "verified": tiling.verified,
        "failures": [
            {"point": _jsonable(f.point), "reason": f.reason} for f in tiling.failures
        ],
        "overlap": None
        if overlap is None
        else {
            "word": [[name, power] for name, power in overlap.word.letters],
            "point": _jsonable(overlap.point),
            "image": _jsonable(overlap.image),
        },
        "complete": tiling.complete and overlap is None,
    }
    if pushdown is not None:
        report["pushdown"] = {
            "group_order": pushdown.group_order,
            "pullback": _jsonable(pushdown.pullback),
            "pushforward": _jsonable(pushdown.pushforward),
            "verified": pushdown.verified,
        }
        report["complete"] = report["complete"] and pushdown.verified
    return report


COMMANDS = {
    "check": run_check,
    "endo": run_endo,
    "cone": run_cone,
    "funddom": run_funddom,
    "reduce": run_reduce,
}
