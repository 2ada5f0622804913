"""Polarized complex tori with rational complex structure, and finite groups
of affine automorphisms acting on them.

A torus is the lattice Z^(2n) together with a rational matrix J (J @ J = -I)
and an integral alternating polarization E compatible with J whose symmetric
companion E @ J is definite. Affine automorphisms are pairs (linear part,
translation mod 1); the linear part must be unimodular and commute with J.

Translations do not enter invariance: conjugating an endomorphism phi by
x -> A x + t, or pulling a form back along it, acts through A alone (the
conjugate is A phi A^-1 plus a constant, and a translation acts on the
lattice as the identity). What the generators' linear parts fix, every
element's fixes, so invariant algebras and form lattices are cut out by
GroupAction.linear_generators; translations matter for freeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ClosureError, ValidationError
from .matrices import (
    Matrix,
    Scalar,
    definiteness_sign,
    in_lattice_plus_integers,
    rows_product,
)

DEFAULT_MAX_ORDER = 64


@dataclass(frozen=True)
class PolarizedTorus:
    j: Matrix
    e: Matrix

    def __post_init__(self):
        if not self.j.is_square or not self.e.is_square:
            raise ValidationError("shape", "J and E must be square")
        if self.j.shape != self.e.shape:
            raise ValidationError("shape", "J and E must have equal shape")
        if self.j.nrows % 2 != 0:
            raise ValidationError("shape", "lattice rank must be even")

    @property
    def rank(self) -> int:
        return self.j.nrows

    @cached_property
    def e_inv(self) -> Matrix:
        return self.e.inverse()


@dataclass(frozen=True)
class TorusCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TorusReport:
    checks: tuple[TorusCheck, ...]
    sign: int  # +1 / -1 definite direction of E @ J, 0 when not definite

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def validate_torus(t: PolarizedTorus) -> TorusReport:
    """Check each torus invariant exactly and report per-invariant verdicts.

    The definiteness check reports sign -1 when E @ J is negative definite;
    callers normalize by flipping E and re-validating. It reads the sign of
    the form x -> x.E.J.x from S = E @ J + (E @ J).T, twice its symmetric
    part: S has the same sign and stays integral when E and J are.
    """
    checks = []
    n2 = t.rank
    ident = Matrix.identity(n2)
    checks.append(
        TorusCheck(
            "complex_structure_square",
            (t.j @ t.j) == -ident,
            "J @ J must equal -I",
        )
    )
    checks.append(
        TorusCheck(
            "polarization_integral",
            t.e.is_integral,
            "E must have integer entries",
        )
    )
    checks.append(
        TorusCheck(
            "polarization_alternating",
            t.e.is_alternating,
            "E must be alternating",
        )
    )
    checks.append(
        TorusCheck(
            "polarization_compatible",
            (t.j.T @ t.e @ t.j) == t.e,
            "J must preserve E",
        )
    )
    ej = t.e @ t.j
    sign = definiteness_sign(ej + ej.T)
    checks.append(
        TorusCheck(
            "polarization_definite",
            sign != 0,
            "x -> x.E.J.x must be definite of one sign",
        )
    )
    return TorusReport(tuple(checks), sign)


def normalize_polarization(
    t: PolarizedTorus, report: TorusReport | None = None
) -> tuple[PolarizedTorus, bool]:
    """Flip E -> -E when the definite form comes out negative.

    Returns (torus, flipped). Raises ValidationError when the torus fails
    any other invariant, or is not definite either way. A caller that has
    already validated t passes its report.
    """
    if report is None:
        report = validate_torus(t)
    bad = [n for n in report.failed_names() if n != "polarization_definite"]
    if bad:
        raise ValidationError(bad[0])
    if report.sign == 0:
        raise ValidationError("polarization_definite")
    if report.sign < 0:
        return PolarizedTorus(t.j, -t.e), True
    return t, False


@dataclass(frozen=True)
class AffineAuto:
    """Affine automorphism x -> linear @ x + translation of the torus.

    The translation is stored mod 1, each entry an int or a Fraction in
    [0, 1)."""

    linear: Matrix
    translation: tuple[Scalar, ...] = field(default=())

    def __post_init__(self):
        if not self.linear.is_square:
            raise ValidationError("shape", "linear part must be square")
        tr = self.translation or (0,) * self.linear.nrows
        if len(tr) != self.linear.nrows:
            raise ValidationError("shape", "translation length must match rank")
        object.__setattr__(self, "translation", tuple([x % 1 for x in tr]))

    @property
    def is_identity(self) -> bool:
        return (
            self.linear == Matrix.identity(self.linear.nrows)
            and all(x == 0 for x in self.translation)
        )

    @property
    def is_translation(self) -> bool:
        return self.linear == Matrix.identity(self.linear.nrows) and any(
            x != 0 for x in self.translation
        )


@dataclass(frozen=True)
class GroupAction:
    """A finite group of affine automorphisms; identity listed first.
    linear_generators are the distinct non-identity linear parts of the
    generators it was closed from: what invariance is tested against."""

    elements: tuple[AffineAuto, ...]
    linear_generators: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def linear_parts(self) -> tuple[Matrix, ...]:
        """The distinct non-identity linear parts of all elements."""
        return _non_identity_linears(self.elements)

    def non_identity(self) -> list[AffineAuto]:
        return [g for g in self.elements if not g.is_identity]


def _non_identity_linears(autos: Sequence[AffineAuto]) -> tuple[Matrix, ...]:
    ident = Matrix.identity(autos[0].linear.nrows)
    return tuple(dict.fromkeys(g.linear for g in autos if g.linear != ident))


def validate_automorphism(t: PolarizedTorus, g: AffineAuto) -> list[TorusCheck]:
    """Per-generator checks: integral unimodular linear part commuting with J."""
    checks = []
    checks.append(
        TorusCheck("linear_integral", g.linear.is_integral, "linear part must be integral")
    )
    det = g.linear.det() if g.linear.is_square else 0
    checks.append(
        TorusCheck("unimodular", det in (1, -1), f"determinant must be +-1, got {det}")
    )
    checks.append(
        TorusCheck(
            "holomorphic",
            (g.linear @ t.j) == (t.j @ g.linear),
            "linear part must commute with J",
        )
    )
    return checks


def close_group(
    generators: Iterable[AffineAuto], max_order: int = DEFAULT_MAX_ORDER
) -> GroupAction:
    """Close a generator list under composition (identity added). Raises
    ClosureError when the closure passes max_order elements.

    The closure runs on pairs (linear rows, translation numerators mod N),
    N the least common denominator of the generators' translations, so
    g after h is (A_g A_h, A_g s_h + t_g mod N). Each AffineAuto is built
    once, at the end. Linear parts must be integral."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator or an explicit rank")
    if not all(g.linear.is_integral for g in gens):
        raise ValueError("group closure needs integral linear parts")
    n = gens[0].linear.nrows
    den = lcm(*(x.denominator for g in gens for x in g.translation))
    pairs = [(g.linear.rows, tuple(int(x * den) for x in g.translation)) for g in gens]
    ident = (Matrix.identity(n).rows, (0,) * n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for lin, tr in frontier:
            for hlin, htr in pairs:
                gh = (
                    rows_product(lin, hlin),
                    tuple([(sum(map(mul, row, htr)) + t) % den for row, t in zip(lin, tr)]),
                )
                if gh not in seen:
                    if len(seen) >= max_order:
                        raise ClosureError(
                            f"group does not close within {max_order} elements"
                        )
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    seen.remove(ident)
    return GroupAction(tuple(
        AffineAuto(Matrix.trusted(lin, True), tuple([Fraction(x, den) if x else 0 for x in tr]))
        for lin, tr in [ident] + sorted(seen)
    ), _non_identity_linears(gens))


def trivial_group(rank: int) -> GroupAction:
    return GroupAction((AffineAuto(Matrix.identity(rank)),), ())


def is_free(t: PolarizedTorus, g: AffineAuto) -> bool:
    """Whether g acts without fixed points on the torus.

    A fixed point exists iff the translation lies in the column space of
    (linear - I) over Q plus the integer lattice; that membership is decided
    exactly by the saturated integer left kernel of (linear - I).
    """
    if g.is_identity:
        raise ValueError("freeness is asked of non-identity elements")
    b = g.linear - Matrix.identity(t.rank)
    minus_t = [-x for x in g.translation]
    return not in_lattice_plus_integers(b, minus_t)


def has_translations(group: GroupAction) -> bool:
    return any(g.is_translation for g in group.elements)


def action_is_free(t: PolarizedTorus, group: GroupAction) -> bool:
    return all(is_free(t, g) for g in group.non_identity())


def is_polarization_invariant(t: PolarizedTorus, group: GroupAction) -> bool:
    return all((g.T @ t.e @ g) == t.e for g in group.linear_generators)


def invariant_polarization(t: PolarizedTorus, group: GroupAction) -> Matrix:
    """Sum of pullbacks of E over the group; integral, alternating,
    J-compatible and G-invariant by construction."""
    acc = Matrix.zeros(t.rank, t.rank)
    for g in group.elements:
        acc = acc + (g.linear.T @ t.e @ g.linear)
    if not is_polarization_invariant(PolarizedTorus(t.j, acc), group):
        raise ValidationError("polarization_invariant", "averaging failed to produce an invariant form")
    return acc
