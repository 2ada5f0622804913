"""Integral alternating forms compatible with the complex structure, their
ample and nef cones, and the product shape of the invariant cone.

Forms correspond to endomorphisms through F -> E^-1 F, which lands in the
involution-fixed part of the endomorphism algebra. So a form lattice is
the integer points of the span of the forms E @ b - (E @ b).T = E @ (b +
rosati(b)) of an algebra's basis (endo.form_vectors): End(T) for NS(T),
the invariant algebra for the invariant lattice. Positivity of a form has
two exact criteria, and both are kept:

    bare form      is_ample / is_nef: every root of det(x I - E^-1 F) is
                   positive / nonnegative (a Sturm root count)
    coordinates    NSLattice.is_ample_coords / is_nef_coords: the symmetric
                   form F J is positive definite / semidefinite
                   (Prendergast-Smith's Hermitian form criterion)

They agree because E J is positive definite on a normalized torus and
E^-1 F is similar to (E J)^-1 (F J), whose eigenvalues have the signs of
the inertia of F J. Every command tests classes in lattice coordinates;
the bare-form criterion stays as the reference the coordinate one is
tested against, and needs no lattice.

A class given in coordinates is tested by matrices.semidefinite_rank on
its symmetric form, summed from the lattice's integer forms (denominators
cleared): full rank means ample, any rank means nef. cone and funddom test
a few classes per lattice, fewer than a compile pays back, so nothing is
compiled for them. verify's tiling search tests thousands of points, so
pipeline.build_torus_problem compiles the map to the form's upper triangle
and Sylvester's criterion into one function once per problem
(_kernels.positive_definite_form).

The invariant cone then splits along the simple factors of the invariant
algebra. A factor's piece is the span of its fixed forms E @ x - (E @ x).T
for x in e @ A (SimpleFactor.forms), a cone of positive definite Hermitian
elements whose shape is reported as a flag:

    ray          fixed part of the factor has dimension 1
    hyperbolic   dimension 2, one branch of a signature (1,1) quadric
    higher_rank  dimension 3 or more
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Sequence

from .endo import EndoAlgebra, compute_end, invariant_subalgebra
from .errors import InternalInvariantError, ValidationError
from .matrices import (
    Matrix,
    MatrixLattice,
    clear_denominators,
    definiteness_sign,
    hermite_normal_form,
    semidefinite_rank,
    trace_gram,
)
from .polynomials import all_roots_nonnegative, all_roots_positive, char_poly
from .torus import GroupAction, PolarizedTorus, is_polarization_invariant
from .wedderburn import SimpleFactor, WedderburnDecomposition, decompose


def ns_to_endo(t: PolarizedTorus, f: Matrix) -> Matrix:
    return t.e_inv @ f


def is_ample(t: PolarizedTorus, f: Matrix) -> bool:
    """Exact ampleness relative to the polarization: all roots of the
    relative characteristic polynomial are strictly positive."""
    return all_roots_positive(char_poly(ns_to_endo(t, f)))


def is_nef(t: PolarizedTorus, f: Matrix) -> bool:
    return all_roots_nonnegative(char_poly(ns_to_endo(t, f)))


@dataclass(frozen=True)
class NSLattice(MatrixLattice):
    """Lattice of integral alternating J-compatible forms with a fixed
    canonical basis; coordinates are taken in that basis.

    Classes given by coordinates are tested for ampleness (nefness) by
    whether sum c_i S_i is positive definite (semidefinite), where
    S_i = D (b_i @ J) are integer symmetric matrices built once per
    lattice. See the module docstring for why this agrees with the
    bare-form is_ample / is_nef, which stay as the reference."""

    torus: PolarizedTorus
    basis: tuple[Matrix, ...]

    membership = ("ns_membership", "form is outside the lattice span")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pullback_matrix(self, g: Matrix) -> Matrix:
        """Matrix of F -> g.T @ F @ g on coordinates. Raises when g does
        not preserve the span."""
        return self.matrix_of([g.T @ b @ g for b in self.basis])

    @cached_property
    def pairing_matrix(self) -> Matrix:
        """Gram matrix of the trace pairing on the basis."""
        halves = [ns_to_endo(self.torus, b) for b in self.basis]
        return trace_gram(halves, halves)

    @cached_property
    def hermitian_forms(self) -> tuple[list[int], ...]:
        """The entries of S_i = D (b_i @ J), row-major, one list per basis
        form. D clears the denominators of J and carries the sign of
        E @ J, so that the polarization is positive."""
        t = self.torus
        j, _ = t.j.to_integer()
        sign = definiteness_sign(t.e @ j)
        if sign == 0:
            raise ValueError("ampleness needs a definite polarization")
        return tuple((b @ j * sign).flat() for b in self.basis)

    @cached_property
    def upper_rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix taking coordinates to the upper triangle of
        sum c_i S_i, row by row."""
        n = self.torus.rank
        entries = [i * n + j for i in range(n) for j in range(i, n)]
        return tuple(tuple(s[k] for s in self.hermitian_forms) for k in entries)

    def _hermitian_rows(self, coords: Sequence) -> list[list[int]]:
        """The rows of sum c_i S_i, scaled by the least positive integer
        clearing the denominators of the coordinates."""
        if len(coords) != self.rank:
            raise ValueError("coordinate length mismatch")
        ints = clear_denominators(coords)[0]
        flat = [sum(map(mul, entry, ints)) for entry in zip(*self.hermitian_forms)]
        n = self.torus.rank
        return [flat[i * n:(i + 1) * n] for i in range(n)]

    def is_ample_coords(self, coords: Sequence) -> bool:
        return semidefinite_rank(self._hermitian_rows(coords)) == self.torus.rank

    def is_nef_coords(self, coords: Sequence) -> bool:
        return semidefinite_rank(self._hermitian_rows(coords)) is not None


def _form_lattice(algebra: EndoAlgebra, lost: str) -> NSLattice:
    """Canonical basis of the integral forms E @ b - (E @ b).T over the
    algebra, the integer points of the span of its basis's forms
    (EndoAlgebra.form_lattice). The polarization lies in it, so an empty
    span raises with the message lost."""
    t = algebra.torus
    if not any(map(any, algebra.forms)):
        raise InternalInvariantError(lost)
    return NSLattice(
        t, tuple(Matrix._from_flat_entries(row, t.rank, True) for row in algebra.form_lattice)
    )


def compute_ns(t: PolarizedTorus) -> NSLattice:
    """Canonical basis of {F integral : F alternating, J.T F J = F}, read
    off End(T)."""
    return _form_lattice(compute_end(t), "polarization lost from the form lattice")


def invariant_ns(algebra: EndoAlgebra) -> NSLattice:
    """Canonical basis of the forms fixed by every pullback of the action,
    read off its invariant algebra."""
    return _form_lattice(algebra, "invariant polarization lost from the lattice")


@dataclass(frozen=True)
class FactorCone:
    """Positive cone of one simple factor, as seen inside the invariant
    form lattice.

    piece is the saturated integer basis (rows, HNF-canonical) of the span
    of its fixed forms (SimpleFactor.forms) in invariant coordinates, and
    ns_dim, the piece's rank, is the factor's share of the lattice rank.
    """

    factor: SimpleFactor
    flag: str
    piece: tuple[tuple[int, ...], ...]

    @property
    def ns_dim(self) -> int:
        return len(self.piece)


@dataclass(frozen=True)
class ConeStructure:
    torus: PolarizedTorus
    group: GroupAction
    decomposition: WedderburnDecomposition
    invariant: NSLattice
    factors: tuple[FactorCone, ...]

    @cached_property
    def ns(self) -> NSLattice:
        """The full form lattice, built only for the commands that read it.
        It holds the invariant lattice, so it is never empty. With no
        linear generator, J alone cuts out both, so it is the invariant
        lattice."""
        if not self.group.linear_generators:
            return self.invariant
        return compute_ns(self.torus)


def _cone_flag(ns_dim: int) -> str:
    if ns_dim == 1:
        return "ray"
    if ns_dim == 2:
        return "hyperbolic"
    return "higher_rank"


def cone_structure(t: PolarizedTorus, group: GroupAction) -> ConeStructure:
    """Full invariant cone analysis for a polarization-preserving action.

    The polarization must already be invariant (average it first if not);
    otherwise the form-to-endomorphism bridge leaves the invariant algebra.

    A factor's piece is the HNF of its fixed forms' invariant coordinates:
    both the forms and the lattice are integer points of their spans, so
    the coordinates span the piece's saturated lattice. A single factor's
    forms are the lattice's basis (EndoAlgebra.form_lattice), so its piece
    is the identity rows. Several factors' pieces must form a basis.
    """
    if not is_polarization_invariant(t, group):
        raise ValidationError(
            "polarization_invariant", "cone analysis needs an invariant polarization"
        )
    dec = decompose(invariant_subalgebra(t, group))
    inv = invariant_ns(dec.algebra)
    if len(dec.factors) == 1:
        pieces = [Matrix.identity(inv.rank).rows]
    else:
        pieces = [
            hermite_normal_form(
                Matrix([inv.coordinates(Matrix._from_flat_entries(row, t.rank, True)) for row in sf.forms])
            )[0].rows
            for sf in dec.factors
        ]
        stacked = [row for piece in pieces for row in piece]
        if len(stacked) != inv.rank or Matrix(stacked).rank() != inv.rank:
            raise InternalInvariantError("factor pieces do not fill the invariant lattice")
    factors = tuple(FactorCone(sf, _cone_flag(len(p)), p) for sf, p in zip(dec.factors, pieces))
    return ConeStructure(t, group, dec, inv, factors)
