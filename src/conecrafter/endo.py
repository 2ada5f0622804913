"""Endomorphism algebras of polarized tori and the Rosati involution.

The rational endomorphism algebra is the space of rational matrices
commuting with the complex structure J; group-invariant subalgebras add
commutation with every linear part of the action. Bases are integral and
canonical (Hermite-reduced vectorizations), so all downstream reports are
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InternalInvariantError, ValidationError
from .matrices import (
    Matrix,
    MatrixLattice,
    commutator_rows,
    is_positive_definite,
    matrix_kernel_basis,
    trace_gram,
)
from .torus import GroupAction, PolarizedTorus


def _dedup(mats: Sequence[Matrix]) -> list[Matrix]:
    seen = set()
    out = []
    for m in mats:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


@dataclass(frozen=True)
class EndoAlgebra(MatrixLattice):
    """A unital matrix algebra over Q given by an exact basis.

    basis entries are integral matrices of size rank x rank; the identity
    always lies in their span. commutants records the matrices whose
    centralizer cut this algebra out (J first, then any group constraints).
    """

    torus: PolarizedTorus
    basis: tuple[Matrix, ...]
    commutants: tuple[Matrix, ...]

    membership = ("algebra_membership", "matrix is not in the algebra")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def rank(self) -> int:
        return self.torus.rank

    def contains(self, m: Matrix) -> bool:
        try:
            self.coordinates(m)
            return True
        except ValidationError:
            return False

    @cached_property
    def center(self) -> tuple[Matrix, ...]:
        return tuple(center_basis(self))

    @cached_property
    def unit(self) -> tuple[Fraction, ...]:
        return self.coordinates(Matrix.identity(self.rank))

    @cached_property
    def structure_constants(self) -> tuple:
        """c[i][j] = coordinates of basis[i] @ basis[j]."""
        return tuple(
            tuple(self.coordinates(bi @ bj) for bj in self.basis) for bi in self.basis
        )

    def multiply_coords(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        sc = self.structure_constants
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                row = sc[i][j]
                f = Fraction(xi) * Fraction(yj)
                for k in range(self.dim):
                    if row[k] != 0:
                        out[k] += f * row[k]
        return tuple(out)

    def rosati(self, phi: Matrix) -> Matrix:
        return rosati(self.torus, phi)

    @cached_property
    def rosati_gram(self) -> Matrix:
        """Gram matrix of the pairing (x, y) -> Tr(x @ rosati(y))."""
        return trace_gram(self.basis, [self.rosati(b) for b in self.basis])


def rosati(t: PolarizedTorus, phi: Matrix) -> Matrix:
    """Rosati adjoint of phi: the unique psi with psi.T @ E = E @ phi."""
    return t.e_inv @ phi.T @ t.e


def compute_end(t: PolarizedTorus) -> EndoAlgebra:
    """Basis of the rational endomorphism algebra {M : M J = J M}."""
    basis = matrix_kernel_basis(commutator_rows(t.j), (t.rank, t.rank))
    if not basis:
        raise InternalInvariantError("endomorphism algebra lost its identity")
    return EndoAlgebra(t, tuple(basis), (t.j,))


def invariant_subalgebra(t: PolarizedTorus, group: GroupAction) -> "InvariantSubalgebra":
    """Subalgebra of endomorphisms commuting with J and the whole action.

    Translations act trivially by conjugation, so only linear parts enter.
    """
    gens = _dedup(g.linear for g in group.elements)
    constraints = [t.j] + [g for g in gens if g != Matrix.identity(t.rank)]
    rows = [row for c in constraints for row in commutator_rows(c)]
    basis = matrix_kernel_basis(rows, (t.rank, t.rank))
    if not basis:
        raise InternalInvariantError("invariant algebra lost its identity")
    return InvariantSubalgebra(EndoAlgebra(t, tuple(basis), tuple(constraints)))


@dataclass(frozen=True)
class InvariantSubalgebra:
    """An invariant endomorphism algebra together with its inclusion into
    the full one. embedding columns are parent coordinates of sub basis.

    The full algebra and the embedding are built only when read (endo
    reports the full dimension). Nothing else needs them: the constraint
    rows of the subalgebra include those of J, so it lies in the full
    algebra by construction, and building the embedding still raises
    when a basis element is outside it."""

    algebra: EndoAlgebra

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def parent(self) -> EndoAlgebra:
        return compute_end(self.algebra.torus)

    @cached_property
    def embedding(self) -> Matrix:
        cols = [self.parent.coordinates(b) for b in self.algebra.basis]
        return Matrix(list(zip(*cols)))


def center_basis(algebra: EndoAlgebra) -> list[Matrix]:
    """Integral basis of the center, canonical in the same sense as the
    algebra basis."""
    constraints = list(algebra.commutants) + list(algebra.basis)
    rows = [row for c in constraints for row in commutator_rows(c)]
    basis = matrix_kernel_basis(rows, (algebra.rank, algebra.rank))
    if not basis:
        raise InternalInvariantError("center lost its identity")
    return basis


def rosati_is_adjoint(t: PolarizedTorus, phi: Matrix) -> bool:
    """Defining property: rosati(phi).T @ E == E @ phi."""
    return (rosati(t, phi).T @ t.e) == (t.e @ phi)


def rosati_fixes_algebra(algebra: EndoAlgebra) -> bool:
    return all(algebra.contains(algebra.rosati(b)) for b in algebra.basis)


def trace_positivity_check(algebra: EndoAlgebra) -> bool:
    """Whether (x, y) -> Tr(x @ rosati(y)) is positive definite on the
    algebra. For a polarization this holds; it is the exactness anchor for
    every ampleness computation downstream."""
    gram = algebra.rosati_gram
    if gram != gram.T:
        raise InternalInvariantError("rosati trace pairing must be symmetric")
    return is_positive_definite(gram)
