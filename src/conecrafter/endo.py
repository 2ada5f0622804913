"""Endomorphism algebras of polarized tori and the Rosati involution.

The rational endomorphism algebra is the space of rational matrices
commuting with the complex structure J; group-invariant subalgebras add
commutation with the linear parts of the group's generators, which holds
exactly when it holds for every element. Bases are integral and
canonical (Hermite-reduced vectorizations), so all downstream reports are
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

from .errors import InternalInvariantError, ValidationError
from .matrices import (
    Matrix,
    MatrixLattice,
    commutator_rows,
    definiteness_sign,
    matrix_kernel_basis,
    rows_product,
    trace_gram,
)
from .torus import GroupAction, PolarizedTorus


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
        return center_basis(self)

    def rosati(self, phi: Matrix) -> Matrix:
        return rosati(self.torus, phi)

    @cached_property
    def rosati_images(self) -> tuple[Matrix, ...]:
        """The Rosati adjoint of each basis element, in basis order."""
        return rosati_all(self.torus, self.basis)

    @cached_property
    def rosati_gram(self) -> Matrix:
        """Gram matrix of the pairing (x, y) -> Tr(x @ rosati(y))."""
        return trace_gram(self.basis, self.rosati_images)


def rosati(t: PolarizedTorus, phi: Matrix) -> Matrix:
    """Rosati adjoint of phi: the unique psi with psi.T @ E = E @ phi."""
    return t.e_inv @ phi.T @ t.e


def rosati_all(t: PolarizedTorus, phis: Sequence[Matrix]) -> tuple[Matrix, ...]:
    """The Rosati adjoints of several matrices from two products: the
    stacked transposes times E, then E^-1 times those blocks side by side,
    whose denominators the product clears once."""
    if not phis:
        return ()
    n = t.rank
    blocks = (Matrix.trusted(tuple(row for phi in phis for row in phi.T.rows)) @ t.e).rows
    side = Matrix.trusted(tuple(tuple(chain.from_iterable(blocks[i::n])) for i in range(n)))
    images = (t.e_inv @ side).rows
    return tuple(
        Matrix.trusted(tuple(row[k:k + n] for row in images)) for k in range(0, n * len(phis), n)
    )


def _commutant(
    t: PolarizedTorus, constraints: Sequence[Matrix], what: str
) -> tuple[Matrix, ...]:
    """Canonical integral basis of the rank x rank matrices commuting with
    every constraint. It holds the identity, so an empty basis raises,
    naming what was computed."""
    rows = [row for c in constraints for row in commutator_rows(c)]
    basis = matrix_kernel_basis(rows, (t.rank, t.rank))
    if not basis:
        raise InternalInvariantError(f"{what} lost its identity")
    return tuple(basis)


def compute_end(t: PolarizedTorus) -> EndoAlgebra:
    """Basis of the rational endomorphism algebra {M : M J = J M}."""
    return EndoAlgebra(t, _commutant(t, (t.j,), "endomorphism algebra"), (t.j,))


def invariant_subalgebra(t: PolarizedTorus, group: GroupAction) -> EndoAlgebra:
    """Subalgebra of endomorphisms commuting with J and the whole action.
    Its constraints include J, so it lies in End(T) by construction.

    Translations act trivially by conjugation, and a matrix commuting with
    the generators' linear parts commutes with every element's, so only
    the group's linear generators enter.
    """
    constraints = (t.j, *group.linear_generators)
    return EndoAlgebra(t, _commutant(t, constraints, "invariant algebra"), constraints)


def center_basis(algebra: EndoAlgebra) -> tuple[Matrix, ...]:
    """Integral basis of the center, canonical in the same sense as the
    algebra basis. A constraint that commutes with all the others (J, and
    any linear generator that commutes with the rest) lies in the algebra,
    so the basis rows already impose it and its own rows are left out."""
    cs = algebra.commutants
    clash = set()
    for a, b in combinations(cs, 2):
        if rows_product(a.rows, b.rows) != rows_product(b.rows, a.rows):
            clash.update((a, b))
    return _commutant(algebra.torus, tuple(c for c in cs if c in clash) + algebra.basis, "center")


def rosati_fixes_algebra(algebra: EndoAlgebra) -> bool:
    return all(algebra.contains(r) for r in algebra.rosati_images)


def trace_positivity_check(algebra: EndoAlgebra) -> bool:
    """Whether (x, y) -> Tr(x @ rosati(y)) is positive definite on the
    algebra. For a polarization this holds; it is the exactness anchor for
    every ampleness computation downstream."""
    gram = algebra.rosati_gram
    if gram != gram.T:
        raise InternalInvariantError("rosati trace pairing must be symmetric")
    return definiteness_sign(gram) == 1
