"""Endomorphism algebras of polarized tori and the Rosati involution.

The rational endomorphism algebra is the space of rational matrices
commuting with the complex structure J; group-invariant subalgebras add
commutation with the linear parts of the group's generators, which holds
exactly when it holds for every element. Bases are integral and
canonical (Hermite-reduced vectorizations), so all downstream reports are
byte-stable.

E @ rosati(phi) = phi.T @ E = -(E @ phi).T, so the forms E @ phi - (E @ phi).T
of a basis span E times its Rosati-fixed part: the algebra's share of NS(T)
(Birkenhake-Lange, Complex Abelian Varieties, 5.2). No command takes a
Rosati image: endo's two Rosati verdicts follow from the validated
polarization (pipeline.run_endo), and the d x d checks of closure and of
trace positivity on an algebra's basis live on in the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Sequence

from .errors import InternalInvariantError
from .matrices import Matrix, MatrixLattice, commutator_rows, matrix_kernel_basis, rows_product, span_lattice
from .torus import GroupAction, PolarizedTorus


@dataclass(frozen=True)
class EndoAlgebra(MatrixLattice):
    """A unital matrix algebra over Q given by an exact basis.

    basis entries are integral matrices of size rank x rank; the identity
    always lies in their span. commutants records the matrices whose
    centralizer cut this algebra out (J first, then any group constraints),
    and linear_parts the non-identity linear parts of the closed group
    that the constraints after J generate (none for End(T)).
    """

    torus: PolarizedTorus
    basis: tuple[Matrix, ...]
    commutants: tuple[Matrix, ...]
    linear_parts: tuple[Matrix, ...] = ()

    membership = ("algebra_membership", "matrix is not in the algebra")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def rank(self) -> int:
        return self.torus.rank

    @cached_property
    def center(self) -> tuple[Matrix, ...]:
        return center_basis(self)

    @cached_property
    def forms(self) -> list[list]:
        """form_vectors of the basis, in basis order."""
        return form_vectors(self.torus, self.basis)

    @cached_property
    def form_lattice(self) -> tuple[tuple[int, ...], ...]:
        """span_lattice of forms, reduced once per algebra: its form lattice,
        and for a simple algebra its only factor's fixed forms."""
        return span_lattice(self.forms)


def rosati(t: PolarizedTorus, phi: Matrix) -> Matrix:
    """Rosati adjoint of phi: the unique psi with psi.T @ E = E @ phi."""
    return t.e_inv @ phi.T @ t.e


def form_vectors(t: PolarizedTorus, phis: Sequence[Matrix]) -> list[list]:
    """The alternating forms E @ (phi + rosati(phi)) = E @ phi - (E @ phi).T,
    row-major, from one product: E times the matrices side by side."""
    n = t.rank
    side = Matrix.trusted(tuple(tuple(chain.from_iterable(phi.rows[i] for phi in phis)) for i in range(n)))
    rows = (t.e @ side).rows
    return [
        [rows[i][k + j] - rows[j][k + i] for i in range(n) for j in range(n)]
        for k in range(0, n * len(phis), n)
    ]


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
    return EndoAlgebra(
        t, _commutant(t, constraints, "invariant algebra"), constraints, group.linear_parts
    )


def center_basis(algebra: EndoAlgebra) -> tuple[Matrix, ...]:
    """Integral basis of the center, canonical in the same sense as the
    algebra basis.

    A commutative algebra is its own center: Z(A) = A, and both bases are
    the canonical basis of the same saturated lattice, so the algebra's
    basis is returned as it is. The pairwise test runs only when
    dim <= rank. That bound is a free pre-filter, not a condition: a
    commutative semisimple subalgebra of M_r(Q) is a product of number
    fields acting faithfully on Q^r, so its dimension is at most r, and a
    larger algebra goes straight to group_algebra_center."""
    basis = algebra.basis
    if algebra.dim <= algebra.rank and all(
        rows_product(a.rows, b.rows) == rows_product(b.rows, a.rows)
        for a, b in combinations(basis, 2)
    ):
        return basis
    return group_algebra_center(algebra)


def group_algebra_center(algebra: EndoAlgebra) -> tuple[Matrix, ...]:
    """The center of the algebra, read off B = Q[J, G], the algebra that
    J and the group's linear parts L generate.

    The algebra is the commutant C(B). J commutes with every L and
    J^2 = -I, so B is spanned by the products J^a L (a = 0, 1) and is a
    quotient of the group algebra of the finite group they form, hence
    semisimple. The double centralizer theorem gives C(C(B)) = B, so
    Z(C(B)) = C(B) ∩ B = Z(B). A surjection of semisimple algebras maps
    center onto center, and J is central, so Z(B) is spanned by the
    conjugacy class sums S of the linear parts and by J S. The classes are
    the orbits under conjugation by the linear generators. The canonical
    basis is then that of the integer points of the span."""
    t = algebra.torus
    generators = algebra.commutants[1:]
    conjugators = [(g.inverse().rows, g.rows) for g in generators]
    todo = dict.fromkeys([Matrix.identity(t.rank).rows, *(m.rows for m in algebra.linear_parts)])
    sums = []
    while todo:
        first = next(iter(todo))
        orbit, frontier = {first}, [first]
        while frontier:
            x = frontier.pop()
            for g_inv, g in conjugators:
                y = rows_product(rows_product(g_inv, x), g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            del todo[x]
        sums.append(Matrix.trusted(tuple(tuple(map(sum, zip(*rows))) for rows in zip(*orbit)), True))
    vectors = [m.flat() for s in sums for m in (s, t.j @ s)]
    return tuple(
        Matrix._from_flat_entries(row, t.rank, True) for row in span_lattice(vectors)
    )

