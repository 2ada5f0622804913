"""Decomposition of an involutive endomorphism algebra into simple factors
and classification of each factor by its split type over the reals.

A semisimple algebra with a positive involution splits along primitive
central idempotents. Each simple factor is classified by two exact counts,
normalized per real or complex place of its center:

    d = dim of the factor / places     f = dim of the involution-fixed part / places

    RealMatrix(l)       d = l^2      f = l(l+1)/2
    ComplexMatrix(m)    d = 2m^2     f = m^2
    QuaternionMatrix(t) d = 4t^2     f = 2t^2 - t

The three families are disjoint (f/d is > 1/2, = 1/2, < 1/2 respectively),
so lookup_kind reads the kind from these closed forms at any size.

A fixed part's dimension is that of its forms E @ (x + rosati(x)) =
E @ x - (E @ x).T (endo.form_vectors), as E is invertible; each factor
keeps the canonical basis of their integer points, its cone piece.

Two shapes skip work that the general route would spend on identities:

    commutative    the algebra is its own center (endo.center_basis), so
                   the cuts of its basis give the center's counts too
    simple         the only central idempotent is I, so there is no
                   q(z) + m(z) to invert, no idempotent check, and a
                   factor's cut is the basis itself, whose forms and
                   their lattice are the algebra's (EndoAlgebra.form_lattice)
"""

from __future__ import annotations

import random
from math import isqrt
from typing import Sequence

from ._record import Record
from .endo import EndoAlgebra, form_vectors
from .errors import InternalInvariantError, ValidationError
from .matrices import Matrix, span_lattice
from .polynomials import Polynomial, count_real_roots, factor_squarefree_small

# (kind, s, fixed dimension f of size n) with d = s * n^2, per the table above
KINDS = (
    ("RealMatrix", 1, lambda n: n * (n + 1) // 2),
    ("ComplexMatrix", 2, lambda n: n * n),
    ("QuaternionMatrix", 4, lambda n: 2 * n * n - n),
)


def lookup_kind(d: int, f: int) -> tuple[str, int]:
    """Kind and size for normalized (dimension, fixed dimension) per place.
    d fixes the size of each kind and f tells the kinds apart, so there is
    no size cap."""
    for kind, scale, fixed in KINDS:
        size = isqrt(d // scale)
        if size and scale * size * size == d and fixed(size) == f:
            return kind, size
    raise ValidationError(
        "classification", f"no involutive matrix kind has (d, f) = ({d}, {f})"
    )


def minimal_polynomial(m: Matrix, k: int) -> Polynomial:
    """Monic minimal polynomial of a square matrix whose degree is at most
    k: the first power m^d that depends on I, m, ..., m^(d-1). One
    elimination over the columns vec(I), vec(m), ..., vec(m^k) finds it:
    the pivot columns are 0, ..., d-1, and reduced column d holds the
    coordinates of m^d in the lower powers. k = m.nrows always bounds the
    degree (Cayley-Hamilton); an element of a k-dimensional commutative
    algebra has degree at most k."""
    powers = [Matrix.identity(m.nrows)]
    for _ in range(k):
        powers.append(powers[-1] @ m)
    reduced, pivots = Matrix.trusted(tuple(zip(*(p.flat() for p in powers)))).rref()
    d = len(pivots)
    if d > k:
        raise InternalInvariantError(f"minimal polynomial has degree above {k}")
    return Polynomial([-reduced[i, d] for i in range(d)] + [1])


def _rank(vectors: list) -> int:
    return Matrix.trusted(tuple(map(tuple, vectors))).rank()


# Fixed, so center_poly and the factor order depend on the algebra alone; kept
# because the height sweep alone picks other elements in four corpus reports.
_CANDIDATE_SEED = 42


def _center_coefficients(k: int):
    """Coefficient vectors to try: 32 drawn from _CANDIDATE_SEED with entries
    in [-3, 3], then for each height 1, ..., 15 every nonzero vector with
    entries in [-height, height], in a fixed order."""
    rng = random.Random(_CANDIDATE_SEED)
    for _ in range(32):
        yield [rng.randint(-3, 3) for _ in range(k)]
    for height in range(1, 16):
        stack = [[]]
        while stack:
            prefix = stack.pop()
            if len(prefix) == k:
                if any(prefix):
                    yield prefix
                continue
            for c in range(-height, height + 1):
                stack.append(prefix + [c])


def primitive_center_element(algebra: EndoAlgebra, center: Sequence[Matrix]) -> tuple[Matrix, Polynomial]:
    """An element generating the center as a Q-algebra, with its minimal
    polynomial (degree equals the center dimension).

    Low-height combinations from a fixed candidate list almost always work;
    a growing-height sweep backs them up, so the search cannot fail on a
    genuine product of number fields and depends on its input alone.
    """
    k = len(center)
    if k == 1:
        z = center[0]
        return z, minimal_polynomial(z, 1)
    for coeffs in _center_coefficients(k):
        z = Matrix.zeros(algebra.rank, algebra.rank)
        for c, b in zip(coeffs, center):
            if c:
                z = z + b * c
        mu = minimal_polynomial(z, k)
        if mu.degree == k:
            return z, mu
    raise InternalInvariantError("center admits no primitive element")


def central_idempotents(algebra: EndoAlgebra) -> list[tuple[Matrix, Polynomial]]:
    """Primitive central idempotents of the algebra, paired with the
    irreducible polynomial cutting out the matching center field.

    Ordering follows the sorted factor list of the primitive element's
    minimal polynomial, so output depends only on the algebra.

    When that polynomial is irreducible the algebra is simple, and its
    only central idempotent is I: idempotent, fixed by the involution,
    and summing to I on its own. The factoring, and its degree and budget
    errors, still run first."""
    z, mu = primitive_center_element(algebra, algebra.center)
    try:
        irreducibles = factor_squarefree_small(mu)
    except ValueError:
        raise InternalInvariantError("center minimal polynomial must be squarefree") from None
    if sum(p.degree for p in irreducibles) != mu.degree:
        raise InternalInvariantError("center factorization lost degree")
    if len(irreducibles) == 1:
        return [(Matrix.identity(algebra.rank), irreducibles[0])]
    # e_i = q_i(z) @ (q_i(z) + m_i(z))^-1 for q_i = mu / m_i: on the i-th
    # summand m_i(z) is 0 and q_i(z) invertible, on every other q_i(z) is
    # 0 and m_i(z) invertible, so the sum is invertible exactly when the
    # factors are coprime. Both have degree below k: one product of their
    # coefficient rows with the stacked powers of z evaluates them all
    n, k = algebra.rank, mu.degree
    powers = [Matrix.identity(n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ z)
    rows = []
    for m_i in irreducibles:
        q_i = mu // m_i
        for p in (q_i, q_i + m_i):
            rows.append(p.coeffs + (0,) * (k - len(p.coeffs)))
    stacked = Matrix.trusted(tuple(tuple(p.flat()) for p in powers))
    flats = (Matrix.trusted(tuple(rows)) @ stacked).rows
    values = [Matrix.trusted(tuple(row[i:i + n] for i in range(0, n * n, n))) for row in flats]
    out = []
    for q_z, sum_z, m_i in zip(values[::2], values[1::2], irreducibles):
        try:
            inverse = sum_z.inverse()
        except ValueError:
            raise InternalInvariantError("center factors must be pairwise coprime") from None
        out.append((q_z @ inverse, m_i))
    total = Matrix.zeros(n, n)
    for e_i, _ in out:
        if (e_i @ e_i) != e_i:
            raise InternalInvariantError("central idempotent is not idempotent")
        # rosati(e) = e exactly when E @ e is alternating, as E @ rosati(e) = e.T @ E
        if not (algebra.torus.e @ e_i).is_alternating:
            raise InternalInvariantError(
                "a positive involution must fix each central idempotent"
            )
        total = total + e_i
    for a, (ea, _) in enumerate(out):
        for eb, _ in out[a + 1 :]:
            if not (ea @ eb).is_zero:
                raise InternalInvariantError("central idempotents must be orthogonal")
    if total != Matrix.identity(n):
        raise InternalInvariantError("central idempotents must sum to the identity")
    return out


class SimpleFactor(Record):
    """One simple summand of the algebra, as seen through its idempotent.

    kind and size name the factor's shape over the reals per place of its
    center: size l real, m complex or t quaternion matrices. forms is the
    canonical basis (flat rows) of the integral forms of its cut e @ b."""

    __slots__ = _fields = (
        "kind", "size", "idempotent", "center_poly", "center_degree", "places", "dim", "forms"
    )

    def __init__(
        self,
        kind: str,
        size: int,
        idempotent: Matrix,
        center_poly: tuple,
        center_degree: int,
        places: int,
        dim: int,
        forms: tuple[tuple[int, ...], ...],
    ):
        self.kind = kind
        self.size = size
        self.idempotent = idempotent
        self.center_poly = center_poly
        self.center_degree = center_degree
        self.places = places
        self.dim = dim
        self.forms = forms

    @property
    def fixed_dim(self) -> int:
        return len(self.forms)

    @property
    def label(self) -> str:
        return f"{self.kind}({self.size})"


class WedderburnDecomposition(Record):
    __slots__ = _fields = ("algebra", "factors")

    def __init__(self, algebra: EndoAlgebra, factors: tuple[SimpleFactor, ...]):
        self.algebra = algebra
        self.factors = factors


def _cut(mats: Sequence[Matrix], e: Matrix, whole: bool) -> tuple[int, Sequence[Matrix]]:
    """The cut e @ m of independent matrices, with its rank. whole says
    that e = I (a single factor), whose cut is the matrices themselves."""
    if whole:
        return len(mats), mats
    cut = [e @ m for m in mats]
    return _rank([c.flat() for c in cut]), cut


def _classify_factor(
    algebra: EndoAlgebra, e: Matrix, m_poly: Polynomial, whole: bool
) -> SimpleFactor:
    """The factor e @ b (e is central, so e @ b @ e = e @ b) has the fixed
    part x + rosati(x) for x = e @ b, and rosati(e @ b) = rosati(b) @ e
    because central_idempotents checks rosati(e) = e. The center's counts
    are the basis's when the algebra is its own center."""
    dim, cut = _cut(algebra.basis, e, whole)
    forms = algebra.form_lattice if whole else span_lattice(form_vectors(algebra.torus, cut))
    if algebra.center is algebra.basis:
        k, f_z = dim, len(forms)
    else:
        k, center = _cut(algebra.center, e, whole)
        f_z = _rank(form_vectors(algebra.torus, center))
    real_roots = count_real_roots(m_poly)
    if f_z == k:
        if real_roots != k:
            raise ValidationError(
                "classification",
                "an involution-fixed center must be a totally real field",
            )
        places = k
    elif 2 * f_z == k:
        if real_roots != 0:
            raise ValidationError(
                "classification",
                "a center with halved fixed part must be totally imaginary",
            )
        places = f_z
    else:
        raise ValidationError(
            "classification", f"center of degree {k} fixes dimension {f_z}"
        )
    if dim % places or len(forms) % places:
        raise ValidationError(
            "classification", "factor dimensions must be multiples of the place count"
        )
    kind, size = lookup_kind(dim // places, len(forms) // places)
    return SimpleFactor(
        kind=kind,
        size=size,
        idempotent=e,
        center_poly=tuple(m_poly.monic().coeffs),
        center_degree=k,
        places=places,
        dim=dim,
        forms=forms,
    )


def decompose(algebra: EndoAlgebra) -> WedderburnDecomposition:
    """Split the algebra along its primitive central idempotents and
    classify every simple factor."""
    idempotents = central_idempotents(algebra)
    whole = len(idempotents) == 1
    factors = [_classify_factor(algebra, e, m_poly, whole) for e, m_poly in idempotents]
    if sum(f.dim for f in factors) != algebra.dim:
        raise InternalInvariantError("factor dimensions must add up to the algebra")
    return WedderburnDecomposition(algebra, tuple(factors))
