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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .endo import EndoAlgebra, rosati_all
from .errors import InternalInvariantError, ValidationError
from .matrices import Matrix
from .polynomials import (
    Polynomial,
    count_real_roots,
    factor_squarefree_small,
    poly_xgcd,
)

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


def _flat_rank(mats: list[Matrix]) -> int:
    if not mats:
        return 0
    return Matrix.trusted(tuple(tuple(m.flat()) for m in mats)).rank()


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
    minimal polynomial, so output depends only on the algebra."""
    z, mu = primitive_center_element(algebra, algebra.center)
    try:
        irreducibles = factor_squarefree_small(mu)
    except ValueError:
        raise InternalInvariantError("center minimal polynomial must be squarefree") from None
    if sum(p.degree for p in irreducibles) != mu.degree:
        raise InternalInvariantError("center factorization lost degree")
    # e_i = L_i(z) for the Lagrange polynomial L_i of degree < k: one
    # product of the coefficient rows with the stacked powers of z, whose
    # denominators it clears once
    n, k = algebra.rank, mu.degree
    powers = [Matrix.identity(n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ z)
    lagranges = []
    for m_i in irreducibles:
        q_i = mu // m_i
        g, u, _ = poly_xgcd(q_i, m_i)
        if g.degree != 0:
            raise InternalInvariantError("center factors must be pairwise coprime")
        # poly_xgcd's u has degree below deg m_i, so u * q_i is reduced mod mu
        coeffs = (u * q_i).coeffs
        lagranges.append(coeffs + (0,) * (k - len(coeffs)))
    stacked = Matrix.trusted(tuple(tuple(p.flat()) for p in powers))
    flats = Matrix.trusted(tuple(lagranges)) @ stacked
    out = [
        (Matrix.trusted(tuple(row[i:i + n] for i in range(0, n * n, n))), m_i)
        for row, m_i in zip(flats.rows, irreducibles)
    ]
    total = Matrix.zeros(n, n)
    for e_i, _ in out:
        if (e_i @ e_i) != e_i:
            raise InternalInvariantError("central idempotent is not idempotent")
        if algebra.rosati(e_i) != e_i:
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


@dataclass(frozen=True)
class SimpleFactor:
    """One simple summand of the algebra, as seen through its idempotent.

    kind and size name the factor's shape over the reals per place of its
    center: size l real, m complex or t quaternion matrices."""

    kind: str
    size: int
    idempotent: Matrix
    center_poly: tuple
    center_degree: int
    places: int
    dim: int
    fixed_dim: int

    @property
    def label(self) -> str:
        return f"{self.kind}({self.size})"


@dataclass(frozen=True)
class WedderburnDecomposition:
    algebra: EndoAlgebra
    factors: tuple[SimpleFactor, ...]


def _classify_factor(
    algebra: EndoAlgebra, center: Sequence[Matrix], center_images: Sequence[Matrix],
    e: Matrix, m_poly: Polynomial,
) -> SimpleFactor:
    """The factor e @ b (e is central, so e @ b @ e = e @ b) has the fixed
    part e @ b + rosati(b) @ e, as rosati(x @ y) = rosati(y) @ rosati(x)
    and central_idempotents checks rosati(e) = e. So every factor reads
    the Rosati images of the basis and of the center, each built once."""
    cut = [e @ b for b in algebra.basis]
    dim = _flat_rank(cut)
    fixed = [c + r @ e for c, r in zip(cut, algebra.rosati_images)]
    fixed_dim = _flat_rank(fixed)
    center_cut = [e @ zb for zb in center]
    k = _flat_rank(center_cut)
    center_fixed = [c + r @ e for c, r in zip(center_cut, center_images)]
    f_z = _flat_rank(center_fixed)
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
    if dim % places or fixed_dim % places:
        raise ValidationError(
            "classification", "factor dimensions must be multiples of the place count"
        )
    kind, size = lookup_kind(dim // places, fixed_dim // places)
    return SimpleFactor(
        kind=kind,
        size=size,
        idempotent=e,
        center_poly=tuple(m_poly.monic().coeffs),
        center_degree=k,
        places=places,
        dim=dim,
        fixed_dim=fixed_dim,
    )


def decompose(algebra: EndoAlgebra) -> WedderburnDecomposition:
    """Split the algebra along its primitive central idempotents and
    classify every simple factor."""
    center = algebra.center
    center_images = rosati_all(algebra.torus, center)
    factors = []
    for e, m_poly in central_idempotents(algebra):
        factors.append(_classify_factor(algebra, center, center_images, e, m_poly))
    if sum(f.dim for f in factors) != algebra.dim:
        raise InternalInvariantError("factor dimensions must add up to the algebra")
    return WedderburnDecomposition(algebra, tuple(factors))
