"""Rational polyhedral fundamental domains for arithmetic actions on
positive cones, with exact certificates.

Everything here is integer or rational arithmetic: cones carry explicit
facet normals, form reductions return words in named generators whose
product is rechecked against the claimed output, and tiling verification
is a semi-decision procedure that replays each sample's search path on the
generators' matrices and reports every sample it could not reduce instead
of guessing.

A ``ReductionProblem`` holds one generator table, ``symmetric_generators``:
each generator and its inverse, deduplicated, with the index of each
entry's inverse. The compiled steps and the one word ball
(``WORD_LENGTH`` letters, read by both ``find_eta`` and
``find_interior_overlap``) are built from it once per problem.
``binary_quadratic_problem`` defines the form cone in one place: its
interior and closure tests, and the check that each generator maps the
cone onto itself.

Samples repeat (random words often land on the same point), so each
distinct point is tested for interiority once, and each distinct sample
is searched and rechecked once; a repeated sample shares the outcome of
its first occurrence, and a failure is still listed per occurrence.

The fixed small matrices that verification applies thousands of times are
compiled once per problem or cone (``_kernels.linear_map``): the
generators' steps and a domain's ray combination. A sample's orbit search
is one compiled function, ``_kernels.orbit_search``, built once per
verification before the first sample, and called on every distinct
sample: it tests its start first, and returns the empty path for a start
in the closed domain. It pops the least eta . v first, ties to the entry
pushed first, and expands lazily: entry (eta . g_k v, counter, v, k)
forms g_k v when popped, and drops an image already reached, uncounted by
``max_steps``. It returns the eager search's path, or None, at every
budget: the counter is monotone in push order, so ties break alike; two
entries for one node share a priority, so the first pushed, whose parent
the eager search records, pops first; so the claimed pops are the eager
pops, in order. Eta is bound as closure names, so the source does not
depend on the seed.

A sample is certified apart from the kernels: ``verify_tiling`` replays
the search's path, indices into the symmetric generators, on their rows
through the generic ``_apply`` and tests the end point with
``PolyhedralCone.contains``, a plain loop over the facets. Neither shares
code with any kernel, the compiled products (``_kernels.rows_product``)
that compose the word ball included, so a compiled step that disagrees
with its matrix shows as a failed recheck. The image of an overlap
witness under its word's matrix is rechecked the same way.

The samplers (``_tiling_samples`` and ``PolyhedralCone.interior_samples``)
draw each value inline from ``rng.getrandbits`` by the rejection rule of
CPython's ``randrange``: k = bit_length(width) bits per try, values >=
width rejected. So they read the same bits from the stream and return the
same values as ``rng.randint`` would, without the argument checks and the
three calls it makes per value: every sample list is the one ``randint``
gives, and no report depends on which of the two drew it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from math import isqrt
from operator import add, mul
from typing import Callable, Sequence

from ._kernels import linear_map, orbit_search
from .errors import (
    DeskScaleError,
    InternalInvariantError,
    SearchExhausted,
    ValidationError,
)
from .matrices import Matrix, integer_kernel_matrix, primitive_tuple, rows_product

MAX_CONE_DIM = 4
# the length of the word ball that find_eta and find_interior_overlap search
WORD_LENGTH = 4


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _apply(rows: tuple, v: Sequence) -> tuple:
    """rows @ v for a matrix given by its row tuples."""
    return tuple([sum(map(mul, row, v)) for row in rows])


@dataclass(frozen=True)
class PolyhedralCone:
    """Full-dimensional pointed rational cone, by rays and inward facet
    normals. Membership is a sign check against the facets."""

    rays: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    @classmethod
    def from_rays(cls, rays: Sequence[Sequence]) -> "PolyhedralCone":
        """Facet enumeration by brute force over ray subsets; intended for
        the low dimensions fundamental domains live in."""
        if not rays:
            raise ValidationError("cone_rays", "a cone needs at least one ray")
        dim = len(rays[0])
        if dim > MAX_CONE_DIM:
            raise DeskScaleError(f"facet enumeration is capped at dimension {MAX_CONE_DIM}")
        prim = []
        for r in rays:
            p = primitive_tuple(r)
            if p not in prim:
                prim.append(p)
        prim.sort()
        ray_mat = Matrix([list(r) for r in prim])
        if ray_mat.rank() != dim:
            raise ValidationError("cone_rank", "rays must span the ambient space")
        if dim == 1:
            sign = 1 if prim[0][0] > 0 else -1
            return cls(tuple(prim), ((sign,),))
        normals = []
        for subset in combinations(prim, dim - 1):
            sub = Matrix([list(r) for r in subset])
            if sub.rank() != dim - 1:
                continue
            for n in integer_kernel_matrix(sub).rows:
                side = [_dot(n, r) for r in prim]
                if all(s >= 0 for s in side):
                    cand = primitive_tuple(n)
                elif all(s <= 0 for s in side):
                    cand = primitive_tuple([-x for x in n])
                else:
                    continue
                if cand not in normals:
                    normals.append(cand)
        normals.sort()
        if not normals or Matrix([list(n) for n in normals]).rank() != dim:
            raise ValidationError("cone_pointed", "rays do not span a pointed full cone")
        return cls(tuple(prim), tuple(normals))

    def contains(self, v: Sequence, strict: bool = False) -> bool:
        for f in self.facets:
            side = sum(map(mul, f, v))
            if side < 0 or (strict and not side):
                return False
        return True

    @cached_property
    def _combine(self) -> Callable[[Sequence], tuple]:
        """Coefficients -> the combination of the rays, compiled once."""
        return linear_map(tuple(zip(*self.rays)))

    def interior_samples(self, count: int, seed: int) -> list[tuple[int, ...]]:
        """Deterministic strictly interior lattice points: positive random
        combinations of the rays, each coefficient rng.randint(1, 9)."""
        getrandbits = random.Random(seed).getrandbits
        combine = self._combine
        samples = []
        for _ in range(count):
            coefficients = []
            for _ in self.rays:
                r = getrandbits(4)
                while r >= 9:
                    r = getrandbits(4)
                coefficients.append(1 + r)
            samples.append(combine(coefficients))
        return samples


@dataclass(frozen=True)
class GroupWord:
    """Word in named generators with the composed group element.

    letters are (name, power) pairs in application order; matrix is the
    corresponding product under the convention of whoever built the word."""

    letters: tuple[tuple[str, int], ...]
    matrix: Matrix


# --- binary quadratic forms -------------------------------------------------

GAUSS_S = Matrix([[0, -1], [1, 0]])
GAUSS_T = Matrix([[1, 1], [0, 1]])
GAUSS_N = Matrix([[1, 0], [0, -1]])


def transform_form(form: Sequence[int], g: Matrix) -> tuple[int, int, int]:
    """Coefficients of the form pulled back along g (matrix g.T M g)."""
    a, b, c = form
    p, q = g[0, 0], g[0, 1]
    r, s = g[1, 0], g[1, 1]
    return (
        a * p * p + b * p * r + c * r * r,
        2 * (a * p * q + c * r * s) + b * (p * s + q * r),
        a * q * q + b * q * s + c * s * s,
    )


def is_gauss_reduced(form: Sequence[int]) -> bool:
    a, b, c = form
    return 0 <= b <= a <= c


def gauss_reduce(form: Sequence[int]) -> tuple[tuple[int, int, int], GroupWord]:
    """Reduce a positive definite integer form to 0 <= b <= a <= c.

    Returns the reduced form and a word w in S, T, N whose matrix g
    satisfies transform_form(form, g) == reduced; the identity is rechecked
    before returning.
    """
    a, b, c = (int(x) for x in form)
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise ValidationError("form_definite", "form must be positive definite")
    letters: list[tuple[str, int]] = []
    gamma = Matrix.identity(2)
    for _ in range(10_000):
        if 0 <= b <= a <= c:
            break
        k = (a - b) // (2 * a)  # shift b into (-a, a]
        if k != 0:
            tk = Matrix([[1, k], [0, 1]])
            a, b, c = transform_form((a, b, c), tk)
            gamma = gamma @ tk
            letters.append(("T", k))
        if a > c:
            a, b, c = transform_form((a, b, c), GAUSS_S)
            gamma = gamma @ GAUSS_S
            letters.append(("S", 1))
            continue
        if b < 0:
            a, b, c = transform_form((a, b, c), GAUSS_N)
            gamma = gamma @ GAUSS_N
            letters.append(("N", 1))
    else:
        raise InternalInvariantError("form reduction failed to terminate")
    word = GroupWord(tuple(letters), gamma)
    if transform_form(form, gamma) != (a, b, c):
        raise InternalInvariantError("reduction certificate does not recompose")
    return (a, b, c), word


P2_ACTION_S = Matrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
P2_ACTION_T = Matrix([[1, 0, 0], [2, 1, 0], [1, 1, 1]])
P2_ACTION_N = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
# the actions on (a, b, c) of the letters gauss_reduce writes its words in
P2_GENERATORS = (("S", P2_ACTION_S), ("T", P2_ACTION_T), ("N", P2_ACTION_N))


# --- real quadratic units ---------------------------------------------------

@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int
    norm: int


def pell_fundamental_unit(d: int) -> PellSolution:
    """Smallest (x, y) with x^2 - d y^2 = +-1, by the continued fraction
    of sqrt(d); the period closes at the first partial quotient equal to
    twice the integer square root."""
    if d <= 1:
        raise ValidationError("pell_input", "d must be at least 2")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValidationError("pell_input", "d must not be a perfect square")
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for _ in range(10 * d + 100):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0:
            return PellSolution(h, k, h * h - d * k * k)
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    raise InternalInvariantError("continued fraction period did not close")


def pell_positive_unit(d: int) -> tuple[int, int]:
    """Smallest (x, y) with x^2 - d y^2 = +1."""
    s = pell_fundamental_unit(d)
    if s.norm == 1:
        return (s.x, s.y)
    return (s.x * s.x + d * s.y * s.y, 2 * s.x * s.y)


# --- hyperbolic rank two domains --------------------------------------------

def hyperbolic_domain(action: Matrix, base: Sequence[int]) -> PolyhedralCone:
    """Fundamental cone for the infinite cyclic group generated by a
    hyperbolic lattice map: the sector between base and action @ base.

    Requires determinant one, trace above two, and a nonsquare discriminant
    (so the eigenrays are irrational and the map has infinite order); base
    must not be an eigenvector. Positivity of base in whatever cone the
    action preserves is the caller's obligation.
    """
    if action.shape != (2, 2) or not action.is_integral:
        raise ValidationError("hyperbolic_action", "action must be 2x2 integral")
    det = action.det()
    tau = action.trace()
    if det != 1:
        raise ValidationError("hyperbolic_action", f"determinant must be 1, got {det}")
    if tau <= 2:
        raise ValidationError("hyperbolic_action", f"trace must exceed 2, got {tau}")
    disc = tau * tau - 4
    if isqrt(disc) ** 2 == disc:
        raise ValidationError(
            "hyperbolic_action", "discriminant must not be a perfect square"
        )
    image = _apply(action.rows, base)
    if base[0] * image[1] - base[1] * image[0] == 0:
        raise ValidationError("hyperbolic_base", "base ray must not be an eigenvector")
    return PolyhedralCone.from_rays([tuple(base), image])


# --- reduction problems -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReductionProblem:
    """Arithmetic group acting by integer matrices on lattice coordinates,
    preserving an open cone with an exact membership test.

    pairing must be positive on (interior, closure - 0) pairs; it is how
    dual-interior covectors are produced.
    """

    dim: int
    generators: tuple[tuple[str, Matrix], ...]
    pairing: Matrix
    base_point: tuple[int, ...]
    is_interior: Callable[[Sequence], bool]
    is_closure: Callable[[Sequence], bool]

    def __post_init__(self):
        for name, m in self.generators:
            if m.shape != (self.dim, self.dim) or not m.is_integral:
                raise ValidationError("generator_shape", f"generator {name} is not a {self.dim}x{self.dim} integer matrix")
            if m.det() not in (1, -1):
                raise ValidationError("generator_unimodular", f"generator {name} must be unimodular")
        if not self.is_interior(self.base_point):
            raise ValidationError("base_point", "base point must be interior")

    @cached_property
    def symmetric_generators(self) -> tuple[tuple[str, Matrix, int], ...]:
        """Generators and their inverses, deduplicated by matrix: the
        problem's one generator table. Entry k is (name, matrix, index of
        the matrix's inverse), so the table is closed under inversion."""
        entries = {}  # matrix -> (name, its inverse), in first-seen order
        for name, m in self.generators:
            m = Matrix([[int(x) for x in row] for row in m.rows])
            inv = Matrix([[int(x) for x in row] for row in m.inverse().rows])
            entries.setdefault(m, (name, inv))
            entries.setdefault(inv, (name + "~", m))
        index = {m: k for k, m in enumerate(entries)}
        return tuple((name, m, index[inv]) for m, (name, inv) in entries.items())

    @cached_property
    def steps(self) -> tuple[Callable[[Sequence], tuple], ...]:
        """v -> g @ v for each symmetric generator g, in the same order,
        compiled once per problem."""
        return tuple(linear_map(m.rows) for _, m, _ in self.symmetric_generators)

    @cached_property
    def word_ball(self) -> tuple[tuple[tuple[tuple[str, int], ...], tuple], ...]:
        """All nontrivial group elements reachable by words of length up to
        WORD_LENGTH, one shortest word each, identity excluded, as
        (letters, row tuples) pairs: the ball find_eta and
        find_interior_overlap both search."""
        gens = [(name, m.rows) for name, m, _ in self.symmetric_generators]
        ident = Matrix.identity(self.dim).rows
        frontier = [((), ident)]
        seen = {ident}
        found = []
        for _ in range(WORD_LENGTH):
            nxt = []
            for letters, rows in frontier:
                for name, gen in gens:
                    image = rows_product(gen, rows)
                    if image in seen:
                        continue
                    seen.add(image)
                    nxt.append((letters + ((name, 1),), image))
            found.extend(nxt)
            frontier = nxt
        return tuple(found)


def binary_quadratic_problem(generators: Sequence[tuple[str, Matrix]] = ()) -> ReductionProblem:
    """Unimodular changes of variable acting on positive definite binary
    forms in (a, b, c) coordinates, by the named generators, or by S, T and
    N when none are given.

    After ReductionProblem's shape and unimodularity checks, each generator
    must map the cone, the half a > 0 of b^2 - 4ac < 0, onto itself: it
    preserves the discriminant and keeps the base point interior."""

    def interior(v: Sequence) -> bool:
        a, b, c = v
        return a > 0 and 4 * a * c - b * b > 0

    def closure(v: Sequence) -> bool:
        a, b, c = v
        return a >= 0 and c >= 0 and 4 * a * c - b * b >= 0

    problem = ReductionProblem(
        dim=3,
        generators=tuple(generators) or P2_GENERATORS,
        pairing=Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 2]]),
        base_point=(1, 0, 1),
        is_interior=interior,
        is_closure=closure,
    )
    # v.T @ disc @ v = b^2 - 4ac for the form v = (a, b, c)
    disc = Matrix([[0, 0, -2], [0, 1, 0], [-2, 0, 0]])
    for name, g in problem.generators:
        if g.T @ disc @ g != disc or not interior(_apply(g.rows, problem.base_point)):
            raise ValidationError(
                "generator_cone", f"generator {name} must map the cone of positive forms onto itself"
            )
    return problem


def find_eta(
    problem: ReductionProblem,
    seed: int = 42,
    max_candidates: int = 1000,
) -> tuple[int, ...]:
    """A covector positive on the closed cone minus zero and not fixed by
    any short nontrivial word.

    Candidates are pairings against interior lattice points, which makes
    cone positivity exact; genericity is enforced against the word ball.
    """
    transposes = [tuple(zip(*rows)) for _, rows in problem.word_ball]
    pairing = problem.pairing.rows
    rng = random.Random(seed)
    base = problem.base_point
    tried = 0
    scale = 1
    while tried < max_candidates:
        tried += 1
        pt = tuple(
            scale * x + rng.randint(-scale, scale) for x in base
        )
        if tried % 50 == 0:
            scale += 1
        if not problem.is_interior(pt):
            continue
        eta = primitive_tuple(_apply(pairing, pt))
        if any(_apply(t, eta) == eta for t in transposes):
            continue
        return eta
    raise SearchExhausted(
        f"no generic dual-interior covector within {max_candidates} candidates"
    )


@dataclass(frozen=True)
class TilingFailure:
    point: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class TilingReport:
    samples: int
    verified: int
    eta: tuple[int, ...]
    failures: tuple[TilingFailure, ...] = field(default=())

    @property
    def complete(self) -> bool:
        """Every sample verified, and at least one sample checked: a run
        of zero samples certifies nothing."""
        return self.samples > 0 and self.verified == self.samples and not self.failures


def _tiling_samples(
    problem: ReductionProblem,
    domain: PolyhedralCone,
    count: int,
    seed: int,
) -> list[tuple[int, ...]]:
    """Half scattered interior points, half adversarial images of domain
    points under random words. Each distinct candidate is tested for
    interiority once. Each value is rng.randint's, drawn inline."""
    is_interior = problem.is_interior
    verdicts: dict[tuple, bool] = {}
    getrandbits = random.Random(seed).getrandbits
    base = problem.base_point
    samples = []
    attempts = 0
    scale = 2
    width = 6 * scale + 1  # randint(-3 * scale, 3 * scale)
    bits = width.bit_length()
    while len(samples) < count // 2 and attempts < 200 * count:
        attempts += 1
        coords = []
        for x in base:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            coords.append(scale * (x - 3) + r)
        pt = tuple(coords)
        if attempts % 100 == 0:
            scale += 1
            width = 6 * scale + 1
            bits = width.bit_length()
        known = verdicts.get(pt)
        if known is None:
            known = verdicts[pt] = is_interior(pt)
        if known:
            samples.append(pt)
    steps = problem.steps
    letters = len(steps)  # randint(0, letters - 1) picks a step
    letter_bits = letters.bit_length()
    inner = domain.interior_samples(count - len(samples), seed + 1)
    for pt in inner:
        cur = pt
        if steps:
            n = getrandbits(4)  # the word has randint(1, 8) = n + 1 letters
            while n >= 8:
                n = getrandbits(4)
            for _ in range(n + 1):
                r = getrandbits(letter_bits)
                while r >= letters:
                    r = getrandbits(letter_bits)
                cur = steps[r](cur)
        known = verdicts.get(cur)
        if known is None:
            known = verdicts[cur] = is_interior(cur)
        samples.append(cur if known else pt)
    return samples


def verify_tiling(
    problem: ReductionProblem,
    domain: PolyhedralCone,
    samples: int = 1000,
    seed: int = 42,
    max_steps: int = 20_000,
    eta: tuple[int, ...] | None = None,
) -> TilingReport:
    """Semi-decision that the domain tiles the cone under the group: every
    sampled interior point must reduce into the domain along a path that,
    replayed on the generators' matrices, ends in the domain. Failures are
    reported, never silently dropped: one entry per occurrence, though each
    distinct point is searched once."""
    if eta is None:
        eta = find_eta(problem, seed=seed)
    for r in domain.rays:
        if not problem.is_closure(r):
            raise ValidationError("domain_rays", "domain must sit inside the closed cone")
    pts = _tiling_samples(problem, domain, samples, seed)
    gens = [m.rows for _, m, _ in problem.symmetric_generators]
    inverses = [k for _, _, k in problem.symmetric_generators]
    search = orbit_search(gens, inverses, eta, domain.facets)
    outcomes: dict[tuple, TilingFailure | None] = {}
    verified = 0
    failures = []
    for pt in pts:
        if pt in outcomes:
            failure = outcomes[pt]
        else:
            path = search(pt, max_steps)
            if path is None:
                failure = TilingFailure(pt, "search budget exhausted")
            else:
                end = pt
                for k in path:
                    end = _apply(gens[k], end)
                if domain.contains(end):
                    failure = None
                else:
                    failure = TilingFailure(pt, "certificate recheck failed")
            outcomes[pt] = failure
        if failure is None:
            verified += 1
        else:
            failures.append(failure)
    return TilingReport(len(pts), verified, eta, tuple(failures))


@dataclass(frozen=True)
class OverlapWitness:
    word: GroupWord
    point: tuple[int, ...]
    image: tuple[int, ...]


def find_interior_overlap(
    problem: ReductionProblem,
    domain: PolyhedralCone,
    seed: int = 42,
    samples: int = 200,
) -> OverlapWitness | None:
    """Search for a nontrivial group element carrying an interior domain
    point to another interior domain point, over the problem's word ball.
    None means no witness was found at this search size, not a proof of
    disjointness.

    M carries a point p into the open domain exactly when p is strictly
    inside every facet pulled back through M (f.M p > 0), so each element
    filters the points by its pulled-back facets, and the image is formed
    and rechecked only for a witness. Each distinct sample point is
    filtered once, in order of first occurrence.

    The sample points are strictly positive combinations of the domain's
    rays, so an element with a pulled-back facet that is <= 0 on every
    ray carries none of them inside; it is skipped without filtering."""
    pts = [
        p for p in dict.fromkeys(domain.interior_samples(samples, seed))
        if domain.contains(p, strict=True)
    ]
    on_rays = linear_map(domain.rays)
    for letters, rows in problem.word_ball:
        cols = tuple(zip(*rows))
        pulled = [_apply(cols, f) for f in domain.facets]
        if any(max(on_rays(p)) <= 0 for p in pulled):
            continue
        inside = pts
        for p in pulled:
            inside = [q for q in inside if _dot(p, q) > 0]
            if not inside:
                break
        else:
            image = _apply(rows, inside[0])
            if not domain.contains(image, strict=True):
                raise InternalInvariantError("pulled-back facets disagree with the image")
            return OverlapWitness(GroupWord(letters, Matrix(rows)), inside[0], image)
    return None


# --- quotient transfer ------------------------------------------------------

@dataclass(frozen=True)
class PushdownReport:
    """Transfer of a fundamental domain to the quotient picture.

    pullback includes invariant coordinates into the full form lattice;
    pushforward is solved from pullback @ pushforward = sum of the group
    pullbacks, and their composite must be the group order exactly."""

    pullback: Matrix
    pushforward: Matrix
    group_order: int
    verified: bool


def pushdown_domain(structure) -> PushdownReport:
    """Certify that invariant coordinates compute the quotient form space:
    the transfer identities make a domain in invariant coordinates a
    domain downstairs."""
    full = structure.ns
    inv = structure.invariant
    pullback = full.matrix_of(inv.basis)
    linears = [g.linear for g in structure.group.elements]
    transfer = full.matrix_of(
        [reduce(add, [g.T @ b @ g for g in linears]) for b in full.basis]
    )
    pushforward = pullback.solve(transfer)
    if pushforward is None:
        raise InternalInvariantError("group transfer left the invariant span")
    order = structure.group.order
    expected = Matrix.identity(inv.rank) * order
    verified = (pushforward @ pullback) == expected
    return PushdownReport(
        pullback=pullback,
        pushforward=pushforward,
        group_order=order,
        verified=verified,
    )
