"""Rational polyhedral fundamental domains for arithmetic actions on
positive cones, with exact certificates.

Everything here is integer or rational arithmetic: cones carry explicit
facet normals, form reductions return words in named generators whose
product is rechecked against the claimed output, and tiling verification
is a semi-decision procedure that rechecks each sample's search path on
the generators' matrices and reports every sample it could not reduce
instead of guessing.

A ``ReductionProblem`` holds one generator table, ``symmetric_generators``:
each generator and its inverse, deduplicated, with the index of each
entry's inverse. The compiled steps and the one word ball
(``WORD_LENGTH`` letters, read with its transposes by both ``find_eta``
and ``find_interior_overlap``) are built from it once per problem.
``binary_quadratic_problem`` defines the form cone in one place: its
interior and closure tests, and the check that each generator maps the
cone onto itself.

Samples repeat (random words often land on the same point), so each
distinct point is tested for interiority once, and each distinct sample
is searched and rechecked once: occurrences are counted first, and a
failure is still listed per occurrence, in sample order.

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

A sample is certified apart from the kernels. The search returns a path
k1, ..., kL of indices into the symmetric generators, and the sample v
reduces into the domain when g_kL ... g_k1 v is on the inner side of
every facet f, that is when (f . g_kL ... g_k1) . v >= 0. ``verify_tiling``
tests v against these pulled-back facets. Those of a path are the ones of
its suffix k2, ..., kL times g_k1, so they are formed once per distinct
suffix, by the generic ``_apply`` on the transposed rows of the
generators' matrices; random samples share few paths (about 80 over the
1000 samples of ``p2_minkowski``). Neither this nor the facet test shares
code with any kernel, the compiled products (``_kernels.rows_product``)
that compose the word ball included, so a compiled step that disagrees
with its matrix shows as a failed recheck. The image of an overlap
witness under its word's matrix is rechecked with
``PolyhedralCone.contains``.

Every random value is the one ``rng.randint`` would give, from the same
bits of the stream, without the argument checks and the three calls it
makes per value; so no sample list, eta or report depends on how a value
was drawn. randint(a, b) draws r = getrandbits(k), k = bit_length(width)
for width = b - a + 1, until r < width, and returns a + r (randrange(n)
is the case a = 0). The scattered points, word lengths and letters of
``_tiling_samples`` and ``find_eta``'s offsets follow that rule inline. ``PolyhedralCone.interior_samples``
reads its coefficients, each randint(1, 9), in bulk: getrandbits(32 n)
returns n outputs of the generator as little-endian 32-bit words, and
getrandbits(4) is the top 4 bits of one output, the high nibble of its
top byte b. That nibble is below 9 exactly when b < 144, so a
``bytes.translate`` of the top bytes that deletes 144-255 and maps b to
1 + (b >> 4) gives the values in order. Each read takes one output per
value still missing, so the reads end on the output that gives the last
value, as randint's would.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property, reduce
from itertools import combinations
from math import isqrt
from operator import add, mul
from typing import Callable, Sequence

from ._kernels import linear_map, orbit_search
from ._record import Record
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
# randint(1, 9) on one 32-bit output: its top 4 bits r, kept when r < 9, give
# 1 + r; so a top byte b < 144 gives 1 + (b >> 4), and b >= 144 is rejected
_COEFFICIENT_OF_TOP_BYTE = bytes([1 + (b >> 4) for b in range(144)] + [0] * 112)
_REJECTED_TOP_BYTES = bytes(range(144, 256))


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _apply(rows: tuple, v: Sequence) -> tuple:
    """rows @ v for a matrix given by its row tuples."""
    return tuple([sum(map(mul, row, v)) for row in rows])


class PolyhedralCone(Record):
    """Full-dimensional pointed rational cone, by rays and inward facet
    normals. Membership is a sign check against the facets."""

    _fields = ("rays", "facets")

    def __init__(self, rays: tuple[tuple[int, ...], ...], facets: tuple[tuple[int, ...], ...]):
        self.rays = rays
        self.facets = facets

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
        combinations of the rays, each coefficient rng.randint(1, 9),
        read in bulk (the module docstring says why they are equal)."""
        getrandbits = random.Random(seed).getrandbits
        rays = len(self.rays)
        needed = count * rays
        coefficients = b""
        while len(coefficients) < needed:
            # one output per value still needed; each rejected one leaves a
            # shortfall that the next read tops up
            n = needed - len(coefficients)
            top = getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
            coefficients += top.translate(_COEFFICIENT_OF_TOP_BYTE, _REJECTED_TOP_BYTES)
        combine = self._combine
        return [combine(coefficients[i:i + rays]) for i in range(0, needed, rays)]


class GroupWord(Record):
    """Word in named generators with the composed group element.

    letters are (name, power) pairs in application order; matrix is the
    corresponding product under the convention of whoever built the word."""

    __slots__ = _fields = ("letters", "matrix")

    def __init__(self, letters: tuple[tuple[str, int], ...], matrix: Matrix):
        self.letters = letters
        self.matrix = matrix


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

class PellSolution(Record):
    __slots__ = _fields = ("x", "y", "norm")

    def __init__(self, x: int, y: int, norm: int):
        self.x = x
        self.y = y
        self.norm = norm


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

class ReductionProblem(Record):
    """Arithmetic group acting by integer matrices on lattice coordinates,
    preserving an open cone with an exact membership test.

    pairing must be positive on (interior, closure - 0) pairs; it is how
    dual-interior covectors are produced. Problems compare by identity.
    """

    _fields = ("dim", "generators", "pairing", "base_point", "is_interior", "is_closure")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        dim: int,
        generators: tuple[tuple[str, Matrix], ...],
        pairing: Matrix,
        base_point: tuple[int, ...],
        is_interior: Callable[[Sequence], bool],
        is_closure: Callable[[Sequence], bool],
    ):
        self.dim = dim
        self.generators = generators
        self.pairing = pairing
        self.base_point = base_point
        self.is_interior = is_interior
        self.is_closure = is_closure
        for name, m in generators:
            if m.shape != (dim, dim) or not m.is_integral:
                raise ValidationError("generator_shape", f"generator {name} is not a {dim}x{dim} integer matrix")
            if m.det() not in (1, -1):
                raise ValidationError("generator_unimodular", f"generator {name} must be unimodular")
        if not is_interior(base_point):
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

    @cached_property
    def word_ball_transposes(self) -> tuple[tuple, ...]:
        """The transpose of each word_ball element, as row tuples, in the
        same order: eta . M is M.T @ eta, and f . M is M.T @ f."""
        return tuple(tuple(zip(*rows)) for _, rows in self.word_ball)


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
    The candidate point's offsets are rng.randint(-scale, scale), drawn
    inline; a point drawn again is rejected again, so each distinct point
    is tested once.
    """
    transposes = problem.word_ball_transposes
    pairing = problem.pairing.rows
    is_interior = problem.is_interior
    getrandbits = random.Random(seed).getrandbits
    base = problem.base_point
    tested = set()
    tried = 0
    scale = 1
    width = 2 * scale + 1  # randint(-scale, scale) = r - scale, r < width
    bits = width.bit_length()
    while tried < max_candidates:
        tried += 1
        coords = []
        for x in base:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            coords.append(scale * x - scale + r)
        pt = tuple(coords)
        if tried % 50 == 0:
            scale += 1
            width = 2 * scale + 1
            bits = width.bit_length()
        if pt in tested:
            continue
        tested.add(pt)
        if not is_interior(pt):
            continue
        eta = primitive_tuple(_apply(pairing, pt))
        first = eta[0]
        if any(_dot(t[0], eta) == first and _apply(t, eta) == eta for t in transposes):
            continue
        return eta
    raise SearchExhausted(
        f"no generic dual-interior covector within {max_candidates} candidates"
    )


class TilingFailure(Record):
    __slots__ = _fields = ("point", "reason")

    def __init__(self, point: tuple[int, ...], reason: str):
        self.point = point
        self.reason = reason


class TilingReport(Record):
    __slots__ = _fields = ("samples", "verified", "eta", "failures")

    def __init__(
        self,
        samples: int,
        verified: int,
        eta: tuple[int, ...],
        failures: tuple[TilingFailure, ...] = (),
    ):
        self.samples = samples
        self.verified = verified
        self.eta = eta
        self.failures = failures

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
    sampled interior point must reduce into the domain along a path whose
    word, applied on the generators' matrices, ends in the domain.
    Failures are reported, never silently dropped: one entry per
    occurrence, though each distinct point is searched once. A path is
    rechecked on the domain's facets pulled back through its word (the
    module docstring says how)."""
    if eta is None:
        eta = find_eta(problem, seed=seed)
    for r in domain.rays:
        if not problem.is_closure(r):
            raise ValidationError("domain_rays", "domain must sit inside the closed cone")
    pts = _tiling_samples(problem, domain, samples, seed)
    table = problem.symmetric_generators
    gens = [m.rows for _, m, _ in table]
    transposes = [tuple(zip(*rows)) for rows in gens]
    search = orbit_search(gens, [k for _, _, k in table], eta, domain.facets)
    pulled_back = {(): domain.facets}  # path suffix -> f . (its word) per facet f
    occurrences = Counter(pts)
    failed: dict[tuple, TilingFailure] = {}
    verified = 0
    for pt, count in occurrences.items():
        path = search(pt, max_steps)
        if path is None:
            failed[pt] = TilingFailure(pt, "search budget exhausted")
            continue
        facets = pulled_back.get(path)
        if facets is None:
            known = 1  # the longest suffix already pulled back starts here
            while path[known:] not in pulled_back:
                known += 1
            facets = pulled_back[path[known:]]
            for j in range(known - 1, -1, -1):
                facets = pulled_back[path[j:]] = tuple([_apply(transposes[path[j]], f) for f in facets])
        for f in facets:
            if sum(map(mul, f, pt)) < 0:
                failed[pt] = TilingFailure(pt, "certificate recheck failed")
                break
        else:
            verified += count
    failures = tuple(failed[pt] for pt in pts if pt in failed) if failed else ()
    return TilingReport(len(pts), verified, eta, failures)


class OverlapWitness(Record):
    __slots__ = _fields = ("word", "point", "image")

    def __init__(self, word: GroupWord, point: tuple[int, ...], image: tuple[int, ...]):
        self.word = word
        self.point = point
        self.image = image


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
    ray carries none of them inside; it is skipped at that facet, without
    pulling back the rest or filtering."""
    pts = [
        p for p in dict.fromkeys(domain.interior_samples(samples, seed))
        if domain.contains(p, strict=True)
    ]
    on_rays = linear_map(domain.rays)
    for (letters, rows), cols in zip(problem.word_ball, problem.word_ball_transposes):
        pulled = []
        for f in domain.facets:
            p = _apply(cols, f)
            if max(on_rays(p)) <= 0:
                break
            pulled.append(p)
        if len(pulled) < len(domain.facets):
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

class PushdownReport(Record):
    """Transfer of a fundamental domain to the quotient picture.

    pullback includes invariant coordinates into the full form lattice;
    pushforward is solved from pullback @ pushforward = sum of the group
    pullbacks, and their composite must be the group order exactly."""

    __slots__ = _fields = ("pullback", "pushforward", "group_order", "verified")

    def __init__(self, pullback: Matrix, pushforward: Matrix, group_order: int, verified: bool):
        self.pullback = pullback
        self.pushforward = pushforward
        self.group_order = group_order
        self.verified = verified


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
