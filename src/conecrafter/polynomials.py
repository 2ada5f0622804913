"""Exact univariate polynomials over Q: characteristic polynomials,
Sturm-sequence root counting, and factorization for the small degrees
(<= 8) this toolkit needs.

sturm_chain is the one place that takes the squarefree part: the root
tests read its degree, and whether 0 is a root, from the chain's first
member. count_real_roots reads only the signs at +-infinity, and starts
the chain from the polynomial itself.
Factoring takes squarefree input only (its one caller factors a minimal
polynomial of a commutative semisimple center), checks once that the
chain from p ends at a constant, gcd(p, p') = 1, and rejects anything
else.

Integer coefficient lists carry the loops, as matrices.py does for
matrices: the Sturm chain and the squarefree test above run on one
primitive remainder sequence (_remainder_sequence), and the rational
root and Kronecker searches on primitive integer lists. Only
Polynomial's own divmod, gcd and squarefree_part stay on Fractions. The
one hot caller left is the charpoly ampleness criterion (cone.is_ample,
is_nef), which ROADMAP plans to retire; until then perfbench's
ample_grid times it, and that benchmark's peak RSS grows with every
operation it completes, so a faster squarefree step would push it past
its bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Sequence

from ._kernels import berkowitz_charpoly, poly_sign_at, sign_variations
from .errors import DeskScaleError
from .matrices import Matrix, primitive_tuple

FACTOR_DEGREE_CAP = 8
_KRONECKER_TUPLE_CAP = 300_000


def _norm_coeffs(coeffs) -> tuple:
    out = [Fraction(c) if not isinstance(c, (int, Fraction)) else c for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in out)


class Polynomial:
    """Coefficients lowest degree first; the zero polynomial is empty."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence):
        self._coeffs = _norm_coeffs(coeffs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self._coeffs]
        d = other.degree
        lead = Fraction(other.leading)
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lead
            quo[i - d] = f
            for j, c in enumerate(other._coeffs):
                rem[i - d + j] -= f * c
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.leading
        return Polynomial([Fraction(c, 1) / lead for c in self._coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()

    def squarefree_part(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial")
        if self.degree == 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree == 0:
            return self.monic()
        return (self // g).monic()


def char_poly(m: Matrix) -> Polynomial:
    """Exact characteristic polynomial det(x*I - m) of a rational matrix."""
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.nrows
    scaled, d = m.to_integer()
    ints = berkowitz_charpoly(scaled.flat(), n)
    if d == 1:
        return Polynomial(ints)
    dn = d ** n
    return Polynomial([Fraction(c * d ** i, dn) for i, c in enumerate(ints)])


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """The negated primitive remainder sequence of two nonzero primitive
    integer coefficient lists (Collins, J. ACM 14, 1967): a, b, then each
    next member is -prem(r0, r1) divided by its content, until the
    remainder vanishes. prem(r0, r1) = |lc(r1)|^(delta + 1) * r0 - Q * r1
    is a positive multiple of the remainder of r0 by r1 over Q, so every
    member is a positive multiple of the member that Euclid's algorithm on
    Fractions gives, and the last one is a gcd of a and b."""
    chain = [a, b]
    while True:
        r0, r1 = chain[-2], chain[-1]
        # the remainder by -r1 is the remainder by r1: divide by a positive lead
        divisor = r1 if r1[-1] > 0 else [-c for c in r1]
        lead, db = divisor[-1], len(r1) - 1
        rem = list(r0)
        # lead^m * r0 = Q * divisor + rem after the m-th step
        for i in range(len(r0) - 1, db - 1, -1):
            f = rem.pop()
            if lead != 1:
                rem = [c * lead for c in rem]
            if f:
                k = i - db
                for j in range(db):
                    rem[k + j] -= f * divisor[j]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return chain
        content = gcd(*rem)
        chain.append([-c // content for c in rem])


def sturm_chain(p: Polynomial, squarefree_part: bool = True) -> list[list[int]]:
    """Canonical Sturm chain of the squarefree part, each member scaled to a
    primitive integer list (positive scale, so all sign data is preserved).
    squarefree_part=False starts the chain from p itself, which then ends
    at gcd(p, p') instead of a constant. The chain is the negated primitive
    remainder sequence of the primitive parts of q and q'."""
    if p.is_zero:
        raise ValueError("zero polynomial has no Sturm chain")
    q = p.squarefree_part() if squarefree_part else p
    head = list(primitive_tuple(q.coeffs))
    if len(head) == 1:
        return [head]
    derivative = list(primitive_tuple([i * c for i, c in enumerate(head)][1:]))
    return _remainder_sequence(head, derivative)


def _variations_at(chain: list[list[int]], point) -> int:
    """Sign variations of the chain just right of a rational point."""
    f = Fraction(point)
    p, q = f.numerator, f.denominator
    signs = [poly_sign_at(c, p, q) for c in chain]
    if signs and signs[0] == 0:
        # just right of a simple root the polynomial has its derivative's sign
        signs = signs[1:]
    return sign_variations(signs)


def _variations_at_infinity(chain: list[list[int]], positive: bool) -> int:
    signs = []
    for c in chain:
        lead = 1 if c[-1] > 0 else -1
        if not positive and (len(c) - 1) % 2 == 1:
            lead = -lead
        signs.append(lead)
    return sign_variations(signs)


def count_real_roots(p: Polynomial) -> int:
    """Exact number of distinct real roots of p.

    The chain starts from p itself, squarefree or not. By the generalized
    Sturm theorem the remainder chain of p and p' ends at g = gcd(p, p'),
    and dividing every member by g leaves the sign variations unchanged
    wherever g is nonzero. So at +-infinity the variations are those of the
    squarefree part's chain, and their difference counts the distinct real
    roots.
    """
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    chain = sturm_chain(p, squarefree_part=False)
    return _variations_at_infinity(chain, positive=False) - _variations_at_infinity(
        chain, positive=True
    )


def _positive_root_count(chain: list[list[int]]) -> int:
    """Distinct roots of chain[0] in (0, infinity): V(0+) - V(infinity)."""
    return _variations_at(chain, 0) - _variations_at_infinity(chain, positive=True)


def all_roots_positive(p: Polynomial) -> bool:
    """True when every complex root of p is a real number > 0."""
    chain = sturm_chain(p)
    return _positive_root_count(chain) == len(chain[0]) - 1


def all_roots_nonnegative(p: Polynomial) -> bool:
    """True when every complex root of p is a real number >= 0; the
    squarefree part has at most a simple root at 0."""
    chain = sturm_chain(p)
    q = chain[0]
    return _positive_root_count(chain) == len(q) - 1 - (q[0] == 0)


# --- factorization over Q, degree <= 8 -------------------------------------

# trial division to sqrt(10^14) = 10^7 takes about a second; the largest
# value the test suite factors is about 1.1 * 10^13
_DIVISOR_BOUND = 10**14


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n > _DIVISOR_BOUND:
        raise DeskScaleError("factor search budget exceeded")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(coeffs: list[int], divisors=_divisors) -> list[Fraction]:
    """Rational roots of a primitive integer polynomial (each listed once).
    divisors lists the divisors of an int, as _divisors does."""
    if coeffs[0] == 0:
        roots = [Fraction(0)]
        trimmed = list(coeffs)
        while trimmed[0] == 0:
            trimmed.pop(0)
        return sorted(roots + [r for r in _rational_roots(trimmed, divisors) if r != 0])
    a0, an = coeffs[0], coeffs[-1]
    found = []
    for p in divisors(a0):
        for q in divisors(an):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly_sign_at(coeffs, cand.numerator, cand.denominator) == 0:
                    if cand not in found:
                        found.append(cand)
    return sorted(found)


_KRONECKER_POINTS = (0, 1, -1, 2, -2, 3, -3, 4, -4)


@cache
def _scaled_lagrange(d: int) -> tuple[tuple[int, ...], ...]:
    """The Lagrange basis on the first d + 1 points, scaled to integers.

    D * L_i has integer coefficients when D is the lcm of the node products
    prod_{j != i} (x_i - x_j). Entry k lists the x^k coefficient of every
    D * L_i, so a candidate with values v_i at the nodes is D times the
    polynomial whose x^k coefficient is sum_i v_i * entry[k][i].
    """
    points = _KRONECKER_POINTS[: d + 1]
    rows, dens = [], []
    for i, xi in enumerate(points):
        num, den = [1], 1
        for j, xj in enumerate(points):
            if i != j:
                num = [a - xj * b for a, b in zip([0] + num, num + [0])]
                den *= xi - xj
        rows.append(num)
        dens.append(den)
    scale = _lagrange_scale(d)
    rows = [[c * (scale // den) for c in num] for num, den in zip(rows, dens)]
    return tuple(zip(*rows))


@cache
def _lagrange_scale(d: int) -> int:
    """The least D > 0 making every D * L_i of _scaled_lagrange(d)
    integral: the lcm of the node products prod_{j != i} (x_i - x_j)."""
    points = _KRONECKER_POINTS[: d + 1]
    return lcm(*(prod(xi - xj for xj in points if xj != xi) for xi in points))


def _exact_quotient(p: list[int], g: list[int]) -> list[int] | None:
    """p / g in Z[x], or None when g does not divide p there."""
    dg = len(g) - 1
    lead = g[-1]
    rem = list(p)
    quo = [0] * (len(p) - dg)
    for i in range(len(p) - 1, dg - 1, -1):
        if rem[i] == 0:
            continue
        f, r = divmod(rem[i], lead)
        if r:
            return None
        quo[i - dg] = f
        for j, c in enumerate(g):
            rem[i - dg + j] -= f * c
    if any(rem[:dg]):
        return None
    return quo


def _kronecker_split(
    coeffs: list[int], divisors=_divisors
) -> tuple[list[int], list[int]] | None:
    """One nontrivial factorization of a primitive squarefree integer
    polynomial with no rational roots, or None when irreducible.

    Searches factor degrees 2..deg//2; since deg <= 8 that bound is at
    most 4, and any nontrivial factorization contains a factor in range.
    A candidate factor is given by its values at the first d + 1 points;
    its primitive part g divides the polynomial over Q exactly when it
    divides it in Z[x] (Gauss's lemma), so every test is in integers. The
    tuples run in lexicographic order, and the first one whose primitive
    part divides gives the split.

    The last value is solved for, not enumerated. For a factor g, with
    gamma the gcd of its values at the points, the first tuple in that
    order that yields g is g's values divided by gamma: any other lists a
    larger multiple of g(0) first. D * g / gamma is integral, D the
    Lagrange scale, so gamma divides D, and g's top coefficient divides
    lead. So that tuple's scaled top coefficient is c * delta for a
    divisor c of lead and a divisor delta of D, up to sign, and the last
    value follows from it. Each value so solved that the enumeration
    would list is tested as the enumeration tests it, in its order, so
    the first split found, and every quotient taken, is one the full
    enumeration takes too.

    The tuple budget is checked after each node's divisor list. A value
    at a node is never 0 (no rational roots), so each node adds at least
    the candidates 1 and -1 and the running product never falls: the
    search is refused at the first node that takes it past the budget,
    exactly when the product over all nodes would be, and the values at
    the later nodes are never divided. divisors lists the divisors of an
    int, as _divisors does; a caller passes one memoized list per
    factoring, so a value met again (the constant term at node 0, lead)
    is divided once.
    """
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    for d in range(2, deg // 2 + 1):
        value_divs = []
        budget = 1
        for x in _KRONECKER_POINTS[: d + 1]:
            divs = divisors(_int_poly_eval(coeffs, x))
            cands = [w for dd in divs for w in (dd, -dd)]
            value_divs.append(cands)
            budget *= len(cands)
            if budget > _KRONECKER_TUPLE_CAP:
                raise DeskScaleError("factor search budget exceeded")
        # fix the sign ambiguity g vs -g by pinning the first value positive
        value_divs[0] = [v for v in value_divs[0] if v > 0]
        *prefixes, last = value_divs
        position = {v: i for i, v in enumerate(last)}
        columns = _scaled_lagrange(d)
        *top_head, top_last = columns[-1]
        deltas = divisors(_lagrange_scale(d))
        tops = {s * c * delta for c in divisors(lead) for delta in deltas for s in (1, -1)}
        for head in product(*prefixes):
            partial = sum(map(mul, head, top_head))
            solved = []
            for top in tops:
                v, r = divmod(top - partial, top_last)
                if not r and v in position:
                    solved.append((position[v], v))
            for _, v in sorted(solved):
                values = (*head, v)
                scaled = [sum(map(mul, values, col)) for col in columns]
                content = gcd(*scaled)
                if lead * content % scaled[-1]:
                    continue
                g = [c // content for c in scaled]
                quo = _exact_quotient(coeffs, g)
                if quo is not None:
                    return g, quo
    return None


def _factor_squarefree_monic(q: Polynomial) -> list[Polynomial]:
    """Monic irreducible factors of a monic squarefree polynomial."""
    if q.degree == 0:
        return []
    work = list(primitive_tuple(q.coeffs))
    divisors = cache(_divisors)
    factors = []
    for root in _rational_roots(work, divisors):
        factors.append(Polynomial([-root, 1]))
    rem = q
    for f in factors:
        rem = rem // f
    queue = [list(primitive_tuple(rem.coeffs))] if rem.degree > 0 else []
    while queue:
        coeffs = queue.pop()
        if len(coeffs) - 1 <= 3:
            # no rational roots and degree <= 3: irreducible over Q
            factors.append(Polynomial(coeffs).monic())
            continue
        split = _kronecker_split(coeffs, divisors)
        if split is None:
            factors.append(Polynomial(coeffs).monic())
        else:
            queue.extend(split)
    return sorted(factors, key=lambda f: (f.degree, f.coeffs))


def factor_squarefree_small(p: Polynomial) -> list[Polynomial]:
    """Factor a squarefree p over Q into its sorted monic irreducibles.

    Only degrees up to 8 are supported; larger inputs raise DeskScaleError,
    and a p with a repeated factor raises ValueError. The leading
    coefficient of p times the product of the factors reproduces p exactly.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > FACTOR_DEGREE_CAP:
        raise DeskScaleError(
            f"factorization supported up to degree {FACTOR_DEGREE_CAP}, got {p.degree}"
        )
    if len(sturm_chain(p, squarefree_part=False)[-1]) > 1:
        raise ValueError("factoring needs a squarefree polynomial")
    return _factor_squarefree_monic(p.monic())
