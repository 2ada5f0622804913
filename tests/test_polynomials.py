import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecrafter.polynomials as polynomials
from conecrafter.documents import parse_document
from conecrafter.errors import DeskScaleError
from conecrafter.matrices import Matrix, primitive_tuple
from conecrafter.pipeline import run_endo
from conecrafter.polynomials import (
    Polynomial,
    _divisors,
    _kronecker_split,
    _rational_roots,
    all_roots_nonnegative,
    all_roots_positive,
    char_poly,
    count_real_roots,
    factor_squarefree_small,
    sturm_chain,
)

from conftest import (
    count_roots_in_interval,
    ei_power_data,
    evaluate,
    evaluate_matrix,
    reference_sturm_chain,
    transported_data,
)


def rand_matrix(rng, n, lo=-6, hi=6):
    return Matrix([[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)])


class TestPolynomialBasics:
    def test_degree_and_normalization(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1, 2)
        assert Polynomial([0]).is_zero

    def test_arithmetic(self):
        p = Polynomial([1, 1])       # 1 + x
        q = Polynomial([-1, 1])      # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - q).coeffs == (2,)

    def test_derivative(self):
        p = Polynomial([5, 3, 0, 2])
        assert p.derivative().coeffs == (3, 0, 6)

    def test_monic_and_primitive(self):
        p = Polynomial([2, 4])
        assert p.monic().coeffs == (Fraction(1, 2), 1)
        assert primitive_tuple(Polynomial([2, 4, 6]).coeffs) == (1, 2, 3)
        assert primitive_tuple(Polynomial([Fraction(1, 2), Fraction(1, 3)]).coeffs) == (3, 2)

    def test_gcd(self):
        p = Polynomial([-1, 0, 1])   # (x-1)(x+1)
        q = Polynomial([1, 2, 1])    # (x+1)^2
        g = p.gcd(q)
        assert g.monic().coeffs == (1, 1)


class TestCharPoly:
    def laplace(self, m):
        """Independent oracle: cofactor expansion of det(xI - M) over
        Fraction-coefficient polynomials."""
        n = m.nrows

        def pmul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return out

        def padd(p, q):
            out = [Fraction(0)] * max(len(p), len(q))
            for i, pi in enumerate(p):
                out[i] += pi
            for j, qj in enumerate(q):
                out[j] += qj
            return out

        entries = [
            [
                [Fraction(-m[i, j]), Fraction(1)] if i == j else [Fraction(-m[i, j])]
                for j in range(n)
            ]
            for i in range(n)
        ]

        def det(rows, cols):
            if len(cols) == 1:
                return entries[rows[0]][cols[0]]
            total = [Fraction(0)]
            r = rows[0]
            for pos, c in enumerate(cols):
                minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
                term = pmul(entries[r][c], minor)
                if pos % 2:
                    term = [-t for t in term]
                total = padd(total, term)
            return total

        return det(tuple(range(n)), tuple(range(n)))

    def test_matches_laplace_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randrange(1, 5)
            m = rand_matrix(rng, n)
            got = char_poly(m)
            want = self.laplace(m)
            assert list(got.coeffs) == want[: got.degree + 1]

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
        p = char_poly(m)
        assert evaluate(p, Fraction(1, 2)) == 0
        assert evaluate(p, Fraction(1, 3)) == 0
        assert p.leading == 1

    def test_cayley_hamilton(self):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = rand_matrix(rng, n)
            p = char_poly(m)
            assert evaluate_matrix(p, m).is_zero

    def test_trace_and_det_coefficients(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = rand_matrix(rng, n)
            p = char_poly(m)
            assert p.coeffs[-1] == 1
            assert p.coeffs[-2] == -m.trace() if n >= 1 else True
            assert p.coeffs[0] == (-1) ** n * m.det()


class TestSturm:
    def float_roots(self, coeffs):
        # numpy wants highest degree first
        arr = np.array([float(c) for c in reversed(coeffs)])
        return np.roots(arr)

    def real_roots_float(self, coeffs, tol=1e-7):
        return [r.real for r in self.float_roots(coeffs) if abs(r.imag) < tol]

    def random_squarefree_polys(self, count, seed):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            deg = rng.randrange(1, 7)
            coeffs = [rng.randrange(-9, 10) for _ in range(deg)] + [
                rng.randrange(1, 10)
            ]
            p = Polynomial(coeffs)
            if p.gcd(p.derivative()).degree == 0:
                out.append(p)
        return out

    def test_count_real_roots_matches_numpy(self):
        for p in self.random_squarefree_polys(400, seed=5):
            got = count_real_roots(p)
            want = len(self.real_roots_float(p.coeffs))
            assert got == want, p.coeffs

    def test_count_in_interval_matches_numpy(self):
        for p in self.random_squarefree_polys(200, seed=6):
            roots = self.real_roots_float(p.coeffs)
            # the interval (0, 4]: half-open on the left per Sturm convention
            want = sum(1 for r in roots if 0 < r <= 4 + 1e-9)
            assert count_roots_in_interval(p, 0, 4) == want, p.coeffs

    def test_positivity_predicates_match_numpy(self):
        # positive means: every complex root is real and > 0
        for p in self.random_squarefree_polys(300, seed=9):
            all_roots = self.float_roots(p.coeffs)
            real = [r.real for r in all_roots if abs(r.imag) < 1e-7]
            if any(abs(r) < 1e-6 for r in all_roots):
                continue  # too close to zero for float comparison
            want_pos = len(real) == len(all_roots) and all(r > 0 for r in real)
            assert all_roots_positive(p) == want_pos, p.coeffs
            assert all_roots_nonnegative(p) == want_pos, p.coeffs

    def test_known_counts(self):
        # x^2 - 2: two real roots, one in (1, 2]
        p = Polynomial([-2, 0, 1])
        assert count_real_roots(p) == 2
        assert count_roots_in_interval(p, 1, 2) == 1
        assert count_roots_in_interval(p, -2, -1) == 1
        # x^2 + 1: none
        assert count_real_roots(Polynomial([1, 0, 1])) == 0
        # roots at 0 and 3
        q = Polynomial([0, -3, 1])
        assert all_roots_nonnegative(q)
        assert not all_roots_positive(q)

    def test_count_real_roots_of_repeated_factors(self):
        # p = lead * prod (x - r)^m * prod (x^2 + c), c > 0, built from its
        # roots: the distinct real roots are the distinct r, whatever the
        # multiplicities and the sign of the leading coefficient
        rng = random.Random(11)
        for _ in range(300):
            roots = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 4))
                     for _ in range(rng.randrange(0, 4))]
            p = Polynomial([rng.choice([-3, -1, 1, 2])])
            factors = [(Polynomial([-r, 1]), rng.randrange(1, 4)) for r in roots]
            factors += [(Polynomial([rng.randrange(1, 6), 0, 1]), rng.randrange(1, 3))
                        for _ in range(rng.randrange(0, 3))]
            for f, m in factors:
                for _ in range(m):
                    p = p * f
            assert count_real_roots(p) == len(set(roots)), p.coeffs
            assert count_real_roots(p) == count_roots_in_interval(p, None, None)
        with pytest.raises(ValueError):
            count_real_roots(Polynomial([0]))

    def test_sturm_chain_shape(self):
        chain = sturm_chain(Polynomial([-2, 0, 1]))
        assert len(chain) >= 2
        assert chain[0] == [-2, 0, 1]


class TestFactoring:
    def test_known_factorization(self):
        # x^4 - 1 = (x-1)(x+1)(x^2+1)
        p = Polynomial([-1, 0, 0, 0, 1])
        factors = factor_squarefree_small(p)
        coeff_sets = sorted(tuple(f.coeffs) for f in factors)
        assert coeff_sets == [(-1, 1), (1, 0, 1), (1, 1)]

    def test_reassembly(self):
        rng = random.Random(55)
        for _ in range(25):
            deg = rng.randrange(1, 6)
            coeffs = [rng.randrange(-5, 6) for _ in range(deg)] + [1]
            p = Polynomial(coeffs)
            sf = p.squarefree_part()
            factors = factor_squarefree_small(sf)
            prod = Polynomial([1])
            for f in factors:
                prod = prod * f
            assert prod.monic().coeffs == sf.monic().coeffs

    def test_irreducible_stays_whole(self):
        p = Polynomial([1, 1, 1, 1, 1])  # 5th cyclotomic
        factors = factor_squarefree_small(p)
        assert len(factors) == 1
        assert factors[0].monic().coeffs == p.monic().coeffs

    def test_repeated_factor_rejected(self):
        # (x - 1)^2 (x + 1) = x^3 - x^2 - x + 1
        p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([1, 1])
        assert p.coeffs == (1, -1, -1, 1)
        with pytest.raises(ValueError):
            factor_squarefree_small(p)


def _reference_kronecker_split(coeffs):
    """Kronecker's method as first written: every candidate is built by
    Fraction Lagrange interpolation and divided over Q."""

    def divisors(n):
        n = abs(int(n))
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in reversed(small) if d * d != n]

    def interpolate(points):
        out = Polynomial([])
        for i, (xi, yi) in enumerate(points):
            term = Polynomial([yi])
            for j, (xj, _) in enumerate(points):
                if i != j:
                    term = term * Polynomial([Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
            out = out + term
        return out

    deg = len(coeffs) - 1
    poly = Polynomial(coeffs)
    xs = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    for d in range(2, deg // 2 + 1):
        pts = xs[: d + 1]
        value_divs = []
        budget = 1
        for x in pts:
            cands = [w for dd in divisors(evaluate(poly, x)) for w in (dd, -dd)]
            value_divs.append(cands)
            budget *= len(cands)
        if budget > 300_000:
            raise DeskScaleError("factor search budget exceeded")
        stack = [(0, [])]
        while stack:
            idx, chosen = stack.pop()
            if idx == len(pts):
                cand = interpolate(list(zip(pts, [Fraction(v) for v in chosen])))
                if cand.degree != d:
                    continue
                quo, rem = divmod(poly, cand)
                if rem.is_zero:
                    ci = list(primitive_tuple(cand.coeffs))
                    qi = list(primitive_tuple(quo.coeffs))
                    if len(ci) - 1 == d and len(qi) - 1 == deg - d:
                        return ci, qi
                continue
            opts = value_divs[idx] if idx > 0 else [v for v in value_divs[0] if v > 0]
            for v in reversed(opts):
                stack.append((idx + 1, chosen + [v]))
    return None


def _split_or_error(split, coeffs):
    try:
        return split(coeffs)
    except DeskScaleError as exc:
        return ("DeskScaleError", str(exc))


def _random_squarefree_products(seed, count):
    """Monic products of random monic factors of degree 2..4, of total
    degree 4..8, squarefree and without rational roots. Coefficients stay in
    [-3, 3] so that the Fraction reference runs in well under a second."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        target = rng.randint(4, 8)
        acc = Polynomial([1])
        while acc.degree < target - 1:
            k = rng.randint(2, min(4, target - acc.degree))
            acc = acc * Polynomial([rng.randint(-3, 3) for _ in range(k)] + [1])
        coeffs = list(acc.coeffs)
        if acc.degree < 4 or _rational_roots(coeffs) or acc.gcd(acc.derivative()).degree > 0:
            continue
        out.append(coeffs)
    return out


def _parent_kronecker_split(coeffs):
    """The integer search before its early exit: every coefficient of a
    candidate is formed, then g's top coefficient must divide lead. It
    reads the module's helpers, so a patch of them applies to both."""
    deg = len(coeffs) - 1
    lead = coeffs[-1]
    for d in range(2, deg // 2 + 1):
        value_divs = []
        budget = 1
        for x in polynomials._KRONECKER_POINTS[: d + 1]:
            divs = polynomials._divisors(polynomials._int_poly_eval(coeffs, x))
            cands = [w for dd in divs for w in (dd, -dd)]
            value_divs.append(cands)
            budget *= len(cands)
        if budget > polynomials._KRONECKER_TUPLE_CAP:
            raise DeskScaleError("factor search budget exceeded")
        value_divs[0] = [v for v in value_divs[0] if v > 0]
        columns = polynomials._scaled_lagrange(d)
        for values in product(*value_divs):
            scaled = [sum(map(mul, values, col)) for col in columns]
            if scaled[-1] == 0:
                continue
            content = gcd(*scaled)
            g = [c // content for c in scaled]
            if lead % g[-1]:
                continue
            quo = polynomials._exact_quotient(coeffs, g)
            if quo is not None:
                return g, quo
    return None


def _product_coeffs(*factors):
    out = Polynomial([1])
    for f in factors:
        out = out * Polynomial(f)
    return list(out.coeffs)


class _Column(tuple):
    """A Lagrange column that counts each coefficient formed from it."""

    formed = [0]

    def __iter__(self):
        self.formed[0] += 1
        return super().__iter__()


class TestKroneckerSplit:
    # center polynomials met on the corpus, and x^4 + x^2 + 10528, whose
    # 307200 candidate tuples lie just over the search budget
    FIXED = [
        [130, 118, 47, 10, 1],
        [648, 0, 36, -12, 1],
        [466, -228, 62, -12, 1],
        [64, 0, 0, 0, 1],
        [10528, 0, 1, 0, 1],
    ]
    # primitive, not monic, so a candidate's top coefficient must divide
    # lead times its content: (2x^2 + x + 3)(3x^2 - x + 5) and others, and
    # one irreducible quartic with lead 6
    NON_MONIC = [
        _product_coeffs([3, 1, 2], [5, -1, 3]),
        _product_coeffs([2, 2, 3], [1, -1, 5]),
        _product_coeffs([1, 1, 3], [1, 1, 0, 2]),
        _product_coeffs([7, -3, 4], [2, 5, 6]),
        _product_coeffs([3, 0, 2], [3, 0, 2, 0, 5]),
        [5, 1, 0, 0, 6],
    ]

    @pytest.mark.parametrize("coeffs", FIXED + NON_MONIC + _random_squarefree_products(0, 12))
    def test_matches_fraction_reference(self, coeffs):
        want = _split_or_error(_reference_kronecker_split, coeffs)
        assert _split_or_error(_kronecker_split, coeffs) == want

    @pytest.mark.parametrize("coeffs", FIXED[:4] + NON_MONIC)
    def test_early_exit_forms_fewer_coefficients(self, monkeypatch, coeffs):
        """The split is the one the full enumeration finds, and no more
        candidates reach _exact_quotient than under the enumeration, since
        only tuples it would test are tested; fewer coefficients are
        formed on the way, since the last value is solved for."""
        quotients = [0]
        original_quotient = polynomials._exact_quotient
        original_lagrange = polynomials._scaled_lagrange

        def counted_quotient(p, g):
            quotients[0] += 1
            return original_quotient(p, g)

        def counted_lagrange(d):
            return tuple(_Column(col) for col in original_lagrange(d))

        monkeypatch.setattr(polynomials, "_exact_quotient", counted_quotient)
        monkeypatch.setattr(polynomials, "_scaled_lagrange", counted_lagrange)
        counts = []
        for split in (_parent_kronecker_split, _kronecker_split):
            quotients[0] = _Column.formed[0] = 0
            outcome = split(coeffs)
            counts.append((outcome, quotients[0], _Column.formed[0]))
        (parent, parent_quotients, parent_formed), (got, got_quotients, got_formed) = counts
        assert got == parent
        assert 0 < got_quotients <= parent_quotients
        assert got_formed < parent_formed

    # leading coefficients with several divisors, and factors whose values
    # at the points share a divisor (x^2 + x + 2 is even at every integer),
    # so that half of a factor's values comes first in the order: on the
    # two cases after it, a search that solves for the factor's own values
    # alone finds the other factor first
    SEVERAL_DIVISORS = [
        _product_coeffs([2, 1, 1], [3, -1, 1]),
        _product_coeffs([2, 1, 1], [4, 3, 1], [1, 0, 1]),
        _product_coeffs([2, 1, 1], [2, -1, 1]),
        _product_coeffs([5, 2, 1], [10, 3, 1]),
        _product_coeffs([6, -1, 3], [6, -1, 1], [3, 2, 1]),
        _product_coeffs([6, 1, 2], [5, 3, 6]),
        _product_coeffs([2, 3, 12], [7, 0, 5]),
        _product_coeffs([3, 4, 10], [1, 1, 6]),
        _product_coeffs([1, 0, 0, 12], [5, 1, 30]),
        _product_coeffs([6, 6, 5], [2, 2, 3], [1, 1, 4]),
        [7, 3, 0, 0, 60],
        [30, 1, 1, 0, 12],
    ]

    @pytest.mark.parametrize("coeffs", SEVERAL_DIVISORS)
    def test_solved_last_value_matches_the_enumeration(self, monkeypatch, coeffs):
        """Solving the last value from the top coefficient finds the split
        the reference and the full enumeration find, with no more exact
        quotients than the enumeration."""
        quotients = [0]
        original_quotient = polynomials._exact_quotient

        def counted_quotient(p, g):
            quotients[0] += 1
            return original_quotient(p, g)

        monkeypatch.setattr(polynomials, "_exact_quotient", counted_quotient)
        parent = _split_or_error(_parent_kronecker_split, coeffs)
        parent_quotients, quotients[0] = quotients[0], 0
        got = _split_or_error(_kronecker_split, coeffs)
        assert got == parent == _split_or_error(_reference_kronecker_split, coeffs)
        assert quotients[0] <= parent_quotients

    def test_several_divisor_cases_cover_the_shapes(self):
        """The cases split and stay whole, lead with composite numbers,
        and include splits whose first tuple is not the factor's own
        values but half of them: x^2 - x + 2 from (x^2 + x + 2)(x^2 - x + 2),
        and x^2 + 3x + 10 from (x^2 + 2x + 5)(x^2 + 3x + 10)."""
        outcomes = {_kronecker_split(c) is None for c in self.SEVERAL_DIVISORS}
        assert outcomes == {True, False}
        assert all(len(_divisors(c[-1])) >= 4 for c in self.SEVERAL_DIVISORS[5:])
        for coeffs, want in zip(self.SEVERAL_DIVISORS[2:4], ([2, -1, 1], [10, 3, 1])):
            g, _ = _kronecker_split(coeffs)
            assert g == want
            assert gcd(*(polynomials._int_poly_eval(g, x) for x in (0, 1, -1))) == 2

    @pytest.mark.parametrize("seed", [1, 2])
    def test_budget_errors_stay(self, seed):
        """The tuple budget is checked before any search, as before:
        x^4 + x^2 + 10528 is over it, and so is the center polynomial of
        cyclic E_i^4 moved by either transport, whose endo exits 2."""
        with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
            _kronecker_split(self.FIXED[4])
        doc = parse_document(transported_data(ei_power_data(4, cyclic=True), seed))
        with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
            run_endo(doc)

    # x^4 - x + 2162160 is positive on the reals and has 640 candidate
    # values at x = 0 and at x = 1 (2162160 = 2^4 3^3 5 7 11 13), so
    # 640 * 640 tuples pass the budget after the second node
    EARLY_REFUSAL = [2162160, -1, 0, 0, 1]

    def test_budget_is_checked_node_by_node(self, monkeypatch):
        """The search is refused at the node that takes the running product
        of candidate counts past the budget, so the value at x = -1 is
        never divided; within one factoring each value is divided once."""
        divided = []

        def counted(n):
            divided.append(abs(n))
            return _divisors(n)

        with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
            _kronecker_split(self.EARLY_REFUSAL, counted)
        assert divided == [2162160, 2162160]
        divided.clear()
        monkeypatch.setattr(polynomials, "_divisors", counted)
        with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
            factor_squarefree_small(Polynomial(self.EARLY_REFUSAL))
        # a0 and lead for the rational roots; node 0 and node 1 are a0 again
        assert sorted(divided) == [1, 2162160]

    def test_transported_cyclic_ei4_divides_two_large_values(self, monkeypatch):
        """Cyclic E_i^4 moved by transport seed 2: the constant term of its
        degree-8 center polynomial is divided once, for the rational roots
        and node 0, and the budget is passed after node 1, so of its 13-14
        digit values only those two are divided before endo exits 2."""
        divided = []

        def counted(n):
            divided.append(abs(n))
            return _divisors(n)

        monkeypatch.setattr(polynomials, "_divisors", counted)
        doc = parse_document(transported_data(ei_power_data(4, cyclic=True), 2))
        with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
            run_endo(doc)
        assert [n for n in divided if n > 10**12] == [9614340684425, 10863381698000]

    def test_divisor_search_is_bounded(self):
        """Trial division runs to sqrt(|n|), so a value past 10^14 (10^7
        steps) exits with the factor budget's error before it divides."""
        for n in (10**17 + 3, -(10**14) - 1):
            with pytest.raises(DeskScaleError, match="factor search budget exceeded"):
                _divisors(n)
        assert _divisors(-12) == [1, 2, 3, 4, 6, 12]

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for coeffs in self.FIXED + _random_squarefree_products(0, 12):
            got = _split_or_error(_kronecker_split, coeffs)
            outcomes.add("none" if got is None else "error" if got[0] == "DeskScaleError" else "split")
        assert outcomes == {"none", "split", "error"}


_RATIONALS = st.fractions(min_value=-12, max_value=12, max_denominator=5)


@st.composite
def rational_polynomials(draw):
    """Rational polynomials of degree <= 10: a random part times x^z and a
    power f^k of a small factor, so that roots at 0 and repeated factors
    come up often."""
    p = Polynomial(draw(st.lists(_RATIONALS, min_size=1, max_size=5)))
    if p.is_zero:
        return Polynomial([draw(_RATIONALS.filter(bool))])
    p = p * Polynomial([0] * draw(st.integers(0, 2)) + [1])
    f = Polynomial(draw(st.lists(_RATIONALS, min_size=2, max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        if f.degree < 1 or p.degree + f.degree > 10:
            break
        p = p * f
    return p


class TestIntegerRemainderSequence:
    """The Sturm chain and the squarefree test run on primitive integer
    remainder sequences; each must equal Euclid's algorithm on Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(rational_polynomials())
    def test_sturm_chain_matches_fraction_chain(self, p):
        for squarefree_part in (True, False):
            assert sturm_chain(p, squarefree_part) == reference_sturm_chain(p, squarefree_part)

    @settings(max_examples=200, deadline=None)
    @given(rational_polynomials())
    def test_squarefree_test_reads_the_last_member(self, p):
        """factor_squarefree_small rejects p (within its degree cap) exactly
        when gcd(p, p') is not constant."""
        repeated = p.gcd(p.derivative()).degree > 0
        assert (len(sturm_chain(p, squarefree_part=False)[-1]) > 1) == repeated
        if repeated and p.degree <= polynomials.FACTOR_DEGREE_CAP:
            with pytest.raises(ValueError):
                factor_squarefree_small(p)

    def test_cases_cover_repeated_and_zero_roots(self):
        """x^2 (x - 1)^3 (x + 2): the chain from p ends at gcd(p, p') =
        x (x - 1)^2, the chain of its squarefree part at a constant."""
        p = Polynomial([0, 0, 1]) * Polynomial([2, 1])
        for _ in range(3):
            p = p * Polynomial([-1, 1])
        assert sturm_chain(p, squarefree_part=False)[-1] == [0, 1, -2, 1]
        assert len(sturm_chain(p)[-1]) == 1
        assert sturm_chain(p) == reference_sturm_chain(p)
