"""The integer kernels against independent oracles: naive products,
cofactor expansion and Fraction arithmetic.
"""

import random
from fractions import Fraction

from conecrafter import _kernels


def test_backend_reports_something():
    assert _kernels.BACKEND == "pure"


def naive_mul(a, b, n, k, m):
    return [
        sum(a[i * k + t] * b[t * m + j] for t in range(k))
        for i in range(n)
        for j in range(m)
    ]


def test_imat_mul_matches_naive():
    rng = random.Random(1201)
    for _ in range(80):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        a = [rng.randrange(-50, 51) for _ in range(n * k)]
        b = [rng.randrange(-50, 51) for _ in range(k * m)]
        assert _kernels.imat_mul(a, b, n, k, m) == naive_mul(a, b, n, k, m)


def test_imat_mul_big_integers():
    # entries far beyond machine words must not overflow
    a = [10**30, -3, 7, 10**25]
    b = [2, 10**40, -1, 5]
    got = _kernels.imat_mul(a, b, 2, 2, 2)
    assert got == naive_mul(a, b, 2, 2, 2)


def laplace_charpoly(a, n):
    """det(x*I - A) by cofactor expansion over polynomial coefficients."""

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def padd(p, q):
        out = [0] * max(len(p), len(q))
        for i, pi in enumerate(p):
            out[i] += pi
        for j, qj in enumerate(q):
            out[j] += qj
        return out

    # entries of x*I - A as coefficient lists
    entries = [
        [[-a[i * n + j]] if i != j else [-a[i * n + j], 1] for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = [0]
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = pmul(entries[r][c], minor)
            if pos % 2:
                term = [-t for t in term]
            total = padd(total, term)
        return total

    out = det(tuple(range(n)), tuple(range(n)))
    return out + [0] * (n + 1 - len(out))


def test_berkowitz_matches_laplace():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randrange(1, 6)
        a = [rng.randrange(-9, 10) for _ in range(n * n)]
        assert _kernels.berkowitz_charpoly(a, n) == laplace_charpoly(a, n)


def test_berkowitz_identity_and_empty():
    assert _kernels.berkowitz_charpoly([], 0) == [1]
    # det(xI - I) = (x - 1)^2 = 1 - 2x + x^2
    assert _kernels.berkowitz_charpoly([1, 0, 0, 1], 2) == [1, -2, 1]


def test_poly_sign_at_matches_fractions():
    rng = random.Random(3)
    for _ in range(300):
        deg = rng.randrange(0, 7)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg + 1)]
        p = rng.randrange(-30, 31)
        q = rng.randrange(1, 12)
        x = Fraction(p, q)
        val = sum(c * x**i for i, c in enumerate(coeffs))
        want = (val > 0) - (val < 0)
        assert _kernels.poly_sign_at(coeffs, p, q) == want


def test_sign_variations_known():
    assert _kernels.sign_variations([]) == 0
    assert _kernels.sign_variations([1, 1, 1]) == 0
    assert _kernels.sign_variations([1, -1, 1]) == 2
    assert _kernels.sign_variations([1, 0, -1]) == 1
    assert _kernels.sign_variations([0, 0, 1, 0, 0, -1, 0]) == 1
    assert _kernels.sign_variations([-1, 0, 0, -1]) == 0
