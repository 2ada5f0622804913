"""Integer kernels: matrix products, division-free characteristic polynomials,
and sign evaluations used by the exact linear algebra layer.

All functions work on Python big integers, so results are exact at any size.
"""

BACKEND = "pure"


def imat_mul(a, b, n, k, m):
    """Multiply an n*k by a k*m integer matrix, both row-major flat lists."""
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k:(i + 1) * k]
        base = i * m
        for j in range(k):
            aij = arow[j]
            if aij:
                brow = b[j * m:(j + 1) * m]
                for t in range(m):
                    out[base + t] += aij * brow[t]
    return out


def berkowitz_charpoly(a, n):
    """Coefficients of det(x*I - A) for an integer n*n matrix, lowest degree
    first, computed division-free so every intermediate stays an integer.
    """
    if n == 0:
        return [1]
    poly = [1, -a[0]]  # highest degree first while iterating
    for size in range(2, n + 1):
        k = size - 1
        # Toeplitz column: [1, -A[k][k], -R.C, -R.M.C, ...] for the leading
        # k*k block M, row R = A[k][:k], column C = A[:k][k].
        items = [1, -a[k * n + k]]
        v = [a[j * n + k] for j in range(k)]
        for step in range(size - 1):
            if step > 0:
                v = [
                    sum(a[i * n + j] * v[j] for j in range(k))
                    for i in range(k)
                ]
            items.append(-sum(a[k * n + j] * v[j] for j in range(k)))
        new = []
        for i in range(size + 1):
            jmax = min(i, size - 1)
            s = 0
            for j in range(jmax + 1):
                s += items[i - j] * poly[j]
            new.append(s)
        poly = new
    poly.reverse()
    return poly


def poly_sign_at(coeffs, p, q):
    """Sign of sum(c_i * (p/q)**i) for integer coeffs (lowest first), q > 0.

    Evaluates the q-homogenization sum(c_i * p**i * q**(d-i)) so everything
    stays integral.
    """
    d = len(coeffs) - 1
    if d < 0:
        return 0
    acc = coeffs[d]
    qpow = 1
    for i in range(d - 1, -1, -1):
        qpow *= q
        acc = acc * p + coeffs[i] * qpow
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def sign_variations(signs):
    """Number of sign changes in a sequence of -1/0/1, zeros skipped."""
    count = 0
    prev = 0
    for s in signs:
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count
