"""Integer kernels: compiled matrix products, division-free characteristic
polynomials, sign evaluations, and compiled linear maps, definiteness
tests and orbit searches used by the exact linear algebra layer.

All functions work on Python big integers, so results are exact at any size.

``rows_product`` is the package's one matrix product: ``Matrix.__matmul__``
and every loop that composes small matrices (group closure, word balls,
conjugation orbits) run on it. A product a @ b of row tuples runs through
a function compiled once per process for the shape (k, m) of b: b's
entries are unpacked into locals, and each row of a becomes m sums of k
products, so any number of rows streams through one function. Its source
names no value, so it is executed once per shape with nothing to bind.
Past ``PRODUCT_COMPILE_CAP`` entries in b, a generic loop that skips the
zero entries of a runs instead. ``imat_mul`` is the same product on flat
lists.

A loop that applies one fixed small integer matrix thousands of times pays
more for the interpreter's generic row-by-row products than for the
arithmetic. ``linear_map`` turns such a matrix into a straight-line
Python function, built once with ``exec``: zero terms are dropped, +-1
coefficients become plain ``x`` and ``-x``, and every other coefficient
is bound as a name (``k0``, ``k1``, ...) in the function's closure. The source text holds only those names and the
variable indices, never a coefficient's digits, so no value reaches the
source and Python's limit on int-to-str conversion cannot trip. Callers
build each function once per problem, cone or lattice, and recheck what
they certify with generic code that shares nothing with these functions.

So the source depends only on a matrix's shape: its size and which
entries are zero, +-1 or other. ``exec`` runs once per source per
process: a bounded cache (``COMPILE_CACHE_SIZE`` sources, least recently
used dropped first) keeps the ``build(k0, k1, ...)`` function that the
source defines, and every kernel of that shape is one call of it that
binds its own coefficients; a product's ``build()`` binds none. A
process that runs several commands (tests, the benchmark, library
callers) compiles each shape once; a one-shot CLI process compiles as
many as it builds.

``orbit_search`` is the one kernel with control flow of its own: a tiling
sample's best-first orbit search, with each generator's step, the
priorities and the facet test inline (``reduction`` says why its lazy
expansion is exact). Its first statement is the facet test on the start,
so it is also the domain's closed-membership test. Its rows eta . g_k are the names e0_0, e0_1, ..., so
its source is one per problem shape.

``positive_definite_form(rows, n)`` puts Sylvester's criterion behind
such a map: it forms the upper triangle of an n x n integer symmetric
matrix as rows @ v, then runs the fraction-free symmetric elimination
(Bareiss 1968) unrolled, one assignment per entry update, returning False
at the first leading principal minor that is not positive. It forms the
first pivot before the rest of the triangle, so a matrix refused there,
as most refused tiling samples are, costs one linear form. The tiling
search of a torus problem builds one. Its reference is the same
elimination written as a loop, ``positive_definite`` in the tests'
``conftest.py``.
"""

import functools
from heapq import heappop, heappush
from operator import mul

BACKEND = "pure"
# kernel sources kept compiled per process; the six commands on the
# corpus and mutants build 25 kernels (5 searches) of 19 shapes
COMPILE_CACHE_SIZE = 256
# a right factor of k x m entries gets a compiled product kernel when
# k * m is at most this; a larger one (the rank-32 ladder multiplies
# 32 x 32) runs the generic loop, so no kernel holds thousands of terms
PRODUCT_COMPILE_CAP = 64


def rows_product(a, b):
    """a @ b for matrices given as sequences of rows of exact numbers, as
    a tuple of row tuples.

    A right factor of k rows of m entries with k * m at most
    PRODUCT_COMPILE_CAP runs through the product kernel compiled once per
    process for (k, m); any number of rows of a streams through it. A
    larger one runs the generic loop: each row of a adds up x times row t
    of b over its nonzero entries x, so the mostly zero matrices of the
    large ladder tori cost about their nonzero entries."""
    k = len(b)
    m = len(b[0]) if k else 0
    if 0 < k * m <= PRODUCT_COMPILE_CAP:
        return _product_kernel(k, m)(a, b)
    out = []
    for row in a:
        acc = [0] * m
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def imat_mul(a, b, n, k, m):
    """Multiply an n*k by a k*m integer matrix, both row-major flat lists,
    as a row-major flat list: rows_product on their rows."""
    if not k:
        return [0] * (n * m)
    rows = rows_product(
        [a[i * k:(i + 1) * k] for i in range(n)], [b[t * m:(t + 1) * m] for t in range(k)]
    )
    return [x for row in rows for x in row]


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


def linear_map(rows):
    """v -> rows @ v as a tuple, for a fixed integer matrix given by rows."""
    body, exprs, values = _expressions(rows)
    return _compile(body + [f"return ({''.join(e + ', ' for e in exprs)})"], values)


def positive_definite_form(rows, n):
    """v -> whether the n x n integer symmetric matrix whose upper
    triangle, row by row, is rows @ v is positive definite.

    Step k replaces each entry a_ij (k < i <= j) by
    (a_kk a_ij - a_ki a_kj) / a_(k-1)(k-1), an exact division, so the k-th
    pivot a_kk is the k-th leading principal minor."""

    def a(i, j):
        return f"a{i}_{j}"

    entries = [a(i, j) for i in range(n) for j in range(i, n)]
    body, exprs, values = _expressions(rows)
    assign = [f"{e} = {x}" for e, x in zip(entries, exprs)]
    body += assign[:1]
    for k in range(n):
        pivot = a(k, k)
        body += [f"if {pivot} <= 0:", "    return False"]
        if not k:
            body += assign[1:]
        for i in range(k + 1, n):
            for j in range(i, n):
                update = f"{pivot} * {a(i, j)} - {a(k, i)} * {a(k, j)}"
                if k:
                    update = f"({update}) // {a(k - 1, k - 1)}"
                body.append(f"{a(i, j)} = {update}")
    body.append("return True")
    return _compile(body, values)


def orbit_search(gens, inverses, eta, facets):
    """(start, max_nodes) -> the best-first path by eta . v from start into
    the closed cone of the facets, as indices into gens (g_k's inverse is
    gens[inverses[k]]), or None past max_nodes distinct nodes."""
    dim, count = len(eta), len(gens)
    _, exprs, values = _expressions([row for g in gens for row in g] + list(facets))
    inside = " and ".join(e + " >= 0" for e in exprs[count * dim:])
    coords = "".join(f"x{j}, " for j in range(dim))
    names = [f"e{k}_{j}" for k in range(count) for j in range(dim)]
    priority = [" + ".join(f"e{k}_{j}*x{j}" for j in range(dim)) for k in range(count)]
    steps = "\n".join(
        f"            {'el' if k else ''}if k == {k}:\n"
        f"                v = {coords}= {''.join(e + ', ' for e in exprs[k * dim:(k + 1) * dim])}"
        for k in range(count)
    )
    # letter k is not tried from a node its inverse reached: that is the parent
    pushes = "\n".join(
        f"            if k != {inverses[k]}:\n"
        f"                heappush(heap, ({priority[k]}, counter, v, {k}))\n"
        "                counter += 1"
        for k in range(count)
    )
    starts = "; ".join(f"heappush(heap, ({priority[k]}, {k}, start, {k}))" for k in range(count))
    source = f"""def build(heappop, heappush, {', '.join([f'k{i}' for i in range(len(values))] + names)}):
    def search(start, max_nodes):
        {coords}= start
        if {inside}:
            return ()
        parent = {{start: None}}
        heap = []
        {starts}
        counter, claimed = {count}, 1
        while heap and claimed < max_nodes:
            _, _, u, k = heappop(heap)
            {coords}= u
{steps}
            if v in parent:
                continue
            parent[v] = u, k
            if {inside}:
                break
{pushes}
            claimed += 1
        else:
            return None
        path = []
        while parent[v]:
            v, k = parent[v]
            path.append(k)
        return tuple(path[::-1])
    return search"""
    weights = [sum(map(mul, eta, column)) for g in gens for column in zip(*g)]
    return _builder(source)(heappop, heappush, *values, *weights)


def _expressions(rows):
    """The line unpacking v into x0, x1, ..., the expression of row . v
    over those names for each row, and the closure values k0, k1, ...
    the expressions use."""
    width = len(rows[0]) if rows else 0
    values = []
    exprs = []
    for row in rows:
        if len(row) != width:
            raise ValueError("rows must have equal length")
        expr = ""
        for j, c in enumerate(row):
            if not c:
                continue
            if c == 1 or c == -1:
                term = f"x{j}"
            else:
                term = f"k{len(values)}*x{j}"
                values.append(c)
            if c == -1:
                expr += f" - {term}" if expr else f"-{term}"
            else:
                expr += f" + {term}" if expr else term
        exprs.append(expr or "0")
    unpack = [f"{', '.join(f'x{j}' for j in range(width))}, = v"] if width else []
    return unpack, exprs, values


def _compile(body, values):
    """The function v -> body (lines of Python), with the closure names
    k0, k1, ... bound to values."""
    params = ", ".join(f"k{i}" for i in range(len(values)))
    lines = [f"def build({params}):", "    def compiled(v):"]
    lines += ["        " + line for line in body]
    lines.append("    return compiled")
    return _builder("\n".join(lines))(*values)


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _product_kernel(k, m):
    """(a, b) -> a @ b as row tuples, for a right factor b of k rows of m
    entries: b is unpacked into the locals b0_0, b0_1, ... once, and each
    row of a, unpacked into x0, x1, ..., becomes m sums of k products.
    The source names no value, so it goes to _builder without _compile."""
    entries = [[f"b{t}_{j}" for j in range(m)] for t in range(k)]
    unpack = "".join(f"({''.join(e + ', ' for e in row)}), " for row in entries)
    sums = "".join(" + ".join(f"x{t}*{entries[t][j]}" for t in range(k)) + ", " for j in range(m))
    names = "".join(f"x{t}, " for t in range(k))
    lines = [
        "def build():",
        "    def product(a, b):",
        f"        {unpack}= b",
        f"        return tuple([({sums}) for {names}in a])",
        "    return product",
    ]
    return _builder("\n".join(lines))()


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _builder(source):
    """The build function source defines, executed once per source text
    per process. The source names coefficients but holds none, so every
    kernel of one shape shares it, and each call of build binds its own."""
    scope = {}
    exec(source, scope)
    return scope["build"]
