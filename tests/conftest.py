import json
import os
import random
from fractions import Fraction
from operator import mul

import pytest

from conecrafter.documents import load_document
from conecrafter.matrices import Matrix, primitive_tuple
from conecrafter.polynomials import (
    Polynomial,
    _variations_at,
    _variations_at_infinity,
    sturm_chain,
)
from conecrafter.reduction import PolyhedralCone
from conecrafter.torus import AffineAuto

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_path(name: str) -> str:
    return os.path.normpath(os.path.join(CORPUS, name))


def load_corpus(name: str):
    return load_document(corpus_path(name))


def read_corpus_json(name: str):
    with open(corpus_path(name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def elliptic_doc():
    return load_corpus("elliptic_gauss.json")


@pytest.fixture(scope="session")
def product_doc():
    return load_corpus("product_gauss_squared.json")


@pytest.fixture(scope="session")
def bielliptic_doc():
    return load_corpus("bielliptic_z4.json")


@pytest.fixture(scope="session")
def hyperbolic_doc():
    return load_corpus("hyperbolic_z8.json")


@pytest.fixture(scope="session")
def p2_doc():
    return load_corpus("p2_minkowski.json")


# --- test-only builders -------------------------------------------------------

def block_diag(*mats: Matrix) -> Matrix:
    rows = sum(m.nrows for m in mats)
    cols = sum(m.ncols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.nrows):
            for j in range(m.ncols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.nrows
        c0 += m.ncols
    return Matrix(out)


def vstack(*mats: Matrix) -> Matrix:
    width = mats[0].ncols
    if any(m.ncols != width for m in mats):
        raise ValueError("width mismatch")
    return Matrix([row for m in mats for row in m.rows])


def evaluate(p: Polynomial, x):
    """p(x) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def evaluate_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """p(m) by Horner's rule on Matrix arithmetic: the tests' reference for
    polynomials in a matrix, independent of how the package combines
    powers."""
    n = m.nrows
    acc = Matrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m + Matrix.identity(n) * c
    return acc


def affine_compose(a: AffineAuto, b: AffineAuto) -> AffineAuto:
    """a after b: x -> A(Bx + s) + t. The group law that close_group runs
    on int tuples, written on AffineAuto objects for the tests' oracles."""
    tr = [sum(map(mul, row, b.translation)) + t for row, t in zip(a.linear.rows, a.translation)]
    return AffineAuto(a.linear @ b.linear, tuple(Fraction(x) for x in tr))


# p2_minkowski with one change each, and the check that rejects the changed
# document: (change, invariant, message)
PROBLEM_DOCUMENT_CHANGES = [
    # a ray of a reduced-form domain pushed past the cone b^2 <= 4ac
    ({"domain_rays": [[0, 0, 1], [1, 0, 1], [1, 5, 1]]},
     "domain_rays", "rays must lie in the closed cone"),
    ({"generators": {"S": [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
                     "T": [[2, 0, 0], [2, 1, 0], [1, 1, 1]]}},
     "generator_unimodular", "generator T must be unimodular"),
    # unimodular, but b^2 - 4ac is not preserved
    ({"generators": {"T": [[1, 0, 0], [2, 1, 0], [1, 100, 1]]}},
     "generator_cone", "generator T must map the cone of positive forms onto itself"),
    # -I preserves b^2 - 4ac but swaps the positive and negative forms
    ({"generators": {"S": [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
                     "M": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}},
     "generator_cone", "generator M must map the cone of positive forms onto itself"),
]


def minkowski_domain_p2() -> PolyhedralCone:
    """Reduced positive binary forms 0 <= b <= a <= c in (a, b, c) space."""
    return PolyhedralCone.from_rays([(0, 0, 1), (1, 0, 1), (1, 1, 1)])


# --- references that the package no longer carries ----------------------------

def positive_definite(rows) -> bool:
    """Whether an integer symmetric matrix is positive definite.

    Sylvester's criterion by fraction-free symmetric elimination (Bareiss
    1968) in the given order: the k-th pivot is the k-th leading principal
    minor, so the elimination stops at the first one that is not positive.
    Only the upper triangle of the remaining block is updated. This loop is
    the reference for the compiled ``_kernels.positive_definite_test``."""
    a = [list(row) for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        row_k = a[k]
        p = row_k[k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_k[i]
            for j in range(i, n):
                row_i[j] = (p * row_i[j] - f * row_k[j]) // prev
        prev = p
    return True


def count_roots_in_interval(p: Polynomial, a, b) -> int:
    """Exact number of distinct real roots of p in (a, b], from the Sturm
    chain of p's squarefree part; a and b are rationals, None means -infinity
    / +infinity. The reference for the root tests ``all_roots_*``."""
    if p.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    if p.degree == 0:
        return 0
    if a is not None and b is not None and Fraction(a) >= Fraction(b):
        raise ValueError("interval needs a < b")
    chain = sturm_chain(p)
    va = _variations_at_infinity(chain, positive=False) if a is None else _variations_at(chain, a)
    vb = _variations_at_infinity(chain, positive=True) if b is None else _variations_at(chain, b)
    return va - vb


def reference_sturm_chain(p: Polynomial, squarefree_part: bool = True) -> list[list[int]]:
    """The Sturm chain by Euclid's algorithm on Fraction polynomials, each
    member scaled to a primitive integer list: the reference for
    ``sturm_chain``'s integer remainder sequence."""
    q = p.squarefree_part() if squarefree_part else p
    chain = [q, q.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return [list(primitive_tuple(c.coeffs)) for c in chain if not c.is_zero]


def reference_poly_xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Extended Euclid on Fraction polynomials: (g, u, v) with u*a + v*b = g
    and g monic. The reference for ``poly_xgcd``."""
    r0, r1 = a, b
    s0, s1 = Polynomial([1]), Polynomial([])
    t0, t1 = Polynomial([]), Polynomial([1])
    while not r1.is_zero:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv = Fraction(1, 1) / r0.leading
    return r0 * inv, s0 * inv, t0 * inv


def _json_entry(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def ei_power_data(n: int, cyclic: bool = False) -> dict:
    """E_i^n: n copies of J = [[0, -1], [1, 0]], E = [[0, 1], [-1, 0]],
    with the cyclic factor permutation as its group when cyclic."""
    r = 2 * n
    j, e = [[0] * r for _ in range(r)], [[0] * r for _ in range(r)]
    for k in range(n):
        j[2 * k][2 * k + 1], j[2 * k + 1][2 * k] = -1, 1
        e[2 * k][2 * k + 1], e[2 * k + 1][2 * k] = 1, -1
    data = {
        "schema": "conecrafter/1", "kind": "torus", "name": f"ei{n}", "rank": r,
        "complex_structure": j, "polarization": e,
    }
    if cyclic:
        shift = [[int(i // 2 == (k // 2 + 1) % n and i % 2 == k % 2) for k in range(r)] for i in range(r)]
        data["name"] += "_cyclic"
        data["group"] = {"generators": [{"linear": shift}]}
    return data


def transported_data(data: dict, seed: int) -> dict:
    """data moved by a seeded P in GL(r, Z), a product of r transvections
    with multipliers +-1: J -> P^-1 J P, E -> P^T E P, and each generator
    x -> g x + t becomes x -> P^-1 g P x + P^-1 t. The normalizer and the
    test classes are dropped; expect_ghv is kept, since freeness and
    translations survive the change of basis."""
    rng = random.Random(seed)
    r = data["rank"]
    p = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    p_inv = [row[:] for row in p]
    for _ in range(r):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        for row in p:  # p @ (I + c e_ij)
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]  # (I - c e_ij) @ p_inv

    def read(m):
        return [[Fraction(x) for x in row] for row in m]

    def written(m):
        return [[_json_entry(x) for x in row] for row in m]

    def conjugate(m):
        return written(_product(_product(p_inv, read(m)), p))

    out = {k: v for k, v in data.items() if k not in ("normalizer", "test_classes")}
    out["name"] = f"{data['name']}_transported{seed}"
    out["complex_structure"] = conjugate(data["complex_structure"])
    pt = [list(col) for col in zip(*p)]
    out["polarization"] = written(_product(_product(pt, read(data["polarization"])), p))
    if "group" in data:
        gens = []
        for g in data["group"]["generators"]:
            moved = {"linear": conjugate(g["linear"])}
            if "translation" in g:
                t = _product(p_inv, [[Fraction(x)] for x in g["translation"]])
                moved["translation"] = [_json_entry(row[0]) for row in t]
            gens.append(moved)
        out["group"] = {"generators": gens}
    return out
