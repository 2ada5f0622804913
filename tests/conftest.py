import json
import os
from fractions import Fraction
from operator import mul

import pytest

from conecrafter.documents import load_document
from conecrafter.matrices import Matrix
from conecrafter.polynomials import Polynomial
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


def minkowski_domain_p2() -> PolyhedralCone:
    """Reduced positive binary forms 0 <= b <= a <= c in (a, b, c) space."""
    return PolyhedralCone.from_rays([(0, 0, 1), (1, 0, 1), (1, 1, 1)])
