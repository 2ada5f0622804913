import json
import os
import random
from fractions import Fraction
from operator import mul

import pytest

from conecrafter.documents import load_document
from conecrafter.matrices import Matrix, definiteness_sign, primitive_tuple, trace_gram
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
    the reference for the compiled ``_kernels.positive_definite_form``."""
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
    and g monic, the source of reference_central_idempotents' Lagrange
    polynomials."""
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


def _transport(r: int, seed: int):
    """The seeded P in GL(r, Z), a product of r transvections with
    multipliers +-1, and P^-1, as Fraction rows."""
    rng = random.Random(seed)
    p = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    p_inv = [row[:] for row in p]
    for _ in range(r):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        for row in p:  # p @ (I + c e_ij)
            row[j] += c * row[i]
        p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[j])]  # (I - c e_ij) @ p_inv
    return p, p_inv


def _read(m):
    return [[Fraction(x) for x in row] for row in m]


def _written(m):
    return [[_json_entry(x) for x in row] for row in m]


def _conjugate(p, p_inv, m):
    return _written(_product(_product(p_inv, _read(m)), p))


def transported_matrix(data: dict, seed: int, m) -> list:
    """A linear map m of data's lattice in the coordinates of
    transported_data(data, seed): P^-1 m P. A normalizer moves this way."""
    return _conjugate(*_transport(data["rank"], seed), m)


def transported_data(data: dict, seed: int) -> dict:
    """data moved by the seeded P of _transport: J -> P^-1 J P,
    E -> P^T E P, and each generator x -> g x + t becomes
    x -> P^-1 g P x + P^-1 t. The normalizer and the test classes are
    dropped (transported_matrix moves a normalizer); expect_ghv is kept,
    since freeness and translations survive the change of basis."""
    p, p_inv = _transport(data["rank"], seed)

    def conjugate(m):
        return _conjugate(p, p_inv, m)

    out = {k: v for k, v in data.items() if k not in ("normalizer", "test_classes")}
    out["name"] = f"{data['name']}_transported{seed}"
    out["complex_structure"] = conjugate(data["complex_structure"])
    pt = [list(col) for col in zip(*p)]
    out["polarization"] = _written(_product(_product(pt, _read(data["polarization"])), p))
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


# --- endo's two Rosati verdicts, checked on an algebra's d x d basis ---------


def rosati_all(t, phis) -> tuple[Matrix, ...]:
    """The Rosati adjoints E^-1 @ phi.T @ E of several matrices from two
    products: the stacked transposes times E, then E^-1 times those blocks
    side by side."""
    if not phis:
        return ()
    n = t.rank
    blocks = (Matrix.trusted(tuple(row for phi in phis for row in phi.T.rows)) @ t.e).rows
    side = Matrix.trusted(tuple(tuple(x for block in blocks[i::n] for x in block) for i in range(n)))
    images = (t.e_inv @ side).rows
    return tuple(
        Matrix.trusted(tuple(row[k:k + n] for row in images)) for k in range(0, n * len(phis), n)
    )


def rosati_images(algebra) -> tuple[Matrix, ...]:
    """The Rosati adjoint of each basis element, in basis order, taken
    once per algebra object (cached on it, as a cached_property would)."""
    if "rosati_images" not in algebra.__dict__:
        algebra.__dict__["rosati_images"] = rosati_all(algebra.torus, algebra.basis)
    return algebra.__dict__["rosati_images"]


def algebra_contains(algebra, m: Matrix) -> bool:
    """Whether m lies in the span of the algebra's basis over Q."""
    from conecrafter.errors import ValidationError

    try:
        algebra.coordinates(m)
        return True
    except ValidationError:
        return False


def rosati_gram(algebra) -> Matrix:
    """Gram matrix of the pairing (x, y) -> Tr(x @ rosati(y)) on the basis."""
    return trace_gram(algebra.basis, rosati_images(algebra))


def rosati_fixes_algebra(algebra) -> bool:
    """Whether the Rosati image of every basis element lies in the span."""
    return all(algebra_contains(algebra, r) for r in rosati_images(algebra))


def trace_positivity_check(algebra) -> bool:
    """Whether (x, y) -> Tr(x @ rosati(y)) is a symmetric positive definite
    pairing on the algebra, the positivity of the Rosati involution."""
    gram = rosati_gram(algebra)
    assert gram == gram.T, "the Rosati trace pairing must be symmetric"
    return definiteness_sign(gram) == 1


# --- the form lattice as a kernel, the oracle of reading it off an algebra ---


def congruence_rows(g: Matrix) -> list[list]:
    """Constraint rows of M -> g.T @ M @ g - M: entry (i, j) puts
    g[k][i] * g[l][j] on M[k][l]."""
    n = g.nrows
    cols = [g.col(j) for j in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [a * b for a in cols[i] for b in cols[j]]
            row[i * n + j] -= 1
            rows.append(row)
    return rows


def antisymmetry_rows(n: int) -> list[list]:
    """Constraint rows of M -> M + M.T on row-major n x n matrices."""
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            row[i * n + j] += 1
            row[j * n + i] += 1
            rows.append(row)
    return rows


def reference_form_lattice(t, maps) -> tuple[Matrix, ...]:
    """Canonical basis of {F integral : F alternating, g.T F g = F for g
    in maps}, as a kernel in the r^2 entries of F: the antisymmetry rows
    and the congruence rows of each map. With maps J alone that is NS(T);
    with J and the group's linear generators, the invariant lattice."""
    from conecrafter.matrices import matrix_kernel_basis

    rows = antisymmetry_rows(t.rank)
    for g in maps:
        rows.extend(congruence_rows(g))
    return tuple(matrix_kernel_basis(rows, (t.rank, t.rank)))


def reference_ns_from_end(t) -> tuple[Matrix, ...]:
    """NS(T) by the route compute_ns took before it solved J.T F J = F on
    the upper entries of F: read off End(T), as the integer points of the
    span of the forms E @ b - (E @ b).T of its basis."""
    from conecrafter.endo import compute_end, form_vectors
    from conecrafter.matrices import span_lattice

    return tuple(
        Matrix._from_flat_entries(list(row), t.rank, True)
        for row in span_lattice(form_vectors(t, compute_end(t).basis))
    )


# --- the general decomposition route, as the oracle of its shortcuts ---------


def reference_center_basis(algebra):
    """The center cut out by the commutator rows of every constraint (J
    and the linear generators) and of every basis element."""
    from conecrafter.endo import _commutant

    return _commutant(algebra.torus, algebra.commutants + algebra.basis, "center")


def reference_central_idempotents(algebra, center):
    """e_i = L_i(z) for the Lagrange polynomial u_i * q_i of each
    irreducible factor m_i of the primitive element's minimal polynomial,
    u_i from extended Euclid on Fractions (reference_poly_xgcd), one power
    product per idempotent, each checked idempotent, fixed, orthogonal,
    and summing to I, whatever the number of factors."""
    from conecrafter.endo import rosati
    from conecrafter.polynomials import factor_squarefree_small
    from conecrafter.wedderburn import primitive_center_element

    z, mu = primitive_center_element(algebra, center)
    n = algebra.rank
    out = []
    for m_i in factor_squarefree_small(mu):
        q_i = mu // m_i
        g, u, _ = reference_poly_xgcd(q_i, m_i)
        assert g.degree == 0
        e, power = Matrix.zeros(n, n), Matrix.identity(n)
        for c in (u * q_i).coeffs:
            e, power = e + power * c, power @ z
        out.append((e, m_i))
    for a, (e, _) in enumerate(out):
        assert e @ e == e and rosati(algebra.torus, e) == e
        assert all((e @ f).is_zero for f, _ in out[a + 1:])
    assert sum((e for e, _ in out), Matrix.zeros(n, n)) == Matrix.identity(n)
    return out


def reference_saturation(rows) -> tuple[tuple[int, ...], ...]:
    """HNF-canonical basis of the integer points of the span of rational
    rows, as the integer kernel of the integer kernel of the rows: the
    second kernel cuts out the vectors orthogonal to everything the rows
    annihilate, which is their span."""
    from conecrafter.matrices import integer_kernel_matrix

    ints = Matrix([Matrix([row]).to_integer()[0].rows[0] for row in rows])
    annihilator = integer_kernel_matrix(ints)
    if annihilator is None:
        return Matrix.identity(ints.ncols).rows
    return integer_kernel_matrix(annihilator).rows


def reference_classify_factor(algebra, center, e, m_poly):
    """The factor's counts from the products e @ b and rosati(b) @ e of
    every basis and center element, with the Rosati images taken one by
    one, and its fixed forms E @ (e @ b + rosati(b) @ e), saturated by
    kernels."""
    from conecrafter.endo import rosati
    from conecrafter.polynomials import count_real_roots
    from conecrafter.wedderburn import SimpleFactor, _rank, lookup_kind

    t = algebra.torus

    def fixed(mats):
        return [t.e @ (e @ m + rosati(t, m) @ e) for m in mats]

    def ranks(mats):
        return _rank([(e @ m).flat() for m in mats]), _rank([f.flat() for f in fixed(mats)])

    dim, fixed_dim = ranks(algebra.basis)
    forms = reference_saturation([f.flat() for f in fixed(algebra.basis)])
    assert len(forms) == fixed_dim
    k, f_z = ranks(center)
    places = k if f_z == k else f_z
    assert (f_z == k and count_real_roots(m_poly) == k) or (2 * f_z == k and count_real_roots(m_poly) == 0)
    kind, size = lookup_kind(dim // places, fixed_dim // places)
    return SimpleFactor(kind, size, e, tuple(m_poly.monic().coeffs), k, places, dim, forms)


def reference_decompose(algebra):
    """The simple factors by the general route: the all-rows center, the
    Lagrange idempotents and the product-based counts."""
    center = reference_center_basis(algebra)
    return tuple(
        reference_classify_factor(algebra, center, e, m_poly)
        for e, m_poly in reference_central_idempotents(algebra, center)
    )


def reference_cone_structure(t, group):
    """The invariant lattice and each factor's cone by the general route:
    the projection P: F -> E e E^-1 F e in invariant coordinates, and its
    image as the saturated kernel of I - P, for every factor. Returns the
    lattice and, per factor, its flag, P and piece."""
    from conecrafter.cone import NSLattice, _cone_flag
    from conecrafter.endo import invariant_subalgebra
    from conecrafter.matrices import integer_kernel_matrix

    inv = NSLattice(t, reference_form_lattice(t, (t.j, *group.linear_generators)))
    ident = Matrix.identity(inv.rank)
    factors = []
    for sf in reference_decompose(invariant_subalgebra(t, group)):
        e = sf.idempotent
        projection = inv.matrix_of([t.e @ (e @ t.e_inv @ b @ e) for b in inv.basis])
        kernel = integer_kernel_matrix((ident - projection).to_integer()[0])
        piece = () if kernel is None else kernel.rows
        assert projection.rank() == len(piece) == sf.fixed_dim
        factors.append((_cone_flag(len(piece)), projection, piece))
    assert sum((p for _, p, _ in factors), Matrix.zeros(inv.rank, inv.rank)) == ident
    return inv, tuple(factors)
