"""Acceptance gate: ten end-to-end criteria, one summary line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every criterion is exact (integer or Fraction arithmetic throughout) and
cross-checked against an oracle implemented here, independent of the
library code paths it certifies.
"""

import glob
import itertools
import json
import os
import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest

from conecrafter.cli import main as cli_main
from conecrafter.cone import compute_ns, is_ample, ns_to_endo
from conecrafter.endo import compute_end, invariant_subalgebra, rosati
from conecrafter.errors import ValidationError
from conecrafter.matrices import Matrix, hermite_normal_form
from conecrafter.pipeline import (
    build_domain,
    build_torus_problem,
    prepare_torus,
)
from conecrafter.reduction import (
    PolyhedralCone,
    binary_quadratic_problem,
    find_interior_overlap,
    gauss_reduce,
    is_gauss_reduced,
    pell_fundamental_unit,
    pell_positive_unit,
    pushdown_domain,
    transform_form,
    verify_tiling,
)
from conecrafter.wedderburn import central_idempotents, decompose, lookup_kind

from conftest import algebra_contains, corpus_path, load_corpus

CORPUS_NAMES = [
    "elliptic_gauss",
    "product_gauss_squared",
    "bielliptic_z4",
    "hyperbolic_z8",
    "p2_minkowski",
]

# every broken variant in corpus/mutants, so a new mutant is covered too
MUTANTS = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(corpus_path("mutants/*.json"))
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2}: FAIL  {label}")
        raise
    print(f"criterion {num:>2}: PASS  {label}")


@pytest.fixture(scope="module")
def contexts():
    return {
        name: prepare_torus(load_corpus(name + ".json"))
        for name in CORPUS_NAMES
        if name != "p2_minkowski"
    }


# --- shared oracle helpers --------------------------------------------------


def _rank_q(rows) -> int:
    """Row rank over Q by plain Gaussian elimination on Fraction copies."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def _lattice_rows(vectors) -> tuple:
    """Canonical basis of the integer row span, as the nonzero HNF rows."""
    h, _ = hermite_normal_form(Matrix([list(v) for v in vectors]))
    return tuple(row for row in h.rows if any(row))


def _flatten(m: Matrix) -> tuple:
    return tuple(m[i, j] for i in range(m.nrows) for j in range(m.ncols))


def _commuting_blocks():
    """All 2x2 integer blocks with entries in [-3,3] commuting with
    [[0,-1],[1,0]], by full enumeration of the 7^4 box."""
    out = []
    span = range(-3, 4)
    for b00, b01, b10, b11 in itertools.product(span, span, span, span):
        rb = (-b10, -b11, b00, b01)
        br = (b01, -b00, b11, -b10)
        if rb == br:
            out.append((b00, b01, b10, b11))
    return out


# --- criteria ----------------------------------------------------------------


def test_criterion_01_endomorphism_ranks(contexts):
    with criterion(1, "End/NS ranks match [-3,3] box enumeration lattices"):
        blocks = _commuting_blocks()
        assert len(blocks) == 49

        t1 = contexts["elliptic_gauss"].torus
        end1 = compute_end(t1)
        assert end1.dim == 2
        box_lattice = _lattice_rows(blocks)
        lib_lattice = _lattice_rows([_flatten(b) for b in end1.basis])
        assert box_lattice == lib_lattice

        t2 = contexts["product_gauss_squared"].torus
        end2 = compute_end(t2)
        assert end2.dim == 8
        # commuting with J = diag(R, R) decouples into the four 2x2 block
        # positions; certify that on every unit matrix before using it
        j = t2.j
        for k in range(4):
            for l in range(4):
                e = Matrix([[1 if (i, m) == (k, l) else 0 for m in range(4)] for i in range(4)])
                c = j @ e - e @ j
                for i in range(4):
                    for m in range(4):
                        if c[i, m] != 0:
                            assert i // 2 == k // 2 and m // 2 == l // 2
        # so the box solutions are spanned by one-block solutions, each a
        # fully enumerated 7^4 box of its own
        gens = []
        for bi, bj in itertools.product((0, 1), (0, 1)):
            for b00, b01, b10, b11 in blocks:
                flat = [0] * 16
                flat[(2 * bi) * 4 + 2 * bj] = b00
                flat[(2 * bi) * 4 + 2 * bj + 1] = b01
                flat[(2 * bi + 1) * 4 + 2 * bj] = b10
                flat[(2 * bi + 1) * 4 + 2 * bj + 1] = b11
                gens.append(tuple(flat))
        assert _lattice_rows(gens) == _lattice_rows([_flatten(b) for b in end2.basis])

        ns2 = compute_ns(t2)
        assert ns2.rank == 4
        positions = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        action_cols = []
        for a, b in positions:
            u = Matrix([[1 if (i, m) == (a, b) else (-1 if (i, m) == (b, a) else 0)
                         for m in range(4)] for i in range(4)])
            img = j.T @ u @ j
            action_cols.append([int(img[p, q]) for p, q in positions])
        rows = [tuple(action_cols[c][r] for c in range(6)) for r in range(6)]
        sols = []
        span = range(-3, 4)
        for v in itertools.product(span, repeat=6):
            for i, r in enumerate(rows):
                s = (r[0] * v[0] + r[1] * v[1] + r[2] * v[2]
                     + r[3] * v[3] + r[4] * v[4] + r[5] * v[5])
                if s != v[i]:
                    break
            else:
                sols.append(v)
        assert len(sols) == 7 ** 4
        ns_vectors = [tuple(f[a, b] for a, b in positions) for f in ns2.basis]
        assert _lattice_rows(sols) == _lattice_rows(ns_vectors)


def test_criterion_02_rosati_suite(contexts):
    with criterion(2, "Rosati adjoint/involution/positivity, 500 samples per algebra"):
        rng = random.Random(20260814)
        group_checks = 0
        for name, ctx in contexts.items():
            t = ctx.torus
            end = compute_end(t)
            samples = 0
            while samples < 500:
                coords = [rng.randint(-4, 4) for _ in range(end.dim)]
                if not any(coords):
                    continue
                phi = end.from_coordinates(coords)
                f = end.from_coordinates([rng.randint(-4, 4) for _ in range(end.dim)])
                g = end.from_coordinates([rng.randint(-4, 4) for _ in range(end.dim)])
                adj = rosati(t, phi)
                assert adj.T @ t.e == t.e @ phi
                assert rosati(t, f @ g) == rosati(t, g) @ rosati(t, f)
                assert rosati(t, adj) == phi
                assert (phi @ adj).trace() > 0
                samples += 1
            for elem in ctx.group.elements:
                lin = elem.linear
                assert lin.T @ t.e @ lin == t.e
                assert rosati(t, lin) == lin.inverse()
                group_checks += 1
        # two trivial groups plus the order-4 and order-8 corpus actions
        assert group_checks == 1 + 1 + 4 + 8


def test_criterion_03_symmetric_part(contexts):
    with criterion(3, "NS embeds onto the Rosati-fixed subspace, dimension-exact"):
        for ctx in contexts.values():
            t = ctx.torus
            end = compute_end(t)
            ns = compute_ns(t)
            # fixed-subspace dimension from scratch: nullity of the
            # coefficient map x -> sum x_i (b_i - b_i')
            moved = [_flatten(b - rosati(t, b)) for b in end.basis]
            fixed_dim = end.dim - _rank_q(moved)
            images = [ns_to_endo(t, f) for f in ns.basis]
            for img in images:
                assert rosati(t, img) == img
                assert algebra_contains(end, img)
            assert _rank_q([_flatten(img) for img in images]) == ns.rank
            assert fixed_dim == ns.rank


def test_criterion_04_wedderburn(contexts):
    with criterion(4, "kind table collision-free to dim 64; corpus factor shapes"):
        table = {}
        for l in range(1, 9):
            key = (l * l, l * (l + 1) // 2)
            assert key not in table
            table[key] = ("RealMatrix", l)
        for m in range(1, 6):
            key = (2 * m * m, m * m)
            assert key not in table
            table[key] = ("ComplexMatrix", m)
        for q in range(1, 5):
            key = (4 * q * q, 2 * q * q - q)
            assert key not in table
            table[key] = ("QuaternionMatrix", q)
        for key, kind in table.items():
            assert lookup_kind(*key) == kind
        for d in range(65):
            for f in range(d + 1):
                if (d, f) not in table:
                    with pytest.raises(ValidationError):
                        lookup_kind(d, f)

        product_alg = compute_end(contexts["product_gauss_squared"].torus)
        assert [f.label for f in decompose(product_alg).factors] == ["ComplexMatrix(2)"]

        ctx = contexts["bielliptic_z4"]
        inv_alg = invariant_subalgebra(ctx.invariant_torus, ctx.group)
        dec = decompose(inv_alg)
        assert len(dec.factors) == 2
        assert all(f.size == 1 for f in dec.factors)

        for alg in (product_alg, inv_alg):
            idems = central_idempotents(alg)
            n = alg.rank
            total = Matrix.zeros(n, n)
            for i, (e, _) in enumerate(idems):
                assert e @ e == e
                assert rosati(alg.torus, e) == e
                total = total + e
                for e2, _ in idems[i + 1:]:
                    assert e @ e2 == Matrix.zeros(n, n)
                    assert e2 @ e == Matrix.zeros(n, n)
            assert total == Matrix.identity(n)


def test_criterion_05_ampleness_grid(contexts):
    with criterion(5, "Sturm ampleness equals closed form on the 14641-class grid"):
        t = contexts["product_gauss_squared"].torus
        span = range(-5, 6)
        checked = 0
        ample_seen = 0
        for a, b, c, d in itertools.product(span, span, span, span):
            f = Matrix([
                [0, a, d, c],
                [-a, 0, -c, d],
                [-d, c, 0, b],
                [-c, -d, -b, 0],
            ])
            expected = a > 0 and a * b - c * c - d * d > 0
            got = is_ample(t, f)
            assert got == expected, (a, b, c, d)
            checked += 1
            ample_seen += got
        assert checked == 11 ** 4
        assert 0 < ample_seen < checked


def test_criterion_06_gauss_reduction():
    with criterion(6, "exhaustive Gauss reduction to 15 with certificate words"):
        count = 0
        for a in range(1, 16):
            for c in range(1, 16):
                for b in range(-15, 16):
                    if b * b - 4 * a * c >= 0:
                        continue
                    form = (a, b, c)
                    reduced, word = gauss_reduce(form)
                    ra, rb, rc = reduced
                    assert 0 <= rb <= ra <= rc
                    assert is_gauss_reduced(reduced)
                    assert rb * rb - 4 * ra * rc == b * b - 4 * a * c
                    assert transform_form(form, word.matrix) == reduced
                    count += 1
        assert count > 5000
        reduced, word = gauss_reduce((7, 10, 4))
        assert reduced == (1, 0, 3)
        assert transform_form((7, 10, 4), word.matrix) == (1, 0, 3)


def test_criterion_07_pell():
    with criterion(7, "Pell minimal units by substitution and exhaustive scan"):
        for d in (2, 3, 5, 7, 13):
            s = pell_fundamental_unit(d)
            assert s.x * s.x - d * s.y * s.y == s.norm
            assert s.norm in (1, -1)
            for y in range(1, s.y):
                # |x^2 - d y^2| = 1 forces x in {isqrt(dy^2 - 1), isqrt(dy^2 + 1)}
                for x in (isqrt(d * y * y - 1), isqrt(d * y * y + 1)):
                    if x >= 1:
                        assert abs(x * x - d * y * y) != 1
            px, py = pell_positive_unit(d)
            assert px * px - d * py * py == 1
            for y in range(1, py):
                x = isqrt(d * y * y + 1)
                assert x * x - d * y * y != 1
        assert pell_positive_unit(5) == (9, 4)


def test_criterion_08_tiling(contexts):
    with criterion(8, "1000-sample tiling into both domains, overlap only when enlarged"):
        ctx = contexts["hyperbolic_z8"]
        built = build_domain(ctx)
        problem = build_torus_problem(ctx, built)
        tiling = verify_tiling(problem, built.domain, samples=1000, seed=42, max_steps=200)
        assert tiling.complete
        assert tiling.verified == tiling.samples == 1000
        assert not tiling.failures

        p2_doc = load_corpus("p2_minkowski.json")
        p2_problem = binary_quadratic_problem(p2_doc.generators)
        p2_domain = PolyhedralCone.from_rays(p2_doc.domain_rays)
        p2_tiling = verify_tiling(p2_problem, p2_domain, samples=1000, seed=42, max_steps=20_000)
        assert p2_tiling.complete
        assert p2_tiling.verified == p2_tiling.samples == 1000
        assert not p2_tiling.failures

        assert find_interior_overlap(problem, built.domain, seed=42) is None
        assert find_interior_overlap(p2_problem, p2_domain, seed=42) is None

        fat_sector = PolyhedralCone.from_rays([(-2, 3), (2, 3)])
        witness = find_interior_overlap(problem, fat_sector, seed=42)
        assert witness is not None
        assert witness.word.matrix @ Matrix([[x] for x in witness.point]) == Matrix(
            [[x] for x in witness.image]
        )

        fat_minkowski = PolyhedralCone.from_rays([(0, 0, 1), (1, 1, 1), (1, -1, 1)])
        assert find_interior_overlap(p2_problem, fat_minkowski, seed=42) is not None


def test_criterion_09_pushdown_identities(contexts):
    with criterion(9, "quotient transfer: push/pull compose to 4*id and group sum"):
        ctx = contexts["bielliptic_z4"]
        built = build_domain(ctx)
        push = pushdown_domain(built.structure)
        assert push.group_order == ctx.group.order == 4
        inv_rank = built.structure.invariant.rank
        assert push.pushforward @ push.pullback == Matrix.identity(inv_rank) * 4
        transfer = None
        for g in ctx.group.elements:
            p = built.structure.ns.pullback_matrix(g.linear)
            transfer = p if transfer is None else transfer + p
        assert push.pullback @ push.pushforward == transfer
        assert push.verified


def test_criterion_10_cli_end_to_end(capsys):
    with criterion(10, "verify exits 0 on corpus, nonzero with named failure on mutants"):
        for name in CORPUS_NAMES:
            code = cli_main(["verify", corpus_path(name + ".json")])
            out = capsys.readouterr().out
            assert code == 0, name
            assert json.loads(out)["complete"] is True
        assert len(MUTANTS) >= 14
        for name in MUTANTS:
            code = cli_main(["verify", corpus_path(f"mutants/{name}.json")])
            out = capsys.readouterr().out
            assert code != 0, name
            error = json.loads(out)["error"]
            if code == 2:
                assert error["type"] == "validation"
                assert error["invariant"]
            else:
                assert code == 4
                assert error["type"] == "parse"
                assert error["message"]
