"""Seeded benchmark inputs, built without conecrafter so that the oracles
stay independent of the code under test.

- ``ladder_pass``: documents for one pass of the E_i^n rank ladder. E_i is
  the elliptic curve with an order-4 automorphism (J = [[0,-1],[1,0]],
  E = [[0,1],[-1,0]]); E_i^n is its n-fold product, of rank 2n.
- ``grid_classes``: classes (a, b, c, d) on ``product_gauss_squared``.
"""

from __future__ import annotations

import random

LADDER_PLAIN = (1, 2, 3)
LADDER_CYCLIC = (2,)
# Transported copies of the plain tori per pass as (n, copies); each copy
# draws a fresh P, so a run averages over many transports. The cyclic torus
# is not transported: after a seeded P the factor search of the Wedderburn
# step costs 0.1 to 3 s per command at rank 4, too heavy-tailed for a steady
# median, and at rank 6 it can exceed its budget (exit 2).
LADDER_TRANSPORTED = ((1, 1), (2, 2))
GRID_BOX = 8  # the box [-8, 8]^4 contains the [-5, 5]^4 acceptance grid


def identity(r: int) -> list[list[int]]:
    return [[int(i == j) for j in range(r)] for i in range(r)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def ei_power(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Complex structure and principal polarization of E_i^n."""
    r = 2 * n
    j, e = [[0] * r for _ in range(r)], [[0] * r for _ in range(r)]
    for k in range(n):
        j[2 * k][2 * k + 1], j[2 * k + 1][2 * k] = -1, 1
        e[2 * k][2 * k + 1], e[2 * k + 1][2 * k] = 1, -1
    return j, e


def cyclic_shift(n: int) -> list[list[int]]:
    """Linear part of the automorphism moving factor k to factor k+1 mod n."""
    r = 2 * n
    g = [[0] * r for _ in range(r)]
    for k in range(n):
        to = (k + 1) % n
        g[2 * to][2 * k] = g[2 * to + 1][2 * k + 1] = 1
    return g


def unimodular(rng: random.Random, r: int, steps: int):
    """A seeded P in GL(r, Z) as a product of `steps` transvections with
    multipliers +-1, returned with its inverse."""
    p, p_inv = identity(r), identity(r)
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-1, 1))
        t, t_inv = identity(r), identity(r)
        t[i][j], t_inv[i][j] = c, -c
        p, p_inv = matmul(p, t), matmul(t_inv, p_inv)
    return p, p_inv


def torus_doc(name: str, j, e, gens=()) -> dict:
    doc = {
        "schema": "conecrafter/1",
        "kind": "torus",
        "name": name,
        "rank": len(j),
        "complex_structure": j,
        "polarization": e,
    }
    if gens:
        doc["group"] = {"generators": [{"linear": g} for g in gens]}
    return doc


def ladder_doc(n: int, cyclic: bool, transport=None, name: str | None = None) -> dict:
    """E_i^n, optionally with the cyclic factor permutation as its group,
    optionally transported by (P, P^-1): J -> P^-1 J P, E -> P^T E P,
    g -> P^-1 g P."""
    j, e = ei_power(n)
    gens = [cyclic_shift(n)] if cyclic else []
    if transport is not None:
        p, p_inv = transport
        j = matmul(matmul(p_inv, j), p)
        e = matmul(matmul(transpose(p), e), p)
        gens = [matmul(matmul(p_inv, g), p) for g in gens]
    label = name or f"ei{n}{'_cyclic' if cyclic else ''}"
    return torus_doc(label, j, e, gens)


def ladder_expectation(n: int, cyclic: bool) -> dict:
    """Closed forms for E_i^n: End is M_n(Q(i)), and the centralizer of the
    cyclic factor permutation is the circulants over Q(i)."""
    return {
        "end_dim": 2 * n * n,
        "invariant_dim": 2 * n if cyclic else 2 * n * n,
        "ns_rank": n * n,
        "invariant_rank": n if cyclic else n * n,
    }


def ladder_pass(seed: int, k: int) -> list[tuple[str, int, bool, dict]]:
    """(label, n, cyclic, document) for pass k. The untransported rungs are
    the same in every pass; each transported copy draws a fresh P."""
    rng = random.Random(f"ladder:{seed}:{k}")
    docs = []
    for n in LADDER_PLAIN:
        docs.append((f"ei{n}", n, False, ladder_doc(n, False)))
    for n in LADDER_CYCLIC:
        docs.append((f"ei{n}_cyclic", n, True, ladder_doc(n, True)))
    for n, copies in LADDER_TRANSPORTED:
        for c in range(copies):
            label = f"ei{n}_transported{c}"
            p = unimodular(rng, 2 * n, 2 * n)
            docs.append((label, n, False, ladder_doc(n, False, p, label)))
    return docs


def grid_classes(seed: int, k: int, count: int) -> list[tuple[int, int, int, int]]:
    """Block k of the ample-grid draw: `count` classes from [-8, 8]^4."""
    rng = random.Random(f"grid:{seed}:{k}")
    return [
        tuple(rng.randint(-GRID_BOX, GRID_BOX) for _ in range(4)) for _ in range(count)
    ]


def grid_form(a: int, b: int, c: int, d: int) -> list[list[int]]:
    """The form of class (a, b, c, d) in the basis of the acceptance test."""
    return [[0, a, d, c], [-a, 0, -c, d], [-d, c, 0, b], [-c, -d, -b, 0]]


def grid_expectation(a: int, b: int, c: int, d: int) -> tuple[bool, bool]:
    """(ample, nef) in closed form: the form is ample iff a > 0 and
    ab - c^2 - d^2 > 0, and nef iff a, b >= 0 and ab - c^2 - d^2 >= 0."""
    disc = a * b - c * c - d * d
    return a > 0 and disc > 0, a >= 0 and b >= 0 and disc >= 0
