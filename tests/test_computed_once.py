"""Structures that a document needs many times are built once: the center
of an algebra, the inverse of the polarization, the symmetric generators
of a reduction problem."""

import conecrafter.endo as endo
from conecrafter.cone import is_ample, is_nef
from conecrafter.endo import invariant_subalgebra, rosati
from conecrafter.matrices import Matrix
from conecrafter.pipeline import prepare_torus
from conecrafter.reduction import binary_quadratic_problem
from conecrafter.torus import PolarizedTorus
from conecrafter.wedderburn import decompose

from conftest import load_corpus


def test_decompose_computes_the_center_once(monkeypatch):
    calls = []
    original = endo.center_basis

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(endo, "center_basis", counted)
    ctx = prepare_torus(load_corpus("bielliptic_z4.json"))
    sub = invariant_subalgebra(ctx.invariant_torus, ctx.group)
    dec = decompose(sub.algebra)
    assert len(dec.factors) > 1
    assert calls == [sub.algebra]
    decompose(sub.algebra, seed=1000)
    assert len(calls) == 1


def test_ampleness_inverts_the_polarization_once(monkeypatch):
    doc = load_corpus("product_gauss_squared.json")
    t = PolarizedTorus(doc.torus.j, doc.torus.e)
    inverted = []
    original = Matrix.inverse

    def counted(self):
        if self == t.e:
            inverted.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    assert is_ample(t, t.e)
    assert is_nef(t, t.e)
    assert not is_ample(t, -t.e)
    assert rosati(t, t.j) == -t.j
    assert len(inverted) == 1


def test_symmetric_generators_are_built_once():
    prob = binary_quadratic_problem()
    first = prob.symmetric_generators
    assert prob.symmetric_generators is first
    prob.word_ball(2)
    assert prob.symmetric_generators is first
