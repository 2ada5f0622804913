"""The package's value classes against the frozen dataclasses they were.

Each class was a ``@dataclass(frozen=True)`` and is now a plain class with
an explicit ``__init__`` on the shared base ``conecrafter._record.Record``.
The dataclass definitions below are the oracle: same name, fields, order,
defaults and ``__post_init__``. A converted class must take the same
arguments, run the same checks, and compare, hash and print as its
dataclass does. ``ReductionProblem`` was ``eq=False`` and compares by
identity.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conecrafter
from conecrafter import cone, documents, endo, pipeline, reduction, torus, wedderburn
from conecrafter._record import Record
from conecrafter.errors import ValidationError
from conecrafter.matrices import Matrix


# --- the oracle: the dataclasses as they were ----------------------------------

@dataclass(frozen=True)
class NSLattice:
    torus: object
    basis: tuple


@dataclass(frozen=True)
class FactorCone:
    factor: object
    flag: str
    piece: tuple


@dataclass(frozen=True)
class ConeStructure:
    torus: object
    group: object
    decomposition: object
    invariant: object
    factors: tuple


@dataclass(frozen=True)
class TorusDocument:
    name: str
    torus: object
    generators: tuple
    normalizer: object = None
    expect_ghv: object = None
    test_classes: tuple = field(default=())

    kind = "torus"


@dataclass(frozen=True)
class ProblemDocument:
    name: str
    cone: str
    domain_rays: tuple
    generators: tuple = field(default=())
    test_forms: tuple = field(default=())

    kind = "reduction_problem"


@dataclass(frozen=True)
class EndoAlgebra:
    torus: object
    basis: tuple
    commutants: tuple
    linear_parts: tuple = ()


@dataclass(frozen=True)
class TorusContext:
    document: object
    report: object
    torus: object
    flipped: bool
    group: object
    averaged: bool
    invariant_torus: object


@dataclass(frozen=True)
class DomainConstruction:
    structure: object
    domain: object
    factor_summaries: tuple
    normalizer_action: object
    downgrades: tuple = ()


@dataclass(frozen=True)
class PolyhedralCone:
    rays: tuple
    facets: tuple


@dataclass(frozen=True)
class GroupWord:
    letters: tuple
    matrix: object


@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int
    norm: int


@dataclass(frozen=True, eq=False)
class ReductionProblem:
    dim: int
    generators: tuple
    pairing: object
    base_point: tuple
    is_interior: Callable
    is_closure: Callable

    def __post_init__(self):
        for name, m in self.generators:
            if m.shape != (self.dim, self.dim) or not m.is_integral:
                raise ValidationError("generator_shape", f"generator {name} is not a {self.dim}x{self.dim} integer matrix")
            if m.det() not in (1, -1):
                raise ValidationError("generator_unimodular", f"generator {name} must be unimodular")
        if not self.is_interior(self.base_point):
            raise ValidationError("base_point", "base point must be interior")


@dataclass(frozen=True)
class TilingFailure:
    point: tuple
    reason: str


@dataclass(frozen=True)
class TilingReport:
    samples: int
    verified: int
    eta: tuple
    failures: tuple = field(default=())


@dataclass(frozen=True)
class OverlapWitness:
    word: object
    point: tuple
    image: tuple


@dataclass(frozen=True)
class PushdownReport:
    pullback: object
    pushforward: object
    group_order: int
    verified: bool


@dataclass(frozen=True)
class PolarizedTorus:
    j: Matrix
    e: Matrix

    def __post_init__(self):
        if not self.j.is_square or not self.e.is_square:
            raise ValidationError("shape", "J and E must be square")
        if self.j.shape != self.e.shape:
            raise ValidationError("shape", "J and E must have equal shape")
        if self.j.nrows % 2 != 0:
            raise ValidationError("shape", "lattice rank must be even")


@dataclass(frozen=True)
class TorusCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TorusReport:
    checks: tuple
    sign: int


@dataclass(frozen=True)
class AffineAuto:
    linear: Matrix
    translation: tuple = field(default=())

    def __post_init__(self):
        if not self.linear.is_square:
            raise ValidationError("shape", "linear part must be square")
        tr = self.translation or (0,) * self.linear.nrows
        if len(tr) != self.linear.nrows:
            raise ValidationError("shape", "translation length must match rank")
        object.__setattr__(self, "translation", tuple([x % 1 for x in tr]))


@dataclass(frozen=True)
class GroupAction:
    elements: tuple
    linear_generators: tuple


@dataclass(frozen=True)
class SimpleFactor:
    kind: str
    size: int
    idempotent: object
    center_poly: tuple
    center_degree: int
    places: int
    dim: int
    forms: tuple


@dataclass(frozen=True)
class WedderburnDecomposition:
    algebra: object
    factors: tuple


PAIRS = [
    (getattr(module, oracle.__name__), oracle)
    for module, oracles in [
        (cone, (NSLattice, FactorCone, ConeStructure)),
        (documents, (TorusDocument, ProblemDocument)),
        (endo, (EndoAlgebra,)),
        (pipeline, (TorusContext, DomainConstruction)),
        (reduction, (
            PolyhedralCone, GroupWord, PellSolution, ReductionProblem,
            TilingFailure, TilingReport, OverlapWitness, PushdownReport,
        )),
        (torus, (PolarizedTorus, TorusCheck, TorusReport, AffineAuto, GroupAction)),
        (wedderburn, (SimpleFactor, WedderburnDecomposition)),
    ]
    for oracle in oracles
]
# the classes whose __init__ checks its arguments
CHECKED = ("PolarizedTorus", "AffineAuto", "ReductionProblem")


def _ids(pairs):
    return [cls.__name__ for cls, _ in pairs]


def test_every_value_class_has_its_oracle():
    """23 classes, one per dataclass the package had, each on the base."""
    assert len(PAIRS) == 23
    for cls, _ in PAIRS:
        assert issubclass(cls, Record)


@pytest.mark.parametrize("cls,oracle", PAIRS, ids=_ids(PAIRS))
def test_signature_and_fields(cls, oracle):
    """Same parameters in the same order, with the same defaults, and the
    fields the base reads are the dataclass's fields."""
    got = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
    want = [(p.name, p.kind, p.default) for p in inspect.signature(oracle).parameters.values()]
    assert got == want
    assert cls._fields == tuple(f.name for f in fields(oracle))
    if "kind" not in cls._fields:  # the documents' class attribute
        assert getattr(cls, "kind", None) == getattr(oracle, "kind", None)


@pytest.mark.parametrize("cls,oracle", PAIRS, ids=_ids(PAIRS))
def test_slots_unless_a_cached_property(cls, oracle):
    """A class keeps an instance __dict__ only when a cached_property needs one."""
    cached = any(
        isinstance(v, cached_property) for klass in cls.__mro__ for v in vars(klass).values()
    )
    assert ("__dict__" in dir(cls)) == cached
    if not cached:
        assert cls.__slots__ == cls._fields


# --- values ----------------------------------------------------------------------

# a small pool, so that independent draws are often equal; a list is unhashable
_values = st.sampled_from(
    [0, 1, True, -3, "a", "", None, (), (1, 2), ((1,), (2,)), Fraction(1, 2),
     Matrix.identity(2), Matrix([[0, -1], [1, 0]]), [0]]
)
_matrices = st.sampled_from(
    [Matrix.identity(2), Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]]), Matrix([[2, 1], [1, 1]]),
     Matrix([[Fraction(1, 2), 0], [0, 2]]), Matrix.identity(4), Matrix([[1]]), Matrix.identity(3),
     Matrix([[1, 2]]), Matrix([[1, 0], [0, 1], [1, 1]])]
)
_translations = st.one_of(
    st.just(()),
    st.lists(
        st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))),
        max_size=4,
    ).map(tuple),
)
_BQ = reduction.binary_quadratic_problem()
_problem_generators = st.lists(
    st.sampled_from(
        [*reduction.P2_GENERATORS, ("D", Matrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])), ("W", Matrix.identity(2))]
    ),
    max_size=3,
).map(tuple)


@st.composite
def _arguments(draw, cls):
    """Positional arguments for cls: valid or not for the checked classes,
    any number from the required ones to all for the others."""
    name = cls.__name__
    if name == "PolarizedTorus":
        return (draw(_matrices), draw(_matrices))
    if name == "AffineAuto":
        return (draw(_matrices),) + ((draw(_translations),) if draw(st.booleans()) else ())
    if name == "ReductionProblem":
        point = draw(st.sampled_from([_BQ.base_point, (1, 0, 1), (0, 0, 0), (1, 3, 1)]))
        return (_BQ.dim, draw(_problem_generators), _BQ.pairing, point, _BQ.is_interior, _BQ.is_closure)
    params = inspect.signature(cls).parameters.values()
    required = sum(p.default is inspect.Parameter.empty for p in params)
    count = draw(st.integers(required, len(params)))
    return tuple(draw(_values) for _ in range(count))


def _build(cls, args):
    """The instance, or the error its checks raise, as comparable data."""
    try:
        return cls(*args)
    except ValidationError as exc:
        return ("error", exc.invariant, str(exc))


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return "unhashable"


@pytest.mark.parametrize("cls,oracle", PAIRS, ids=_ids(PAIRS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compares_hashes_and_prints_as_the_dataclass(cls, oracle, data):
    """On two argument lists drawn for the class, often the same list:
    the same checks fail, and the built instances hold, print, compare
    and hash as the dataclass's do. Every build is a new object, so an
    identity-compared class finds no two equal."""
    args = data.draw(_arguments(cls))
    other = data.draw(st.one_of(st.just(args), _arguments(cls)))
    got, got_other = _build(cls, args), _build(cls, other)
    want, want_other = _build(oracle, args), _build(oracle, other)
    assert isinstance(got, cls) == isinstance(want, oracle)
    assert isinstance(got_other, cls) == isinstance(want_other, oracle)
    if not isinstance(want, oracle):
        assert got == want
        return
    assert got._values() == tuple(getattr(want, f.name) for f in fields(oracle))
    assert repr(got) == repr(want)
    assert got == got and not got != got
    assert (got == want) is False  # another class, as between two dataclasses
    identity = oracle.__hash__ is object.__hash__
    if identity:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    else:
        assert _hash(got) == _hash(want)
    if isinstance(want_other, oracle):
        assert (got == got_other) == (want == want_other)
        assert (got != got_other) == (want != want_other)
        assert identity or _hash(got_other) == _hash(want_other)
    else:
        assert got_other == want_other


def test_equal_fields_of_two_classes_compare_unequal():
    """Instances of two classes with the same field values are unequal,
    as instances of two dataclasses are."""
    unchecked = [(c, o) for c, o in PAIRS if c.__name__ not in CHECKED]
    compared = 0
    for (a, oa), (b, ob) in combinations(unchecked, 2):
        if len(a._fields) == len(b._fields):
            values = tuple(range(len(a._fields)))
            assert a(*values) == a(*values) and oa(*values) == oa(*values)
            assert a(*values) != b(*values) and oa(*values) != ob(*values)
            compared += 1
    assert compared > 20


def test_import_leaves_dataclasses_and_inspect_out():
    """A fresh process that imports the command line loads neither
    dataclasses nor inspect (which dataclasses imports)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conecrafter.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, conecrafter.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
