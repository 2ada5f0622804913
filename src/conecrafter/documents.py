"""JSON documents describing tori with group actions, and standalone
reduction problems.

Schema "conecrafter/1". Every number is an integer or a "p/q" string;
floats are rejected so nothing inexact can enter. Parsing stops at shape
and type errors; mathematical invariants are the validation stage's job.

Parsed numbers stay ints: a JSON int is kept as it is, and a "p/q" string
becomes an int or a reduced Fraction. Each matrix entry is normalized once,
here, and the rows go to Matrix.trusted without a second pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .matrices import Matrix
from .torus import AffineAuto, PolarizedTorus

SCHEMA = "conecrafter/1"
DOCUMENT_KINDS = ("torus", "reduction_problem")
CONE_TYPES = ("binary_quadratic_forms",)


def _at(where: str, index: int | None) -> str:
    return where if index is None else f"{where}[{index}]"


def _rational(x, where: str, index: int | None = None) -> int | Fraction:
    """x as an int, or a Fraction when it is not integral. The location of
    an error is where, or where[index], formatted only when x is bad."""
    if isinstance(x, bool):
        raise ParseError(f"{_at(where, index)}: boolean is not a number")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{_at(where, index)}: bad rational {x!r}") from exc
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise ParseError(
        f"{_at(where, index)}: expected integer or 'p/q' string, got {type(x).__name__}"
    )


def _integer(x, where: str, index: int | None = None) -> int:
    v = _rational(x, where, index)
    if not isinstance(v, int):
        raise ParseError(f"{_at(where, index)}: expected an integer, got {x!r}")
    return v


def _matrix(obj, where: str) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParseError(f"{where}: expected a list of rows")
    width = len(obj[0])
    if width == 0:
        raise ParseError(f"{where}: rows must not be empty")
    rows = []
    for i, r in enumerate(obj):
        if len(r) != width:
            raise ParseError(f"{where}: row {i} has length {len(r)}, expected {width}")
        rows.append(tuple([_rational(x, where, i) for x in r]))
    if len(rows) != width:
        raise ParseError(f"{where}: expected a square matrix")
    return Matrix.trusted(tuple(rows))


def _list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list")
    return obj


def _vector(obj, where: str, length: int | None = None) -> tuple:
    _list(obj, where)
    if length is not None and len(obj) != length:
        raise ParseError(f"{where}: expected length {length}, got {len(obj)}")
    return tuple(_rational(x, where) for x in obj)


@dataclass(frozen=True)
class TorusDocument:
    name: str
    torus: PolarizedTorus
    generators: tuple[AffineAuto, ...]
    normalizer: Matrix | None = None
    expect_ghv: bool | None = None
    test_classes: tuple[tuple[int, ...], ...] = field(default=())

    kind = "torus"


@dataclass(frozen=True)
class ProblemDocument:
    name: str
    cone: str
    domain_rays: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[str, Matrix], ...] = field(default=())
    test_forms: tuple[tuple[int, ...], ...] = field(default=())

    kind = "reduction_problem"


def _parse_torus(data: dict, name: str) -> TorusDocument:
    if "complex_structure" not in data:
        raise ParseError("torus document needs a complex_structure matrix")
    if "polarization" not in data:
        raise ParseError("torus document needs a polarization matrix")
    j = _matrix(data["complex_structure"], "complex_structure")
    e = _matrix(data["polarization"], "polarization")
    if j.shape != e.shape:
        raise ParseError("complex_structure and polarization sizes differ")
    rank = j.nrows
    if "rank" in data and _integer(data["rank"], "rank") != rank:
        raise ParseError("rank field disagrees with the matrices")
    gens = []
    group = data.get("group", {})
    if not isinstance(group, dict):
        raise ParseError("group: expected an object with generators")
    for i, g in enumerate(_list(group.get("generators", []), "group.generators")):
        if not isinstance(g, dict) or "linear" not in g:
            raise ParseError(f"group.generators[{i}]: expected an object with linear")
        lin = _matrix(g["linear"], f"group.generators[{i}].linear")
        if lin.nrows != rank:
            raise ParseError(f"group.generators[{i}]: size disagrees with the torus")
        tr = g.get("translation")
        translation = (
            _vector(tr, f"group.generators[{i}].translation", rank) if tr is not None else ()
        )
        gens.append(AffineAuto(lin, translation))
    normalizer = None
    if "normalizer" in data:
        normalizer = _matrix(data["normalizer"], "normalizer")
        if normalizer.nrows != rank:
            raise ParseError("normalizer size disagrees with the torus")
    expect = data.get("expect_ghv")
    if expect is not None and not isinstance(expect, bool):
        raise ParseError("expect_ghv must be a boolean")
    classes = []
    for i, c in enumerate(_list(data.get("test_classes", []), "test_classes")):
        if not isinstance(c, list):
            raise ParseError(f"test_classes[{i}]: expected a list")
        classes.append(tuple(_integer(x, "test_classes", i) for x in c))
    return TorusDocument(
        name=name,
        torus=PolarizedTorus(j, e),
        generators=tuple(gens),
        normalizer=normalizer,
        expect_ghv=expect,
        test_classes=tuple(classes),
    )


def _parse_problem(data: dict, name: str) -> ProblemDocument:
    cone = data.get("cone")
    if cone not in CONE_TYPES:
        raise ParseError(f"unsupported cone type {cone!r}")
    if "domain_rays" not in data:
        raise ParseError("reduction problem needs domain_rays")
    rays = []
    for i, r in enumerate(_list(data["domain_rays"], "domain_rays")):
        ray = tuple(_integer(x, "domain_rays", i) for x in _vector(r, f"domain_rays[{i}]", 3))
        if not any(ray):
            raise ParseError(f"domain_rays[{i}]: a ray must be nonzero")
        rays.append(ray)
    generators = data.get("generators", {})
    if not isinstance(generators, dict):
        raise ParseError("generators: expected an object of named matrices")
    gens = []
    for gname, m in generators.items():
        mat = _matrix(m, f"generators.{gname}")
        if mat.nrows != 3:
            raise ParseError(f"generators.{gname}: expected 3x3")
        if not mat.is_integral:
            raise ParseError(f"generators.{gname}: expected integer entries")
        gens.append((str(gname), mat))
    forms = tuple(
        tuple(_integer(x, "test_forms", i) for x in _vector(f, f"test_forms[{i}]", 3))
        for i, f in enumerate(_list(data.get("test_forms", []), "test_forms"))
    )
    return ProblemDocument(
        name=name,
        cone=cone,
        domain_rays=tuple(rays),
        generators=tuple(gens),
        test_forms=forms,
    )


def parse_document(data) -> TorusDocument | ProblemDocument:
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ParseError(f"unknown schema {data.get('schema')!r}, expected {SCHEMA!r}")
    kind = data.get("kind")
    if kind not in DOCUMENT_KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    name = data.get("name", "unnamed")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    if kind == "torus":
        return _parse_torus(data, name)
    return _parse_problem(data, name)


def load_document(path: str) -> TorusDocument | ProblemDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # json.JSONDecodeError is a ValueError, and so is an integer
        # literal past Python's int-conversion digit limit; arrays or
        # objects nested past the recursion limit raise RecursionError.
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return parse_document(data)
