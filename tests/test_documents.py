import copy
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecrafter.documents import (
    ProblemDocument,
    TorusDocument,
    _matrix,
    load_document,
    parse_document,
)
from conecrafter.errors import ParseError
from conecrafter.matrices import Matrix

from conftest import corpus_path, read_corpus_json


@pytest.fixture()
def torus_data():
    return read_corpus_json("bielliptic_z4.json")


@pytest.fixture()
def problem_data():
    return read_corpus_json("p2_minkowski.json")


class TestSchema:
    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_document([1, 2])

    def test_wrong_schema(self, torus_data):
        torus_data["schema"] = "conecrafter/0"
        with pytest.raises(ParseError, match="unknown schema"):
            parse_document(torus_data)

    def test_missing_schema(self, torus_data):
        del torus_data["schema"]
        with pytest.raises(ParseError, match="unknown schema"):
            parse_document(torus_data)

    def test_unknown_kind(self, torus_data):
        torus_data["kind"] = "variety"
        with pytest.raises(ParseError, match="unknown document kind"):
            parse_document(torus_data)

    def test_name_must_be_string(self, torus_data):
        torus_data["name"] = 7
        with pytest.raises(ParseError, match="name"):
            parse_document(torus_data)


class TestTorusParsing:
    def test_round_trip(self, torus_data):
        doc = parse_document(torus_data)
        assert isinstance(doc, TorusDocument)
        assert doc.name == "bielliptic_z4"
        assert doc.torus.rank == 4
        assert len(doc.generators) == 1
        assert doc.expect_ghv is True
        assert len(doc.test_classes) == 5

    def test_rational_strings(self, torus_data):
        doc = parse_document(torus_data)
        assert doc.generators[0].translation == (
            Fraction(0),
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
        )

    def test_missing_polarization(self, torus_data):
        del torus_data["polarization"]
        with pytest.raises(ParseError, match="polarization"):
            parse_document(torus_data)

    def test_missing_complex_structure(self, torus_data):
        del torus_data["complex_structure"]
        with pytest.raises(ParseError, match="complex_structure"):
            parse_document(torus_data)

    def test_size_mismatch(self, torus_data):
        torus_data["polarization"] = [[0, 1], [-1, 0]]
        with pytest.raises(ParseError, match="sizes differ"):
            parse_document(torus_data)

    def test_rank_disagreement(self, torus_data):
        torus_data["rank"] = 6
        with pytest.raises(ParseError, match="rank"):
            parse_document(torus_data)

    def test_ragged_matrix(self, torus_data):
        torus_data["polarization"][1] = [0, 0, 0]
        with pytest.raises(ParseError, match="length"):
            parse_document(torus_data)

    def test_zero_denominator(self, torus_data):
        torus_data["group"]["generators"][0]["translation"][2] = "1/0"
        with pytest.raises(ParseError, match="bad rational"):
            parse_document(torus_data)

    def test_bool_is_not_a_number(self, torus_data):
        torus_data["polarization"][0][1] = True
        with pytest.raises(ParseError, match="boolean"):
            parse_document(torus_data)

    def test_float_rejected(self, torus_data):
        torus_data["polarization"][0][1] = 1.5
        with pytest.raises(ParseError, match="expected integer"):
            parse_document(torus_data)

    def test_expect_ghv_must_be_bool(self, torus_data):
        torus_data["expect_ghv"] = "yes"
        with pytest.raises(ParseError, match="expect_ghv"):
            parse_document(torus_data)

    def test_generator_size_mismatch(self, torus_data):
        torus_data["group"]["generators"][0]["linear"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError, match="generators\\[0\\]"):
            parse_document(torus_data)

    def test_generator_missing_linear(self, torus_data):
        torus_data["group"]["generators"][0] = {"translation": ["1/2", 0, 0, 0]}
        with pytest.raises(ParseError, match="linear"):
            parse_document(torus_data)

    def test_group_not_an_object(self, torus_data):
        torus_data["group"] = [1]
        with pytest.raises(ParseError, match="group"):
            parse_document(torus_data)

    def test_translation_optional(self, torus_data):
        del torus_data["group"]["generators"][0]["translation"]
        doc = parse_document(torus_data)
        assert doc.generators[0].translation == (Fraction(0),) * 4

    def test_group_optional(self, torus_data):
        del torus_data["group"]
        torus_data["expect_ghv"] = False
        doc = parse_document(torus_data)
        assert doc.generators == ()

    def test_normalizer_parsed(self):
        doc = parse_document(read_corpus_json("hyperbolic_z8.json"))
        assert doc.normalizer is not None
        assert doc.normalizer.det() == 1

    def test_normalizer_size_checked(self, torus_data):
        torus_data["normalizer"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError, match="normalizer"):
            parse_document(torus_data)

    def test_test_classes_must_be_lists(self, torus_data):
        torus_data["test_classes"][0] = 3
        with pytest.raises(ParseError, match="test_classes\\[0\\]"):
            parse_document(torus_data)


    def test_test_classes_must_be_a_list(self, torus_data):
        torus_data["test_classes"] = 5
        with pytest.raises(ParseError, match="test_classes: expected a list"):
            parse_document(torus_data)

    def test_group_generators_must_be_a_list(self, torus_data):
        torus_data["group"]["generators"] = 5
        with pytest.raises(ParseError, match="group.generators: expected a list"):
            parse_document(torus_data)


class TestProblemParsing:
    def test_round_trip(self, problem_data):
        doc = parse_document(problem_data)
        assert isinstance(doc, ProblemDocument)
        assert doc.cone == "binary_quadratic_forms"
        assert doc.domain_rays == ((0, 0, 1), (1, 0, 1), (1, 1, 1))
        assert len(doc.test_forms) == 5
        assert set(dict(doc.generators)) == {"S", "T", "N"}

    def test_unknown_cone_type(self, problem_data):
        problem_data["cone"] = "ternary_cubic_forms"
        with pytest.raises(ParseError, match="unsupported cone type"):
            parse_document(problem_data)

    def test_missing_domain_rays(self, problem_data):
        del problem_data["domain_rays"]
        with pytest.raises(ParseError, match="domain_rays"):
            parse_document(problem_data)

    def test_generator_shape(self, problem_data):
        problem_data["generators"]["S"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError, match="generators.S"):
            parse_document(problem_data)

    def test_generator_integrality(self, problem_data):
        problem_data["generators"]["T"][0][0] = "1/2"
        with pytest.raises(ParseError, match="integer"):
            parse_document(problem_data)

    def test_ray_length(self, problem_data):
        problem_data["domain_rays"][0] = [0, 0, 1, 0]
        with pytest.raises(ParseError, match="length"):
            parse_document(problem_data)

    def test_zero_ray(self, problem_data):
        problem_data["domain_rays"][1] = [0, 0, 0]
        with pytest.raises(ParseError, match=r"domain_rays\[1\]: a ray must be nonzero"):
            parse_document(problem_data)

    @pytest.mark.parametrize("key", ["domain_rays", "test_forms"])
    def test_lists_must_be_lists(self, problem_data, key):
        problem_data[key] = 3
        with pytest.raises(ParseError, match=f"{key}: expected a list"):
            parse_document(problem_data)

    def test_generators_must_be_an_object(self, problem_data):
        problem_data["generators"] = list(problem_data["generators"].values())
        with pytest.raises(ParseError, match="generators: expected an object"):
            parse_document(problem_data)


class TestLoadDocument:
    def test_corpus_files_load(self):
        for name in (
            "elliptic_gauss",
            "product_gauss_squared",
            "bielliptic_z4",
            "hyperbolic_z8",
            "p2_minkowski",
        ):
            doc = load_document(corpus_path(name + ".json"))
            assert doc.name == name

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_document(str(tmp_path / "missing.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_document(str(p))

    def test_mutants_parse_or_fail_as_designed(self):
        # parse-level mutants raise ParseError; semantic mutants parse fine
        parse_level = {"m07_zero_denominator", "m08_ragged_matrix",
                       "m09_missing_polarization", "m10_bad_schema",
                       "m11_zero_domain_ray", "m12_generators_not_object",
                       "m13_test_classes_not_list", "m14_domain_rays_not_list"}
        import glob
        import os

        for path in sorted(glob.glob(corpus_path("mutants/*.json"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            if stem in parse_level:
                with pytest.raises(ParseError):
                    load_document(path)
            else:
                load_document(path)


# --- the int parse against the Fraction parse it replaced ----------------------

def _fraction_rational(x, where):
    """The entry parse that wrapped every number in a Fraction, kept as the
    reference for the int parse."""
    if isinstance(x, bool):
        raise ParseError(f"{where}: boolean is not a number")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {x!r}") from exc
    raise ParseError(f"{where}: expected integer or 'p/q' string, got {type(x).__name__}")


def _fraction_matrix(obj, where):
    """Rows of Fractions handed to Matrix(...), which normalizes each entry;
    every matrix a document holds is square."""
    m = Matrix([[_fraction_rational(x, f"{where}[{i}]") for x in r] for i, r in enumerate(obj)])
    if m.nrows != m.ncols:
        raise ParseError(f"{where}: expected a square matrix")
    return m


def _outcome(build, obj):
    """(rows, entry types, is_integral), or the ParseError message."""
    try:
        m = build(obj, "m")
    except ParseError as exc:
        return str(exc)
    return m.rows, [[type(x) for x in r] for r in m.rows], m.is_integral


_json_ints = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**64) - 1]),
)
_fraction_strings = st.builds(
    lambda p, q, sign: f"{sign}{p}/{q}",
    st.integers(0, 2**66),
    st.integers(1, 12),
    st.sampled_from(["", "-"]),
)
_valid_entries = st.one_of(_json_ints, _fraction_strings, _json_ints.map(str))
_entries = st.one_of(
    _valid_entries,
    st.sampled_from(["4/2", "-0/7", "6/4", " 3/9 ", "1/0", "0/0", "x", "1.5", ""]),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6)),
    st.none(),
)


@st.composite
def _json_matrices(draw, entries=_entries):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


class TestIntParseMatchesTheFractionParse:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_json_matrices(), _json_matrices(_valid_entries)))
    @example([["4/2", "-0/7"], [2**64, "1/2"]])
    @example([[True]])
    @example([[1.0]])
    @example([["1/0"]])
    @example([[Fraction(6, 3), Fraction(1, 3)]])
    def test_entries_types_and_integrality(self, obj):
        assert _outcome(_matrix, obj) == _outcome(_fraction_matrix, obj)

    def test_the_rational_corpus_torus_parses_fractions(self):
        j = load_document(corpus_path("elliptic_rational_j.json")).torus.j
        assert j.rows == ((Fraction(1, 2), Fraction(-5, 4)), (1, Fraction(-1, 2)))
        assert not j.is_integral
