import contextlib
import glob
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecrafter import cli, cone, pipeline
from conecrafter.cli import main
from conecrafter.matrices import Matrix

from conftest import PROBLEM_DOCUMENT_CHANGES, corpus_path

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

MUTANT_CODES = {
    "m01_indefinite_polarization": 2,
    "m02_complex_structure_not_square_root": 2,
    "m03_polarization_not_alternating": 2,
    "m04_translation_claimed_ghv": 2,
    "m05_generator_not_unimodular": 2,
    "m06_group_never_closes": 2,
    "m07_zero_denominator": 4,
    "m08_ragged_matrix": 4,
    "m09_missing_polarization": 4,
    "m10_bad_schema": 4,
    "m11_zero_domain_ray": 4,
    "m12_generators_not_object": 4,
    "m13_test_classes_not_list": 4,
    "m14_domain_rays_not_list": 4,
    "m15_generator_leaves_cone": 2,
    "m16_normalizer_not_descending": 2,
}

HOSTILE_FILES = {
    "not_utf8": b'{"schema": "conecrafter/1", "name": "\xff\xfe"}',
    "huge_integer": b'{"schema": "conecrafter/1", "rank": ' + b"9" * 5000 + b"}",
    "deeply_nested": b"[" * 100_000 + b"]" * 100_000,
}


DOCUMENTS = [
    "bielliptic_z4",
    "elliptic_gauss",
    "elliptic_rational_j",
    "hyperbolic_z8",
    "p2_minkowski",
    "product_gauss_squared",
] + [f"mutants/{stem}" for stem in MUTANT_CODES]

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
    GOLDEN_EXIT_CODES = json.load(fh)


def golden(stem, command):
    with open(os.path.join(GOLDEN, f"{stem}.{command}.json"), encoding="utf-8") as fh:
        return fh.read()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHappyPaths:
    @pytest.mark.parametrize("command", ["check", "endo", "cone", "funddom"])
    def test_torus_commands(self, capsys, command):
        code, out, err = run_cli(capsys, command, corpus_path("hyperbolic_z8.json"))
        assert code == 0
        report = json.loads(out)
        assert report["command"] == command
        assert report["document"] == "hyperbolic_z8"
        assert report["schema"] == "conecrafter/1"

    @pytest.mark.parametrize("command", ["check", "funddom", "reduce"])
    def test_problem_commands(self, capsys, command):
        code, out, _ = run_cli(capsys, command, corpus_path("p2_minkowski.json"))
        assert code == 0
        assert json.loads(out)["command"] == command

    def test_verify_problem(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("p2_minkowski.json"), "--samples", "40"
        )
        assert code == 0
        report = json.loads(out)
        assert report["complete"] is True
        assert report["samples"] == 40

    def test_verify_torus(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("bielliptic_z4.json"), "--samples", "15"
        )
        assert code == 0
        assert json.loads(out)["pushdown"]["verified"] is True

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "check", corpus_path("elliptic_gauss.json"))
        assert "# check" in err
        assert "ms" in err
        assert "#" not in out.split("\n")[0]
        json.loads(out)  # stdout is pure JSON

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "endo", corpus_path("product_gauss_squared.json"),
            "--out", str(target),
        )
        assert code == 0
        assert target.read_text() == out

    def test_out_file_replaces_what_was_there(self, capsys, tmp_path):
        """--out is opened before the work starts, without truncating; the
        report then replaces the old bytes, even when the path is the
        input document itself."""
        target = tmp_path / "report.json"
        target.write_text("x" * 10_000)
        code, out, _ = run_cli(
            capsys, "check", corpus_path("elliptic_gauss.json"), "--out", str(target)
        )
        assert code == 0
        assert target.read_text() == out
        doc = tmp_path / "doc.json"
        doc.write_bytes(open(corpus_path("elliptic_gauss.json"), "rb").read())
        code, out, _ = run_cli(capsys, "check", str(doc), "--out", str(doc))
        assert code == 0
        assert json.loads(out)["document"] == "elliptic_gauss"
        assert doc.read_text() == out

    def test_generator_names_do_not_matter(self, capsys, tmp_path):
        """Generators named S and S~ (the name the inverse of S would get)
        verify exactly as p2_minkowski's S, T and N: the tiling search and
        its replay refer to generators by position, not by name."""
        with open(corpus_path("p2_minkowski.json")) as fh:
            data = json.load(fh)
        data["generators"] = dict(zip(("S", "S~", "N"), data["generators"].values()))
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        assert out == golden("p2_minkowski", "verify")

    def test_verify_deterministic_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "verify", corpus_path("hyperbolic_z8.json"),
                "--samples", "25", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "endo", corpus_path("hyperbolic_z8.json"), "--seed", "7"
        )
        assert code == 0
        assert out == golden("hyperbolic_z8", "endo")


class TestSeedFreeReports:
    """--seed seeds verify's sampling alone: at any seed, every other
    command prints its golden report and exits with its golden code."""

    @pytest.mark.parametrize("seed", ["1", "7", "1000"])
    @pytest.mark.parametrize("document", DOCUMENTS)
    @pytest.mark.parametrize("command", ["check", "endo", "cone", "funddom", "reduce"])
    def test_report_ignores_the_seed(self, capsys, command, document, seed):
        code, out, _ = run_cli(capsys, command, corpus_path(document + ".json"), "--seed", seed)
        stem = os.path.basename(document)
        assert out == golden(stem, command)
        assert code == GOLDEN_EXIT_CODES[f"{stem}.{command}"]


class TestFailurePaths:
    @pytest.mark.parametrize("stem,expected", sorted(MUTANT_CODES.items()))
    def test_mutants(self, capsys, stem, expected):
        code, out, _ = run_cli(capsys, "check", corpus_path(f"mutants/{stem}.json"))
        assert code == expected
        payload = json.loads(out)
        assert "error" in payload
        assert payload["error"]["type"] == ("validation" if expected == 2 else "parse")
        assert payload["error"]["message"]

    def test_mutant_invariants_named(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", corpus_path("mutants/m01_indefinite_polarization.json")
        )
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "polarization_definite"

    def test_missing_file(self, capsys):
        code, out, _ = run_cli(capsys, "check", "no_such_file.json")
        assert code == 4
        assert json.loads(out)["error"]["type"] == "parse"

    @pytest.mark.parametrize("stem", sorted(HOSTILE_FILES))
    def test_unreadable_oversized_and_over_nested_files(self, capsys, tmp_path, stem):
        """Bytes that are not UTF-8, an integer past Python's 4300-digit
        int-conversion limit, and arrays nested past the recursion limit
        are parse failures, not tracebacks."""
        path = tmp_path / f"{stem}.json"
        path.write_bytes(HOSTILE_FILES[stem])
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 4
        error = json.loads(out)["error"]
        assert error["type"] == "parse"
        assert str(path) in error["message"]

    @pytest.mark.parametrize("entry", ["1e20000000", "1E20000000", "25e-2"])
    def test_exponent_strings_are_parse_failures(self, capsys, tmp_path, entry):
        """The schema's numbers are integers and "p/q" strings. An exponent
        is a bad rational, at once: the ten bytes "1e20000000" in place of
        bielliptic_z4's translation entry "1/4" would expand into an
        integer of twenty million digits."""
        with open(corpus_path("bielliptic_z4.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["group"]["generators"][0]["translation"][2] == "1/4"
        data["group"]["generators"][0]["translation"][2] = entry
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        start = time.process_time()
        code, out, _ = run_cli(capsys, "check", str(path))
        assert time.process_time() - start < FUZZ_CPU_BUDGET / 10
        assert code == 4
        error = json.loads(out)["error"]
        assert error["type"] == "parse"
        assert f"bad rational {entry!r}" in error["message"]

    def test_funddom_higher_rank_downgrade(self, capsys):
        code, out, _ = run_cli(
            capsys, "funddom", corpus_path("product_gauss_squared.json")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["supported"] is False
        assert payload["downgrade"].startswith("verifier-only")

    def test_verify_higher_rank_downgrade(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("product_gauss_squared.json"), "--samples", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert payload["downgrade"].startswith("verifier-only")

    def test_reduce_needs_problem(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", corpus_path("bielliptic_z4.json"))
        assert code == 2
        assert json.loads(out)["error"]["invariant"] == "document_kind"

    def test_verify_incomplete_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", corpus_path("p2_minkowski.json"),
            "--samples", "10", "--max-steps", "1",
        )
        assert code == 3
        report = json.loads(out)
        assert report["complete"] is False
        assert report["failures"]

    @pytest.mark.parametrize("budget", [
        ("--samples", "-3"), ("--samples", "-1"), ("--max-steps", "0"), ("--max-steps", "-5"),
    ])
    @pytest.mark.parametrize("document", [
        "p2_minkowski", "bielliptic_z4", "product_gauss_squared",
    ])
    def test_verify_budget_rejected(self, capsys, monkeypatch, tmp_path, budget, document):
        """A negative sample count would report a complete verification of
        nothing, and a search budget below one fails every sample; both
        exit 2 before any structure is built, on stdout and in --out."""
        def refuse(*args, **kwargs):
            raise AssertionError("the budget is checked before any work")

        monkeypatch.setattr(pipeline, "prepare_torus", refuse)
        monkeypatch.setattr(pipeline, "_problem_domain", refuse)
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", corpus_path(f"{document}.json"), *budget, "--out", str(target)
        )
        assert code == cli.EXIT_VALIDATION == 2
        flag, value = budget
        name = flag[2:].replace("-", "_")
        assert json.loads(out) == {"error": {
            "type": "validation",
            "message": f"verify_budget: {name} must be at least "
            f"{0 if name == 'samples' else 1}, got {value}",
            "invariant": "verify_budget",
        }}
        assert target.read_text() == out

    @pytest.mark.parametrize("budget", [
        ("--samples", "0"), ("--samples", "4", "--max-steps", "1"),
    ])
    def test_verify_budget_edges_accepted(self, capsys, budget):
        code, out, _ = run_cli(capsys, "verify", corpus_path("elliptic_gauss.json"), *budget)
        report = json.loads(out)
        assert report["samples"] == int(budget[1])
        assert code == (0 if report["complete"] else 3)

    @pytest.mark.parametrize("document", ["hyperbolic_z8", "p2_minkowski"])
    def test_verify_zero_samples_is_incomplete(self, capsys, tmp_path, document):
        """A run that checks no tiling sample certifies nothing: it
        reports complete false and exits 3, on stdout and in --out."""
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", corpus_path(f"{document}.json"),
            "--samples", "0", "--out", str(target),
        )
        assert code == cli.EXIT_INCOMPLETE == 3
        report = json.loads(out)
        assert report["samples"] == report["verified"] == 0
        assert report["failures"] == []
        assert report["overlap"] is None
        assert report["complete"] is False
        assert target.read_text() == out

    @pytest.mark.parametrize("change,invariant,message", PROBLEM_DOCUMENT_CHANGES)
    def test_problem_commands_share_the_document_checks(
        self, capsys, tmp_path, change, invariant, message
    ):
        """check, funddom, reduce and verify read a reduction problem
        through the same checks: a domain outside the closed cone, a
        generator that is not unimodular and one that moves the cone end
        each of them in exit 2 with one report."""
        with open(corpus_path("p2_minkowski.json")) as fh:
            data = json.load(fh)
        data.update(change)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        want = {"error": {
            "type": "validation", "message": f"{invariant}: {message}", "invariant": invariant,
        }}
        for command in ("check", "funddom", "reduce", "verify"):
            code, out, _ = run_cli(capsys, command, str(path))
            assert (command, code) == (command, cli.EXIT_VALIDATION)
            assert json.loads(out) == want

    @pytest.mark.parametrize("generators,code", [
        # S and T only: reduce's words would still use N
        ({"S": [[0, 0, 1], [0, -1, 0], [1, 0, 0]], "T": [[1, 0, 0], [2, 1, 0], [1, 1, 1]]}, 2),
        # N's action under another name
        ({"S": [[0, 0, 1], [0, -1, 0], [1, 0, 0]], "T": [[1, 0, 0], [2, 1, 0], [1, 1, 1]],
          "R": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}, 2),
        # S, T and N, and T's square besides
        ({"S": [[0, 0, 1], [0, -1, 0], [1, 0, 0]], "T": [[1, 0, 0], [2, 1, 0], [1, 1, 1]],
          "N": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "U": [[1, 0, 0], [4, 1, 0], [4, 2, 1]]}, 0),
    ])
    def test_reduce_needs_the_built_in_generators(self, capsys, tmp_path, generators, code):
        """reduce writes its words in the built-in S, T and N, so it exits
        2 with reduce_generators when the document's generators leave one
        of them out; check and funddom read the same document and pass."""
        with open(corpus_path("p2_minkowski.json")) as fh:
            data = json.load(fh)
        data["generators"] = generators
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        got, out, _ = run_cli(capsys, "reduce", str(path))
        assert got == code
        if code:
            assert json.loads(out)["error"]["invariant"] == "reduce_generators"
        else:
            _, want, _ = run_cli(capsys, "reduce", corpus_path("p2_minkowski.json"))
            assert json.loads(out)["results"] == json.loads(want)["results"]
        for command in ("check", "funddom"):
            assert run_cli(capsys, command, str(path))[0] == cli.EXIT_OK

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_out_path_unwritable(self, capsys, monkeypatch, tmp_path, where):
        """An --out path that cannot be opened for writing exits 2 with a
        JSON report on stdout before any work, not a traceback after it."""
        def refuse(*args, **kwargs):
            raise AssertionError("the --out path is opened before any work")

        monkeypatch.setattr(cli, "load_document", refuse)
        target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        code, out, _ = run_cli(
            capsys, "check", corpus_path("elliptic_gauss.json"), "--out", str(target)
        )
        assert code == cli.EXIT_VALIDATION == 2
        error = json.loads(out)["error"]
        assert error["type"] == "validation"
        assert error["invariant"] == "out_path"
        assert error["message"].startswith(f"out_path: cannot write {target}: ")
        assert not (tmp_path / "missing").exists()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate", "x.json"])

    @pytest.mark.parametrize("argv", [
        ["frobnicate", "x.json"],
        ["check"],
        ["endo", corpus_path("elliptic_gauss.json"), "--samples", "5"],
        ["cone", corpus_path("elliptic_gauss.json"), "--max-steps", "3"],
        ["reduce", corpus_path("p2_minkowski.json"), "--samples", "5", "--max-steps", "3"],
    ])
    def test_misuse_exits_2_with_usage(self, capsys, argv):
        """An unknown command, a missing input, and verify's options on
        another command end in argparse's exit 2, with a usage line on
        stderr and nothing on stdout."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: conecrafter")

    def test_verify_options_keep_their_defaults(self, monkeypatch):
        """verify reads --samples 1000 and --max-steps 20000 when they are
        not given, and the values given otherwise."""
        seen = []
        monkeypatch.setattr(cli, "run_verify", lambda doc, **kw: seen.append(kw) or {"complete": True})
        path = corpus_path("elliptic_gauss.json")
        main(["verify", path])
        main(["verify", path, "--samples", "7", "--max-steps", "9", "--seed", "3"])
        assert seen == [
            {"seed": 42, "samples": 1000, "max_steps": 20_000},
            {"seed": 3, "samples": 7, "max_steps": 9},
        ]

    @pytest.mark.parametrize("command", ["cone", "funddom", "verify"])
    def test_internal_invariant_exit(self, capsys, monkeypatch, tmp_path, command):
        """A failed internal identity ends in exit 5 with a JSON report,
        not a traceback. Here cone_structure finds every factor piece
        zero, which its rank check must catch."""
        monkeypatch.setattr(cone, "hermite_normal_form", lambda m: (Matrix.zeros(*m.shape), m))
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, command, corpus_path("bielliptic_z4.json"), "--out", str(target)
        )
        assert code == cli.EXIT_INTERNAL == 5
        assert json.loads(out) == {
            "error": {"type": "internal", "message": "factor pieces do not fill the invariant lattice"}
        }
        assert target.read_text() == out


class TestParserBuiltOnce:
    """main() reuses one parser per process; a call that exits through
    argparse must leave it fit for the calls after it."""

    ARGVS = [["check", "--seed"]] + [
        [command, corpus_path(doc + ".json"), "--seed", seed]
        for seed in ("42", "7")
        for doc in ("hyperbolic_z8", "p2_minkowski")
        for command in ("check", "verify")
    ]

    @staticmethod
    def _run_all(capsys, fresh: bool) -> list:
        results = []
        for argv in TestParserBuiltOnce.ARGVS:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            results.append((code, capsys.readouterr().out))
        return results

    def test_outputs_match_a_fresh_parser_per_call(self, capsys):
        fresh = self._run_all(capsys, fresh=True)
        cli._parser.cache_clear()
        reused = self._run_all(capsys, fresh=False)
        assert cli._parser.cache_info().misses == 1
        assert reused == fresh
        assert reused[0] == (("SystemExit", 2), "")
        for (code, out), argv in zip(reused[1:], self.ARGVS[1:]):
            assert code == 0
            if argv[-1] == "42":  # the default seed: the golden report
                stem = os.path.splitext(os.path.basename(argv[1]))[0]
                assert out == golden(stem, argv[0])


# --- fuzz: mutated corpus documents end in a JSON report ---------------------

FUZZ_CORPUS = sorted(
    os.path.relpath(path, corpus_path(""))
    for sub in ("", "mutants")
    for path in glob.glob(os.path.join(corpus_path(sub), "*.json"))
)
FUZZ_RUNS = [[command] for command in cli.COMMAND_HELP if command != "verify"] + [
    ["verify", "--samples", "20", "--max-steps", "500"]
]
# a value of each JSON type, for the retyping mutation
OTHER_TYPES = [None, True, 0, -3, 2.5, "1/2", "x", [], [[1]], {}, {"linear": [[1]]}]


def _json_paths(node, path=()):
    """The path of every value below the root, containers first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_rows(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(row, list) for row in value)


@st.composite
def mutated_documents(draw):
    """A corpus document with one entry replaced by a small number, one key
    or list item dropped, one value given another JSON type, or one row cut
    from a list of lists."""
    with open(corpus_path(draw(st.sampled_from(FUZZ_CORPUS)))) as fh:
        doc = json.load(fh)
    kind = draw(st.sampled_from(["replace", "drop", "retype", "cut"]))
    paths = list(_json_paths(doc))
    if kind == "replace":
        paths = [p for p in paths if not isinstance(_at(doc, p), (list, dict))]
    elif kind == "cut":
        paths = [p for p in paths if _is_rows(_at(doc, p))]
    path = draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "replace":
        parent[key] = draw(st.one_of(st.integers(-4, 4), st.sampled_from(["1/2", "-3/4", "0", "2"])))
    elif kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(parent[key])]))
    else:
        del parent[key][draw(st.integers(0, len(parent[key]) - 1))]
    return doc


# CPU seconds each command may take on a mutated document; the corpus
# commands take milliseconds, so only a runaway search comes near it
FUZZ_CPU_BUDGET = 10.0


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_end_in_a_json_report(doc):
    """Every command on a mutated corpus document exits 0, 2, 3, 4 or 5
    with one JSON object on stdout, never with a traceback, within
    FUZZ_CPU_BUDGET seconds of CPU time; verify runs with a small
    budget."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for run in FUZZ_RUNS:
            out = io.StringIO()
            start = time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([run[0], path, *run[1:]])
            spent = time.process_time() - start
            assert spent <= FUZZ_CPU_BUDGET, f"{' '.join(run)} took {spent:.1f} s of CPU time"
            assert code in (0, 2, 3, 4, 5), (run, code)
            assert isinstance(json.loads(out.getvalue()), dict)
