"""Golden reports: every command on every corpus document and mutant.

`tests/golden/<doc>.<command>.json` holds the exact stdout of
`conecrafter <command> <doc>` at the default seed, and
`tests/golden/exit_codes.json` its exit code. Any change to a report byte
or an exit code fails here. After an intended change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import glob
import io
import json
import os
import sys

import pytest

from conecrafter.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, os.pardir, "corpus")
GOLDEN = os.path.join(HERE, "golden")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
COMMANDS = ("check", "endo", "cone", "funddom", "reduce", "verify")


def _documents():
    paths = glob.glob(os.path.join(CORPUS, "*.json"))
    paths += glob.glob(os.path.join(CORPUS, "mutants", "*.json"))
    return sorted(
        (os.path.splitext(os.path.basename(p))[0], os.path.normpath(p)) for p in paths
    )


CASES = [(stem, path, cmd) for stem, path in _documents() for cmd in COMMANDS]


def _run(command: str, path: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path])
    return code, out.getvalue()


def _golden_path(stem: str, command: str) -> str:
    return os.path.join(GOLDEN, f"{stem}.{command}.json")


def _exit_codes() -> dict:
    with open(EXIT_CODES, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_set_matches_corpus():
    expected = {f"{stem}.{cmd}" for stem, _, cmd in CASES}
    assert set(_exit_codes()) == expected
    on_disk = {
        os.path.basename(p)[: -len(".json")]
        for p in glob.glob(os.path.join(GOLDEN, "*.*.json"))
    }
    assert on_disk == expected


@pytest.mark.parametrize(
    "stem,path,command", CASES, ids=[f"{s}.{c}" for s, _, c in CASES]
)
def test_report_is_golden(stem, path, command):
    code, out = _run(command, path)
    with open(_golden_path(stem, command), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == _exit_codes()[f"{stem}.{command}"]


def _write() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for stem, path, command in CASES:
        code, out = _run(command, path)
        with open(_golden_path(stem, command), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        codes[f"{stem}.{command}"] = code
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
