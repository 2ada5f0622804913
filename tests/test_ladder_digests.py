"""Pinned report digests for the E_i^n ladder.

`tests/golden/ladder_digests.json` holds, for plain and cyclic E_i^n with
n = 2..4 and two seeded transports of each, and for plain E_i^6 and
E_i^8, the sha256 of the stdout of `endo`, `cone` and `funddom` and their
exit codes. The ladder reaches shapes the corpus does not: a commutative
algebra with three factors, a non-commutative single factor above rank 4,
and form lattices of rank 36 and 64 read off algebras of dimension 72 and
128 on rank 12 and 16. After an intended change, rewrite the file with

    PYTHONPATH=src python tests/test_ladder_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from conecrafter.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from conftest import ei_power_data, transported_data  # noqa: E402

DIGESTS = os.path.join(HERE, "golden", "ladder_digests.json")
COMMANDS = ("endo", "cone", "funddom")


def _ladder():
    bases = [ei_power_data(n, cyclic) for cyclic in (False, True) for n in (2, 3, 4)]
    moved = [d for base in bases for d in (base, *(transported_data(base, s) for s in (1, 2)))]
    return moved + [ei_power_data(n) for n in (6, 8)]


LADDER = {d["name"]: d for d in _ladder()}
CASES = [(name, cmd) for name in LADDER for cmd in COMMANDS]


def _digest(directory: str, name: str, command: str) -> dict:
    path = os.path.join(directory, name + ".json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(LADDER[name], fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, path])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_digest_set_matches_the_ladder():
    assert set(_pinned()) == {f"{name}.{cmd}" for name, cmd in CASES}


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}.{c}" for n, c in CASES])
def test_ladder_report_digest(tmp_path, name, command):
    assert _digest(str(tmp_path), name, command) == _pinned()[f"{name}.{command}"]


def _write() -> None:
    with tempfile.TemporaryDirectory() as directory:
        digests = {f"{name}.{cmd}": _digest(directory, name, cmd) for name, cmd in CASES}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ladder_digests.py --write")
    _write()
