"""Pinned `verify` digests away from the default seed and sample count.

The golden reports hold `verify` at `--seed 42 --samples 1000` only. A
sampler that drew other values than `random.Random(seed).randint` would
still pass there if it happened to agree on that one stream, so
`tests/golden/verify_seed_digests.json` holds the sha256 of the stdout of
`verify` and its exit code on every corpus document that has a domain, at
`--seed` 42, 7, 1003 and 31337 crossed with `--samples` 1, 7 and 1000
(the default pair is left to the golden reports). It also holds `verify`
at `--max-steps` 1 and 3 on `hyperbolic_z8` and `p2_minkowski` at seeds 42
and 7 (default samples), where the search budget runs out on some samples:
which ones, and so the whole failure list, depends on the exact order in
which the search expands its nodes. After an intended change, rewrite the
file with

    PYTHONPATH=src python tests/test_verify_seeds.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from conecrafter.cli import main
from conecrafter.pipeline import DEFAULT_SAMPLES, DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, os.pardir, "corpus")
DIGESTS = os.path.join(HERE, "golden", "verify_seed_digests.json")
DOCUMENTS = ("bielliptic_z4", "elliptic_gauss", "elliptic_rational_j", "hyperbolic_z8", "p2_minkowski")
SETTINGS = [
    (seed, samples)
    for seed in (DEFAULT_SEED, 7, 1003, 31337)
    for samples in (1, 7, DEFAULT_SAMPLES)
    if (seed, samples) != (DEFAULT_SEED, DEFAULT_SAMPLES)
]
CASES = [(doc, seed, samples) for doc in DOCUMENTS for seed, samples in SETTINGS]
BUDGET_CASES = [
    (doc, seed, DEFAULT_SAMPLES, max_steps)
    for doc in ("hyperbolic_z8", "p2_minkowski")
    for seed in (DEFAULT_SEED, 7)
    for max_steps in (1, 3)
]


def _key(doc: str, seed: int, samples: int, max_steps: int | None = None) -> str:
    budget = "" if max_steps is None else f".max_steps{max_steps}"
    return f"{doc}.seed{seed}.samples{samples}{budget}"


def _digest(doc: str, seed: int, samples: int, max_steps: int | None = None) -> dict:
    path = os.path.normpath(os.path.join(CORPUS, doc + ".json"))
    args = ["verify", path, "--seed", str(seed), "--samples", str(samples)]
    if max_steps is not None:
        args += ["--max-steps", str(max_steps)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_digest_set_matches_the_settings():
    assert set(_pinned()) == {_key(*case) for case in CASES + BUDGET_CASES}


def test_each_document_has_a_domain():
    for doc in DOCUMENTS:
        with open(os.path.join(HERE, "golden", f"{doc}.verify.json"), encoding="utf-8") as fh:
            assert json.load(fh)["eta"] is not None


@pytest.mark.parametrize("doc,seed,samples", CASES, ids=[_key(*case) for case in CASES])
def test_seeded_verify_digest(doc, seed, samples):
    assert _digest(doc, seed, samples) == _pinned()[_key(doc, seed, samples)]


@pytest.mark.parametrize("doc,seed,samples,max_steps", BUDGET_CASES, ids=[_key(*case) for case in BUDGET_CASES])
def test_budget_limited_verify_digest(doc, seed, samples, max_steps):
    """A budget that runs out fails the samples the search has not reduced
    within max_steps nodes; the report lists each of them."""
    pinned = _pinned()[_key(doc, seed, samples, max_steps)]
    assert _digest(doc, seed, samples, max_steps) == pinned
    assert pinned["exit"] == 3


def _write() -> None:
    digests = {_key(*case): _digest(*case) for case in CASES + BUDGET_CASES}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_verify_seeds.py --write")
    _write()
