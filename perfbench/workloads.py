"""The three benchmark workloads and their oracles.

Each workload is single-process and closed-loop with one client: the next
operation starts when the previous one returns. Operations come in blocks
(a corpus pass, a ladder pass, a block of grid classes); block k is built
from the benchmark seed and k alone, so the same seed gives the same inputs.

An operation's ``run`` returns its output (exit code and stdout for a CLI
command, the two verdicts for a grid class); ``check`` returns None when the
output agrees with the oracle and a reason otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import gen
from conecrafter import cli, cone
from conecrafter.documents import load_document
from conecrafter.matrices import Matrix
from conecrafter.pipeline import prepare_torus

COMMANDS = ("check", "endo", "cone", "funddom", "reduce", "verify")
CORPUS = (
    "bielliptic_z4",
    "elliptic_gauss",
    "hyperbolic_z8",
    "p2_minkowski",
    "product_gauss_squared",
)
MUTANTS = (
    "m01_indefinite_polarization",
    "m02_complex_structure_not_square_root",
    "m03_polarization_not_alternating",
    "m04_translation_claimed_ghv",
    "m05_generator_not_unimodular",
    "m06_group_never_closes",
    "m07_zero_denominator",
    "m08_ragged_matrix",
    "m09_missing_polarization",
    "m10_bad_schema",
)
PROBLEM_DOCS = ("p2_minkowski",)
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
GRID_BLOCK = 250


@dataclass
class Op:
    key: str  # identifies the same operation across blocks
    command: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command through the in-process CLI; stderr (the timing line)
    is dropped so that the output is deterministic."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def expected_exit(command: str, doc: str) -> int:
    if doc in MUTANTS:
        return 2 if doc < "m07" else 4
    wrong_kind = doc in PROBLEM_DOCS if command in ("endo", "cone") else (
        command == "reduce" and doc not in PROBLEM_DOCS
    )
    return 2 if wrong_kind else 0


def corpus_paths(root: str) -> dict[str, str]:
    paths = {d: os.path.join(root, "corpus", d + ".json") for d in CORPUS}
    paths.update({d: os.path.join(root, "corpus", "mutants", d + ".json") for d in MUTANTS})
    return paths


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seed_free(command: str, code: int, text: str) -> str:
    """The part of a report that must not depend on the CLI seed. The
    factor order of endo, cone and funddom and the center polynomials of
    endo follow the seeded choice of a primitive central element, so
    factors are compared as a sorted list without center_poly."""
    if code != 0 or command not in ("endo", "cone", "funddom"):
        return text
    report = json.loads(text)
    factors = [{k: v for k, v in f.items() if k != "center_poly"} for f in report["factors"]]
    factors.sort(key=lambda f: json.dumps(f, sort_keys=True))
    return json.dumps({**report, "factors": factors}, sort_keys=True)


class CorpusCli:
    """The six commands on the 5 corpus documents and 10 mutants: 90
    operations per pass. Pass k runs every command with --seed 1000*seed+k,
    so a run covers several CLI seeds."""

    name = "corpus_cli"

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.paths = corpus_paths(root)
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def setup(self) -> None:
        for doc, path in self.paths.items():
            code, _ = run_cli(["check", path])
            if code != expected_exit("check", doc):
                raise RuntimeError(f"corpus document {doc} no longer checks as expected")

    def close(self) -> None:
        pass

    def block(self, k: int) -> list[Op]:
        cli_seed = str(1000 * self.seed + k)
        ops = []
        for command in COMMANDS:
            for doc in CORPUS + MUTANTS:
                argv = [command, self.paths[doc], "--seed", cli_seed]
                ops.append(
                    Op(
                        f"{command} {doc}",
                        command,
                        lambda argv=argv: run_cli(argv),
                        lambda out, c=command, d=doc: self.check(c, d, out),
                    )
                )
        return ops

    def check(self, command: str, doc: str, out) -> str | None:
        code, text = out
        want = expected_exit(command, doc)
        if code != want:
            return f"exit {code}, expected {want}"
        if command == "verify" and code == 0:
            report = json.loads(text)
            if not (report["complete"] and report["verified"] == report["samples"]):
                return f"verify incomplete: {report['verified']}/{report['samples']}"
            return None
        if sha256(seed_free(command, code, text)) != self.digests[f"{command} {doc}"]:
            return "stdout differs from the pinned report"
        return None


class AmpleGrid:
    """cone.is_ample and cone.is_nef on seeded classes of
    product_gauss_squared; one class is one operation. The torus structure
    is built in setup."""

    name = "ample_grid"

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.path = os.path.join(root, "corpus", "product_gauss_squared.json")
        self.torus = None

    def setup(self) -> None:
        ctx = prepare_torus(load_document(self.path))
        cone.cone_structure(ctx.invariant_torus, ctx.group)
        self.torus = ctx.invariant_torus
        for op in self._ops(gen.grid_classes(self.seed, -1, 50)):
            if op.check(op.run()) is not None:
                raise RuntimeError("warm-up class disagrees with the closed form")

    def close(self) -> None:
        pass

    def block(self, k: int) -> list[Op]:
        return self._ops(gen.grid_classes(self.seed, k, GRID_BLOCK))

    def _ops(self, classes) -> list[Op]:
        t = self.torus

        def run(cls):
            f = Matrix(gen.grid_form(*cls))
            return cone.is_ample(t, f), cone.is_nef(t, f)

        def check(cls, out):
            want = gen.grid_expectation(*cls)
            return None if out == want else f"(ample, nef) = {out}, expected {want}"

        return [
            Op(str(cls), "grid", lambda cls=cls: run(cls), lambda out, cls=cls: check(cls, out))
            for cls in classes
        ]


class RankLadder:
    """endo and cone on E_i^n: plain, with the cyclic factor permutation,
    and transported by seeded unimodular P (see gen.ladder_pass). Not listed
    in BENCHMARK.json (see run.py)."""

    name = "rank_ladder"

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.workdir = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "out", f"work-{os.getpid()}"
        )

    def _write(self, k: int):
        os.makedirs(self.workdir, exist_ok=True)
        written = []
        for label, n, cyclic, doc in gen.ladder_pass(self.seed, k):
            path = os.path.join(self.workdir, f"{label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            written.append((label, n, cyclic, path))
        return written

    def setup(self) -> None:
        for label, _, _, path in self._write(-1):
            code, _ = run_cli(["check", path])
            if code != 0:
                raise RuntimeError(f"generated torus {label} fails check")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def block(self, k: int) -> list[Op]:
        ops = []
        for label, n, cyclic, path in self._write(k):
            want = gen.ladder_expectation(n, cyclic)
            for command in ("endo", "cone"):
                argv = [command, path]
                ops.append(
                    Op(
                        f"{command} {label}",
                        command,
                        lambda argv=argv: run_cli(argv),
                        lambda out, w=want: self.check(w, out),
                    )
                )
        return ops

    @staticmethod
    def check(want: dict, out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        report = json.loads(text)
        wrong = {k: report[k] for k in want if k in report and report[k] != want[k]}
        return f"closed form violated: {wrong}, expected {want}" if wrong else None


WORKLOADS = {w.name: w for w in (CorpusCli, AmpleGrid, RankLadder)}
