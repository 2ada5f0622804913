"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from conecrafter import cone  # noqa: E402


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_generated_tori_pass_check(tmp_path):
    for k in (0, 1):
        for label, n, _, doc in gen.ladder_pass(seed=5, k=k):
            code, text = workloads.run_cli(["check", write_doc(tmp_path, doc)])
            assert code == 0, (label, text)
            assert json.loads(text)["verdict"] == "pass", label


def test_transport_is_unimodular():
    import random

    for r in (2, 4, 6):
        p, p_inv = gen.unimodular(random.Random(r), r, 2 * r)
        assert gen.matmul(p, p_inv) == gen.identity(r)


def test_planted_wrong_verdict_counts_as_failure(monkeypatch):
    workload = workloads.AmpleGrid(ROOT, seed=1)
    workload.setup()
    honest = cone.is_ample
    calls = []

    def planted(t, f):
        calls.append(f)
        verdict = honest(t, f)
        return not verdict if len(calls) == 7 else verdict

    monkeypatch.setattr(cone, "is_ample", planted)
    bench = run.Run(workload, seconds=0.0)
    bench.go()
    assert bench.attempted == workloads.GRID_BLOCK
    assert len(bench.failures) == 1
    ratio = run.end_to_end(bench, setup_s=1.0)["pass_ratio"][0]
    assert ratio == (workloads.GRID_BLOCK - 1) / workloads.GRID_BLOCK


def test_corpus_oracle_rejects_changed_report_and_traceback():
    workload = workloads.CorpusCli(ROOT, seed=1)
    path = workload.paths["elliptic_gauss"]
    code, text = workloads.run_cli(["check", path])
    assert workload.check("check", "elliptic_gauss", (code, text)) is None
    tampered = text.replace('"verdict": "pass"', '"verdict": "fail"')
    assert workload.check("check", "elliptic_gauss", (code, tampered)) is not None
    assert workload.check("check", "m07_zero_denominator", (0, text)) is not None

    def crash():
        raise ZeroDivisionError("planted")

    op = workloads.Op("crash", "check", crash, lambda out: None)
    bench = run.Run(workload, seconds=0.0)
    bench._one(op)
    assert bench.failures == ["crash: traceback: ZeroDivisionError: planted"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ample_grid", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(
    strict=True,
    reason="transport invariance fails: after P = diag(U, U, U) the factor search "
    "of the Wedderburn step exceeds its desk-scale budget and endo exits 2",
)
def test_transport_invariance_rank6_cyclic(tmp_path):
    def diag3(u):
        m = [[0] * 6 for _ in range(6)]
        for k in range(3):
            for i in range(2):
                for j in range(2):
                    m[2 * k + i][2 * k + j] = u[i][j]
        return m

    transport = (diag3([[1, 2], [-1, -1]]), diag3([[-1, -2], [1, 1]]))
    doc = gen.ladder_doc(3, True, transport, "ei3_cyclic_transported")
    out = workloads.run_cli(["endo", write_doc(tmp_path, doc)])
    assert workloads.RankLadder.check(gen.ladder_expectation(3, True), out) is None
