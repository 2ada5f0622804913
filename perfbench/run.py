"""conecrafter benchmark: seeded, single-process, closed-loop workloads with
one client, each output checked against an oracle.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_cli --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): corpus_cli and ample_grid, the two that
BENCHMARK.json lists, and rank_ladder, which runs the same way but is left
out of BENCHMARK.json: on a shared 2-core host its throughput moved by more
than the largest allowed bound between runs of the same code.

--trace 0 prints the end-to-end metrics. Operation and set-up times are CPU
time of this process, which pins itself to one CPU: the program is
single-threaded and CPU-bound, and on a shared host wall time also counts
the periods in which the host runs something else. The speed of the CPU
itself still drifts on such a host: on a 2-core VM, runs of the same code
minutes apart differed by up to 1.7x. So the run also times a fixed
pure-Python reference task every half second, and scales every time by
sqrt(REFERENCE_S / median time of that task in the run). The square root
is empirical: between the host's fast and slow periods the program's times
moved roughly as the square root of the reference task's, and with this
scale the spread of ten runs was about half the unscaled one. The unscaled
figures are printed on a line of their own.

--trace 1 runs every operation twice, untraced then traced, checks that
both outputs are byte-identical, and prints the per-layer metrics: calls
and self time (wall clock) per traced function per block (a corpus pass,
a ladder pass, 250 grid classes), the untraced CPU time per command per
pass, and the tracing overhead. Spans go to perfbench/out/.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
PER_COMMAND = ("endo", "cone", "funddom", "verify")
REFERENCE_EVERY_S = 0.5
REFERENCE_S = 1.5e-3  # a typical time of reference_task on one core of a 2.1 GHz VM


def source_stamp(seed: int) -> dict:
    """What a result must be compared under: backend, interpreter, cores,
    seed, and the source it measured."""
    from conecrafter import _kernels

    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "conecrafter")
    for dirpath, _, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith((".py", ".pyx")):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_head(),
        "src_sha256": digest.hexdigest(),
    }


def git_head() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return "unknown"


def kernel_row(seed: int) -> dict:
    """Best-of-5 microseconds of the active kernel backend on seeded inputs."""
    from conecrafter import _kernels

    rng = random.Random(f"kernels:{seed}")
    a = [rng.randint(-10**6, 10**6) for _ in range(16 * 16)]
    b = [rng.randint(-10**6, 10**6) for _ in range(16 * 16)]
    c = [rng.randint(-50, 50) for _ in range(8 * 8)]
    row = {}
    for label, fn in (
        ("imat_mul_16x16_us", lambda: _kernels.imat_mul(a, b, 16, 16, 16)),
        ("berkowitz_8x8_us", lambda: _kernels.berkowitz_charpoly(c, 8)),
    ):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        row[label] = best * 1e6
    return row


def reference_task() -> int:
    """A fixed pure-Python task made of the operations the program spends
    its time in: Fraction elimination, integer products, tuples and dicts."""
    n = 8
    m = [
        [Fraction((3 * i + 5 * j) % 13 - 6 + 17 * (i == j), 1 + (i + j) % 3) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for c in range(n):
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    a = [(7 * i) % 11 - 5 for i in range(64)]
    acc = sum(a[i * 8 + k] * a[k * 8 + j] for i in range(8) for j in range(8) for k in range(8))
    d = {(i, i % 7): tuple(range(i % 5)) for i in range(300)}
    return det.numerator + acc + len(d)


def reference_times(reps: int = 5) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.process_time()
        reference_task()
        out.append(time.process_time() - t0)
    return out


def tail_percentile(values: list[float], want: int = 90, half_band: int = 4):
    """(pct, value): the `want` percentile, or the highest percentile below
    it that has at least 10 samples beyond it. The value is the mean of the
    samples from pct - half_band to pct + half_band percent, so that it
    does not jump when the percentile falls between two operations of
    different cost."""
    n = len(values)
    top = 100 * (n - 10) // n
    pct = max(50, min(want, top))
    hi = max(pct, min(pct + half_band, top))
    ordered = sorted(values)
    band = ordered[int((pct - half_band) / 100 * (n - 1)):int(hi / 100 * (n - 1)) + 1]
    return pct, statistics.fmean(band)


class Run:
    """Blocks of operations until the time is up: at least one block, and
    no new block when less than half a block's time remains."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        # Only 8 bytes per operation, so that peak_rss_mb does not grow with
        # the number of operations a faster program completes.
        self.latencies_ms = array("d")
        self.by_key: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.block_rates: list[float] = []
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.blocks = 0

    def go(self) -> None:
        deadline = time.perf_counter() + self.seconds
        next_reference = 0.0
        while True:
            started = time.perf_counter()
            ops = self.workload.block(self.blocks)
            busy = 0.0
            for op in ops:
                if time.perf_counter() >= next_reference:
                    self.reference_s.extend(reference_times())
                    next_reference = time.perf_counter() + REFERENCE_EVERY_S
                busy += self._one(op)
            self.block_rates.append(len(ops) / busy)
            self.blocks += 1
            now = time.perf_counter()
            if now + (now - started) / 2 >= deadline:
                break

    def _one(self, op) -> float:
        op_id = self.attempted
        self.attempted += 1
        out, error, elapsed = timed(op.run)
        if error is None:
            error = op.check(out)
        if self.tracer is not None:
            with self.tracer.recording(op_id):
                traced_out, traced_error, traced_elapsed = timed(op.run)
            self.untraced_s += elapsed
            self.traced_s += traced_elapsed
            if error is None and (traced_out, traced_error) != (out, None):
                error = "traced output differs from the untraced output"
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
        self.latencies_ms.append(elapsed * 1000.0)
        if op.command in PER_COMMAND:
            self.by_key[op.command, op.key].append(elapsed * 1000.0)
        return elapsed

    def per_command_ms(self) -> dict[str, float]:
        """Per-pass sum over documents of each command's median latency."""
        sums = {c: 0.0 for c in PER_COMMAND}
        for (command, _), values in self.by_key.items():
            sums[command] += statistics.median(values)
        return sums


def timed(fn):
    """(output, error, CPU seconds). A raised exception is the CLI's exit 1
    (a traceback) and always counts as a failure."""
    t0 = time.process_time()
    try:
        out, error = fn(), None
    except Exception as exc:  # the operation under test failed; report it
        out, error = None, f"traceback: {type(exc).__name__}: {exc}"
    return out, error, time.process_time() - t0


def end_to_end(run: Run, setup_s: float) -> dict:
    pct, tail = tail_percentile(run.latencies_ms)
    p50 = statistics.median(run.latencies_ms)
    rate = statistics.median(run.block_rates)
    reference = statistics.median(run.reference_s)
    scale = (REFERENCE_S / reference) ** 0.5
    print(f"# {run.workload.name}: {run.blocks} blocks, {run.attempted} operations; "
          f"op_p90_ms is p{pct} of {len(run.latencies_ms)} samples")
    print("# unscaled " + json.dumps({
        "setup_s": setup_s, "ops_per_s": rate, "op_p50_ms": p50, "op_p90_ms": tail,
        "reference_ms": reference * 1e3, "scale": scale}))
    return {
        "setup_s": (setup_s * scale, "s"),
        "ops_per_s": (rate / scale, "1/s"),
        "op_p50_ms": (p50 * scale, "ms"),
        "op_p90_ms": (tail * scale, "ms"),
        "pass_ratio": ((run.attempted - len(run.failures)) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer) -> dict:
    from tracer import MULTS, span_names

    blocks = run.blocks
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = (tracer.calls[name] / blocks, "count")
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1000.0 / blocks, "ms")
    for name in MULTS:
        metrics[f"{name}.mults"] = (tracer.mults[name] / blocks, "count")
    ratio = tracer.ample_in_tiling / tracer.samples_verified if tracer.samples_verified else 0.0
    metrics["reduction.ample_tests_per_sample"] = (ratio, "ratio")
    for command, ms in run.per_command_ms().items():
        metrics[f"cmd.{command}_ms"] = (ms, "ms")
    metrics["trace.spans"] = (len(tracer.spans) / blocks, "count")
    metrics["trace.overhead_ratio"] = (run.traced_s / run.untraced_s, "ratio")
    print(f"# tracing overhead: untraced {run.attempted / run.untraced_s:.3f} ops/s, "
          f"traced {run.attempted / run.traced_s:.3f} ops/s; "
          f"is_ample calls in verify_tiling {tracer.ample_in_tiling} over "
          f"{tracer.samples_verified} verified samples")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/conecrafter/cli.py", "corpus") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.process_time()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports conecrafter

    import_s = time.process_time() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        workload.setup()
        setups.append(time.process_time() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = Run(workload, args.seconds, tracer)
    try:
        run.go()
    finally:
        workload.close()

    stamp = source_stamp(args.seed)
    stamp["kernels"] = kernel_row(args.seed)
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print("# per-command ms per pass (median latency summed over documents): "
          + ", ".join(f"{c}={ms:.1f}" for c, ms in run.per_command_ms().items()))
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)

    metrics = per_layer(run, tracer) if tracer else end_to_end(run, setup_s)
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        tracer.write_spans(base + ".spans.jsonl")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "failures": run.failures, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
