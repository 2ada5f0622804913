"""Per-layer tracing from outside the program.

The tracer replaces the public functions named in LAYERS with wrappers that
record a span (id, name, start, end, parent id, operation id) and count the
call. A name is replaced at every module that binds it: ``from x import f``
makes a copy of the binding, so ``matrices.imat_mul`` and
``_kernels.imat_mul`` are both patched. Methods are patched on their class.
Per-entry hot paths such as ``Matrix.__init__`` are left alone.

Self time is a span's duration minus the time its child spans cover. Spans
are kept in memory and written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# conecrafter module -> traced functions. Metric names use the module name
# without a leading underscore ("kernels"), since a metric name must start
# with a letter.
LAYERS = {
    "cli": ("main",),
    "documents": ("load_document",),
    "pipeline": ("prepare_torus", "build_domain", "build_torus_problem"),
    "torus": (
        "validate_torus",
        "close_group",
        "normalize_polarization",
        "invariant_polarization",
        "action_is_free",
    ),
    "endo": ("invariant_subalgebra", "compute_end", "center_basis", "rosati"),
    "wedderburn": (
        "decompose",
        "central_idempotents",
        "primitive_center_element",
        "minimal_polynomial",
    ),
    "cone": (
        "cone_structure",
        "compute_ns",
        "invariant_ns",
        "is_ample",
        "is_nef",
        "ns_to_endo",
    ),
    "reduction": (
        "verify_tiling",
        "find_eta",
        "find_interior_overlap",
        "pushdown_domain",
        "hyperbolic_domain",
        "gauss_reduce",
        "PolyhedralCone.contains",
    ),
    "polynomials": (
        "char_poly",
        "all_roots_positive",
        "all_roots_nonnegative",
        "sturm_chain",
        "factor_squarefree_small",
    ),
    "matrices": (
        "Matrix.inverse",
        "Matrix.solve",
        "Matrix.rref",
        "Matrix.det",
        "hermite_normal_form",
        "matrix_kernel_basis",
        "integer_kernel_matrix",
    ),
    "_kernels": ("imat_mul", "berkowitz_charpoly"),
}

TILING = "reduction.verify_tiling"
AMPLE = "cone.is_ample"


def span_names() -> list[str]:
    return [f"{m.lstrip('_')}.{f}" for m, names in LAYERS.items() for f in names]


def berkowitz_mults(n: int) -> int:
    """Multiplications of the division-free Berkowitz recurrence on n x n:
    per step `size`, k = size-1 for R.C, k*k + k for each of the size-2
    further products R.M^i.C, and one per term of the Toeplitz product."""
    total = 0
    for size in range(2, n + 1):
        k = size - 1
        total += k + (size - 2) * (k * k + k)
        total += sum(min(i, size - 1) + 1 for i in range(size + 1))
    return total


# name -> multiplications computed from the argument sizes
MULTS = {
    "kernels.imat_mul": lambda a, b, n, k, m: n * k * m,
    "kernels.berkowitz_charpoly": lambda a, n: berkowitz_mults(n),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.mults: Counter = Counter()
        self.spans: list[tuple] = []
        self.ample_in_tiling = 0
        self.samples_verified = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._tiling_depth = 0
        self._op = None
        self._sites = self._patch_sites()

    def _patch_sites(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        sites = []
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"conecrafter.{module_name}")
            loaded = [
                m for n, m in sorted(sys.modules.items())
                if n == "conecrafter" or n.startswith("conecrafter.")
            ]
            for name in names:
                metric = f"{module_name.lstrip('_')}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    sites.append((owner, attr, original, self._wrap(metric, original)))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(metric, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            sites.append((m, attr, original, wrapper))
        return sites

    def _wrap(self, name: str, fn):
        mults = MULTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if mults is not None:
                self.mults[name] += mults(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return traced

    def _call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        if name == AMPLE and self._tiling_depth:
            self.ample_in_tiling += 1
        if name == TILING:
            self._tiling_depth += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((span_id, name, start, end, parent, self._op))
            if name == TILING:
                self._tiling_depth -= 1
        if name == TILING:
            self.samples_verified += result.verified
        return result

    @contextmanager
    def recording(self, op_id):
        """Trace the calls made inside the block, attributed to op_id."""
        self._op = op_id
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._sites:
                setattr(owner, attr, original)
            self._op = None

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, start and end in microseconds
        from the first span, parent id (-1 for a root), operation id."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                row = [span_id, name, round((start - origin) * 1e6, 1),
                       round((end - origin) * 1e6, 1), parent, op]
                fh.write(json.dumps(row) + "\n")
