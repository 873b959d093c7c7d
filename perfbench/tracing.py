"""Span tracing of the ricciflow layers, installed from outside the package.

The tracer replaces each layer's public functions with timing wrappers
wherever a ``ricciflow`` module binds the function object, so a call site
that moves between modules is still counted.  A counting proxy for
``scipy.sparse.linalg.splu`` (installed before ``ricciflow`` is imported,
and also in scipy's ARPACK module, which binds its own reference) counts
sparse LU factorizations and solves and charges them to the innermost
enclosing ``spectral`` or ``variation`` span.

Spans are kept in memory as ``[name, start, end, parent, failed]`` lists
(``parent`` is an index into the span list, -1 for a root) and written
out by the caller when the run ends.
"""

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (defining module, function, span name).  Span names are "<layer>.<what>".
LAYER_FUNCTIONS = (
    ("ricciflow.cli", "build_geometry", "mesh.build"),
    ("ricciflow.mesh", "assemble_stiffness", "mesh.stiffness"),
    ("ricciflow.mesh", "scalar_curvature", "mesh.curvature"),
    ("ricciflow.mesh", "assemble_mass", "mesh.mass"),
    ("ricciflow.flow", "step", "flow.step"),
    ("ricciflow.flow", "run", "flow.run"),
    ("ricciflow.spectral", "solve_spectrum", "spectral.solve"),
    ("ricciflow.spectral", "track", "spectral.track"),
    ("ricciflow.variation", "perelman_lambda", "variation.perelman"),
    ("ricciflow.variation", "variation_report", "variation.report"),
    ("ricciflow.cli", "write_trajectory_csv", "cli.write"),
    ("ricciflow.cli", "write_variation_csv", "cli.write"),
    ("ricciflow.cli", "write_summary_json", "cli.write"),
)

# Modules that bind scipy's splu and are reached by ricciflow's solvers.
SPLU_MODULES = ("scipy.sparse.linalg",
                "scipy.sparse.linalg._eigen.arpack.arpack")

# Computed (not measured) bytes one triangular solve moves: every stored
# L+U entry is read as an 8-byte value plus a 4-byte index, and three
# length-n float64 vectors (right-hand side, permuted copy, solution)
# are streamed once each.
LU_BYTES_PER_ENTRY = 12
LU_BYTES_PER_ROW = 24

_LU_LAYERS = ("spectral.", "variation.")


def _count_tracking_warnings(traj):
    return {"spectral.tracking_warnings":
            sum(len(s.tracking_warnings) for s in traj.snapshots)}


def _count_variation_rows(rows):
    return {"variation.report_rows": len(rows),
            "variation.cluster_rows": sum(bool(r.is_cluster) for r in rows)}


# Counts read off a layer's return value.
RESULT_COUNTERS = {
    "flow.run": _count_tracking_warnings,
    "variation.report": _count_variation_rows,
}


class _CountingLU:
    """Wraps a SuperLU factorization and counts its ``solve`` calls."""

    def __init__(self, lu, tracer, owner):
        self._lu = lu
        self._tracer = tracer
        self._owner = owner
        self._bytes = (LU_BYTES_PER_ENTRY * lu.nnz
                       + LU_BYTES_PER_ROW * lu.shape[0])

    def solve(self, rhs, trans="N"):
        start = perf_counter()
        x = self._lu.solve(rhs, trans)
        counts = self._tracer.lu[self._owner]
        counts["solves"] += 1
        counts["solve_s"] += perf_counter() - start
        counts["solve_bytes"] += self._bytes
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Collects spans and LU counts while installed; restores on exit."""

    def __init__(self):
        self.recording = False
        self._splu_patches = []  # (namespace, attribute, original)
        self._layer_patches = []
        self.reset()

    def reset(self):
        """Drop the spans and counts of the previous run."""
        self.spans = []
        self.lu = defaultdict(Counter)
        self.counts = Counter()
        self._stack = []

    @staticmethod
    def _patch(patches, namespace, attribute, replacement):
        patches.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, replacement)

    @staticmethod
    def _unpatch(patches):
        while patches:
            namespace, attribute, original = patches.pop()
            setattr(namespace, attribute, original)

    def restore(self):
        """Undo every patch, newest first, and stop recording."""
        self.recording = False
        self._unpatch(self._layer_patches)
        self._unpatch(self._splu_patches)

    def patch_splu(self):
        """Install the counting splu proxy; call before importing ricciflow.

        While the tracer is not recording, the proxy returns scipy's own
        factorization object, so untraced runs pay one extra call per
        factorization and nothing per solve.
        """
        modules = [importlib.import_module(name) for name in SPLU_MODULES]
        original = modules[0].splu

        def counting_splu(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            start = perf_counter()
            lu = original(*args, **kwargs)
            owner = self._lu_owner()
            counts = self.lu[owner]
            counts["factorizations"] += 1
            counts["factor_s"] += perf_counter() - start
            counts["nnz"] += lu.nnz
            return _CountingLU(lu, self, owner)

        counting_splu.__wrapped__ = original
        for module in modules:
            if module.splu is not original:
                raise RuntimeError(
                    f"{module.__name__}.splu is already patched")
            self._patch(self._splu_patches, module, "splu", counting_splu)

    def _lu_owner(self):
        """Innermost open spectral or variation span, charged for LU work."""
        for index in reversed(self._stack):
            name = self.spans[index][0]
            if name.startswith(_LU_LAYERS):
                return name
        return "unattributed"

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans = self.spans
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
        stack.append(len(spans))
        spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = perf_counter()
            stack.pop()
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counts.update(counter(result))
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_layers(self):
        """Wrap every LAYER_FUNCTIONS entry in every ricciflow namespace."""
        wrappers = {}
        for module_name, function, span in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function)
            wrappers[id(original)] = (original, self._wrapper(span, original))
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == "ricciflow" or name.startswith("ricciflow."))]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(self._layer_patches, module, attribute,
                                entry[1])

    @contextmanager
    def installed(self):
        """Wrap the layers and record for the duration of the block."""
        self.wrap_layers()
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            self._unpatch(self._layer_patches)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap
    each other and their summed duration is the covered part.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_times(spans):
    """Self time summed per layer (the span-name prefix before the dot)."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return dict(totals)


def layer_metrics(tracer, bytes_written):
    """Per-layer metrics of the traced run rooted at ``tracer.spans[0]``."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)
    own_total = defaultdict(float)
    calls = Counter()
    failures = Counter()
    durations = defaultdict(list)
    for span, self_s in zip(spans, own):
        name, start, end, _, failed = span
        total[name] += end - start
        own_total[name] += self_s
        calls[name] += 1
        failures[name] += failed
        durations[name].append(end - start)

    flow_runs = [(s[1], s[2]) for s in spans if s[0] == "flow.run"]
    curvature_in_flow = sum(
        1 for s in spans
        if s[0] == "mesh.curvature"
        and any(lo <= s[1] <= hi for lo, hi in flow_runs))

    def lu_sum(prefix, key):
        return sum(counts[key] for owner, counts in tracer.lu.items()
                   if owner.startswith(prefix))

    root = spans[0]
    run_s = root[2] - root[1]
    lu_factorizations = lu_sum("spectral.", "factorizations")
    lu_solve_s = lu_sum("spectral.", "solve_s")
    solve_ms = [1e3 * d for d in durations["spectral.solve"]]
    metrics = {
        "mesh.build_s": (total["mesh.build"], "s"),
        "mesh.stiffness_s": (total["mesh.stiffness"], "s"),
        "mesh.curvature_calls": (calls["mesh.curvature"], "count"),
        "mesh.curvature_s": (total["mesh.curvature"], "s"),
        "mesh.mass_calls": (calls["mesh.mass"], "count"),
        "flow.run_s": (total["flow.run"], "s"),
        "flow.steps": (calls["flow.step"], "count"),
        "flow.step_self_s": (own_total["flow.step"], "s"),
        "flow.curvature_per_step": (
            curvature_in_flow / max(calls["flow.step"], 1), "calls/step"),
        "spectral.solve_calls": (calls["spectral.solve"], "count"),
        "spectral.solve_s": (total["spectral.solve"], "s"),
        "spectral.solve_ms_p50": (
            statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "spectral.solve_failures": (failures["spectral.solve"], "count"),
        "spectral.lu_factorizations": (lu_factorizations, "count"),
        "spectral.lu_factor_s": (lu_sum("spectral.", "factor_s"), "s"),
        "spectral.lu_solves": (lu_sum("spectral.", "solves"), "count"),
        "spectral.lu_solve_s": (lu_solve_s, "s"),
        "spectral.lu_nnz": (
            lu_sum("spectral.", "nnz") / max(lu_factorizations, 1), "entries"),
        "spectral.lu_solve_gbps_computed": (
            lu_sum("spectral.", "solve_bytes") / lu_solve_s / 1e9
            if lu_solve_s > 0 else 0.0, "GB/s"),
        "spectral.track_s": (total["spectral.track"], "s"),
        "spectral.tracking_warnings": (
            tracer.counts["spectral.tracking_warnings"], "count"),
        "variation.perelman_calls": (calls["variation.perelman"], "count"),
        "variation.perelman_s": (total["variation.perelman"], "s"),
        "variation.perelman_lu_factorizations": (
            lu_sum("variation.perelman", "factorizations"), "count"),
        "variation.perelman_lu_solves": (
            lu_sum("variation.perelman", "solves"), "count"),
        "variation.report_s": (total["variation.report"], "s"),
        "variation.report_rows": (
            tracer.counts["variation.report_rows"], "count"),
        "variation.cluster_rows": (
            tracer.counts["variation.cluster_rows"], "count"),
        "cli.self_s": (own[0], "s"),
        "cli.write_s": (total["cli.write"], "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.run_s": (run_s, "s"),
        "share.eigen": ((total["spectral.solve"] + total["spectral.track"]
                         + total["variation.perelman"]) / run_s, "ratio"),
        "share.flow_step": (total["flow.step"] / run_s, "ratio"),
    }
    return metrics
