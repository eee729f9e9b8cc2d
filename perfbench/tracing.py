"""Span tracer that wraps focklab's public functions from the outside.

``Tracer.install`` replaces each listed function, in its defining module and
in every focklab module that re-binds it through ``from .x import y``, with a
wrapper that records a span (name, start, end, parent) and the counts that
follow from the call's inputs and outputs.  Nothing under ``src/`` changes;
``uninstall`` restores the original objects.  Spans stay in memory until
``write`` saves them.

A tracer made with ``track_memory=True`` also runs every outermost
``measures`` call under ``tracemalloc``, which numpy reports its array
buffers to, so the span records the most memory the call held at once.
``tracemalloc`` slows allocation-heavy Python code severalfold, so a run
takes memory and time from separate passes.  Counts marked "computed" below apply a formula to sizes
taken from the traced calls; they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "indices", "measures", "basis", "toeplitz", "carleson",
          "spectral", "lagrangian", "cli", "output")

TARGETS = {
    "quadrature": ("gauss_hermite", "tensor_rule", "gauss_legendre", "integrate_gaussian"),
    "indices": ("monomial_matrix", "graded_lex_indices", "hermite_values"),
    "measures": ("moment_table", "gaussian_nodes", "real_nodes", "ball_mass", "gaussian_pairing",
                 "moment", "parse_measure", "pushforward", "weight", "variation"),
    "basis": ("enumerate_basis", "weyl_matrix", "kernel_coefficients", "normalized_kernel"),
    "toeplitz": ("assemble_toeplitz", "assemble_coderivative", "assemble_real_coderivative",
                 "berezin_measure", "berezin_coderivative", "berezin_operator",
                 "horizontal_berezin_profile", "berezin_y_variation", "commutator"),
    "carleson": ("condition_m", "carleson_constant", "kfc_verdict", "weight_shift_check", "lattice"),
    "spectral": ("gamma_samples", "gamma_2k", "gamma_plain", "multiplication_matrix",
                 "hermite_function_matrix", "diagonalization_residual", "norm_and_spectrum",
                 "spectral_grid"),
    "lagrangian": ("l_invariance_test", "vx_matrix", "rotation_to_vertical", "rotation_defect",
                   "is_lagrangian", "assemble_l_real_coderivative"),
    "cli": ("run", "load_config"),
    "output": ("write_matrix_csv", "write_samples_csv", "write_complex_grid_csv", "write_summary"),
}

NODE_SETS = ("measures.gaussian_nodes", "measures.real_nodes")

# per-layer metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "quadrature.rule_s": ("quadrature.gauss_hermite", "quadrature.tensor_rule", "quadrature.gauss_legendre"),
    "indices.monomial_s": ("indices.monomial_matrix",),
    "measures.moment_table_s": ("measures.moment_table",),
    "measures.ball_mass_s": ("measures.ball_mass",),
    "basis.enumerate_s": ("basis.enumerate_basis",),
    "basis.weyl_s": ("basis.weyl_matrix",),
    "toeplitz.assemble_s": ("toeplitz.assemble_toeplitz", "toeplitz.assemble_coderivative",
                            "toeplitz.assemble_real_coderivative"),
    "toeplitz.berezin_s": ("toeplitz.berezin_measure", "toeplitz.berezin_coderivative",
                           "toeplitz.berezin_operator", "toeplitz.horizontal_berezin_profile"),
    "carleson.scan_s": ("carleson.condition_m", "carleson.carleson_constant", "carleson.kfc_verdict",
                        "carleson.weight_shift_check", "carleson.lattice"),
    "spectral.gamma_s": ("spectral.gamma_samples", "spectral.gamma_2k", "spectral.gamma_plain"),
    "spectral.multiplication_s": ("spectral.multiplication_matrix", "spectral.hermite_function_matrix"),
    "spectral.eig_s": ("spectral.norm_and_spectrum",),
    "lagrangian.invariance_s": ("lagrangian.l_invariance_test",),
    "lagrangian.vx_s": ("lagrangian.vx_matrix",),
    "cli.run_s": ("cli.run", "cli.load_config"),
    "output.write_s": ("output.write_matrix_csv", "output.write_samples_csv",
                       "output.write_complex_grid_csv", "output.write_summary"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = []
        self.counts = {}
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


# ---------------------------------------------------------------------------
# counters: (span, bound arguments, result) -> span.counts


def _count_rule(span, args, result, tracer):
    span.counts["order"] = int(args["order"])
    misses = tracer.rule_cache_misses()
    span.counts["rules_built"] = misses - tracer.last_misses
    tracer.last_misses = misses


def _count_monomials(span, args, result, tracer):
    span.counts["monomial_evals"] = int(result.size)


def _count_node_set(span, args, result, tracer):
    if span.parent is not None and span.parent.name in NODE_SETS:
        return  # nested inside another node set: counted by the outermost one
    pts, _ = result
    span.counts["node_sets"] = 1
    span.counts["nodes"] = int(np.shape(pts)[0])


def _count_moment_table(span, args, result, tracer):
    """Quadrature nodes and Gram-product flops of one moment pass (computed).

    The sizes come from the traced call: the node set the pass asked for
    (its direct ``gaussian_nodes`` or ``real_nodes`` child) and, on the
    product path, the order q of the imaginary-axis rule (its direct
    ``gauss_hermite`` child).  The flop formulas describe the algorithm the
    path used when this benchmark was written.  Generic path: (pows * w).T @
    conj(pows) over all M nodes, 8 M N^2 real flops.  Product path: m t-nodes,
    each paired with a q^n grid on the imaginary axes; per t-node the per-axis
    Gram tables cost 8 q (D+1)^2 each, their product 6 (n-1) N^2 and the
    accumulation 8 N^2.
    """
    indices = args["indices"]
    nidx = len(indices)
    n = len(indices[0])
    maxdeg = max(sum(a) for a in indices)
    kids = {c.name: c for c in span.children}
    if "measures.gaussian_nodes" in kids:
        m = kids["measures.gaussian_nodes"].counts["nodes"]
        span.counts["moment_nodes"] = m
        span.counts["moment_flops"] = 8 * m * nidx * nidx
    elif "measures.real_nodes" in kids and "quadrature.gauss_hermite" in kids:
        m = kids["measures.real_nodes"].counts["nodes"]
        q = kids["quadrature.gauss_hermite"].counts["order"]
        span.counts["moment_nodes"] = m * q**n
        span.counts["moment_flops"] = m * (n * 8 * q * (maxdeg + 1) ** 2 + 6 * (n - 1) * nidx**2 + 8 * nidx**2)


def _count_ball_mass(span, args, result, tracer):
    span.counts["ball_mass_calls"] = 1


def _count_basis(span, args, result, tracer):
    span.counts["basis_size"] = result.size


def _count_berezin(span, args, result, tracer):
    span.counts["berezin_calls"] = 1


def _count_lattice(span, args, result, tracer):
    span.counts["lattice_points"] = int(result[0].shape[0])


def _count_gamma(span, args, result, tracer):
    span.counts["gamma_points"] = int(np.size(result.values))


def _count_output(span, args, result, tracer):
    paths = result if isinstance(result, tuple) else (result,)
    span.counts["bytes"] = sum(os.path.getsize(p) for p in paths)


COUNTERS = {
    "quadrature.gauss_hermite": _count_rule,
    "indices.monomial_matrix": _count_monomials,
    "measures.gaussian_nodes": _count_node_set,
    "measures.real_nodes": _count_node_set,
    "measures.moment_table": _count_moment_table,
    "measures.ball_mass": _count_ball_mass,
    "basis.enumerate_basis": _count_basis,
    "toeplitz.berezin_measure": _count_berezin,
    "carleson.lattice": _count_lattice,
    "spectral.gamma_samples": _count_gamma,
    "output.write_matrix_csv": _count_output,
    "output.write_samples_csv": _count_output,
    "output.write_complex_grid_csv": _count_output,
    "output.write_summary": _count_output,
}


class Tracer:
    """Records spans around focklab's public functions while installed."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.patches: list[tuple[object, str, object]] = []
        self.quadrature = None
        self.last_misses = 0

    def rule_cache_misses(self) -> int:
        """Gauss-Hermite rules built so far: cache misses, or every call if uncached."""
        original = self.quadrature.gauss_hermite.__wrapped_original__
        if hasattr(original, "cache_info"):
            return original.cache_info().misses
        return sum(1 for s in self.spans if s.name == "quadrature.gauss_hermite")

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        track_memory = self.track_memory and name.startswith("measures.")

        def traced(*args, **kwargs):
            span = Span(name, tracer.stack[-1] if tracer.stack else None)
            tracer.stack.append(span)
            tracking = track_memory and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if tracking:
                    span.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.stack.pop()
                tracer.spans.append(span)
                if span.parent is not None:
                    span.parent.children.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(span, bound.arguments, result, tracer)
            return result

        traced.__wrapped_original__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        package = importlib.import_module("focklab")
        modules = [package] + [importlib.import_module(f"focklab.{layer}") for layer in LAYERS]
        self.quadrature = importlib.import_module("focklab.quadrature")
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"focklab.{layer}")
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self.patches.append((module, attr, original))
        self.last_misses = self.rule_cache_misses()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def covered_since(self, mark: int) -> float:
        """Time covered by top-level spans recorded after ``len(self.spans) == mark``."""
        return sum(s.duration for s in self.spans[mark:] if s.parent is None)

    def largest_alloc_mb(self) -> float:
        """Most memory one outermost measures call held at once (needs ``track_memory``).

        Rounded to 10 kB: the interpreter's own small allocations move the
        peak by a few hundred bytes from run to run.
        """
        return round(max((s.counts.get("peak_alloc_bytes", 0) for s in self.spans), default=0) / 1e6, 2)

    def layer_metrics(self, traced_wall: float, untraced_wall: float, uncovered: float,
                      weight_rel_err: float, largest_array_mb: float) -> dict:
        """Per-layer self times and counts over every span recorded so far."""
        self_by_name = defaultdict(float)
        for span in self.spans:
            self_by_name[span.name] += span.self_time
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, value in self_by_name.items():
            out[f"{name.split('.')[0]}.self_s"] += value
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(self_by_name.get(n, 0.0) for n in names)

        def total(key):
            return sum(s.counts.get(key, 0) for s in self.spans)

        berezin_nodes = sum(s.counts.get("nodes", 0) for s in self.spans if self._under(s, "toeplitz.berezin_measure"))
        berezin_calls = total("berezin_calls")
        out.update({
            "quadrature.rules_built": total("rules_built"),
            "quadrature.weight_rel_err": weight_rel_err,
            "indices.monomial_evals": total("monomial_evals"),
            "measures.moment_nodes": total("moment_nodes"),
            "measures.moment_flops": total("moment_flops"),
            "measures.largest_array_mb": largest_array_mb,
            "measures.node_sets": total("node_sets"),
            "measures.nodes_per_point": berezin_nodes / berezin_calls if berezin_calls else 0.0,
            "measures.ball_mass_calls": total("ball_mass_calls"),
            "basis.size_max": max((s.counts.get("basis_size", 0) for s in self.spans), default=0),
            "toeplitz.berezin_calls": berezin_calls,
            "carleson.lattice_points": total("lattice_points"),
            "spectral.gamma_points": total("gamma_points"),
            "output.bytes": total("bytes"),
            "trace.uncovered_s": uncovered,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": len(self.spans),
        })
        return out

    @staticmethod
    def _under(span, name) -> bool:
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    def write(self, path, extra: dict) -> None:
        """Save every span as [name, start, end, parent index] plus its counts."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9),
             None if s.parent is None else index[id(s.parent)], s.counts or None]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**extra, "columns": ["name", "start_s", "end_s", "parent", "counts"], "spans": rows}, fh)
