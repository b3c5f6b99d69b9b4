"""Traced run: which program functions get spans, what they observe, and the per-layer metrics.

Spans are recorded around the public functions under the names that
``graphsamp.bench`` and ``graphsamp.cli`` call them by, plus
``ReconstructionPipeline.reconstruct``. The wrappers are installed only
for the traced execution of an operation and removed right after it.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import graphsamp.bench as gbench
import graphsamp.cli as gcli
from graphsamp.reconstruct import ReconstructionPipeline, kkt_reconstruct

from spans import Tracer
from workloads import RECONSTRUCT_RTOL

BENCH_CALLS = (
    "random_sensor_graph", "laplacian", "eigendecompose", "build_variation_operator",
    "generate_signal", "design_sampling_operator", "build_pipeline", "sample", "mse",
    "random_vertex_selection", "run_trial", "summarize", "write_report",
)
CLI_CALLS = (
    "random_sensor_graph", "laplacian", "eigendecompose", "build_variation_operator",
    "design_sampling_operator", "build_pipeline", "sample", "mse", "load_graph",
    "load_matrix", "load_signal", "save_signal", "render_signal_svg", "main",
)

# span name -> per-layer time metric that the span's self time feeds
SPAN_METRIC = {
    "graphs.random_sensor_graph": "graphs.random_sensor_graph_ms",
    "graphs.laplacian": "graphs.laplacian_ms",
    "graphs.eigendecompose": "graphs.eigendecompose_ms",
    "variation.build_variation_operator": "variation.build_ms",
    "signals.generate_signal": "signals.generate_ms",
    "design.design_sampling_operator": "design.ms",
    "reconstruct.build_pipeline": "reconstruct.build_pipeline_ms",
    "reconstruct.sample": "reconstruct.sample_ms",
    "reconstruct.ReconstructionPipeline.reconstruct": "reconstruct.reconstruct_ms",
    "fileio.load_graph": "fileio.load_graph_ms",
    "fileio.load_matrix": "fileio.load_matrix_ms",
    "fileio.load_signal": "fileio.load_signal_ms",
    "fileio.save_signal": "fileio.save_signal_ms",
    "render.render_signal_svg": "render.svg_ms",
    "bench.run_trial": "bench.self_ms",
    "bench.random_vertex_selection": "bench.self_ms",
    "bench.mse": "bench.self_ms",
    "bench.summarize": "bench.write_report_ms",
    "bench.write_report": "bench.write_report_ms",
    "cli.main": "cli.self_ms",
}
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
UNITS = {
    **dict.fromkeys(TIME_METRICS, "ms"),
    "design.iters": "count",
    "design.ms_per_iter": "ms",
    "design.converged_ratio": "ratio",
    "design.share": "ratio",
    "design.flops_per_iter.computed": "flop",
    "design.bytes_per_iter.computed": "byte",
    "graphs.edges": "count",
    "reconstruct.pinv_fallbacks": "count",
    "fileio.bytes_read": "byte",
    "trace.overhead_ratio": "ratio",
}
REPORT_OP = "report"
FEASIBILITY_SLACK = 1e-12  # ||S||_F <= eps (1 + slack), as in acceptance 05
MONOTONE_SLACK = 1e-9  # relative drop of the nuclear norm allowed, as in acceptance 05


def design_flops_per_iter(n: int, k: int) -> int:
    """Two n x n by n x K products (2 n^2 K each) plus a thin SVD of n x K (4 n K^2 + 22 K^3)."""
    return 4 * n * n * k + 4 * n * k * k + 22 * k**3


def design_bytes_per_iter(n: int, k: int) -> int:
    """Each product reads 8 n^2 + 8 n K and writes 8 n K bytes; the SVD reads 8 n K and
    writes U, s and Vt, 8 (n K + K + K^2). Cache reuse and LAPACK workspace are ignored."""
    return 2 * (8 * n * n + 16 * n * k) + 8 * (2 * n * k + k + k * k)


@dataclass
class OpObservations:
    designs: list = field(default_factory=list)  # (epsilon, SamplingDesign)
    pipelines: list = field(default_factory=list)  # (ReconstructionPipeline, VariationOperator)
    first_reconstruct: tuple | None = None  # (pipeline, samples, x_hat)
    design_iters: list = field(default_factory=list)
    design_converged: list = field(default_factory=list)
    design_shape: tuple | None = None
    edges: int = 0
    bytes_read: int = 0
    pinv_fallbacks: int = 0


class Observer:
    """Installs the span wrappers around one traced operation and keeps what they saw."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.ops: dict = defaultdict(OpObservations)

    def _current(self) -> OpObservations:
        return self.ops[self.tracer.op]

    def _on_design(self, args, kwargs, design):
        config = args[2] if len(args) > 2 else kwargs["config"]
        obs = self._current()
        obs.designs.append((config.epsilon, design))
        obs.design_iters.append(design.iterations)
        obs.design_converged.append(design.converged)
        obs.design_shape = design.matrix.shape

    def _on_pipeline(self, args, kwargs, pipeline):
        obs = self._current()
        obs.pipelines.append((pipeline, args[0] if args else kwargs["vo"]))
        obs.pinv_fallbacks += int(pipeline.used_pseudo_inverse)

    def _on_reconstruct(self, args, kwargs, x_hat):
        obs = self._current()
        if obs.first_reconstruct is None:
            samples = args[1] if len(args) > 1 else kwargs["samples"]
            obs.first_reconstruct = (args[0], samples, x_hat)

    def _on_graph(self, args, kwargs, graph):
        self._current().edges += len(graph.edges)

    def _on_load(self, args, kwargs, result):
        self._current().bytes_read += os.path.getsize(args[0] if args else kwargs["path"])

    def _on_load_graph(self, args, kwargs, graph):
        self._on_load(args, kwargs, graph)
        self._on_graph(args, kwargs, graph)

    def begin(self, op) -> None:
        hooks = {
            "design_sampling_operator": self._on_design,
            "build_pipeline": self._on_pipeline,
            "random_sensor_graph": self._on_graph,
            "load_graph": self._on_load_graph,
            "load_matrix": self._on_load,
            "load_signal": self._on_load,
        }
        self.tracer.op = op
        for module, names in ((gbench, BENCH_CALLS), (gcli, CLI_CALLS)):
            for name in names:
                self.tracer.wrap(module, name, hooks.get(name))
        self.tracer.wrap(ReconstructionPipeline, "reconstruct", self._on_reconstruct)

    def end(self) -> None:
        self.tracer.restore()
        self.tracer.op = None

    def check(self, op, expected_designs: int) -> list[str]:
        """Invariants of the captured designs and one pipeline-vs-KKT check, outside any span.

        Drops the captured matrices afterwards; the counts stay.
        """
        obs = self.ops[op]
        failures = []
        if len(obs.designs) != expected_designs:
            failures.append(f"op {op}: {len(obs.designs)} designs, expected {expected_designs}")
        for epsilon, design in obs.designs:
            fro = float(np.linalg.norm(design.matrix))
            if fro > epsilon * (1 + FEASIBILITY_SLACK):
                failures.append(f"op {op}: ||S||_F = {fro!r} exceeds epsilon {epsilon!r}")
            nuc = design.nuclear_norms
            if np.any(np.diff(nuc) < -MONOTONE_SLACK * nuc[:-1]):
                failures.append(f"op {op}: nuclear-norm trace decreases")
        if expected_designs:
            if obs.first_reconstruct is None:
                failures.append(f"op {op}: no pipeline reconstruction captured")
            else:
                pipeline, samples, x_hat = obs.first_reconstruct
                vo = next(v for p, v in obs.pipelines if p is pipeline)
                reference = kkt_reconstruct(vo, pipeline.sampling_matrix, samples)
                gap = float(np.linalg.norm(x_hat - reference) / np.linalg.norm(reference))
                if not gap <= RECONSTRUCT_RTOL:
                    failures.append(f"op {op}: pipeline is {gap:.3e} from the KKT reference")
        obs.designs, obs.pipelines, obs.first_reconstruct = [], [], None
        return failures


def per_layer_metrics(observer: Observer, op_ids, op_seconds, untraced_seconds, count_ops):
    """Per-layer metrics of the traced operations ``op_ids`` (durations ``op_seconds``).

    Times are the median over operations of the layer's self time in
    that operation, except ``bench.write_report_ms``, which is the
    report phase divided by the operation count. Counts are summed over
    the first ``count_ops`` operations, so they repeat exactly for a seed.
    Returns (metrics, layer shares, per-trial design iteration list).
    """
    per_op: dict = defaultdict(lambda: defaultdict(float))
    tracer = observer.tracer
    for span, self_seconds in zip(tracer.spans, tracer.self_times()):
        if span.op is not None:
            per_op[span.op][SPAN_METRIC[span.name]] += self_seconds * 1e3
    metrics = {
        name: statistics.median(per_op[i][name] for i in op_ids)
        for name in TIME_METRICS
        if name != "bench.write_report_ms"
    }
    metrics["bench.write_report_ms"] = per_op[REPORT_OP]["bench.write_report_ms"] / len(op_ids)

    total_ms = sum(op_seconds) * 1e3
    totals = {name: sum(per_op[i][name] for i in op_ids) for name in TIME_METRICS}
    shares = {name: totals[name] / total_ms for name in TIME_METRICS}
    shares["unattributed"] = 1.0 - sum(shares.values())

    observed = [observer.ops[i] for i in op_ids]
    iters = [n for obs in observed for n in obs.design_iters]
    converged = [c for obs in observed for c in obs.design_converged]
    shape = next((obs.design_shape for obs in observed if obs.design_shape), None)
    counted = observed[:count_ops]
    metrics.update(
        {
            "design.iters": sum(sum(obs.design_iters) for obs in counted),
            "design.ms_per_iter": totals["design.ms"] / sum(iters) if iters else 0.0,
            "design.converged_ratio": sum(converged) / len(converged) if converged else 0.0,
            "design.share": shares["design.ms"],
            "design.flops_per_iter.computed": design_flops_per_iter(*shape) if shape else 0,
            "design.bytes_per_iter.computed": design_bytes_per_iter(*shape) if shape else 0,
            "graphs.edges": sum(obs.edges for obs in counted),
            "reconstruct.pinv_fallbacks": sum(obs.pinv_fallbacks for obs in counted),
            "fileio.bytes_read": sum(obs.bytes_read for obs in counted),
            "trace.overhead_ratio": statistics.median(op_seconds) / statistics.median(untraced_seconds),
        }
    )
    return metrics, shares, [obs.design_iters for obs in counted]
