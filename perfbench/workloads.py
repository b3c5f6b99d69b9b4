"""The benchmark's workloads: inputs made from a seed, one timed operation, output checks.

Each workload offers the same methods to the runner:

* ``setup(directory)`` builds every input from the seed (called several
  times so set-up time can be reported as a median; the last call wins);
* ``warm_up(directory)`` runs the operation's code path once, untimed;
* ``prepare(i, directory)`` makes the inputs of operation ``i``, untimed;
* ``run(request, out_dir)`` is the timed operation;
* ``check(request, output)`` returns the failed output checks;
* ``same(a, b)`` tells whether a traced output equals the untraced one;
* ``finish(outputs)`` turns the checked outputs into the MSE metrics and
  returns the failed run-level checks.
"""

from __future__ import annotations

import contextlib
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphsamp.bench as gbench
import graphsamp.cli as gcli
from graphsamp.bench import (
    METHOD_PROPOSED,
    METHOD_RANDOM_VERTEX,
    ExperimentConfig,
    ExperimentReport,
    default_radius,
    mse,
    random_vertex_selection,
)
from graphsamp.design import DesignConfig, design_sampling_operator
from graphsamp.fileio import load_signal, save_graph, save_matrix, save_signal
from graphsamp.graphs import eigendecompose, laplacian, random_sensor_graph
from graphsamp.reconstruct import build_pipeline, kkt_reconstruct, sample
from graphsamp.seeds import mix_seed
from graphsamp.signals import gmrf_signal
from graphsamp.variation import SpectralResponse, build_variation_operator

# Cap on mc_gmrf_n256's design loop. Uncapped, its iteration counts range
# from under 100 to over 1700 between fresh graphs (coefficient of variation
# 0.7), so the median trial time of one 40 s run moved by about 10% with the
# seed alone. About 80% of its trials reach the cap, so the median trial does
# exactly this many iterations; the rest still stop by the loop's own rule.
MC_GMRF_DESIGN_MAX_ITER = 200

# --seed s runs trials s*TRIAL_BLOCK, s*TRIAL_BLOCK + 1, ... of the workload's
# fixed experiment, so seed 0 replays the experiment's own first trials and
# no two seeds share a trial.
TRIAL_BLOCK = 1_000_000
RECONSTRUCT_RTOL = 1e-8  # pipeline vs KKT oracle, as in acceptance 04
_SVG = "{http://www.w3.org/2000/svg}"


class MonteCarlo:
    """Closed-loop Monte-Carlo trials through ``graphsamp.bench.run_trial``.

    The experiment is acceptance 01's configuration (n=256, K=32,
    graph_k=6, master_seed 1, random-vertex baseline) plus the given
    experiment-file lines: the signal model and any design settings.
    One operation is one ``run_trial`` call, which draws the graph and
    signal, designs S and scores both methods.
    """

    expected_designs = 1

    def __init__(self, config_lines: str, fixed_graph: bool, seed: int) -> None:
        self.config_lines = config_lines
        self.fixed_graph = fixed_graph
        self.first_trial = seed * TRIAL_BLOCK

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "experiment.txt"
        path.write_text(
            "n 256\nk 32\ngraph_k 6\nmaster_seed 1\nbaseline random_vertex\n"
            f"fixed_graph {str(self.fixed_graph).lower()}\n"
            "response.slope 1.0\nresponse.offset 0.1\n"
            f"{self.config_lines}output_dir {directory / 'report'}\n"
        )
        self.cfg = gbench.load_experiment_config(path)

    def warm_up(self, directory: Path) -> None:
        small = ExperimentConfig(n=32, num_samples=4, graph_k=4, model=self.cfg.model)
        gbench.run_trial(small, 0)

    def prepare(self, i: int, directory: Path) -> int:
        return self.first_trial + i

    def run(self, trial: int, out_dir: Path):
        return gbench.run_trial(self.cfg, trial)

    def check(self, trial: int, records) -> list[str]:
        failures = []
        methods = [r.method for r in records]
        if methods != [METHOD_PROPOSED, METHOD_RANDOM_VERTEX]:
            failures.append(f"trial {trial}: records for {methods}")
        for r in records:
            if r.trial != trial or not math.isfinite(r.mse):
                failures.append(f"trial {trial}: bad record {r}")
        return failures

    def same(self, a, b) -> bool:
        return a == b

    def finish(self, outputs) -> tuple[dict[str, float], list[str]]:
        records = [r for trial_records in outputs for r in trial_records]
        if not records:
            return {}, ["no trial completed"]
        report = ExperimentReport(
            n=self.cfg.n,
            num_samples=self.cfg.num_samples,
            records=records,
            summaries=gbench.summarize(records),
        )
        trials_path, _ = gbench.write_report(report, self.cfg.output_dir)
        failures = []
        by_method = {s.method: s for s in report.summaries}
        for method in (METHOD_PROPOSED, METHOD_RANDOM_VERTEX):
            values = [r.mse for r in records if r.method == method]
            summary = by_method.get(method)
            if summary is None or summary.trials != len(outputs):
                failures.append(f"summary for {method} is missing or short")
            elif not math.isclose(summary.mean_mse, float(np.mean(values)), rel_tol=1e-12):
                failures.append(f"summary mean for {method} disagrees with the records")
        if len(trials_path.read_text().splitlines()) != 1 + len(records):
            failures.append("trials.csv does not hold one row per record")
        if failures:
            return {}, failures
        proposed = by_method[METHOD_PROPOSED].mean_mse
        baseline = by_method[METHOD_RANDOM_VERTEX].mean_mse
        if not proposed < baseline:
            failures.append(f"mse.proposed {proposed} is not below mse.random_vertex {baseline}")
        return {"mse.proposed": proposed, "mse.random_vertex": baseline}, failures


@dataclass
class Request:
    index: int
    signal_path: Path
    signal: np.ndarray
    weights: np.ndarray  # signal = pool @ weights
    mse_random_vertex: float  # of a fresh random-vertex S on the same signal


@dataclass
class CliOutput:
    codes: tuple
    console: str
    out_dir: Path
    mse: float = math.nan
    mse_random_vertex: float = math.nan
    files: dict = field(default_factory=dict)


class CliReconstruct:
    """The README's user flow, run in process through ``graphsamp.cli.main``.

    Set-up writes a k-NN sensor graph file and a dense sampling matrix
    file, both fixed for the run. One operation is ``graphsamp
    reconstruct`` on a new signal file, then ``graphsamp render`` of the
    estimate.

    Request signals are unit-norm random combinations of a pool of GMRF
    draws. Such a combination is again a GMRF draw, and reconstruction is
    linear, so each request's KKT reference is the same combination of
    the pool's KKT references, which set-up computes.
    """

    expected_designs = 0
    n = 1024
    num_samples = 128
    graph_k = 6
    eta = 0.1
    pool_size = 8
    design_max_iter = 4  # only the density of S matters here, not its optimality

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        graph = random_sensor_graph(self.n, self.graph_k, mix_seed(self.seed, 0))
        save_graph(graph, directory / "graph.txt")
        spectrum = eigendecompose(laplacian(graph))
        vo = build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))
        config = DesignConfig(
            epsilon=default_radius(self.n, self.num_samples),
            seed=mix_seed(self.seed, 1),
            max_iter=self.design_max_iter,
        )
        S = design_sampling_operator(vo.whitener, self.num_samples, config).matrix
        save_matrix(S, directory / "S.txt")
        pool = np.column_stack(
            [gmrf_signal(spectrum, self.eta, mix_seed(self.seed, 2 + j)) for j in range(self.pool_size)]
        )
        self.reference = np.column_stack(
            [kkt_reconstruct(vo, S, sample(S, pool[:, j])) for j in range(self.pool_size)]
        )
        self.vo = vo
        self.pool = pool
        self.num_edges = len(graph.edges)
        self.graph_path = directory / "graph.txt"
        self.sampling_path = directory / "S.txt"

    def warm_up(self, directory: Path) -> None:
        request = self.prepare(-1, directory)
        failures = self.check(request, self.run(request, directory / "out"))
        if failures:
            raise RuntimeError(f"warm-up request failed: {failures}")

    def prepare(self, i: int, directory: Path) -> Request:
        rng = np.random.default_rng(mix_seed(self.seed, 1000 + i))
        weights = rng.standard_normal(self.pool_size)
        weights /= np.linalg.norm(weights)
        signal = self.pool @ weights
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "signal.txt"
        save_signal(signal, path)
        S_rv = random_vertex_selection(self.n, self.num_samples, mix_seed(self.seed, 2000 + i))
        estimate = build_pipeline(self.vo, S_rv).reconstruct(sample(S_rv, signal))
        return Request(i, path, signal, weights, mse(estimate, signal))

    def run(self, request: Request, out_dir: Path) -> CliOutput:
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            codes = (
                gcli.main(
                    ["reconstruct", "--graph", str(self.graph_path),
                     "--sampling", str(self.sampling_path),
                     "--signal", str(request.signal_path), "--out-dir", str(out_dir)]
                ),
            )
            if codes[0] == 0:
                codes += (
                    gcli.main(
                        ["render", "--graph", str(self.graph_path),
                         "--signal", str(out_dir / "x_hat.txt"),
                         "--out", str(out_dir / "x_hat.svg")]
                    ),
                )
        return CliOutput(codes, console.getvalue(), out_dir)

    def check(self, request: Request, out: CliOutput) -> list[str]:
        tag = f"request {request.index}"
        if out.codes != (0, 0):
            return [f"{tag}: exit codes {out.codes}: {out.console.strip()}"]
        failures = []
        x_hat = load_signal(out.out_dir / "x_hat.txt")
        reference = self.reference @ request.weights
        gap = float(np.linalg.norm(x_hat - reference) / np.linalg.norm(reference))
        if not gap <= RECONSTRUCT_RTOL:
            failures.append(f"{tag}: x_hat is {gap:.3e} from the KKT reference")
        printed = [ln.split()[1] for ln in out.console.splitlines() if ln.startswith("mse ")]
        out.mse = mse(x_hat, request.signal)
        out.mse_random_vertex = request.mse_random_vertex
        if printed != [repr(out.mse)]:
            failures.append(f"{tag}: printed mse {printed} is not {out.mse!r}")
        svg_path = out.out_dir / "x_hat.svg"
        try:
            root = ET.parse(svg_path).getroot()
        except ET.ParseError as exc:
            return failures + [f"{tag}: SVG does not parse: {exc}"]
        circles = len(root.findall(f".//{_SVG}circle"))
        lines = len(root.findall(f".//{_SVG}line"))
        if root.tag != f"{_SVG}svg" or circles != self.n or lines != self.num_edges:
            failures.append(
                f"{tag}: SVG has {circles} vertices and {lines} edges, "
                f"expected {self.n} and {self.num_edges}"
            )
        out.files = {name: (out.out_dir / name).read_bytes() for name in ("x_hat.txt", "x_hat.svg")}
        return failures

    def same(self, a: CliOutput, b: CliOutput) -> bool:
        return a.codes == b.codes and a.files == b.files

    def finish(self, outputs) -> tuple[dict[str, float], list[str]]:
        if not outputs:
            return {}, ["no request completed"]
        return {
            "mse.proposed": float(np.mean([o.mse for o in outputs])),
            "mse.random_vertex": float(np.mean([o.mse_random_vertex for o in outputs])),
        }, []


WORKLOADS = {
    "mc_gmrf_n256": (
        "the paper's GMRF experiment, design capped at 200 iterations: a fresh graph every "
        "trial, and design does about 85% of the work, so a design-loop change shows here",
        lambda seed: MonteCarlo(
            f"model.kind gmrf\nmodel.eta 0.1\ndesign.max_iter {MC_GMRF_DESIGN_MAX_ITER}\n",
            False,
            seed,
        ),
    ),
    "mc_pwl_n256_fixed": (
        "the PWL experiment on one fixed graph: every trial rebuilds the same graph, spectrum "
        "and variation operator, so reuse across trials shows here and not on mc_gmrf_n256",
        lambda seed: MonteCarlo("model.kind pwl\nmodel.density 0.125\n", True, seed),
    ),
    "cli_reconstruct_n1024": (
        "the README flow at n=1024: eigendecomposition, file I/O, variation operator and render "
        "do the work and no design runs, so scale work shows here and design work must not",
        CliReconstruct,
    ),
}
