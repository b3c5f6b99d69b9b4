"""Monte-Carlo sampling-and-reconstruction benchmark.

Each trial draws a sensor graph and signal, designs a sampling matrix,
reconstructs from its samples, and scores the mean squared error; a
random vertex-selection baseline runs through the identical
reconstruction machinery so the sampling design is the only varied
factor. The graph is fresh in every trial unless ``fixed_graph`` is
set; then its set-up (Laplacian, spectrum and variation operator) is
built once and shared, read-only, by every trial. All randomness
derives from the master seed through documented stream mixing, so a
benchmark run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .design import DesignConfig, design_sampling_operator
from .graphs import eigendecompose, laplacian, random_sensor_graph
from .reconstruct import build_pipeline, sample
from .seeds import (
    _count, _integer, _naming, _neighbour_count, _sample_count, _seed, _vertex_count, mix_seed,
)
from .signals import SignalModelSpec, generate_signal
from .variation import SpectralResponse, _check_response, build_variation_operator

METHOD_PROPOSED = "proposed"
METHOD_RANDOM_VERTEX = "random_vertex"

# purpose tags for the per-trial seed streams
_GRAPH_STREAM = 0
_DESIGN_STREAM = 1
_SIGNAL_STREAM = 2
_BASELINE_STREAM = 3


def default_radius(n: int, num_samples: int) -> float:
    """Frobenius budget sqrt(n * K) used by the experiment presets; a
    ValueError naming ``n`` or ``num_samples`` when it is out of range."""
    n = _vertex_count("n", n)
    return math.sqrt(n * _sample_count("num_samples", num_samples, n))


def _design_config(epsilon, n: int, num_samples: int, seed: int = 0) -> DesignConfig:
    """The design config of a flag or config value, whose radius is
    ``default_radius`` for 'auto', else the number given."""
    radius = default_radius(n, num_samples) if epsilon == "auto" else float(epsilon)
    return DesignConfig(radius, seed=seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run. ``design.seed`` is not read:
    ``run_trial`` replaces it with each trial's design stream."""

    n: int
    num_samples: int
    graph_k: int = 6
    response: SpectralResponse = field(default_factory=SpectralResponse)
    model: SignalModelSpec = field(default_factory=SignalModelSpec)
    design: DesignConfig | None = None
    trials: int = 1
    master_seed: int = 0
    output_dir: str | None = None
    fixed_graph: bool = False

    def __post_init__(self) -> None:
        _vertex_count("n", self.n)
        _sample_count("num_samples", self.num_samples, self.n)
        _neighbour_count("graph_k", self.graph_k, self.n)
        _count("trials", self.trials)
        _seed("master_seed", self.master_seed)
        if self.design is None:
            radius = default_radius(self.n, self.num_samples)
            object.__setattr__(self, "design", DesignConfig(epsilon=radius))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    method: str
    mse: float
    design_iterations: int
    design_converged: bool
    used_pseudo_inverse: bool


@dataclass(frozen=True)
class MethodSummary:
    method: str
    mean_mse: float
    std_mse: float
    trials: int


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Per-trial records plus per-method aggregates."""

    n: int
    num_samples: int
    records: list[TrialRecord]
    summaries: list[MethodSummary]

    @property
    def sampling_ratio(self) -> float:
        return self.num_samples / self.n


def mse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Mean squared error: squared distance divided by signal length.

    Raises:
        ValueError: if the lengths differ, both are empty, or the squared
            distance is not finite, as when the signals' scale overflows it.
    """
    a = np.asarray(x_hat, dtype=float).ravel()
    b = np.asarray(x, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("x_hat and x are empty; mse needs at least one entry")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        squared = float(diff @ diff)
    if not math.isfinite(squared):
        raise ValueError(f"the squared distance of x_hat and x is not finite, got {squared}")
    return squared / a.size


def random_vertex_selection(n: int, num_samples: int, seed: int) -> np.ndarray:
    """Selection matrix of ``num_samples`` distinct uniform vertex columns."""
    n, num_samples = _integer("n", n), _integer("num_samples", num_samples)
    if not 1 <= num_samples <= n:
        raise ValueError(f"need 1 <= K <= n, got K={num_samples}, n={n}")
    rng = np.random.default_rng(_seed("seed", seed))
    chosen = rng.choice(n, size=num_samples, replace=False)
    S = np.zeros((n, num_samples))
    S[chosen, np.arange(num_samples)] = 1.0
    return S


def trial_seeds(cfg: ExperimentConfig, trial_index: int) -> tuple[int, int, int, int]:
    """Per-trial (graph, design, signal, baseline) seed streams.

    Streams are independent across trials and purposes; with
    ``fixed_graph`` the graph stream is pinned to trial 0 so every trial
    sees the same graph while everything else stays independent.
    """
    base = mix_seed(cfg.master_seed, trial_index)
    graph_base = mix_seed(cfg.master_seed, 0) if cfg.fixed_graph else base
    return (
        mix_seed(graph_base, _GRAPH_STREAM),
        mix_seed(base, _DESIGN_STREAM),
        mix_seed(base, _SIGNAL_STREAM),
        mix_seed(base, _BASELINE_STREAM),
    )


@lru_cache(maxsize=1)
def _graph_setup(n: int, graph_k: int, graph_seed: int, response: SpectralResponse):
    """Sparse Laplacian, spectrum and variation operator of one trial, all read-only.

    Memoized for the last set of arguments, so trials on a fixed graph
    share one set-up; every array is frozen so that no caller can
    change what later trials read.
    """
    lap = laplacian(random_sensor_graph(n, graph_k, graph_seed))
    spectrum = eigendecompose(lap)
    # a negative slope can fail only inside this graph's spectrum, so only here
    with _naming("config key response.slope/response.offset"):
        vo = build_variation_operator(spectrum, response)
    for array in (
        lap.data, lap.indices, lap.indptr,
        spectrum.eigenvalues, spectrum.eigenvectors, vo.values,
    ):
        array.setflags(write=False)
    return lap, spectrum, vo


def run_trial(cfg: ExperimentConfig, trial_index: int) -> list[TrialRecord]:
    """Run one independent trial and score the designed operator and the baseline.

    With ``cfg.fixed_graph`` the graph set-up is built by the first trial
    and reused, read-only, by the next ones, even across calls; a fresh
    graph is built for its own trial and not kept.
    """
    graph_seed, design_seed, signal_seed, baseline_seed = trial_seeds(cfg, trial_index)
    setup = _graph_setup if cfg.fixed_graph else _graph_setup.__wrapped__
    lap, spectrum, vo = setup(cfg.n, cfg.graph_k, graph_seed, cfg.response)
    # an eta too small for this graph's spectrum can fail only here
    with _naming("config key model.eta"):
        x = generate_signal(cfg.model, spectrum, lap, seed=signal_seed)
    # the whitener's scale is known only with the trial's spectrum
    with _naming("config key design.epsilon/response.slope/response.offset"):
        design = design_sampling_operator(
            vo.whitener, cfg.num_samples, replace(cfg.design, seed=design_seed)
        )
    baseline = random_vertex_selection(cfg.n, cfg.num_samples, baseline_seed)
    arms = (
        (METHOD_PROPOSED, design.matrix, design.iterations, design.converged),
        (METHOD_RANDOM_VERTEX, baseline, 0, True),
    )
    records = []
    for method, S, iterations, converged in arms:
        pipeline = build_pipeline(vo, S)
        x_hat = pipeline.reconstruct(sample(S, x))
        records.append(
            TrialRecord(
                trial=trial_index,
                method=method,
                mse=mse(x_hat, x),
                design_iterations=iterations,
                design_converged=converged,
                used_pseudo_inverse=pipeline.used_pseudo_inverse,
            )
        )
    return records


def summarize(records: list[TrialRecord]) -> list[MethodSummary]:
    """Per-method mean and population standard deviation of the MSEs."""
    grouped: dict[str, list[float]] = {}
    for rec in records:
        grouped.setdefault(rec.method, []).append(rec.mse)
    summaries = []
    for method, mses in grouped.items():
        values = np.asarray(mses)
        summaries.append(
            MethodSummary(
                method=method,
                mean_mse=float(values.mean()),
                std_mse=float(values.std()),
                trials=int(values.size),
            )
        )
    return summaries


def run_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials, aggregate, and write CSVs when an output dir is set.

    Raises:
        RuntimeError: naming the failing trial when any trial dies.
    """
    records: list[TrialRecord] = []
    for index in range(cfg.trials):
        try:
            records.extend(run_trial(cfg, index))
        except Exception as exc:
            raise RuntimeError(f"trial {index} failed: {exc}") from exc
    report = ExperimentReport(
        n=cfg.n,
        num_samples=cfg.num_samples,
        records=records,
        summaries=summarize(records),
    )
    if cfg.output_dir is not None:
        write_report(report, cfg.output_dir)
    return report


def _fmt(value: float) -> str:
    return repr(float(value))


def write_report(report: ExperimentReport, out_dir) -> tuple[Path, Path]:
    """Write trials.csv and summary.csv; byte-stable for a fixed report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["trial,method,mse,design_iterations,design_converged,used_pseudo_inverse"]
    for r in report.records:
        lines.append(
            f"{r.trial},{r.method},{_fmt(r.mse)},{r.design_iterations},"
            f"{str(r.design_converged).lower()},{str(r.used_pseudo_inverse).lower()}"
        )
    trials_path = out / "trials.csv"
    trials_path.write_text("\n".join(lines) + "\n")
    lines = [
        f"# n {report.n}",
        f"# num_samples {report.num_samples}",
        f"# sampling_ratio {_fmt(report.sampling_ratio)}",
        "method,mean_mse,std_mse,trials",
    ]
    for s in report.summaries:
        lines.append(f"{s.method},{_fmt(s.mean_mse)},{_fmt(s.std_mse)},{s.trials}")
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(lines) + "\n")
    return trials_path, summary_path


def _parse_baseline(raw: str) -> None:
    """Check the key ``baseline``, which may name only the one baseline every trial runs."""
    if raw != METHOD_RANDOM_VERTEX:
        raise ValueError(f"baseline must be one of {(METHOD_RANDOM_VERTEX,)}, got {raw!r}")


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return _BOOL_WORDS[word]


# config key -> parser of its text; a 'section.name' key sets field
# ``name`` of ExperimentConfig's ``section`` member, a key missing from a
# config takes that dataclass's default, 'design.epsilon' is resolved
# once n and k are known (a number, or 'auto' for ``default_radius``), and
# 'baseline' sets nothing
_CONFIG_PARSERS = {
    "n": int,
    "k": int,
    "graph_k": int,
    "trials": int,
    "master_seed": int,
    "baseline": _parse_baseline,
    "fixed_graph": _parse_bool,
    "output_dir": str,
    "response.slope": float,
    "response.offset": float,
    "model.kind": str,
    "model.eta": float,
    "model.density": float,
    "design.epsilon": str,
    "design.max_iter": int,
}


def _set(obj, key: str, value):
    """``obj`` with the field at dotted ``key`` replaced, so its checks run again."""
    head, _, rest = key.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string key-value pairs, naming a refused key."""
    unknown = sorted(set(raw) - set(_CONFIG_PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("n", "k"):
        if required not in raw:
            raise ValueError(f"config is missing required key {required!r}")
    values = {}
    for key, text in raw.items():
        with _naming(f"config key {key}"):
            values[key] = _CONFIG_PARSERS[key](text)
    values.pop("baseline", None)
    with _naming("config key n"):
        n = _vertex_count("n", values.pop("n"))
    with _naming("config key k"):
        num_samples = _sample_count("k", values.pop("k"), n)
    with _naming("config key graph_k"):
        graph_k = _neighbour_count("graph_k", values.pop("graph_k", ExperimentConfig.graph_k), n)
    epsilon = values.pop("design.epsilon", "auto")
    # 'auto' is sqrt(n * k), out of range only when n is
    with _naming(f"config key {'n' if epsilon == 'auto' else 'design.epsilon'}"):
        design = _design_config(epsilon, n, num_samples)
    cfg = ExperimentConfig(n, num_samples, graph_k, design=design)
    for key, value in values.items():  # each set on a valid config, so only it can fail
        with _naming(f"config key {key}"):
            cfg = _set(cfg, key, value)
    # λ = 0 is in every Laplacian's spectrum; a response that fails only at
    # λ_max is refused by the trial that knows λ_max
    with _naming("config key response.slope/response.offset"):
        _check_response(cfg.response, 0.0)
    return cfg


def load_experiment_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse the key-value experiment file into an ExperimentConfig.

    Lines are ``key value``; ``#`` starts a comment. Keys are listed in
    the README, and a key may appear once. ``overrides`` (same key
    space) win over file values.
    """
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'key value', got {line!r}")
        key = parts[0]
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: key {key!r} is set twice, on lines "
                f"{first_line[key]} and {lineno}"
            )
        first_line[key] = lineno
        raw[key] = parts[1].strip()
    if overrides:
        raw.update({key: str(value) for key, value in overrides.items()})
    return config_from_mapping(raw)
