"""Toolkit for designing sampling operators for smooth graph signals.

Builds sensor graphs and Laplacian spectra, derives invertible variation
operators from a spectral response, designs dense sampling matrices by a
proximal linearized difference-of-convex iteration on a nuclear-norm
relaxation, reconstructs signals by generalized-sampling least squares,
and benchmarks the whole chain against random vertex selection.
"""

from .bench import (
    ExperimentConfig,
    ExperimentReport,
    MethodSummary,
    TrialRecord,
    config_from_mapping,
    default_radius,
    load_experiment_config,
    mse,
    random_vertex_selection,
    run_benchmark,
    run_trial,
    summarize,
    trial_seeds,
    write_report,
)
from .design import (
    DesignConfig,
    SamplingDesign,
    design_sampling_operator,
    project_frobenius_ball,
)
from .fileio import (
    load_graph,
    load_matrix,
    load_signal,
    save_graph,
    save_matrix,
    save_signal,
    save_trace_csv,
)
from .graphs import Graph, Spectrum, eigendecompose, laplacian, random_sensor_graph
from .reconstruct import ReconstructionPipeline, build_pipeline, kkt_reconstruct, sample
from .render import render_signal_svg
from .seeds import mix_seed
from .signals import SignalModelSpec, generate_signal, gmrf_signal, pwl_signal
from .variation import SpectralResponse, VariationOperator, build_variation_operator

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "MethodSummary",
    "TrialRecord",
    "config_from_mapping",
    "default_radius",
    "load_experiment_config",
    "mse",
    "random_vertex_selection",
    "run_benchmark",
    "run_trial",
    "summarize",
    "trial_seeds",
    "write_report",
    "DesignConfig",
    "SamplingDesign",
    "design_sampling_operator",
    "project_frobenius_ball",
    "load_graph",
    "load_matrix",
    "load_signal",
    "save_graph",
    "save_matrix",
    "save_signal",
    "save_trace_csv",
    "Graph",
    "Spectrum",
    "eigendecompose",
    "laplacian",
    "random_sensor_graph",
    "ReconstructionPipeline",
    "build_pipeline",
    "kkt_reconstruct",
    "sample",
    "render_signal_svg",
    "mix_seed",
    "SignalModelSpec",
    "generate_signal",
    "gmrf_signal",
    "pwl_signal",
    "SpectralResponse",
    "VariationOperator",
    "build_variation_operator",
]
