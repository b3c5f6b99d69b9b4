"""Command-line interface: design, reconstruct, bench, and render."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    ExperimentConfig, _design_config, load_experiment_config, mse, run_benchmark,
)
from .design import DesignConfig, design_sampling_operator
from .fileio import (
    load_graph,
    load_matrix,
    load_signal,
    save_graph,
    save_matrix,
    save_signal,
    save_trace_csv,
)
from .graphs import eigendecompose, laplacian, random_sensor_graph
from .reconstruct import build_pipeline, sample
from .render import _canvas_positions, render_signal_svg
from .seeds import _naming, _neighbour_count, _sample_count, _seed, _vertex_count
from .variation import SpectralResponse, build_sparse_variation_operator, build_variation_operator


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="graph file; omit to generate a sensor graph")
    parser.add_argument("--n", type=int, help="vertex count for a generated graph")
    parser.add_argument(
        "--graph-k", type=int, default=ExperimentConfig.graph_k,
        help="k-NN parameter for a generated graph",
    )
    parser.add_argument(
        "--graph-seed", type=int, default=0, help="seed for a generated graph"
    )


def _add_response(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--response-slope", type=float, default=SpectralResponse.slope)
    parser.add_argument("--response-offset", type=float, default=SpectralResponse.offset)


def _obtain_graph(args):
    if args.graph is not None:
        return load_graph(args.graph), False
    if args.n is None:
        raise ValueError("pass either --graph or --n to generate a sensor graph")
    with _naming("--graph-seed"):
        seed = _seed("seed", args.graph_seed)
    with _naming("--n"):
        n = _vertex_count("n", args.n)
    with _naming("--graph-k"):
        k = _neighbour_count("k", args.graph_k, n)
    return random_sensor_graph(n, k, seed), True


def _cmd_design(args) -> int:
    with _naming("--seed"):
        seed = _seed("seed", args.seed)
    graph, generated = _obtain_graph(args)
    with _naming("--k"):
        k = _sample_count("num_samples", args.k, graph.num_vertices)
    with _naming("--epsilon"):
        config = _design_config(args.epsilon, graph.num_vertices, k, seed)
    with _naming("--max-iter"):
        config = replace(config, max_iter=args.max_iter)
    spectrum = eigendecompose(laplacian(graph))
    response = SpectralResponse(args.response_slope, args.response_offset)
    with _naming("--response-slope/--response-offset"):
        whitener = build_variation_operator(spectrum, response).whitener
    with _naming("--epsilon/--response-slope/--response-offset"):
        design = design_sampling_operator(whitener, k, config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(design.matrix, out / "S.txt")
    save_trace_csv(design, out / "trace.csv")
    if generated:
        save_graph(graph, out / "graph.txt")
    print(
        f"designed a {graph.num_vertices}x{k} sampling matrix in "
        f"{design.iterations} iterations (converged={design.converged}); "
        f"wrote {out / 'S.txt'} and {out / 'trace.csv'}"
    )
    return 0


def _cmd_reconstruct(args) -> int:
    graph, _ = _obtain_graph(args)
    S = load_matrix(args.sampling)
    x = load_signal(args.signal)
    if x.size != graph.num_vertices:
        raise ValueError(
            f"--signal: signal length {x.size} does not match {graph.num_vertices} vertices"
        )
    response = SpectralResponse(args.response_slope, args.response_offset)
    with _naming("--response-slope/--response-offset"):
        vo = build_sparse_variation_operator(laplacian(graph), response)
    with _naming("--sampling"):
        pipeline = build_pipeline(vo, S)
    with _naming("--sampling/--signal"):
        samples = sample(S, x)
    x_hat = pipeline.reconstruct(samples)
    with _naming("--signal"):
        error = mse(x_hat, x)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_signal(x_hat, out / "x_hat.txt")
    print(f"mse {error!r}")
    if pipeline.used_pseudo_inverse:
        print("note: correction used the pseudo-inverse fallback")
    return 0


def _cmd_bench(args) -> int:
    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["master_seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)
    if args.out_dir is not None:
        overrides["output_dir"] = args.out_dir
    if args.fixed_graph:
        overrides["fixed_graph"] = "true"
    cfg = load_experiment_config(args.config, overrides)
    if cfg.output_dir is None:
        raise ValueError("set output_dir in the config file or pass --out-dir")
    report = run_benchmark(cfg)
    print(
        f"benchmark n={cfg.n} K={cfg.num_samples} "
        f"(ratio {report.sampling_ratio:g}), {cfg.trials} trials"
    )
    for s in report.summaries:
        print(f"  {s.method}: mse {s.mean_mse:.6g} +/- {s.std_mse:.6g}")
    print(f"wrote {Path(cfg.output_dir) / 'trials.csv'} and {Path(cfg.output_dir) / 'summary.csv'}")
    return 0


def _cmd_render(args) -> int:
    graph, _ = _obtain_graph(args)
    x = load_signal(args.signal)
    # a graph that cannot be placed on the canvas is refused before the signal is looked at
    with _naming("--graph"):
        _canvas_positions(graph)
    with _naming("--signal"):
        render_signal_svg(graph, x, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsamp",
        description="Design sampling operators for smooth graph signals and "
        "reconstruct from their samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="design a sampling matrix for a graph")
    _add_graph_source(p_design)
    _add_response(p_design)
    p_design.add_argument("--k", type=int, required=True, help="number of samples")
    p_design.add_argument("--epsilon", default="auto", help="Frobenius radius or 'auto'")
    p_design.add_argument("--max-iter", type=int, default=DesignConfig.max_iter)
    p_design.add_argument("--seed", type=int, default=DesignConfig.seed)
    p_design.add_argument("--out-dir", required=True)
    p_design.set_defaults(func=_cmd_design)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a signal from its samples")
    _add_graph_source(p_rec)
    _add_response(p_rec)
    p_rec.add_argument("--sampling", required=True, help="sampling matrix file")
    p_rec.add_argument("--signal", required=True, help="signal file")
    p_rec.add_argument("--out-dir", required=True)
    p_rec.set_defaults(func=_cmd_reconstruct)

    p_bench = sub.add_parser("bench", help="run the Monte-Carlo benchmark")
    p_bench.add_argument("--config", required=True, help="experiment config file")
    p_bench.add_argument("--seed", type=int, help="override master_seed")
    p_bench.add_argument("--trials", type=int, help="override trial count")
    p_bench.add_argument("--out-dir", help="override output_dir")
    p_bench.add_argument("--fixed-graph", action="store_true", help="hold one graph across trials")
    p_bench.set_defaults(func=_cmd_bench)

    p_render = sub.add_parser("render", help="render a signal on a graph as SVG")
    _add_graph_source(p_render)
    p_render.add_argument("--signal", required=True, help="signal file")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
