"""End-to-end CLI runs through main()."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphsamp

from graphsamp import (
    DesignConfig,
    ExperimentConfig,
    Graph,
    SpectralResponse,
    build_variation_operator,
    eigendecompose,
    kkt_reconstruct,
    laplacian,
    load_graph,
    load_matrix,
    load_signal,
    random_sensor_graph,
    sample,
    save_graph,
    save_matrix,
    save_signal,
)
from graphsamp.cli import build_parser, main


@pytest.fixture()
def graph_file(tmp_path):
    g = random_sensor_graph(24, 4, seed=3)
    path = tmp_path / "graph.txt"
    save_graph(g, path)
    return g, path


class TestParserDefaults:
    def test_design_and_reconstruct_defaults(self):
        """Flags left unset take the values the config dataclasses default to."""
        parser = build_parser()
        design = parser.parse_args(["design", "--k", "4", "--out-dir", "o"])
        rec = parser.parse_args(
            ["reconstruct", "--sampling", "S.txt", "--signal", "x.txt", "--out-dir", "o"]
        )
        for args in (design, rec):
            assert args.response_slope == SpectralResponse().slope
            assert args.response_offset == SpectralResponse().offset
            assert args.graph_k == ExperimentConfig(n=32, num_samples=8).graph_k
        defaults = DesignConfig(epsilon=1.0)
        assert design.epsilon == "auto"
        assert (design.max_iter, design.seed) == (defaults.max_iter, defaults.seed)

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--n", "16", "--k", "4", "--out-dir", "o", "--gamma", "2.0"],
            ["design", "--n", "16", "--k", "4", "--out-dir", "o", "--stop-tol", "1e-4"],
            ["reconstruct", "--sampling", "S.txt", "--signal", "x.txt", "--out-dir", "o",
             "--inv-tol", "1e-8"],
        ],
    )
    def test_removed_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


class TestDesignCommand:
    def test_design_from_graph_file(self, tmp_path, graph_file, capsys):
        g, gpath = graph_file
        out = tmp_path / "out"
        rc = main(
            [
                "design",
                "--graph", str(gpath),
                "--k", "6",
                "--seed", "5",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        S = load_matrix(out / "S.txt")
        assert S.shape == (24, 6)
        assert np.linalg.norm(S) <= np.sqrt(24 * 6) * (1 + 1e-12)
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,nuclear_norm,step_norm"
        assert "converged=True" in capsys.readouterr().out

    def test_design_generated_graph_is_exported(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "design",
                "--n", "16",
                "--graph-k", "4",
                "--graph-seed", "2",
                "--k", "4",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        g = load_graph(out / "graph.txt")
        assert g.num_vertices == 16

    def test_bad_epsilon_names_flag(self, tmp_path, capsys):
        rc = main(["design", "--n", "16", "--k", "4", "--epsilon", "fast", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --epsilon: ")
        assert "'fast'" in err

    def test_negative_graph_seed_rejected(self, tmp_path, capsys):
        """-1 is refused, not wrapped to 2**64 - 1, and the flag is named."""
        rc = main(["design", "--n", "16", "--graph-seed", "-1", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --graph-seed: seed must be an integer in [0, 2**64)"
        )

    def test_negative_design_seed_rejected(self, tmp_path, capsys):
        rc = main(["design", "--n", "16", "--seed", "-1", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --seed: seed must be an integer in [0, 2**64)"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "64", "--graph-k", "0", "--k", "8"],
             "--graph-k: k must satisfy 1 <= k < n, got k=0, n=64"),
            (["--n", "64", "--k", "64"], "--k: num_samples must satisfy 1 <= K < 64, got 64"),
            (["--n", "1", "--k", "1"], "--n: n must be at least 2, got 1"),
            (["--n", "32", "--k", "4", "--max-iter", "0"],
             "--max-iter: max_iter must be at least 1, got 0"),
            (["--n", "32", "--k", "4", "--epsilon", "-1"],
             "--epsilon: epsilon must be finite and at least 2.23e-308, got -1.0"),
            (["--n", "32", "--k", "4", "--response-offset", "-1"],
             "--response-slope/--response-offset: spectral response must be positive "
             "on the whole spectrum (min value -1)"),
        ],
        ids=["graph-k", "k", "n", "max-iter", "epsilon", "response"],
    )
    def test_size_flags_named(self, tmp_path, capsys, argv, message):
        """--graph-k and --k are both a "k" to the library; the flag says which.
        So do the design and response flags."""
        rc = main(["design", *argv, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-iter", "0"), ("--epsilon", "-1"), ("--epsilon", "5e-324"), ("--epsilon", "inf")],
    )
    def test_bad_design_flag_costs_no_spectrum(self, tmp_path, capsys, monkeypatch, flag, value):
        """The design knobs are checked before the graph is eigendecomposed."""

        def refuse(*args, **kwargs):
            raise AssertionError("a bad design flag needs no spectrum")

        monkeypatch.setattr(graphsamp.cli, "eigendecompose", refuse)
        rc = main(["design", "--n", "32", "--k", "4", flag, value, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_design_loop_error_names_scale_flags(self, tmp_path, capsys, monkeypatch):
        """An error the design loop raises is reported after the flags that
        set its scale, as any ``build_pipeline`` error is after --sampling:
        once the other flags' checks pass, the scale rule is the loop's
        only refusal."""

        def fail(*args, **kwargs):
            raise ValueError("loop failed")

        monkeypatch.setattr(graphsamp.cli, "design_sampling_operator", fail)
        rc = main(["design", "--n", "16", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --epsilon/--response-slope/--response-offset: loop failed\n"
        )

    def test_tiny_response_designs_at_unit_scale(self, tmp_path, capsys):
        """A response of 1e-300 makes the whitener's scales about 1e300, whose
        Gram matrix overflowed before the loop ran at unit scale. S and the
        trace are finite, and S fills the auto radius sqrt(64 * 8)."""
        out = tmp_path / "out"
        rc = main([
            "design", "--n", "64", "--k", "8", "--response-slope", "1e-290",
            "--response-offset", "1e-300", "--out-dir", str(out),
        ])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out
        S = load_matrix(out / "S.txt")
        assert np.isfinite(S).all()
        assert np.linalg.norm(S) == pytest.approx(np.sqrt(512), rel=1e-12)
        trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.isfinite(trace).all() and np.all(trace[:, 1] >= np.finfo(float).tiny)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--response-slope", "1e-290", "--response-offset", "1e-300", "--epsilon", "1e10"],
            ["--response-slope", "1e299", "--response-offset", "1e298", "--epsilon", "1e-150"],
        ],
        ids=["inf-nuclear-norm", "zero-nuclear-norm"],
    )
    def test_scale_refusal_names_radius_and_response(self, tmp_path, capsys, flags):
        """Each value passes its own flag's check; their product would put the
        trace's nuclear norms out of the float range, so all three are named
        and nothing is written."""
        rc = main(["design", "--n", "64", "--k", "8", *flags, "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --epsilon/--response-slope/--response-offset: epsilon times the "
            "whitener's largest scale must lie in [2.23e-308, 3.18e+307] for K=8"
        )
        assert not (tmp_path / "o").exists()

    def test_missing_graph_source_fails(self, tmp_path, capsys):
        rc = main(["design", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_named(self, tmp_path, capsys, k):
        """k is refused by its flag before the 'auto' radius sqrt(n * k) is
        taken, so no nan or zero epsilon is reported and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["design", "--n", "32", "--k", k, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --k: num_samples must satisfy 1 <= K < 32, got {k}\n"
        )


class TestReconstructCommand:
    def test_round_trip_mse(self, tmp_path, graph_file, capsys):
        g, gpath = graph_file
        out = tmp_path / "design"
        assert main(["design", "--graph", str(gpath), "--k", "6", "--out-dir", str(out)]) == 0
        capsys.readouterr()  # drain the design command output
        x = np.random.RandomState(1).randn(24)
        xpath = tmp_path / "x.txt"
        save_signal(x, xpath)
        rec_out = tmp_path / "rec"
        rc = main(
            [
                "reconstruct",
                "--graph", str(gpath),
                "--sampling", str(out / "S.txt"),
                "--signal", str(xpath),
                "--out-dir", str(rec_out),
            ]
        )
        assert rc == 0
        x_hat = load_signal(rec_out / "x_hat.txt")
        assert x_hat.shape == (24,)
        printed = capsys.readouterr().out
        assert printed.startswith("mse ")
        assert float(printed.split()[1]) >= 0.0

    @pytest.mark.parametrize(
        "n, edges, weights", [(1, [], []), (2, [(0, 1)], [0.5])], ids=["one_vertex", "two_vertices"]
    )
    def test_tiny_graph_matches_kkt(self, tmp_path, n, edges, weights):
        """A 1-vertex graph has no edges, so ARPACK cannot give its λ_max;
        both graphs reconstruct as the KKT system of the spectral operator."""
        g = Graph(n, edges, weights)
        rng = np.random.default_rng(n)
        S = rng.standard_normal((n, 1)) + 2.0
        x = rng.standard_normal(n)
        for name, save, value in (("g", save_graph, g), ("S", save_matrix, S), ("x", save_signal, x)):
            save(value, tmp_path / f"{name}.txt")
        rc = main(
            ["reconstruct", "--graph", str(tmp_path / "g.txt"), "--sampling", str(tmp_path / "S.txt"),
             "--signal", str(tmp_path / "x.txt"), "--out-dir", str(tmp_path / "rec")]
        )
        assert rc == 0
        vo = build_variation_operator(eigendecompose(laplacian(g)), SpectralResponse())
        expected = kkt_reconstruct(vo, S, sample(S, x))
        np.testing.assert_allclose(load_signal(tmp_path / "rec" / "x_hat.txt"), expected, rtol=1e-12)

    def test_reconstruct_never_eigendecomposes(self, tmp_path, graph_file, monkeypatch):
        """reconstruct factors the sparse ``slope * L + offset * I``: it builds
        no spectrum."""
        g, gpath = graph_file

        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct needs no spectrum")

        monkeypatch.setattr(graphsamp.cli, "eigendecompose", refuse)
        save_matrix(np.random.default_rng(0).standard_normal((24, 6)), tmp_path / "S.txt")
        save_signal(np.random.default_rng(1).standard_normal(24), tmp_path / "x.txt")
        rc = main(
            ["reconstruct", "--graph", str(gpath), "--sampling", str(tmp_path / "S.txt"),
             "--signal", str(tmp_path / "x.txt"), "--out-dir", str(tmp_path / "rec")]
        )
        assert rc == 0

    def test_reconstruct_builds_no_dense_laplacian(self, tmp_path):
        """At n=512, K=16 reconstruct peaks below one n x n float64 array: the
        Laplacian stays sparse and nothing densifies it."""
        n = 512
        g = random_sensor_graph(n, 6, seed=5)
        rng = np.random.default_rng(5)
        save_graph(g, tmp_path / "g.txt")
        save_matrix(rng.standard_normal((n, 16)), tmp_path / "S.txt")
        save_signal(rng.standard_normal(n), tmp_path / "x.txt")
        argv = ["reconstruct", "--graph", str(tmp_path / "g.txt"), "--sampling",
                str(tmp_path / "S.txt"), "--signal", str(tmp_path / "x.txt"),
                "--out-dir", str(tmp_path / "rec")]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8 * n * n

    def test_graph_k_named(self, tmp_path, capsys):
        rc = main(
            ["reconstruct", "--n", "64", "--graph-k", "64", "--sampling", str(tmp_path / "S.txt"),
             "--signal", str(tmp_path / "x.txt"), "--out-dir", str(tmp_path / "rec")]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --graph-k: k must satisfy 1 <= k < n, got k=64, n=64\n"
        )

    def test_response_flags_named(self, tmp_path, graph_file, capsys):
        g, gpath = graph_file
        save_matrix(np.random.default_rng(0).standard_normal((24, 6)), tmp_path / "S.txt")
        save_signal(np.random.default_rng(1).standard_normal(24), tmp_path / "x.txt")
        rc = main(
            ["reconstruct", "--graph", str(gpath), "--sampling", str(tmp_path / "S.txt"),
             "--signal", str(tmp_path / "x.txt"), "--response-offset", "-1",
             "--out-dir", str(tmp_path / "rec")]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --response-slope/--response-offset: spectral response must be "
            "positive on the whole spectrum (min value -1)\n"
        )

    def test_nan_signal_file_fails(self, tmp_path, graph_file, capsys):
        g, gpath = graph_file
        out = tmp_path / "design"
        assert main(["design", "--graph", str(gpath), "--k", "6", "--out-dir", str(out)]) == 0
        capsys.readouterr()  # drain the design command output
        xpath = tmp_path / "x.txt"
        xpath.write_text("n 24\n" + "0.5\n" * 23 + "nan\n")
        rc = main(
            [
                "reconstruct",
                "--graph", str(gpath),
                "--sampling", str(out / "S.txt"),
                "--signal", str(xpath),
                "--out-dir", str(tmp_path / "rec"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "mse" not in captured.out
        assert captured.err.startswith(f"error: {xpath}: non-finite")

    def test_malformed_signal_file_names_file(self, tmp_path, graph_file, capsys):
        g, gpath = graph_file
        out = tmp_path / "design"
        assert main(["design", "--graph", str(gpath), "--k", "6", "--out-dir", str(out)]) == 0
        capsys.readouterr()  # drain the design command output
        xpath = tmp_path / "x.txt"
        xpath.write_text("n 24\n" + "0.5\n" * 23 + "abc\n")
        rc = main(
            [
                "reconstruct",
                "--graph", str(gpath),
                "--sampling", str(out / "S.txt"),
                "--signal", str(xpath),
                "--out-dir", str(tmp_path / "rec"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {xpath}: could not convert string to float: 'abc'")

    def _reconstruct(self, tmp_path, gpath, S, x, name):
        save_matrix(S, tmp_path / f"{name}_S.txt")
        save_signal(x, tmp_path / f"{name}_x.txt")
        return main(
            ["reconstruct", "--graph", str(gpath), "--sampling", str(tmp_path / f"{name}_S.txt"),
             "--signal", str(tmp_path / f"{name}_x.txt"), "--out-dir", str(tmp_path / name)]
        )

    def test_sampling_matrix_far_below_unit_scale(self, tmp_path, graph_file, capsys):
        """An S scaled by 1e-160 reconstructs as S does: ``S.T F^-1 S``
        formed at that scale underflowed, and a NaN x_hat.txt was written."""
        _, gpath = graph_file
        rng = np.random.default_rng(4)
        S, x = rng.standard_normal((24, 6)), rng.standard_normal(24)
        assert self._reconstruct(tmp_path, gpath, S, x, "unit") == 0
        assert self._reconstruct(tmp_path, gpath, S * 1e-160, x, "tiny") == 0
        assert "pseudo-inverse" not in capsys.readouterr().out
        base = load_signal(tmp_path / "unit" / "x_hat.txt")
        tiny = load_signal(tmp_path / "tiny" / "x_hat.txt")
        assert np.linalg.norm(tiny - base) <= 1e-12 * np.linalg.norm(base)

    def test_overflowing_samples_name_sampling_and_signal(self, tmp_path, graph_file, capsys):
        """S at 1e150 and x at 1e160 are each finite, but their samples are
        not; both flags are named and no x_hat.txt is written."""
        _, gpath = graph_file
        rng = np.random.default_rng(5)
        S, x = rng.standard_normal((24, 6)) * 1e150, rng.standard_normal(24) * 1e160
        assert self._reconstruct(tmp_path, gpath, S, x, "big") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --sampling/--signal: samples S.T @ x are not finite\n"
        assert "mse" not in captured.out
        assert not (tmp_path / "big").exists()

    def test_overflowing_error_names_signal(self, tmp_path, graph_file, capsys):
        """A signal at 1e200 is sampled and reconstructed, but its squared
        error overflows; --signal is named and no x_hat.txt is written, where
        ``mse inf`` was printed after an overflow warning."""
        _, gpath = graph_file
        rng = np.random.default_rng(6)
        S, x = rng.standard_normal((24, 6)), rng.standard_normal(24) * 1e200
        assert self._reconstruct(tmp_path, gpath, S, x, "huge") == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --signal: the squared distance of x_hat and x is not finite, got inf\n"
        )
        assert "mse" not in captured.out
        assert not (tmp_path / "huge").exists()

    def test_repeated_column_prints_pseudo_inverse_note(self, tmp_path, graph_file, capsys):
        """Two identical columns make ``S.T F^-1 S`` singular, so the
        correction is the pseudo-inverse and the command says so."""
        _, gpath = graph_file
        rng = np.random.default_rng(7)
        S, x = rng.standard_normal((24, 6)), rng.standard_normal(24)
        S[:, 5] = S[:, 4]
        assert self._reconstruct(tmp_path, gpath, S, x, "twin") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("mse ")
        assert lines[1:] == ["note: correction used the pseudo-inverse fallback"]
        assert np.isfinite(load_signal(tmp_path / "twin" / "x_hat.txt")).all()

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--graph", "", "empty graph file"),
            ("--graph", "\n  \n", "empty graph file"),
            ("--signal", "", "empty signal file"),
            ("--sampling", "", "expected '<rows> <cols>' header"),
            ("--sampling", "24\n", "expected '<rows> <cols>' header"),
        ],
        ids=["graph", "graph-blank", "signal", "sampling", "sampling-one-token"],
    )
    def test_empty_or_headless_file_names_file(
        self, tmp_path, graph_file, capsys, flag, text, message
    ):
        """A file with no content, or a matrix file whose header lacks a
        dimension, is refused with the file named."""
        _, gpath = graph_file
        save_matrix(np.ones((24, 2)), tmp_path / "S.txt")
        save_signal(np.ones(24), tmp_path / "x.txt")
        paths = {"--graph": gpath, "--sampling": tmp_path / "S.txt", "--signal": tmp_path / "x.txt"}
        paths[flag] = tmp_path / "bad.txt"
        paths[flag].write_text(text)
        argv = [arg for pair in paths.items() for arg in map(str, pair)]
        rc = main(["reconstruct", *argv, "--out-dir", str(tmp_path / "rec")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'bad.txt'}: {message}\n"
        assert not (tmp_path / "rec").exists()

    def test_sampling_matrix_without_columns_fails(self, tmp_path, graph_file, capsys):
        """An S.txt of shape 24 x 0 is reported by its shape, not a traceback."""
        _, gpath = graph_file
        spath = tmp_path / "S.txt"
        spath.write_text("24 0\n")
        xpath = tmp_path / "x.txt"
        save_signal(np.zeros(24), xpath)
        rc = main(
            [
                "reconstruct",
                "--graph", str(gpath),
                "--sampling", str(spath),
                "--signal", str(xpath),
                "--out-dir", str(tmp_path / "rec"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --sampling: sampling matrix must have 24 rows and at least one column, "
            "got shape (24, 0)\n"
        )


class TestInputsNamedByFlag:
    """An input that does not fit the 32-vertex graph is refused naming its flag."""

    @pytest.mark.parametrize(
        "command, s_shape, x_len, coordinates, message",
        [
            ("reconstruct", (24, 4), 32, True,
             "--sampling: sampling matrix must have 32 rows and at least one column, "
             "got shape (24, 4)"),
            ("reconstruct", (32, 4), 20, True,
             "--signal: signal length 20 does not match 32 vertices"),
            ("render", None, 20, True, "--signal: signal length 20 does not match 32 vertices"),
            ("render", None, 32, False, "--graph: graph has no coordinates to render"),
        ],
        ids=["reconstruct-sampling", "reconstruct-signal", "render-signal", "render-graph"],
    )
    def test_refusal_names_flag(
        self, tmp_path, capsys, command, s_shape, x_len, coordinates, message
    ):
        g = random_sensor_graph(32, 4, seed=3)
        if not coordinates:
            g = Graph(g.num_vertices, g.edges, g.weights)
        save_graph(g, tmp_path / "graph.txt")
        save_signal(np.ones(x_len), tmp_path / "x.txt")
        argv = [command, "--graph", str(tmp_path / "graph.txt"),
                "--signal", str(tmp_path / "x.txt")]
        if command == "reconstruct":
            save_matrix(np.ones(s_shape), tmp_path / "S.txt")
            argv += ["--sampling", str(tmp_path / "S.txt"), "--out-dir", str(tmp_path / "o")]
        else:
            argv += ["--out", str(tmp_path / "fig.svg")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBenchCommand:
    def test_bench_writes_reports(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ngraph_k 4\ntrials 2\nmaster_seed 1\n")
        out = tmp_path / "bench"
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        assert (out / "trials.csv").exists() and (out / "summary.csv").exists()
        assert "proposed" in capsys.readouterr().out

    def test_bench_requires_output_dir(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ngraph_k 4\n")
        rc = main(["bench", "--config", str(cfg)])
        assert rc == 1
        assert "output_dir" in capsys.readouterr().err

    def test_bench_override_flags(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ngraph_k 4\ntrials 5\n")
        out = tmp_path / "bench"
        rc = main(
            [
                "bench",
                "--config", str(cfg),
                "--trials", "1",
                "--seed", "9",
                "--fixed-graph",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2  # one trial, two methods

    def test_invalid_config_names_problem(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 30\ngraph_k 4\n")  # K >= n
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config key k: k must satisfy 1 <= K < 24, got 30\n"
        )


    def test_vertex_count_beyond_float_range_is_an_error(self, tmp_path, capsys):
        """The 'auto' radius of an n too large for a float is a named error,
        not a traceback; the config is refused before any trial runs."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n {10**400}\nk 5\n")
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config key n: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["response.offset 0", "response.slope nan"])
    def test_response_refused_before_any_trial(self, tmp_path, capsys, line):
        """A response that fails at λ = 0, which every Laplacian has, is a
        refused config key, not a failed trial."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n 24\nk 6\ngraph_k 4\n{line}\n")
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: config key response.slope/response.offset: spectral response must "
        )
        assert not (tmp_path / "o").exists()

    def test_response_negative_inside_spectrum_names_its_keys(self, tmp_path, capsys):
        """A negative slope that fails only below the trial graph's λ_max is
        refused by the trial, still naming the keys that set the response."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ngraph_k 4\nresponse.slope -1\nresponse.offset 0.1\n")
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: trial 0 failed: config key response.slope/response.offset: spectral "
            "response must be positive on the whole spectrum (min value -"
        )
        assert not (tmp_path / "o").exists()

    def test_eta_below_eigh_rounding_names_its_key(self, tmp_path, capsys):
        """An eta that makes ``L + eta I`` numerically singular on the trial's
        graph is refused by the trial, naming its key; no nan MSE is written."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ntrials 2\nmaster_seed 1\nmodel.eta 1e-17\n")
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: trial 0 failed: config key model.eta: eta 1e-17 makes L + eta I "
            "numerically singular"
        )
        assert not (tmp_path / "o").exists()

    def test_radius_beyond_response_scale_names_its_keys(self, tmp_path, capsys):
        """The scale of the whitener is known only with the trial's spectrum,
        so the trial refuses the radius, naming it and the response keys."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n 24\nk 6\ntrials 2\nmaster_seed 1\nresponse.slope 1e-290\n"
            "response.offset 1e-300\ndesign.epsilon 1e10\n"
        )
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: trial 0 failed: config key design.epsilon/response.slope/response.offset: "
            "epsilon times the whitener's largest scale must lie in [2.23e-308, "
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "error: config key trials: trials must be at least 1, got 0\n"),
            (
                ["--seed", "-1"],
                "error: config key master_seed: master_seed must be an integer in [0, 2**64), "
                "got -1\n",
            ),
        ],
        ids=["trials", "seed"],
    )
    def test_override_flag_names_its_key(self, tmp_path, capsys, flags, message):
        """A flag overrides a config key, so its refusal names that key."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n 24\nk 6\ngraph_k 4\n")
        rc = main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()


class TestRenderCommand:
    def test_render_from_files(self, tmp_path, graph_file):
        g, gpath = graph_file
        xpath = tmp_path / "x.txt"
        save_signal(np.linspace(-1, 1, 24), xpath)
        out = tmp_path / "fig.svg"
        rc = main(["render", "--graph", str(gpath), "--signal", str(xpath), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<?xml")

    def test_coordinate_off_the_canvas_names_graph(self, tmp_path, capsys):
        """A coordinate whose canvas position overflows is the graph file's
        fault, so it is named by --graph, and no SVG is written."""
        save_graph(Graph(2, [(0, 1)], [1.0], coordinates=[[1e307, 1.0], [0.0, 0.0]]),
                   tmp_path / "graph.txt")
        save_signal(np.array([1.0, 2.0]), tmp_path / "x.txt")
        out = tmp_path / "fig.svg"
        rc = main(["render", "--graph", str(tmp_path / "graph.txt"),
                   "--signal", str(tmp_path / "x.txt"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --graph: vertex 0 at (1e+307, 1) lies too far out to place on the canvas\n"
        )
        assert not out.exists()


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this graphsamp."""
    src = str(Path(graphsamp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


class TestImportFootprint:
    def test_import_does_not_load_scipy_spatial(self):
        """Importing scipy.spatial alone adds several MB of RSS and tens of
        milliseconds, which the benchmark's memory and setup figures count."""
        code = "import sys, graphsamp, graphsamp.cli; print('scipy.spatial' in sys.modules)"
        assert _fresh_python(code).strip() == "False"

    def test_import_and_render_load_no_scipy(self, tmp_path, graph_file):
        """``render`` reads a graph and a signal and writes an SVG, which needs
        numpy alone: scipy loads only where a sparse matrix is built or factored,
        and importing it is most of a ``render`` process's time and memory."""
        _, gpath = graph_file
        xpath = tmp_path / "x.txt"
        save_signal(np.linspace(-1.0, 1.0, 24), xpath)
        out = tmp_path / "fig.svg"
        argv = ["render", "--graph", str(gpath), "--signal", str(xpath), "--out", str(out)]
        code = f"""
import sys
import graphsamp, graphsamp.cli
assert graphsamp.cli.main({argv!r}) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
        assert _fresh_python(code).splitlines()[-1] == "[]"

    def test_solver_stack_loaded_only_where_a_solve_runs(self, tmp_path):
        """A GMRF trial, ``design`` and ``render`` need no sparse factor or
        ARPACK, so they leave scipy's sparse solvers and ``scipy.linalg``
        unloaded (11 MB of RSS); ``reconstruct`` factors F, so it loads
        them."""
        code = f"""
import sys
import numpy as np
from graphsamp import ExperimentConfig, save_signal
from graphsamp.bench import run_trial
from graphsamp.cli import main

stack = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
out = {str(tmp_path)!r}
run_trial(ExperimentConfig(n=64, num_samples=8), 0)
assert main(["design", "--n", "64", "--k", "8", "--out-dir", out + "/d"]) == 0
save_signal(np.linspace(-1.0, 1.0, 64), out + "/x.txt")
assert main(["render", "--graph", out + "/d/graph.txt", "--signal", out + "/x.txt",
             "--out", out + "/fig.svg"]) == 0
before = [m for m in stack if m in sys.modules]
assert main(["reconstruct", "--graph", out + "/d/graph.txt", "--sampling", out + "/d/S.txt",
             "--signal", out + "/x.txt", "--out-dir", out + "/r"]) == 0
print("loaded:", before, "scipy.sparse.linalg" in sys.modules)
"""
        assert _fresh_python(code).splitlines()[-1] == "loaded: [] True"
