"""End-to-end CLI runs through main()."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphsamp

from graphsamp import (
    DesignConfig,
    ExperimentConfig,
    SpectralResponse,
    load_graph,
    load_matrix,
    load_signal,
    random_sensor_graph,
    save_graph,
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

    def test_missing_graph_source_fails(self, tmp_path, capsys):
        rc = main(["design", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_named(self, tmp_path, capsys, k):
        """k is refused by name before the 'auto' radius sqrt(n * k) is
        taken, so no nan or zero epsilon is reported and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["design", "--n", "32", "--k", k, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: k must be positive, got {k}\n"


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
            "error: sampling matrix must have 24 rows and at least one column, "
            "got shape (24, 0)\n"
        )


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
        assert "num_samples" in capsys.readouterr().err


class TestRenderCommand:
    def test_render_from_files(self, tmp_path, graph_file):
        g, gpath = graph_file
        xpath = tmp_path / "x.txt"
        save_signal(np.linspace(-1, 1, 24), xpath)
        out = tmp_path / "fig.svg"
        rc = main(["render", "--graph", str(gpath), "--signal", str(xpath), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<?xml")


class TestImportFootprint:
    def test_import_does_not_load_scipy_spatial(self):
        """Importing scipy.spatial alone adds several MB of RSS and tens of
        milliseconds, which the benchmark's memory and setup figures count."""
        src = str(Path(graphsamp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, graphsamp, graphsamp.cli; print('scipy.spatial' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"
