"""End-to-end CLI runs through main()."""

import numpy as np
import pytest

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
        assert (design.gamma, design.stop_tol, design.max_iter, design.seed) == (
            defaults.gamma, defaults.stop_tol, defaults.max_iter, defaults.seed
        )


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

    def test_missing_graph_source_fails(self, tmp_path, capsys):
        rc = main(["design", "--k", "4", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


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
