"""Benchmark harness: scoring, baseline sampler, seeds, trials, and reports."""

from dataclasses import fields

import numpy as np
import pytest

from graphsamp import (
    ExperimentConfig,
    SignalModelSpec,
    mix_seed,
    mse,
    random_vertex_selection,
    run_benchmark,
    run_trial,
    summarize,
    trial_seeds,
    write_report,
)
from graphsamp.bench import METHOD_PROPOSED, METHOD_RANDOM_VERTEX, config_from_mapping


class TestMse:
    def test_identical_vectors(self):
        x = np.array([1.0, -2.0, 3.0])
        assert mse(x, x) == 0.0

    def test_direct_formula(self):
        assert mse(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == 0.5

    def test_matches_loop_oracle(self):
        rng = np.random.RandomState(0)
        a, b = rng.randn(17), rng.randn(17)
        expected = sum((float(a[i]) - float(b[i])) ** 2 for i in range(17)) / 17
        assert abs(mse(a, b) - expected) <= 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse(np.zeros(3), np.zeros(4))


class TestRandomVertexSelection:
    def test_square_case_is_permutation(self):
        S = random_vertex_selection(4, 4, seed=0)
        np.testing.assert_array_equal(S.sum(axis=0), np.ones(4))
        np.testing.assert_array_equal(S.sum(axis=1), np.ones(4))

    def test_columns_are_distinct_basis_vectors(self):
        S = random_vertex_selection(9, 4, seed=1)
        assert S.shape == (9, 4)
        np.testing.assert_array_equal(S.sum(axis=0), np.ones(4))
        assert np.all((S == 0.0) | (S == 1.0))
        rows = np.flatnonzero(S.sum(axis=1))
        assert rows.size == 4  # no vertex chosen twice

    def test_uniform_frequency(self):
        """Each of 8 vertices selected with frequency K/n = 0.25 over 1e4 draws."""
        counts = np.zeros(8)
        for seed in range(10_000):
            S = random_vertex_selection(8, 2, seed=seed)
            counts += S.sum(axis=1)
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.25) <= 0.02)

    def test_too_many_samples_rejected(self):
        with pytest.raises(ValueError):
            random_vertex_selection(3, 4, seed=0)


class TestSeeds:
    def test_mix_seed_deterministic_and_u64(self):
        a = mix_seed(12345, 0)
        assert a == mix_seed(12345, 0)
        assert 0 <= a < 2**64

    def test_mix_seed_spreads(self):
        seeds = {mix_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_trial_seeds_independent_streams(self):
        cfg = ExperimentConfig(n=16, num_samples=4, graph_k=3, trials=2)
        s0 = trial_seeds(cfg, 0)
        s1 = trial_seeds(cfg, 1)
        assert len(set(s0) | set(s1)) == 8

    def test_fixed_graph_pins_graph_stream(self):
        cfg = ExperimentConfig(n=16, num_samples=4, graph_k=3, trials=3, fixed_graph=True)
        g0 = trial_seeds(cfg, 0)[0]
        assert all(trial_seeds(cfg, t)[0] == g0 for t in range(3))
        # other streams still vary by trial
        assert trial_seeds(cfg, 0)[2] != trial_seeds(cfg, 1)[2]


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(n=32, num_samples=8)
        assert cfg.design.epsilon == pytest.approx(np.sqrt(32 * 8))
        assert cfg.sampling_ratio == 0.25
        assert cfg.methods() == (METHOD_PROPOSED, METHOD_RANDOM_VERTEX)

    def test_mapping_defaults_match_dataclasses(self):
        """A config naming only n and k takes every other value from the dataclasses."""
        parsed = config_from_mapping({"n": "32", "k": "8"})
        direct = ExperimentConfig(n=32, num_samples=8)
        for f in fields(ExperimentConfig):
            assert getattr(parsed, f.name) == getattr(direct, f.name), f.name

    def test_baseline_none(self):
        cfg = ExperimentConfig(n=32, num_samples=8, baseline="none")
        assert cfg.methods() == (METHOD_PROPOSED,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1, "num_samples": 1},
            {"n": 16, "num_samples": 16},
            {"n": 16, "num_samples": 0},
            {"n": 16, "num_samples": 4, "graph_k": 16},
            {"n": 16, "num_samples": 4, "trials": 0},
            {"n": 16, "num_samples": 4, "baseline": "oracle"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestRunTrial:
    def test_record_shape_and_determinism(self):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, master_seed=5)
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 0)
        assert [r.method for r in a] == [METHOD_PROPOSED, METHOD_RANDOM_VERTEX]
        assert a == b
        proposed = a[0]
        assert proposed.design_converged
        assert proposed.design_iterations > 0
        assert a[1].design_iterations == 0

    def test_distinct_trials_differ(self):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, master_seed=5)
        assert run_trial(cfg, 0)[0].mse != run_trial(cfg, 1)[0].mse


class TestRunBenchmark:
    def test_proposed_beats_baseline(self):
        """End-to-end: designed sampling reconstructs better than random vertices."""
        cfg = ExperimentConfig(
            n=32, num_samples=8, graph_k=4, trials=20, master_seed=11
        )
        report = run_benchmark(cfg)
        by_method = {s.method: s for s in report.summaries}
        assert by_method[METHOD_PROPOSED].mean_mse < by_method[METHOD_RANDOM_VERTEX].mean_mse

    def test_record_count_and_aggregate_recompute(self):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, trials=5, master_seed=2)
        report = run_benchmark(cfg)
        assert len(report.records) == 5 * 2
        for s in report.summaries:
            values = np.array([r.mse for r in report.records if r.method == s.method])
            assert values.size == s.trials == 5
            assert abs(values.mean() - s.mean_mse) <= 1e-12
            assert abs(values.std() - s.std_mse) <= 1e-12

    def test_single_trial_zero_std(self):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, trials=1, master_seed=3)
        report = run_benchmark(cfg)
        assert all(s.std_mse == 0.0 for s in report.summaries)

    def test_summarize_matches_report(self):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, trials=3, master_seed=4)
        report = run_benchmark(cfg)
        assert summarize(report.records) == report.summaries

    def test_pwl_model_runs(self):
        cfg = ExperimentConfig(
            n=32,
            num_samples=8,
            graph_k=4,
            model=SignalModelSpec("pwl", density=0.25),
            trials=2,
            master_seed=6,
        )
        report = run_benchmark(cfg)
        assert all(r.mse >= 0.0 for r in report.records)


class TestReportFiles:
    def test_csv_written_and_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = ExperimentConfig(
                n=24, num_samples=6, graph_k=4, trials=3, master_seed=7,
                output_dir=str(out),
            )
            run_benchmark(cfg)
        for name in ("trials.csv", "summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_summary_header_records_sampling_ratio(self, tmp_path):
        cfg = ExperimentConfig(
            n=24, num_samples=6, graph_k=4, trials=1, master_seed=8,
            output_dir=str(tmp_path),
        )
        report = run_benchmark(cfg)
        text = (tmp_path / "summary.csv").read_text()
        assert f"# sampling_ratio {report.sampling_ratio!r}" in text
        assert "# n 24" in text and "# num_samples 6" in text

    def test_trials_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(
            n=24, num_samples=6, graph_k=4, trials=2, master_seed=9,
            output_dir=str(tmp_path),
        )
        run_benchmark(cfg)
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,method,mse,design_iterations,design_converged,used_pseudo_inverse"
        assert len(lines) == 1 + 2 * 2

    def test_write_report_returns_paths(self, tmp_path):
        cfg = ExperimentConfig(n=24, num_samples=6, graph_k=4, trials=1, master_seed=10)
        report = run_benchmark(cfg)
        trials_path, summary_path = write_report(report, tmp_path)
        assert trials_path.exists() and summary_path.exists()
