"""Benchmark harness: scoring, baseline sampler, seeds, trials, and reports."""

from dataclasses import fields, replace

import numpy as np
import pytest

from graphsamp import (
    ExperimentConfig,
    SignalModelSpec,
    default_radius,
    SpectralResponse,
    eigendecompose,
    gmrf_signal,
    laplacian,
    mix_seed,
    mse,
    pwl_signal,
    random_sensor_graph,
    random_vertex_selection,
    run_benchmark,
    run_trial,
    summarize,
    trial_seeds,
    write_report,
)
from graphsamp import bench
from graphsamp.bench import (
    METHOD_PROPOSED,
    METHOD_RANDOM_VERTEX,
    _graph_setup,
    config_from_mapping,
)


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="x_hat and x are empty"):
            mse(np.array([]), np.array([]))

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflowing_distance_refused(self, scale):
        """At 1e200 the square overflows, at 1e308 the difference itself;
        either is refused, with no overflow warning, and not returned as inf."""
        with pytest.raises(
            ValueError, match=r"^the squared distance of x_hat and x is not finite, got inf$"
        ):
            mse(np.array([scale, 0.0]), np.array([-scale, 0.0]))


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

    def test_mix_seed_matches_splitmix64_vectors(self):
        """From state 0, SplitMix64 emits these three outputs first."""
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [mix_seed(0, i) for i in range(3)] == expected

    def test_mix_seed_index_may_be_negative(self):
        assert mix_seed(0, -1) == mix_seed(0, 2**64 - 1) == 0

    @pytest.mark.parametrize("seed", [0.5, -1, 2**64])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda g, spec, seed: gmrf_signal(spec, 0.1, seed),
            lambda g, spec, seed: pwl_signal(laplacian(g), 0.25, seed),
            lambda g, spec, seed: random_vertex_selection(8, 2, seed),
            lambda g, spec, seed: mix_seed(seed, 0),
        ],
        ids=["gmrf_signal", "pwl_signal", "random_vertex_selection", "mix_seed"],
    )
    def test_bad_seed_rejected_by_name(self, entry, seed):
        """A seed is an integer in [0, 2**64): never truncated, wrapped or left to numpy."""
        graph = random_sensor_graph(8, 3, 0)
        spectrum = eigendecompose(laplacian(graph))
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            entry(graph, spectrum, seed)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: mix_seed(0, 0.5), "index"),
            (lambda: random_vertex_selection(8.0, 2, 0), "n"),
            (lambda: random_vertex_selection(8, 2.5, 0), "num_samples"),
        ],
        ids=["mix_seed", "random_vertex_selection-n", "random_vertex_selection-num_samples"],
    )
    def test_non_integer_argument_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        top = np.uint64(2**64 - 1)
        assert mix_seed(np.int64(5), np.int64(1)) == mix_seed(5, 1)
        assert mix_seed(top, 0) == mix_seed(2**64 - 1, 0)
        np.testing.assert_array_equal(
            random_vertex_selection(np.int64(8), np.int64(2), np.int64(3)),
            random_vertex_selection(8, 2, 3),
        )
        graph = random_sensor_graph(np.int64(8), np.int64(3), np.int64(0))
        np.testing.assert_array_equal(graph.edges, random_sensor_graph(8, 3, 0).edges)
        np.testing.assert_array_equal(graph.weights, random_sensor_graph(8, 3, 0).weights)
        spectrum = eigendecompose(laplacian(graph))
        np.testing.assert_array_equal(
            gmrf_signal(spectrum, 0.1, top), gmrf_signal(spectrum, 0.1, 2**64 - 1)
        )
        np.testing.assert_array_equal(
            pwl_signal(laplacian(graph), 0.25, np.int64(4)),
            pwl_signal(laplacian(graph), 0.25, 4),
        )

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

    @pytest.mark.parametrize(
        "n, num_samples, message",
        [
            (1, 1, "n must be at least 2, got 1"),
            (16, 0, "num_samples must satisfy 1 <= K < 16, got 0"),
            (16, 16, "num_samples must satisfy 1 <= K < 16, got 16"),
            (16.0, 4, "n must be an integer, got 16.0"),
        ],
    )
    def test_default_radius_applies_the_size_rules(self, n, num_samples, message):
        with pytest.raises(ValueError) as info:
            default_radius(n, num_samples)
        assert str(info.value) == message

    def test_default_radius_matches_numpy_sqrt(self):
        """The radius is the float sqrt(n * K), bit for bit as numpy takes it."""
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 10**6, size=2000):
            k = int(rng.integers(1, n))
            assert default_radius(int(n), k) == float(np.sqrt(int(n) * k))

    def test_mapping_defaults_match_dataclasses(self):
        """A config naming only n and k takes every other value from the dataclasses."""
        parsed = config_from_mapping({"n": "32", "k": "8"})
        direct = ExperimentConfig(n=32, num_samples=8)
        for f in fields(ExperimentConfig):
            assert getattr(parsed, f.name) == getattr(direct, f.name), f.name

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1, "num_samples": 1},
            {"n": 16, "num_samples": 16},
            {"n": 16, "num_samples": 0},
            {"n": 16, "num_samples": 4, "graph_k": 16},
            {"n": 16, "num_samples": 4, "trials": 0},
            {"n": 32.5, "num_samples": 8},
            {"n": 16, "num_samples": 4.0},
            {"n": 16, "num_samples": 4, "graph_k": 2.5},
            {"n": 16, "num_samples": 4, "trials": 2.5},
            {"n": 16, "num_samples": 4, "master_seed": 0.5},
            {"n": 16, "num_samples": 4, "master_seed": -1},
            {"n": 16, "num_samples": 4, "master_seed": 2**64},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        """Each error starts with the name of a field it was given."""
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**kwargs)
        assert str(info.value).split()[0] in kwargs


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


class TestGraphSetupCache:
    """A fixed graph's set-up is built once, shared read-only, and changes no record."""

    FIXED = ExperimentConfig(
        n=24,
        num_samples=6,
        graph_k=4,
        model=SignalModelSpec("pwl", density=0.25),
        trials=5,
        master_seed=8,
        fixed_graph=True,
    )

    def test_fixed_graph_built_once(self, monkeypatch):
        calls = []
        original = bench.random_sensor_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "random_sensor_graph", counting)
        _graph_setup.cache_clear()
        run_benchmark(self.FIXED)
        assert len(calls) == 1

    def test_records_match_a_rebuild_every_trial(self):
        cached = run_benchmark(self.FIXED).records
        rebuilt = []
        for index in range(self.FIXED.trials):
            _graph_setup.cache_clear()
            rebuilt.extend(run_trial(self.FIXED, index))
        assert cached == rebuilt

    def test_cached_arrays_are_read_only(self):
        run_trial(self.FIXED, 0)
        graph_seed = trial_seeds(self.FIXED, 0)[0]
        lap, spectrum, vo = _graph_setup(
            self.FIXED.n, self.FIXED.graph_k, graph_seed, self.FIXED.response
        )
        assert _graph_setup.cache_info().hits == 1
        arrays = (
            lap.data, lap.indices, lap.indptr,
            spectrum.eigenvalues, spectrum.eigenvectors, vo.values, vo.basis,
        )
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize(
        "change",
        [
            {"response": SpectralResponse(slope=2.0, offset=0.5)},
            {"n": 20},
            {"graph_k": 5},
            {"master_seed": 9},
        ],
        ids=["response", "n", "graph_k", "master_seed"],
    )
    def test_interleaved_configs_match_separate_runs(self, change):
        a, b = self.FIXED, replace(self.FIXED, **change)
        alone = []
        for cfg in (a, b):
            _graph_setup.cache_clear()
            alone.append([run_trial(cfg, index) for index in range(cfg.trials)])
        _graph_setup.cache_clear()
        interleaved = ([], [])
        for index in range(a.trials):
            interleaved[0].append(run_trial(a, index))
            interleaved[1].append(run_trial(b, index))
        assert alone[0] != alone[1]
        assert list(interleaved) == alone

    def test_fresh_graph_run_leaves_cache_alone(self):
        run_trial(self.FIXED, 0)
        before = _graph_setup.cache_info()
        run_benchmark(replace(self.FIXED, fixed_graph=False, trials=3))
        assert _graph_setup.cache_info() == before
        assert before.currsize == 1


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

    def test_tiny_response_runs(self):
        """A response of 1e-300 puts the whitener's scales near 1e300; the
        design runs at unit scale, so no trial overflows (a RuntimeWarning
        fails the test) and every MSE is finite."""
        cfg = ExperimentConfig(
            n=24, num_samples=6, trials=3, master_seed=1,
            response=SpectralResponse(1e-290, 1e-300),
        )
        report = run_benchmark(cfg)
        assert len(report.records) == 3 * 2
        assert all(np.isfinite(r.mse) for r in report.records)
        assert all(r.design_converged for r in report.records)

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
