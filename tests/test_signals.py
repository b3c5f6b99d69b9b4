"""Statistical and structural checks of the synthetic signal models."""

import numpy as np
import pytest
from helpers import dense_harmonic_extension, dense_laplacian, dense_operator

from graphsamp import (
    SignalModelSpec,
    SpectralResponse,
    build_variation_operator,
    eigendecompose,
    generate_signal,
    gmrf_signal,
    laplacian,
    pwl_signal,
    random_sensor_graph,
)


@pytest.fixture(scope="module")
def small_graph():
    g = random_sensor_graph(16, 4, seed=7)
    L = laplacian(g)
    return g, L, eigendecompose(L)


class TestSignalModelSpec:
    def test_valid_specs(self):
        SignalModelSpec("gmrf", eta=0.1)
        SignalModelSpec("pwl", density=0.125)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bandlimited"},
            {"kind": "gmrf", "eta": 0.0},
            {"kind": "pwl", "density": 0.0},
            {"kind": "pwl", "density": 1.5},
            {"kind": "gmrf", "eta": float("inf")},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SignalModelSpec(**kwargs)


class TestGmrfSignal:
    def test_deterministic(self, small_graph):
        _, _, spectrum = small_graph
        a = gmrf_signal(spectrum, 0.1, seed=5)
        b = gmrf_signal(spectrum, 0.1, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_spectral_power(self, small_graph):
        """Monte-Carlo estimate of per-mode variance within 10% of 1/(lam+eta)."""
        _, _, spectrum = small_graph
        draws = 10_000
        coefs = np.empty((draws, 16))
        for i in range(draws):
            coefs[i] = spectrum.eigenvectors.T @ gmrf_signal(spectrum, 0.1, seed=10_000 + i)
        variances = coefs.var(axis=0)
        expected = 1.0 / (spectrum.eigenvalues + 0.1)
        np.testing.assert_allclose(variances, expected, rtol=0.10)

    def test_energy_decreases_with_eta(self, small_graph):
        """Mean ||Fx||^2 at eta=1 is below the mean at eta=0.01 (1e3 draws)."""
        _, _, spectrum = small_graph
        F = dense_operator(build_variation_operator(spectrum, SpectralResponse(1.0, 0.1)))
        energies = {}
        for eta in (1.0, 0.01):
            vals = [
                float(np.linalg.norm(F @ gmrf_signal(spectrum, eta, seed=i)) ** 2)
                for i in range(1000)
            ]
            energies[eta] = np.mean(vals)
        assert energies[1.0] < energies[0.01]

    def test_bad_eta_rejected(self, small_graph):
        _, _, spectrum = small_graph
        for eta in (0.0, float("inf")):
            with pytest.raises(ValueError, match="eta"):
                gmrf_signal(spectrum, eta, seed=0)


class TestPwlSignal:
    def test_deterministic(self):
        g = random_sensor_graph(32, 5, seed=2)
        L = laplacian(g)
        np.testing.assert_array_equal(
            pwl_signal(L, 0.25, seed=3), pwl_signal(L, 0.25, seed=3)
        )

    def test_full_density_is_pure_noise(self):
        """density = 1 anchors every vertex: values are the raw uniforms."""
        g = random_sensor_graph(8, 3, seed=4)
        L = laplacian(g)
        x = pwl_signal(L, 1.0, seed=5)
        rng = np.random.default_rng(5)
        rng.choice(8, size=8, replace=False)
        expected = rng.uniform(-1.0, 1.0, size=8)
        np.testing.assert_array_equal(x, expected)

    def test_harmonic_off_anchors(self):
        """(Lx) vanishes off anchors: direct-solve oracle at 1e-8 of ||x||_max."""
        g = random_sensor_graph(32, 5, seed=6)
        L = laplacian(g)
        x = pwl_signal(L, 0.25, seed=7)
        rng = np.random.default_rng(7)
        anchors = np.sort(rng.choice(32, size=8, replace=False))
        free = np.setdiff1d(np.arange(32), anchors)
        assert np.max(np.abs((L @ x)[free])) <= 1e-8 * np.max(np.abs(x))

    def test_maximum_principle(self):
        """Non-anchor values stay inside the anchor range."""
        g = random_sensor_graph(40, 5, seed=8)
        L = laplacian(g)
        for seed in range(5):
            x = pwl_signal(L, 0.2, seed=seed)
            rng = np.random.default_rng(seed)
            anchors = np.sort(rng.choice(40, size=8, replace=False))
            values = x[anchors]
            assert np.all(x >= values.min() - 1e-9)
            assert np.all(x <= values.max() + 1e-9)

    def test_tiny_density_keeps_one_anchor(self):
        g = random_sensor_graph(16, 4, seed=9)
        L = laplacian(g)
        x = pwl_signal(L, 0.001, seed=10)
        # one anchor: the harmonic extension of a single value is constant
        np.testing.assert_allclose(x, x[0], atol=1e-10)

    @pytest.mark.parametrize("density", [1.0, 0.001, 0.25])
    @pytest.mark.parametrize("n, k, graph_seed", [(16, 4, 1), (64, 6, 2), (256, 6, 3)])
    def test_matches_dense_harmonic_solve(self, n, k, graph_seed, density):
        """The sparse LU solve on the CSC Laplacian equals the dense solve on
        the dense Laplacian to 1e-12 relative, for all anchors, one, and a quarter."""
        g = random_sensor_graph(n, k, seed=graph_seed)
        x = pwl_signal(laplacian(g), density, seed=graph_seed + 100)
        rng = np.random.default_rng(graph_seed + 100)
        num_anchors = min(n, max(1, int(np.floor(density * n + 0.5))))
        anchors = np.sort(rng.choice(n, size=num_anchors, replace=False))
        values = rng.uniform(-1.0, 1.0, size=num_anchors)
        expected = dense_harmonic_extension(dense_laplacian(g), anchors, values)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_bad_density_rejected(self):
        g = random_sensor_graph(8, 3, seed=11)
        L = laplacian(g)
        with pytest.raises(ValueError, match="density"):
            pwl_signal(L, 0.0, seed=0)

    def test_complex_laplacian_rejected_by_dtype(self):
        """The float conversion would drop the imaginary part with only a warning."""
        L = laplacian(random_sensor_graph(8, 3, seed=11)).astype(complex)
        with pytest.raises(ValueError) as info:
            pwl_signal(L, 0.25, seed=0)
        assert str(info.value) == "Laplacian must be real, got complex dtype complex128"


class TestGenerateSignal:
    def test_dispatch_and_seed_override(self, small_graph):
        _, L, spectrum = small_graph
        model = SignalModelSpec("gmrf", eta=0.1)
        np.testing.assert_array_equal(
            generate_signal(model, spectrum, L, seed=9),
            gmrf_signal(spectrum, 0.1, 9),
        )
        pwl = SignalModelSpec("pwl", density=0.25)
        np.testing.assert_array_equal(
            generate_signal(pwl, spectrum, L, seed=4), pwl_signal(L, 0.25, 4)
        )
