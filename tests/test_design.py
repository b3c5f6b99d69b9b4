"""Projection, nuclear-norm subgradient, and the design loop invariants.

Oracles:
- the design loop: the dense loop on ``whitener @ S``, kept here as the
  reference for the spectral-coordinate loop;
- the design optimum: ``max ||A S||_* over ||S||_F <= eps`` equals
  ``eps * ||d_(1..K)||_2`` (von Neumann, then Cauchy-Schwarz), with d the
  singular values of A.
"""

import numpy as np
import pytest

from graphsamp import (
    DesignConfig,
    SpectralResponse,
    build_variation_operator,
    default_radius,
    design_sampling_operator,
    eigendecompose,
    laplacian,
    nuclear_norm,
    nuclear_subgradient,
    numerical_rank,
    project_frobenius_ball,
    random_sensor_graph,
)
from graphsamp.design import SamplingDesign, _polar_factor


def _whitener(n, seed):
    g = random_sensor_graph(n, min(6, n - 1), seed)
    spectrum = eigendecompose(laplacian(g))
    return build_variation_operator(spectrum, SpectralResponse(1.0, 0.1)).whitener


def _reference_design(whitener, num_samples, config):
    """The dense loop: two n x n products per iteration, on S itself."""
    A = np.asarray(whitener, dtype=float)
    n = A.shape[0]
    rng = np.random.default_rng(int(config.seed))
    S = project_frobenius_ball(
        rng.standard_normal((n, num_samples)), config.epsilon
    )
    nuc, steps, frobs = [], [], []
    converged = False
    iterations = 0
    for _ in range(int(config.max_iter)):
        G, s = _polar_factor(A @ S)
        S_next = project_frobenius_ball(
            S + config.gamma * (A.T @ G), config.epsilon
        )
        step = float(np.linalg.norm(S_next - S))
        current = float(np.linalg.norm(S))
        nuc.append(float(np.sum(s)))
        steps.append(step)
        frobs.append(current)
        S = S_next
        iterations += 1
        if step <= config.stop_tol * current:
            converged = True
            break
    return SamplingDesign(
        matrix=S,
        iterations=iterations,
        converged=converged,
        nuclear_norms=np.asarray(nuc),
        step_norms=np.asarray(steps),
        frobenius_norms=np.asarray(frobs),
    )


def _random_whitener(n, seed):
    """A square whitener whose rows are not orthogonal."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    assert abs(A[0] @ A[1]) > 1e-3 * np.linalg.norm(A[0]) * np.linalg.norm(A[1])
    return A


class TestProjectFrobeniusBall:
    def test_interior_point_unchanged(self):
        rng = np.random.RandomState(0)
        X = rng.randn(4, 3)
        radius = 2.0 * np.linalg.norm(X)
        np.testing.assert_array_equal(project_frobenius_ball(X, radius), X)

    def test_single_entry_scaling(self):
        """An entry of 2*eps projects to eps with the same support."""
        X = np.zeros((3, 3))
        X[1, 2] = 2.0
        P = project_frobenius_ball(X, 1.0)
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.0
        np.testing.assert_allclose(P, expected, atol=1e-15)

    def test_nearest_point_among_random_probes(self):
        """Projection beats 1e4 random feasible points in distance to X."""
        rng = np.random.RandomState(1)
        X = rng.randn(5, 4) * 10.0
        radius = 1.5
        P = project_frobenius_ball(X, radius)
        d_star = np.linalg.norm(X - P)
        for _ in range(10_000):
            Y = rng.randn(5, 4)
            Y *= radius * rng.rand() / np.linalg.norm(Y)
            assert d_star <= np.linalg.norm(X - Y) + 1e-12

    def test_idempotent_norm_bounded_nonexpansive(self):
        rng = np.random.RandomState(2)
        radius = 1.0
        for _ in range(200):
            X = rng.randn(4, 4) * rng.choice([0.1, 1.0, 10.0])
            Y = rng.randn(4, 4) * rng.choice([0.1, 1.0, 10.0])
            PX = project_frobenius_ball(X, radius)
            PY = project_frobenius_ball(Y, radius)
            assert np.linalg.norm(PX) <= radius * (1 + 1e-12)
            assert np.max(np.abs(project_frobenius_ball(PX, radius) - PX)) <= 1e-12
            assert np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-10

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            project_frobenius_ball(np.ones((2, 2)), 0.0)


class TestNuclearSubgradient:
    def test_identity_input_both_modes(self):
        """Identity (full rank) is its own polar factor."""
        np.testing.assert_allclose(nuclear_subgradient(np.eye(4)), np.eye(4), atol=1e-12)

    def test_subgradient_inequality(self):
        """||Y||_* >= ||M||_* + <Y - M, G> for 100 random Y (direct oracle)."""
        rng = np.random.RandomState(3)
        M = rng.randn(6, 4)
        G = nuclear_subgradient(M)
        base = nuclear_norm(M)
        for _ in range(100):
            Y = rng.randn(6, 4) * rng.choice([0.1, 1.0, 10.0])
            gap = nuclear_norm(Y) - base - np.sum((Y - M) * G)
            assert gap >= -1e-8 * max(1.0, nuclear_norm(Y), base)

    def test_spectral_norm_bounded(self):
        rng = np.random.RandomState(4)
        for _ in range(50):
            M = rng.randn(5, 3)
            s = np.linalg.svd(nuclear_subgradient(M), compute_uv=False)
            assert s[0] <= 1.0 + 1e-10

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            nuclear_subgradient(np.zeros((3, 2)))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_below_cutoff(self):
        assert numerical_rank(np.diag([1.0, 1e-15]), 1e-10) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 2))) == 0

    def test_full_column_rank_against_gram_determinant(self):
        """Gram-determinant oracle on a random 8x3 matrix."""
        rng = np.random.RandomState(5)
        M = rng.randn(8, 3)
        assert abs(np.linalg.det(M.T @ M)) > 1e-6
        assert numerical_rank(M, 1e-10) == 3


class TestDesignConfig:
    def test_default_settings(self):
        cfg = DesignConfig(epsilon=default_radius(256, 32))
        assert cfg.gamma == 1.0
        assert cfg.stop_tol == 1e-5
        assert cfg.max_iter == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0, "gamma": 0.0},
            {"epsilon": 1.0, "stop_tol": 0.0},
            {"epsilon": 1.0, "stop_tol": 1.0},
            {"epsilon": 1.0, "max_iter": 0},
            {"epsilon": 1.0, "seed": -1},
            {"epsilon": float("inf")},
            {"epsilon": float("nan")},
            {"epsilon": 1.0, "gamma": float("inf")},
            {"epsilon": 1.0, "gamma": float("nan")},
            {"epsilon": 1.0, "stop_tol": float("nan")},
            {"epsilon": 1.0, "seed": 2**64},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        field = next((key for key in kwargs if key != "epsilon"), "epsilon")
        with pytest.raises(ValueError, match=field):
            DesignConfig(**kwargs)


class TestDesignSamplingOperator:
    def test_identity_whitener_reaches_flat_spectrum(self):
        """With an identity whitener the maximizer on the ball has equal
        singular values eps/sqrt(K) and nuclear norm eps*sqrt(K)."""
        n, K = 16, 4
        eps = default_radius(n, K)
        design = design_sampling_operator(np.eye(n), K, DesignConfig(epsilon=eps, seed=0))
        assert design.converged
        sv = np.linalg.svd(design.matrix, compute_uv=False)
        np.testing.assert_allclose(sv, np.full(K, eps / np.sqrt(K)), rtol=0.01)
        assert abs(nuclear_norm(design.matrix) - eps * np.sqrt(K)) <= 0.01 * eps * np.sqrt(K)

    def test_deterministic_trace(self):
        A = _whitener(24, seed=1)
        cfg = DesignConfig(epsilon=default_radius(24, 6), seed=42)
        a = design_sampling_operator(A, 6, cfg)
        b = design_sampling_operator(A, 6, cfg)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.nuclear_norms, b.nuclear_norms)
        np.testing.assert_array_equal(a.step_norms, b.step_norms)
        assert a.iterations == b.iterations

    def test_feasible_throughout(self):
        A = _whitener(24, seed=2)
        eps = default_radius(24, 6)
        design = design_sampling_operator(A, 6, DesignConfig(epsilon=eps, seed=3))
        assert np.all(design.frobenius_norms <= eps * (1 + 1e-12))
        assert np.linalg.norm(design.matrix) <= eps * (1 + 1e-12)

    def test_nuclear_norm_monotone(self):
        A = _whitener(24, seed=4)
        design = design_sampling_operator(A, 6, DesignConfig(epsilon=default_radius(24, 6), seed=5))
        nn = design.nuclear_norms
        assert np.all(np.diff(nn) >= -1e-9 * nn[:-1])

    def test_converges_with_vanishing_steps(self):
        A = _whitener(32, seed=6)
        cfg = DesignConfig(epsilon=default_radius(32, 8), seed=7)
        design = design_sampling_operator(A, 8, cfg)
        assert design.converged
        assert design.iterations < cfg.max_iter
        final_norm = np.linalg.norm(design.matrix)
        # stopping rule: the recorded final step is below tol relative to its iterate
        assert design.step_norms[-1] <= cfg.stop_tol * design.frobenius_norms[-1]
        # steps near the end have collapsed to the stopping scale
        tail = design.step_norms[-10:]
        assert np.all(tail <= 20.0 * cfg.stop_tol * final_norm)

    def test_full_rank_at_convergence(self):
        """Whitened design has full column rank at the default settings."""
        for n, seed in ((64, 0), (256, 1)):
            A = _whitener(n, seed=seed)
            K = n // 8
            design = design_sampling_operator(A, K, DesignConfig(epsilon=default_radius(n, K), seed=seed))
            assert design.converged
            assert numerical_rank(A @ design.matrix, 1e-8) == K

    def test_trace_lengths_match_iterations(self):
        A = _whitener(16, seed=8)
        design = design_sampling_operator(A, 4, DesignConfig(epsilon=default_radius(16, 4), seed=9))
        assert len(design.nuclear_norms) == design.iterations
        assert len(design.step_norms) == design.iterations
        assert len(design.frobenius_norms) == design.iterations

    def test_max_iter_reports_not_converged(self):
        A = _whitener(16, seed=10)
        design = design_sampling_operator(
            A, 4, DesignConfig(epsilon=default_radius(16, 4), seed=11, max_iter=2)
        )
        assert not design.converged
        assert design.iterations == 2

    def test_bad_arguments_rejected(self):
        cfg = DesignConfig(epsilon=1.0)
        with pytest.raises(ValueError, match="square"):
            design_sampling_operator(np.zeros((3, 2)), 1, cfg)
        with pytest.raises(ValueError, match="whitener"):
            design_sampling_operator(np.diag([1.0, np.nan, 1.0, 1.0]), 1, cfg)
        with pytest.raises(ValueError, match="num_samples"):
            design_sampling_operator(np.eye(4), 4, cfg)
        with pytest.raises(ValueError, match="num_samples"):
            design_sampling_operator(np.eye(4), 0, cfg)


class TestSpectralLoopAgainstDenseLoop:
    @pytest.mark.parametrize(
        "case",
        ["variation-24", "variation-64", "variation-256", "identity-16", "random-40"],
    )
    def test_matches_dense_reference(self, case):
        """Same iterations and stopping; S to 1e-10 and the trace to 1e-12 relative.

        Step norms are differences of nearly equal iterates, so their
        rounding is relative to the iterate's norm, at most epsilon.
        """
        kind, n = case.rsplit("-", 1)
        n = int(n)
        if kind == "variation":
            A = _whitener(n, seed=n)
        elif kind == "identity":
            A = np.eye(n)
        else:
            A = _random_whitener(n, seed=n)
        K = max(n // 8, 4)
        cfg = DesignConfig(epsilon=default_radius(n, K), seed=n + 1)
        got = design_sampling_operator(A, K, cfg)
        want = _reference_design(A, K, cfg)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        scale = np.linalg.norm(want.matrix)
        assert np.linalg.norm(got.matrix - want.matrix) <= 1e-10 * scale
        np.testing.assert_allclose(got.nuclear_norms, want.nuclear_norms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.frobenius_norms, want.frobenius_norms, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            got.step_norms, want.step_norms, rtol=0, atol=1e-12 * cfg.epsilon
        )


class TestClosedFormCertificate:
    def _check(self, A, K, seed):
        """``||A S||_*`` of a converged design is within 1e-4 below the optimum."""
        eps = default_radius(A.shape[0], K)
        design = design_sampling_operator(A, K, DesignConfig(epsilon=eps, seed=seed))
        assert design.converged
        achieved = nuclear_norm(A @ design.matrix)
        bound = eps * np.linalg.norm(np.linalg.svd(A, compute_uv=False)[:K])
        assert achieved <= bound * (1 + 1e-12)
        assert achieved >= bound * (1 - 1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_sensor_graph_reaches_certificate(self, seed):
        """The loop's limit is the global optimum on n=256 sensor graphs."""
        self._check(_whitener(256, seed=seed), 32, seed)

    def test_random_whitener_reaches_certificate(self):
        self._check(_random_whitener(40, seed=3), 5, seed=4)

    def test_identity_tie_compares_nuclear_norms(self):
        """With d constant every K-frame of the right size is optimal, so
        only the nuclear norm is compared, never the matrix."""
        self._check(np.eye(16), 4, seed=0)
