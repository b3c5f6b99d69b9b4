"""Projection, nuclear-norm subgradient, and the design loop invariants.

Oracles:
- the design loop: the dense loop on ``A @ S``, A the whitener's dense
  matrix ``diag(d) @ Q.T`` or ``F^-1 = Q @ diag(d) @ Q.T`` itself, with
  the polar factor from ``np.linalg.svd`` and the step length from A's
  singular values, started from the same restriction of the Gaussian
  start to the kept columns, kept here as the reference for the
  spectral-coordinate loop on the kept rows;
- the polar factor: ``U @ Vt`` of ``np.linalg.svd``, the form the Gram
  matrix route replaces;
- the design optimum: ``max ||A S||_* over ||S||_F <= eps`` equals
  ``eps * ||d_(1..K)||_2`` (von Neumann, then Cauchy-Schwarz), with d the
  singular values of A.
"""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    dense_operator,
    dense_whitener,
    nuclear_norm,
    nuclear_subgradient,
    numerical_rank,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphsamp.design as design_module
from graphsamp import (
    DesignConfig,
    ExperimentConfig,
    SignalModelSpec,
    SpectralResponse,
    build_pipeline,
    build_variation_operator,
    default_radius,
    design_sampling_operator,
    eigendecompose,
    gmrf_signal,
    laplacian,
    project_frobenius_ball,
    random_sensor_graph,
    run_trial,
    sample,
)
from graphsamp.design import (
    ROWS_PER_SAMPLE,
    STEP_SCALE,
    STOP_TOL,
    SamplingDesign,
    _check_scale,
    _polar_factor,
)
from graphsamp.variation import VariationOperator


def _operator(n, seed):
    g = random_sensor_graph(n, min(6, n - 1), seed)
    spectrum = eigendecompose(laplacian(g))
    return build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))


def _whitener(n, seed):
    return _operator(n, seed).whitener


def _identity(n):
    return VariationOperator(np.ones(n), np.eye(n))


def _svd_polar_factor(M):
    """``U @ Vt`` of the thin SVD of M, and M's singular values."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ Vt, s


def _kept_columns(whitener, num_samples):
    """The basis columns of the ``min(n, ROWS_PER_SAMPLE * K)`` largest
    scales, ties to the lowest index, by a Python sort."""
    scales = whitener.values.tolist()
    m = min(len(scales), ROWS_PER_SAMPLE * num_samples)
    keep = sorted(sorted(range(len(scales)), key=lambda i: (-scales[i], i))[:m])
    return whitener.basis[:, keep]


def _reference_design(whitener, num_samples, config, dense=dense_whitener):
    """The dense loop: two n x n products and a thin SVD per iteration, on S
    itself, with the step length taken from A's largest singular value.

    A is ``dense(whitener)``: ``diag(d) @ Q.T``, or with ``dense_operator``
    the whitener ``F^-1 = Q @ diag(d) @ Q.T`` itself, whose extra left Q
    changes neither the nuclear norm nor the step ``A.T @ G``.

    It starts from ``Q_m Q_m.T S_0``, the projected Gaussian restricted to
    the span of the kept columns, and runs on all n rows from there.
    """
    A = dense(whitener)
    n = A.shape[0]
    gamma = STEP_SCALE * config.epsilon / np.linalg.svd(A, compute_uv=False)[0]
    rng = np.random.default_rng(config.seed)
    S = project_frobenius_ball(
        rng.standard_normal((n, num_samples)), config.epsilon
    )
    Q_m = _kept_columns(whitener, num_samples)
    S = Q_m @ (Q_m.T @ S)
    nuc, steps, frobs = [], [], []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        G, s = _svd_polar_factor(A @ S)
        S_next = project_frobenius_ball(S + gamma * (A.T @ G), config.epsilon)
        step = float(np.linalg.norm(S_next - S))
        current = float(np.linalg.norm(S))
        nuc.append(float(np.sum(s)))
        steps.append(step)
        frobs.append(current)
        S = S_next
        iterations += 1
        if step <= STOP_TOL * current:
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
    """``VariationOperator(d, Q)`` with a random orthogonal Q and unsorted positive d,
    a whitener not built from any graph."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 3.0, n)
    assert np.any(np.diff(d) > 0) and np.any(np.diff(d) < 0)
    return VariationOperator(d, Q)


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

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_non_finite_radius_rejected(self, radius):
        """An infinite radius would return every X unchanged."""
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            project_frobenius_ball(np.ones((2, 2)), radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        X = np.ones((3, 2))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="X must have a finite Frobenius norm"):
            project_frobenius_ball(X, 1.0)


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
        assert STOP_TOL == 1e-5
        assert STEP_SCALE == 10.0
        assert cfg.max_iter == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"epsilon": 1.0, "max_iter": 0},
            {"epsilon": 1.0, "max_iter": -1},
            {"epsilon": 1.0, "seed": -1},
            {"epsilon": float("inf")},
            {"epsilon": float("nan")},
            {"epsilon": float("-inf")},
            {"epsilon": 1.0, "seed": 2**64},
            {"epsilon": 1.0, "max_iter": 2.5},
            {"epsilon": 1.0, "max_iter": float("inf")},
            {"epsilon": 1.0, "max_iter": float("nan")},
            {"epsilon": 1.0, "seed": 0.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        field = next((key for key in kwargs if key != "epsilon"), "epsilon")
        with pytest.raises(ValueError, match=field):
            DesignConfig(**kwargs)

    @pytest.mark.parametrize("field", ["gamma", "stop_tol"])
    def test_removed_field_rejected(self, field):
        """The step length is always ``STEP_SCALE * epsilon / max(d)`` and the
        stop tolerance is ``STOP_TOL``."""
        with pytest.raises(TypeError, match=field):
            DesignConfig(epsilon=1.0, **{field: 1e-3})


class TestDesignSamplingOperator:
    def test_identity_whitener_reaches_flat_spectrum(self):
        """With an identity whitener the maximizer on the ball has equal
        singular values eps/sqrt(K) and nuclear norm eps*sqrt(K)."""
        n, K = 16, 4
        eps = default_radius(n, K)
        design = design_sampling_operator(_identity(n), K, DesignConfig(epsilon=eps, seed=0))
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
        assert design.step_norms[-1] <= STOP_TOL * design.frobenius_norms[-1]
        # steps near the end have collapsed to the stopping scale
        tail = design.step_norms[-10:]
        assert np.all(tail <= 20.0 * STOP_TOL * final_norm)

    def test_full_rank_at_convergence(self):
        """Whitened design has full column rank at the default settings."""
        for n, seed in ((64, 0), (256, 1)):
            A = _whitener(n, seed=seed)
            K = n // 8
            design = design_sampling_operator(A, K, DesignConfig(epsilon=default_radius(n, K), seed=seed))
            assert design.converged
            assert numerical_rank(dense_whitener(A) @ design.matrix, 1e-8) == K

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
        with pytest.raises(ValueError, match="num_samples"):
            design_sampling_operator(_identity(4), 4, cfg)
        with pytest.raises(ValueError, match="num_samples"):
            design_sampling_operator(_identity(4), 0, cfg)
        with pytest.raises(ValueError, match="num_samples must be an integer"):
            design_sampling_operator(_identity(4), 2.5, cfg)

    def test_zero_row_whitener_rejected(self):
        """Scale 2 is zero, so row 2 of ``diag(scales) basis.T`` is zero and
        the whitener is singular; it is refused before any design runs."""
        with pytest.raises(ValueError, match="variation operator value 2 must be positive"):
            VariationOperator(np.array([1.0, 3.0, 0.0, 2.0]), np.eye(4))

    def test_factored_design_allocates_no_square_array(self):
        """Reading ``vo.whitener`` and designing with it at n=512, K=32 peaks
        below one n x n float array: no dense whitener, no ``A @ A.T``."""
        n = 512
        vo = _operator(n, seed=0)
        cfg = DesignConfig(epsilon=default_radius(n, 32), seed=1, max_iter=3)
        tracemalloc.start()
        try:
            design_sampling_operator(vo.whitener, 32, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


def _offset_whitener(n, seed):
    """The whitener of ``--response-offset 1e-6``: the constant mode's scale is
    1e6 and the others are O(1), so the scales span more than 1e6."""
    g = random_sensor_graph(n, 6, seed)
    spectrum = eigendecompose(laplacian(g))
    return build_variation_operator(spectrum, SpectralResponse(1.0, 1e-6)).whitener


def _whitened_iterate(whitener, design):
    """``d * (Q.T @ S)``, the whitened iterate the loop hands the polar factor."""
    return whitener.values[:, None] * (whitener.basis.T @ design.matrix)


class TestGramPolarFactor:
    def _assert_matches_svd(self, M):
        G, s = _polar_factor(M)
        G_ref, s_ref = _svd_polar_factor(M)
        assert np.max(np.abs(G - G_ref)) <= 1e-12
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12 * s_ref[0])

    @pytest.mark.parametrize("shape", [(256, 32), (1024, 128), (40, 5), (6, 6)])
    def test_random_matrix_matches_svd(self, shape):
        rng = np.random.default_rng(shape[0])
        self._assert_matches_svd(rng.standard_normal(shape) * 3.0)

    @pytest.mark.parametrize("n, K", [(256, 32), (1024, 128)])
    def test_converged_iterate_matches_svd(self, n, K):
        """A converged whitened iterate tends to cond ``(d_1/d_K)^2``, about
        160 here: the limit the loop's iterates approach on a sensor graph
        with the default response."""
        W = _whitener(n, seed=1001)
        design = design_sampling_operator(W, K, DesignConfig(epsilon=default_radius(n, K), seed=1))
        assert design.converged
        M = _whitened_iterate(W, design)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[0] / s[-1] > 20.0
        self._assert_matches_svd(M)

    @pytest.mark.parametrize("cond", [1e2, 1e3, 5e3, 9.9e3])
    def test_prescribed_condition_within_gram_error_bound(self, cond):
        """Up to cond 1e4 the Gram route is taken, and its polar factor is
        within ``cond(M)^2 * eps`` of the SVD's: the Gram matrix squares the
        condition number. 64 x 8 matrices with singular values spread
        geometrically from 1 down to ``1 / cond``."""
        assert cond**2 < design_module.GRAM_COND_LIMIT
        rng = np.random.default_rng(int(cond))
        U, _ = np.linalg.qr(rng.standard_normal((64, 8)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        M = (U * np.geomspace(1.0, 1.0 / cond, 8)) @ V.T
        G, _ = _polar_factor(M)
        G_ref, _ = _svd_polar_factor(M)
        assert np.max(np.abs(G - G_ref)) <= cond**2 * np.finfo(float).eps

    def test_empty_matrix_rejected(self):
        """No columns means no Gram eigenvalues; the SVD branch refuses it."""
        with pytest.raises(ValueError, match="zero matrix"):
            _polar_factor(np.zeros((3, 0)))

    def test_ill_conditioned_iterate_takes_the_svd(self):
        """Past cond 1e4 the Gram matrix cannot resolve the small singular
        values, so the guard hands the iterate to the thin SVD: G and the
        singular values are bit for bit those of ``np.linalg.svd``."""
        W = _offset_whitener(64, seed=5)
        assert W.values.max() / W.values.min() >= 1e6
        design = design_sampling_operator(W, 8, DesignConfig(epsilon=default_radius(64, 8), seed=6))
        M = _whitened_iterate(W, design)
        s = np.linalg.svd(M, compute_uv=False)
        assert s[0] / s[-1] >= 1e4
        G, s_got = _polar_factor(M)
        G_ref, s_ref = _svd_polar_factor(M)
        np.testing.assert_array_equal(G, G_ref)
        np.testing.assert_array_equal(s_got, s_ref)

    @pytest.mark.parametrize(
        "model, fixed_graph",
        [(SignalModelSpec("gmrf", eta=0.1), False), (SignalModelSpec("pwl", density=1 / 8), True)],
        ids=["gmrf", "pwl-fixed-graph"],
    )
    def test_benchmark_trials_never_take_the_svd(self, monkeypatch, model, fixed_graph):
        """On the first trials of acceptance 01's GMRF config and of
        acceptance 02's PWL config on one fixed graph (n=256, K=32), every
        design iteration takes the Gram route: the thin SVD alone costs
        more than a whole Gram iteration."""
        cfg = ExperimentConfig(
            n=256, num_samples=32, graph_k=6, response=SpectralResponse(1.0, 0.1),
            model=model, master_seed=1, fixed_graph=fixed_graph,
        )
        calls = []
        svd = np.linalg.svd

        def counting_svd(M, *args, **kwargs):
            calls.append(M.shape)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        iterations = sum(run_trial(cfg, i)[0].design_iterations for i in range(20))
        assert iterations > 0
        assert calls == []


class TestStepRule:
    @pytest.mark.parametrize(
        "p, q",
        [(3, -2), (300, -2), (-300, -2), (600, -2), (-600, -2), (1000, -500), (-1000, -2)],
    )
    def test_scale_invariance(self, monkeypatch, p, q):
        """Scales times 2**p and epsilon times 2**q give the same iteration
        count and every iterate times 2**q, with no SVD in either run. The
        loop runs at unit scale, where powers of two scale without rounding,
        so the equality is exact even where the Gram matrix of an unscaled
        iterate would overflow (p = 600) or underflow (p = -600)."""
        calls = []
        svd = np.linalg.svd

        def counting_svd(M, *args, **kwargs):
            calls.append(M.shape)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        _assert_scaled_design(p, q)
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(-1000, 1000), q=st.integers(-1000, 0))
    def test_scale_invariance_any_exponents(self, p, q):
        """The same for any scale exponent in [-1000, 1000] and radius
        exponent in [-1000, 0] whose sum is in [-1000, 1000], radii far
        below the old window's end 1.5e-154 included. A positive q would
        leave the Gaussian start inside the ball, unprojected, which
        breaks the invariance."""
        assume(abs(p + q) <= 1000)
        _assert_scaled_design(p, q)


def _assert_scaled_design(p, q):
    """A 64-vertex design with scales times 2**p and epsilon times 2**q is
    the unscaled one times 2**q, its nuclear norms times 2**(p + q)."""
    W = _whitener(64, seed=12)
    K = 8
    eps = default_radius(64, K) / 2  # the Gaussian start is projected in both runs
    base = design_sampling_operator(W, K, DesignConfig(epsilon=eps, seed=13))
    scaled = design_sampling_operator(
        VariationOperator(np.ldexp(W.values, p), W.basis), K,
        DesignConfig(epsilon=math.ldexp(eps, q), seed=13),
    )
    assert base.converged and scaled.converged
    assert scaled.iterations == base.iterations
    np.testing.assert_array_equal(scaled.matrix, np.ldexp(base.matrix, q))
    np.testing.assert_array_equal(scaled.frobenius_norms, np.ldexp(base.frobenius_norms, q))
    np.testing.assert_array_equal(scaled.step_norms, np.ldexp(base.step_norms, q))
    np.testing.assert_array_equal(scaled.nuclear_norms, np.ldexp(base.nuclear_norms, p + q))


class TestRadiusFloor:
    """epsilon has one rule of its own, that it be a finite normal float;
    the loop and ``build_pipeline`` both run at unit scale, so beyond that
    only ``_check_scale``'s product rule bounds it."""

    def test_refused_before_any_iteration(self, monkeypatch):
        """The smallest subnormal passes ``_check_scale`` with a whitener
        near 1e300, and the loop then failed on a zero iterate, naming no
        input; the normal-float floor refuses it before any iteration."""

        def refuse(M):
            raise AssertionError("a refused radius runs no iteration")

        monkeypatch.setattr(design_module, "_polar_factor", refuse)
        W = build_variation_operator(
            eigendecompose(laplacian(random_sensor_graph(64, 6, 0))),
            SpectralResponse(1e-290, 1e-300),
        ).whitener
        _check_scale(float(W.values.max()), 5e-324, 8)
        with pytest.raises(ValueError, match=r"^epsilon must be finite and at least 2\.23e-308, got 5e-324$"):
            design_sampling_operator(W, 8, DesignConfig(epsilon=5e-324))

    @pytest.mark.parametrize("eps", [1e-150, 1e152, 1e-300, 1e300])
    def test_extreme_radii_reach_certificate(self, eps):
        """Near and far past the ends of the old window the loop still
        reaches the optimum ``eps * ||d_(1..K)||`` within 1e-4, inside the
        ball. The ball is checked on ``S / eps``: ``||S||`` itself
        underflows to 0 at 1e-300."""
        W = _whitener(64, seed=0)
        design = design_sampling_operator(W, 8, DesignConfig(epsilon=eps))
        assert design.converged
        assert np.linalg.norm(design.matrix / eps) <= 1 + 1e-12
        dense = dense_whitener(W)
        achieved = nuclear_norm(dense @ (design.matrix / eps))
        bound = np.linalg.norm(np.linalg.svd(dense, compute_uv=False)[:8])
        assert bound * (1 - 1e-4) <= achieved <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("n", [2, 64, 1024, 2**20, 2**40])
    def test_auto_radius_meets_scale_rule(self, n):
        """sqrt(n K) is a radius, and inside ``_check_scale``'s window with
        the default response, whose largest whitener scale is 1 / offset,
        for every K < n up to n = 2**40."""
        largest = 1.0 / SpectralResponse().offset
        for K in sorted({1, n // 2, n - 1}):
            _check_scale(largest, DesignConfig(default_radius(n, K)).epsilon, K)


class TestScaleRule:
    """epsilon times max(d) must keep the optimal nuclear norm a normal
    float: at least tiny, and below 2**1023 / sqrt(K), since the optimal
    nuclear norm lies between that product and sqrt(K) times it."""

    RULE = r"^epsilon times the whitener's largest scale must lie in \[2\.23e-308, "

    @pytest.mark.parametrize(
        "slope, offset, eps",
        [(1e-290, 1e-300, 1e10), (1e299, 1e298, 1e-150)],
        ids=["inf-nuclear-norm", "zero-nuclear-norm"],
    )
    def test_refused_before_any_iteration(self, monkeypatch, slope, offset, eps):
        """Both radii are finite normal floats, and the unscaled loop
        failed on them with an error that named no input: its Gram matrix
        overflowed (``Eigenvalues did not converge``), or its whitened
        iterate underflowed to the zero matrix."""

        def refuse(M):
            raise AssertionError("a refused radius runs no iteration")

        monkeypatch.setattr(design_module, "_polar_factor", refuse)
        W = build_variation_operator(
            eigendecompose(laplacian(random_sensor_graph(64, 6, 0))), SpectralResponse(slope, offset)
        ).whitener
        with pytest.raises(ValueError, match=self.RULE + r"3\.18e\+307\] for K=8"):
            design_sampling_operator(W, 8, DesignConfig(epsilon=eps))

    @pytest.mark.parametrize("K", [1, 4, 64])
    def test_bounds_are_exact(self, K):
        """Each end is accepted and its neighbour outside refused, on the
        product as Python floats form it. At K = 1, 4 and 64 the top end
        ``2**1023 / sqrt(K)`` is a power of two, so it is exact too."""
        tiny = np.finfo(float).tiny
        top = math.ldexp(1.0, 1023) / math.sqrt(K)
        for largest in (1.0, 2.0, 2.0**20):
            low, high = tiny / largest, top / largest
            _check_scale(largest, low, K)
            _check_scale(largest, np.nextafter(high, 0.0), K)
            for eps in (np.nextafter(low, 0.0), high):
                with pytest.raises(ValueError, match=self.RULE):
                    _check_scale(largest, eps, K)


class TestSpectralLoopAgainstDenseLoop:
    @pytest.mark.parametrize(
        "case",
        [
            "variation-24",
            "variation-64",
            "variation-256",
            "random-8",
            "identity-16",
            "random-40",
            "offset-64",
            "inverse-variation-24",
            "inverse-variation-64",
            "inverse-random-8",
            "inverse-random-40",
        ],
    )
    def test_matches_dense_reference(self, case):
        """Same iterations and stopping; S to 1e-10 and the trace to 1e-12 relative.

        Step norms are differences of nearly equal iterates, so their
        rounding is relative to the iterate's norm, at most epsilon. The
        offset whitener's iterates are too ill-conditioned for the Gram
        route, so that case runs the polar factor's SVD branch. At n=8,
        K=4 the loop keeps all 2K = n rows. An ``inverse-`` case runs the
        dense loop on ``F^-1`` itself rather than on ``diag(d) @ Q.T``.
        """
        kind, n = case.rsplit("-", 1)
        n = int(n)
        inverse = kind.startswith("inverse-")
        kind = kind.removeprefix("inverse-")
        if kind == "variation":
            A = _whitener(n, seed=n)
        elif kind == "identity":
            A = _identity(n)
        elif kind == "offset":
            A = _offset_whitener(n, seed=n)
        else:
            A = _random_whitener(n, seed=n)
        K = max(n // 8, 4)
        cfg = DesignConfig(epsilon=default_radius(n, K), seed=n + 1)
        got = design_sampling_operator(A, K, cfg)
        want = _reference_design(A, K, cfg, dense_operator if inverse else dense_whitener)
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
        dense = dense_whitener(A)
        eps = default_radius(dense.shape[0], K)
        design = design_sampling_operator(A, K, DesignConfig(epsilon=eps, seed=seed))
        assert design.converged
        achieved = nuclear_norm(dense @ design.matrix)
        bound = eps * np.linalg.norm(np.linalg.svd(dense, compute_uv=False)[:K])
        assert achieved <= bound * (1 + 1e-12)
        assert achieved >= bound * (1 - 1e-4)

    @pytest.mark.parametrize("seed", range(6))
    def test_sensor_graph_reaches_certificate(self, seed):
        """The loop's limit is the global optimum on n=256 sensor graphs."""
        self._check(_whitener(256, seed=seed), 32, seed)

    def test_random_whitener_reaches_certificate(self):
        self._check(_random_whitener(40, seed=3), 5, seed=4)

    def test_largest_scales_last_reach_certificate(self):
        """A negative slope puts the largest scales on the basis's last
        columns, so keeping the first 2K columns would miss the optimum."""
        n = 256
        spectrum = eigendecompose(laplacian(random_sensor_graph(n, 6, 1)))
        offset = float(spectrum.eigenvalues.max()) + 0.1
        W = build_variation_operator(spectrum, SpectralResponse(-1.0, offset)).whitener
        assert np.argmax(W.values) == n - 1
        self._check(W, 32, seed=1)

    def test_identity_tie_compares_nuclear_norms(self):
        """With d constant every K-frame of the right size is optimal, so
        only the nuclear norm is compared, never the matrix."""
        self._check(_identity(16), 4, seed=0)


class TestTruncatedRows:
    """The loop runs on the ``ROWS_PER_SAMPLE * K`` rows of largest scale."""

    @pytest.mark.parametrize("case", ["random-40", "variation-64"])
    def test_design_in_span_of_kept_columns(self, case):
        """After 5 iterations, far from the optimum: a loop on all n rows
        would still carry the start's other components."""
        kind, n = case.rsplit("-", 1)
        n = int(n)
        W = _random_whitener(n, seed=n) if kind == "random" else _whitener(n, seed=n)
        K = n // 8
        cfg = DesignConfig(epsilon=default_radius(n, K), seed=1, max_iter=5)
        design = design_sampling_operator(W, K, cfg)
        S = design.matrix
        Q_m = _kept_columns(W, K)
        assert Q_m.shape == (n, 2 * K)
        assert np.linalg.norm(S - Q_m @ (Q_m.T @ S)) <= 1e-12 * np.linalg.norm(S)

    def test_reconstruction_matches_all_rows(self, monkeypatch):
        """m = 2K and m = n from one seed reconstruct a GMRF signal to 1e-4
        relative; the two differ by 3e-6 here, while the distance of either
        to the closed-form reconstruction is of order 5e-4."""
        n, K = 256, 32
        g = random_sensor_graph(n, 6, 0)
        spectrum = eigendecompose(laplacian(g))
        vo = build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))
        x = gmrf_signal(spectrum, 0.1, 100)
        cfg = DesignConfig(epsilon=default_radius(n, K), seed=7)

        def reconstruct():
            S = design_sampling_operator(vo.whitener, K, cfg).matrix
            return build_pipeline(vo, S).reconstruct(sample(S, x))

        truncated = reconstruct()
        monkeypatch.setattr(design_module, "ROWS_PER_SAMPLE", n)
        full = reconstruct()
        assert np.linalg.norm(truncated - full) <= 1e-4 * np.linalg.norm(full)


def test_readme_library_example(capsys):
    """The README's library example runs as written and prints a finite MSE."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["design"].converged
    assert not namespace["pipeline"].used_pseudo_inverse
    assert 0.0 < float(capsys.readouterr().out) < 1.0
