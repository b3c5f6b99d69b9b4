"""Reconstruction pipeline against analytic cases and the KKT oracle."""

import math

import numpy as np
import pytest
from helpers import dense_laplacian, dense_operator
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsamp import (
    SpectralResponse,
    build_pipeline,
    build_variation_operator,
    eigendecompose,
    kkt_reconstruct,
    laplacian,
    random_sensor_graph,
    sample,
)
from graphsamp.reconstruct import INV_TOL
from graphsamp.variation import build_sparse_variation_operator


def _identity_operator(n):
    spectrum = eigendecompose(np.diag(np.arange(1.0, n + 1.0)))
    return build_variation_operator(spectrum, SpectralResponse(0.0, 1.0))


def _sensor_operator(n, seed):
    g = random_sensor_graph(n, min(6, n - 1), seed)
    spectrum = eigendecompose(laplacian(g))
    return build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))


def _selection(n, columns):
    S = np.zeros((n, len(columns)))
    S[list(columns), np.arange(len(columns))] = 1.0
    return S


class TestBuildPipeline:
    def test_identity_operator_with_selection(self):
        """F = I and vertex selection: Q = S, correction = I."""
        vo = _identity_operator(5)
        S = _selection(5, (0, 2, 4))
        p = build_pipeline(vo, S)
        np.testing.assert_allclose(p.prior_matrix, S, atol=1e-12)
        np.testing.assert_allclose(p.correction, np.eye(3), atol=1e-12)
        assert not p.used_pseudo_inverse

    def test_duplicate_columns_fall_back_to_pseudo_inverse(self):
        vo = _sensor_operator(12, seed=0)
        rng = np.random.RandomState(0)
        S = rng.randn(12, 4)
        S[:, 3] = S[:, 0]
        p = build_pipeline(vo, S)
        assert p.used_pseudo_inverse
        expected = np.linalg.pinv(S.T @ p.prior_matrix, rcond=INV_TOL)
        scale = np.abs(expected).max()
        np.testing.assert_allclose(p.correction, expected, rtol=1e-8, atol=1e-12 * scale)

    def test_prior_matrix_matches_dense_inverse(self):
        """Dense inverse oracle for ``F^-1 S 2^-e``, F the prior's precision
        and ``2^e`` the power of two that puts S's largest entry in [1, 2)."""
        vo = _sensor_operator(16, seed=1)
        rng = np.random.RandomState(1)
        S = rng.randn(16, 5)
        e = math.frexp(np.abs(S).max())[1] - 1
        expected = np.linalg.inv(dense_operator(vo)) @ np.ldexp(S, -e)
        p = build_pipeline(vo, S)
        np.testing.assert_allclose(p.prior_matrix, expected, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sampling_matrix_rejected(self, bad):
        vo = _sensor_operator(12, seed=2)
        S = np.random.RandomState(2).randn(12, 3)
        S[4, 1] = bad
        with pytest.raises(ValueError, match="sampling matrix has non-finite"):
            build_pipeline(vo, S)

    def test_correction_inverts_product(self):
        vo = _sensor_operator(12, seed=3)
        S = np.random.RandomState(3).randn(12, 4)
        p = build_pipeline(vo, S)
        product = S.T @ p.prior_matrix
        assert np.max(np.abs(p.correction @ product - np.eye(4))) <= 1e-6

    def test_shape_mismatch_rejected(self):
        vo = _sensor_operator(12, seed=4)
        with pytest.raises(ValueError, match="rows"):
            build_pipeline(vo, np.zeros((11, 3)))
        lap = laplacian(random_sensor_graph(12, 6, seed=4))
        sparse = build_sparse_variation_operator(lap, SpectralResponse(1.0, 0.1))
        with pytest.raises(ValueError, match="rows"):
            build_pipeline(sparse, np.zeros((11, 3)))

    def test_no_columns_rejected(self):
        """A 12 x 0 sampling matrix takes no samples; it is refused by shape,
        not left to fail inside the correction's SVD."""
        vo = _sensor_operator(12, seed=4)
        with pytest.raises(ValueError, match=r"at least one column, got shape \(12, 0\)"):
            build_pipeline(vo, np.zeros((12, 0)))


def _scaled_estimate(vo, S, x, k):
    """The pipeline of ``S 2^k`` applied to that matrix's samples of x."""
    scaled = np.ldexp(S, k)
    p = build_pipeline(vo, scaled)
    assert not p.used_pseudo_inverse
    np.testing.assert_array_equal(p.sampling_matrix, scaled)
    return p.reconstruct(sample(scaled, x))


class TestUnitScale:
    """The pipeline is built on S divided by the power of two that puts its
    largest entry in [1, 2), so the estimate does not depend on S's scale.
    Formed at S's own scale, ``S.T F^-1 S`` underflowed at 2**-531 (a NaN
    estimate) and overflowed at 2**531."""

    @pytest.mark.parametrize("k", [-1000, -531, 531, 1000])
    @pytest.mark.parametrize("route", ["spectral", "sparse"])
    def test_power_of_two_scale(self, route, k):
        """Bit-identical on the spectral route; within 1e-12 on the sparse one."""
        g = random_sensor_graph(24, 6, seed=13)
        response = SpectralResponse(1.0, 0.1)
        if route == "spectral":
            vo = build_variation_operator(eigendecompose(laplacian(g)), response)
        else:
            vo = build_sparse_variation_operator(laplacian(g), response)
        rng = np.random.default_rng(13)
        S, x = rng.standard_normal((24, 5)), rng.standard_normal(24)
        base = _scaled_estimate(vo, S, x, 0)
        got = _scaled_estimate(vo, S, x, k)
        if route == "spectral":
            np.testing.assert_array_equal(got, base)
        else:
            assert np.linalg.norm(got - base) <= 1e-12 * np.linalg.norm(base)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_any_power_of_two(self, k):
        vo = _sensor_operator(16, seed=14)
        rng = np.random.default_rng(14)
        S, x = rng.standard_normal((16, 4)), rng.standard_normal(16)
        np.testing.assert_array_equal(
            _scaled_estimate(vo, S, x, k), _scaled_estimate(vo, S, x, 0)
        )


class TestMatchedPrior:
    """At slope 1 and offset eta, F = L + eta I is the GMRF signal's
    precision, so the pipeline is the conditional mean
    ``Sigma S (S.T Sigma S)^-1 c`` with ``Sigma = (L + eta I)^-1``."""

    @pytest.mark.parametrize("route", ["spectral", "sparse"])
    def test_pipeline_is_gmrf_conditional_mean(self, route):
        n, eta = 24, 0.1
        g = random_sensor_graph(n, 6, seed=3)
        response = SpectralResponse(1.0, eta)
        if route == "spectral":
            vo = build_variation_operator(eigendecompose(laplacian(g)), response)
        else:
            vo = build_sparse_variation_operator(laplacian(g), response)
        sigma = np.linalg.inv(dense_laplacian(g) + eta * np.eye(n))
        rng = np.random.default_rng(3)
        for S in (rng.standard_normal((n, 5)), _selection(n, (0, 5, 11, 17, 23))):
            c = rng.standard_normal(5)
            expected = sigma @ S @ np.linalg.solve(S.T @ sigma @ S, c)
            got = build_pipeline(vo, S).reconstruct(c)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def _pinv_case(kind, n, rng):
    if kind == "full_rank":
        return rng.standard_normal((n, 5))
    if kind == "duplicate_column":
        S = rng.standard_normal((n, 5))
        S[:, 4] = S[:, 1]
        return S
    if kind == "near_duplicate":  # smallest eigenvalue of S.T Q 2e-12 of the largest
        S = rng.standard_normal((n, 5))
        S[:, 4] = S[:, 1] + 1e-5 * rng.standard_normal(n)
        return S
    if kind == "rank_two":
        return rng.standard_normal((n, 2)) @ rng.standard_normal((2, 5))
    return np.zeros((n, 5))


class TestCorrectionAgainstPinv:
    """The correction from ``eigh`` of the symmetric ``S.T Q`` is
    ``np.linalg.pinv(S.T Q, rcond=INV_TOL)``, and the fallback flag is set
    exactly when that SVD cutoff drops a singular value."""

    @pytest.mark.parametrize("kind", ["full_rank", "duplicate_column", "near_duplicate", "rank_two", "zero"])
    def test_matches_pinv(self, kind):
        vo = _sensor_operator(16, seed=5)
        S = _pinv_case(kind, 16, np.random.default_rng(5))
        p = build_pipeline(vo, S)
        product = S.T @ p.prior_matrix
        expected = np.linalg.pinv(product, rcond=INV_TOL)
        s = np.linalg.svd(product, compute_uv=False)
        assert p.used_pseudo_inverse == (not np.all(s > INV_TOL * s[0])) == (kind != "full_rank")
        if kind == "zero":
            np.testing.assert_array_equal(p.correction, np.zeros((5, 5)))
        else:
            scale = np.abs(expected).max()
            np.testing.assert_allclose(p.correction, expected, rtol=1e-8, atol=1e-12 * scale)


class TestSample:
    def test_zero_signal(self):
        S = np.random.RandomState(4).randn(6, 2)
        np.testing.assert_array_equal(sample(S, np.zeros(6)), np.zeros(2))

    def test_selection_picks_entries(self):
        S = _selection(5, (1, 3))
        x = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
        np.testing.assert_array_equal(sample(S, x), [11.0, 13.0])

    def test_matches_naive_dot_oracle(self):
        rng = np.random.RandomState(5)
        S = rng.randn(7, 3)
        x = rng.randn(7)
        expected = np.array([sum(S[i, j] * x[i] for i in range(7)) for j in range(3)])
        np.testing.assert_allclose(sample(S, x), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            sample(np.zeros((4, 2)), np.zeros(5))

    def test_overflowing_samples_refused(self):
        """Finite S and x whose product overflows are refused, with no
        RuntimeWarning on the way."""
        S = np.full((4, 2), 1e150)
        with pytest.raises(ValueError, match=r"^samples S\.T @ x are not finite$"):
            sample(S, np.full(4, 1e160))


class TestReconstruct:
    def test_perfect_on_synthesis_range(self):
        """Signals in the synthesis column space reconstruct exactly."""
        vo = _sensor_operator(24, seed=5)
        rng = np.random.RandomState(6)
        S = rng.randn(24, 6)
        p = build_pipeline(vo, S)
        assert not p.used_pseudo_inverse
        for _ in range(10):
            x = p.prior_matrix @ rng.randn(6)
            x_hat = p.reconstruct(sample(S, x))
            assert np.linalg.norm(x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_zero_samples_give_zero(self):
        vo = _sensor_operator(12, seed=6)
        p = build_pipeline(vo, np.random.RandomState(7).randn(12, 3))
        np.testing.assert_array_equal(p.reconstruct(np.zeros(3)), np.zeros(12))

    def test_linearity(self):
        vo = _sensor_operator(12, seed=7)
        p = build_pipeline(vo, np.random.RandomState(8).randn(12, 4))
        rng = np.random.RandomState(9)
        c1, c2 = rng.randn(4), rng.randn(4)
        alpha = 3.5
        combined = p.reconstruct(alpha * c1 + c2)
        split = alpha * p.reconstruct(c1) + p.reconstruct(c2)
        assert np.linalg.norm(combined - split) <= 1e-10 * max(np.linalg.norm(split), 1.0)

    def test_sample_consistency(self):
        """Error-in-sample is zero: resampling the reconstruction returns c."""
        vo = _sensor_operator(16, seed=8)
        rng = np.random.RandomState(10)
        S = rng.randn(16, 4)
        p = build_pipeline(vo, S)
        x = rng.randn(16)
        c = sample(S, x)
        c_back = sample(S, p.reconstruct(c))
        assert np.linalg.norm(c_back - c) <= 1e-6 * np.linalg.norm(c)

    def test_matches_kkt_oracle(self):
        vo = _sensor_operator(32, seed=9)
        rng = np.random.RandomState(11)
        S = rng.randn(32, 8)
        p = build_pipeline(vo, S)
        for _ in range(10):
            x = rng.randn(32)
            c = sample(S, x)
            a = p.reconstruct(c)
            b = kkt_reconstruct(vo, S, c)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

    def test_wrong_sample_count_rejected(self):
        vo = _sensor_operator(12, seed=10)
        p = build_pipeline(vo, np.random.RandomState(12).randn(12, 3))
        with pytest.raises(ValueError, match="samples"):
            p.reconstruct(np.zeros(4))


class TestKktReconstruct:
    def test_identity_operator_minimum_norm_completion(self):
        """F = I with selection sampling: sampled entries copied, rest zero."""
        vo = _identity_operator(6)
        S = _selection(6, (1, 4))
        c = np.array([2.0, -3.0])
        x = kkt_reconstruct(vo, S, c)
        expected = np.zeros(6)
        expected[1], expected[4] = 2.0, -3.0
        np.testing.assert_allclose(x, expected, atol=1e-10)

    def test_zero_samples(self):
        vo = _sensor_operator(10, seed=11)
        S = np.random.RandomState(13).randn(10, 3)
        np.testing.assert_allclose(kkt_reconstruct(vo, S, np.zeros(3)), np.zeros(10), atol=1e-12)

    def test_feasible_and_optimal_among_probes(self):
        """Constraint holds to 1e-9 and no feasible probe, near or far, has a
        smaller prior energy ``x.T F x``, F the prior's precision."""
        vo = _sensor_operator(32, seed=12)
        rng = np.random.RandomState(14)
        S = rng.randn(32, 8)
        c = rng.randn(8)
        x = kkt_reconstruct(vo, S, c)
        assert np.linalg.norm(S.T @ x - c) <= 1e-9 * np.linalg.norm(c)
        F = dense_operator(vo)
        base = x @ F @ x
        # feasible probes: x plus anything in the null space of S^T
        proj = S @ np.linalg.solve(S.T @ S, S.T)
        for step in (1.0, 1e-3):
            for _ in range(50):
                r = rng.randn(32)
                y = x + step * (r - proj @ r)
                assert np.linalg.norm(S.T @ y - c) <= 1e-8 * max(np.linalg.norm(c), 1.0)
                assert base <= y @ F @ y + 1e-12 * base

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160, 1e-300, 1e300])
    def test_matches_pipeline_far_from_unit_scale(self, scale):
        """Built on ``S 2^-e``, the oracle gives its answer for S at any
        scale of S, and the pipeline's. Assembled at S's own scale it was
        0.62 (relative) off at 1e-160 and refused 1e-300 as singular."""
        vo = _sensor_operator(64, seed=1)
        rng = np.random.RandomState(15)
        S = rng.randn(64, 8)
        S /= np.linalg.norm(S)
        x = rng.randn(64)
        base = kkt_reconstruct(vo, S, sample(S, x))
        scaled = S * scale
        c = sample(scaled, x)
        oracle = kkt_reconstruct(vo, scaled, c)
        estimate = build_pipeline(vo, scaled).reconstruct(c)
        assert np.linalg.norm(oracle - base) <= 1e-12 * np.linalg.norm(base)
        assert np.linalg.norm(estimate - oracle) <= 1e-12 * np.linalg.norm(base)

    def test_degenerate_sampling_rejected(self):
        vo = _identity_operator(4)
        S = np.zeros((4, 2))
        with pytest.raises(ValueError, match="singular|degenerate"):
            kkt_reconstruct(vo, S, np.ones(2))
