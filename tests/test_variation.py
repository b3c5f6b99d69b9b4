"""Variation operator assembly, whitening factor, and their identities."""

import numpy as np
import pytest
from helpers import dense_whitener

from graphsamp import (
    SpectralResponse,
    build_variation_operator,
    eigendecompose,
    laplacian,
    random_sensor_graph,
)
from graphsamp.variation import Whitener


def _sensor_operator(n, seed, slope=1.0, offset=0.1):
    g = random_sensor_graph(n, min(6, n - 1), seed)
    spectrum = eigendecompose(laplacian(g))
    return spectrum, build_variation_operator(spectrum, SpectralResponse(slope, offset))


class TestSpectralResponse:
    def test_affine_evaluation(self):
        resp = SpectralResponse(2.0, 0.5)
        np.testing.assert_allclose(resp(np.array([0.0, 1.0])), [0.5, 2.5])

    def test_default_builds_on_sensor_graph(self):
        """The default offset keeps the response away from zero at the
        Laplacian's zero eigenvalue, which eigh returns as about +-1e-16."""
        spectrum = eigendecompose(laplacian(random_sensor_graph(64, 6, seed=0)))
        assert abs(spectrum.eigenvalues[0]) < 1e-12
        vo = build_variation_operator(spectrum, SpectralResponse())
        assert vo.singular_values[-1] > 0.0


class TestBuildVariationOperator:
    def test_p2_response_eigenvalues(self):
        """Spectrum (0, 2) with lam + 0.1 gives operator singular values (2.1, 0.1)."""
        spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        vo = build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))
        np.testing.assert_allclose(vo.singular_values, [2.1, 0.1], atol=1e-12)
        direct = np.sort(np.linalg.svd(vo.matrix, compute_uv=False))[::-1]
        np.testing.assert_allclose(direct, [2.1, 0.1], atol=1e-12)

    def test_identity_response_gives_identity(self):
        """Constant response 1 on a spectrum with identity eigenvectors."""
        spectrum = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        vo = build_variation_operator(spectrum, SpectralResponse(0.0, 1.0))
        np.testing.assert_allclose(vo.matrix, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dense_whitener(vo.whitener), np.eye(3), atol=1e-12)

    def test_nonpositive_response_rejected(self):
        """lam + 0 is zero at the Laplacian DC mode, so the operator is singular."""
        spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(ValueError, match="positive"):
            build_variation_operator(spectrum, SpectralResponse(1.0, 0.0))
        with pytest.raises(ValueError, match="positive"):
            build_variation_operator(spectrum, SpectralResponse(1.0, -5.0))

    def test_singular_values_descending(self):
        _, vo = _sensor_operator(24, seed=3)
        assert np.all(np.diff(vo.singular_values) <= 0.0)

    def test_matrix_symmetric(self):
        _, vo = _sensor_operator(24, seed=5)
        sigma_max = vo.singular_values[0]
        assert np.max(np.abs(vo.matrix - vo.matrix.T)) <= 1e-10 * sigma_max

    def test_svd_factors_rebuild_matrix(self):
        _, vo = _sensor_operator(20, seed=7)
        rebuilt = (vo.singular_vectors * vo.singular_values) @ vo.singular_vectors.T
        assert np.max(np.abs(rebuilt - vo.matrix)) <= 1e-8 * vo.singular_values[0]


class TestWhitener:
    def test_gram_identity_against_dense_inverse(self):
        """(AS)^T (AS) equals S^T inv(F^T F) S computed by a dense-inverse oracle."""
        _, vo = _sensor_operator(16, seed=1)
        rng = np.random.RandomState(0)
        S = rng.randn(16, 5)
        AS = dense_whitener(vo.whitener) @ S
        lhs = AS.T @ AS
        gram_inv = np.linalg.inv(vo.matrix.T @ vo.matrix)
        rhs = S.T @ gram_inv @ S
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * scale

    def test_whiten_matches_triple_loop(self):
        """Naive O(n^3) oracle of ``diag(1 / sigma) V.T @ S`` from the spectral factors."""
        _, vo = _sensor_operator(8, seed=2)
        rng = np.random.RandomState(1)
        S = rng.randn(8, 3)
        V, sigma = vo.singular_vectors, vo.singular_values
        expected = np.zeros((8, 3))
        for i in range(8):
            for j in range(3):
                acc = 0.0
                for k in range(8):
                    acc += V[k, i] * S[k, j] / sigma[i]
                expected[i, j] = acc
        np.testing.assert_allclose(dense_whitener(vo.whitener) @ S, expected, atol=1e-10)

    def test_whiten_identity_and_zero(self):
        spectrum = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        vo = build_variation_operator(spectrum, SpectralResponse(0.0, 1.0))
        S = np.arange(6.0).reshape(3, 2)
        A = dense_whitener(vo.whitener)
        np.testing.assert_allclose(A @ S, S)
        np.testing.assert_array_equal(A @ np.zeros((3, 2)), np.zeros((3, 2)))

    def test_factors_are_the_operators_own(self):
        """Scales are ``1 / sigma`` in the operator's order; the basis is
        ``singular_vectors`` itself, not a copy."""
        _, vo = _sensor_operator(16, seed=9)
        w = vo.whitener
        np.testing.assert_array_equal(w.scales, 1.0 / vo.singular_values)
        assert w.basis is vo.singular_vectors

    @pytest.mark.parametrize(
        "scales, basis, message",
        [
            ([1.0, 2.0, 3.0], np.eye(4), "shapes"),
            ([1.0, 2.0], np.ones((2, 3)), "shapes"),
            ([[1.0, 2.0]], np.eye(2), "shapes"),
            ([1.0, -2.0, 3.0], np.eye(3), "scale 1 must be positive"),
            ([1.0, 2.0, np.inf], np.eye(3), "scale 2 must be positive and finite"),
            ([np.nan, 2.0, 3.0], np.eye(3), "scale 0 must be positive and finite"),
        ],
    )
    def test_invalid_factors_rejected(self, scales, basis, message):
        with pytest.raises(ValueError, match=message):
            Whitener(np.asarray(scales), basis)

    def test_solve_gram_dimension_mismatch(self):
        _, vo = _sensor_operator(8, seed=2)
        with pytest.raises(ValueError, match="rows"):
            vo.solve_gram(np.zeros((9, 2)))

    def test_solve_gram_matches_dense_inverse(self):
        _, vo = _sensor_operator(16, seed=4)
        rng = np.random.RandomState(3)
        B = rng.randn(16, 4)
        expected = np.linalg.inv(vo.matrix.T @ vo.matrix) @ B
        np.testing.assert_allclose(vo.solve_gram(B), expected, rtol=1e-8, atol=1e-10)


class TestSmoothnessIdentities:
    def test_parseval_energy(self):
        """||Fx||^2 equals the response-weighted spectral energy."""
        spectrum, vo = _sensor_operator(20, seed=6)
        rng = np.random.RandomState(5)
        for _ in range(10):
            x = rng.randn(20)
            lhs = float(np.linalg.norm(vo.matrix @ x) ** 2)
            coef = spectrum.eigenvectors.T @ x
            rhs = float(np.sum((spectrum.eigenvalues + 0.1) ** 2 * coef**2))
            assert abs(lhs - rhs) <= 1e-8 * rhs

    def test_rank_equivalence_full_and_deficient(self):
        """smallest sigma(AS) and smallest |eig| of S^T inv(F*F) S cross the
        rank threshold together."""
        _, vo = _sensor_operator(12, seed=8)
        gram_inv = np.linalg.inv(vo.matrix.T @ vo.matrix)
        rng = np.random.RandomState(7)
        full = rng.randn(12, 4)
        deficient = full.copy()
        deficient[:, 3] = deficient[:, 0]
        for S, expect_invertible in ((full, True), (deficient, False)):
            sv = np.linalg.svd(dense_whitener(vo.whitener) @ S, compute_uv=False)
            eigs = np.abs(np.linalg.eigvalsh(S.T @ gram_inv @ S))
            sv_ok = sv[-1] > 1e-10 * sv[0]
            eig_ok = eigs.min() > 1e-10 * eigs.max()
            assert sv_ok == eig_ok == expect_invertible
