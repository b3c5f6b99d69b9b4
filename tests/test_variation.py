"""Variation operator assembly, whitening factor, their identities, and the
sparse operator against the spectral one."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import dense_laplacian, dense_operator, dense_whitener

from graphsamp import (
    DesignConfig,
    Graph,
    SpectralResponse,
    build_pipeline,
    build_variation_operator,
    default_radius,
    design_sampling_operator,
    eigendecompose,
    laplacian,
    random_sensor_graph,
    save_graph,
    save_matrix,
    save_signal,
)
from graphsamp import variation
from graphsamp.cli import main
from graphsamp.variation import (
    VariationOperator,
    _check_response,
    _largest_eigenvalue,
    build_sparse_variation_operator,
)


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
        assert vo.values.min() > 0.0


class TestBuildVariationOperator:
    def test_p2_response_eigenvalues(self):
        """Spectrum (0, 2) with lam + 0.1 gives operator values (0.1, 2.1), in
        the spectrum's order."""
        spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        vo = build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))
        np.testing.assert_allclose(vo.values, [0.1, 2.1], atol=1e-12)
        direct = np.sort(np.linalg.svd(dense_operator(vo), compute_uv=False))
        np.testing.assert_allclose(direct, [0.1, 2.1], atol=1e-12)

    def test_identity_response_gives_identity(self):
        """Constant response 1 on a spectrum with identity eigenvectors."""
        spectrum = eigendecompose(np.diag([1.0, 2.0, 3.0]))
        vo = build_variation_operator(spectrum, SpectralResponse(0.0, 1.0))
        np.testing.assert_allclose(dense_operator(vo), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(dense_whitener(vo.whitener), np.eye(3), atol=1e-12)

    def test_nonpositive_response_rejected(self):
        """lam + 0 is zero at the Laplacian DC mode, so the operator is singular."""
        spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(ValueError, match="positive"):
            build_variation_operator(spectrum, SpectralResponse(1.0, 0.0))
        with pytest.raises(ValueError, match="positive"):
            build_variation_operator(spectrum, SpectralResponse(1.0, -5.0))

    def test_values_in_spectrum_order(self):
        """Values follow the spectrum's ascending eigenvalues: ascending for a
        positive slope, descending for a negative one."""
        spectrum, vo = _sensor_operator(24, seed=3)
        assert np.all(np.diff(vo.values) >= 0.0)
        falling = build_variation_operator(spectrum, SpectralResponse(-0.01, 10.0))
        assert np.all(np.diff(falling.values) <= 0.0)
        assert falling.basis is vo.basis

    def test_matrix_symmetric(self):
        _, vo = _sensor_operator(24, seed=5)
        F = dense_operator(vo)
        assert np.max(np.abs(F - F.T)) <= 1e-10 * vo.values.max()

    def test_svd_factors_rebuild_matrix(self):
        """The factors rebuild ``L + 0.1 I``, the affine response of the Laplacian."""
        lap = laplacian(random_sensor_graph(20, 6, seed=7))
        vo = build_variation_operator(eigendecompose(lap), SpectralResponse(1.0, 0.1))
        rebuilt = (vo.basis * vo.values) @ vo.basis.T
        assert np.max(np.abs(rebuilt - dense_operator(vo))) <= 1e-8 * vo.values.max()
        assert np.max(np.abs(rebuilt - (lap.toarray() + 0.1 * np.eye(20)))) <= 1e-8 * vo.values.max()


class TestWhitener:
    def test_gram_identity_against_dense_inverse(self):
        """(AS)^T (AS) equals S^T inv(F^T F) S computed by a dense-inverse oracle."""
        _, vo = _sensor_operator(16, seed=1)
        rng = np.random.RandomState(0)
        S = rng.randn(16, 5)
        AS = dense_whitener(vo.whitener) @ S
        lhs = AS.T @ AS
        F = dense_operator(vo)
        gram_inv = np.linalg.inv(F.T @ F)
        rhs = S.T @ gram_inv @ S
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * scale

    def test_whiten_matches_triple_loop(self):
        """Naive O(n^3) oracle of ``diag(1 / values) basis.T @ S`` from the spectral factors."""
        _, vo = _sensor_operator(8, seed=2)
        rng = np.random.RandomState(1)
        S = rng.randn(8, 3)
        V, sigma = vo.basis, vo.values
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
        """Scales are ``1 / values`` in the operator's order; the basis is
        ``basis`` itself, not a copy."""
        _, vo = _sensor_operator(16, seed=9)
        w = vo.whitener
        np.testing.assert_array_equal(w.values, 1.0 / vo.values)
        assert w.basis is vo.basis

    @pytest.mark.parametrize(
        "scales, basis, message",
        [
            ([1.0, 2.0, 3.0], np.eye(4), "shapes"),
            ([1.0, 2.0], np.ones((2, 3)), "shapes"),
            ([[1.0, 2.0]], np.eye(2), "shapes"),
            ([1.0, -2.0, 3.0], np.eye(3), "value 1 must be positive"),
            ([1.0, 2.0, np.inf], np.eye(3), "value 2 must be positive and finite"),
            ([np.nan, 2.0, 3.0], np.eye(3), "value 0 must be positive and finite"),
        ],
    )
    def test_invalid_factors_rejected(self, scales, basis, message):
        with pytest.raises(ValueError, match=message):
            VariationOperator(np.asarray(scales), basis)

    def test_solve_dimension_mismatch(self):
        _, vo = _sensor_operator(8, seed=2)
        with pytest.raises(ValueError, match="rows"):
            vo.solve(np.zeros((9, 2)))

    @pytest.mark.parametrize("B", [np.float64(1.0), np.zeros((8, 2, 1))], ids=["0-d", "3-d"])
    def test_solve_refuses_other_than_one_or_two_dims(self, B):
        _, vo = _sensor_operator(8, seed=2)
        message = re.escape(f"expected 8 rows, got shape {np.shape(B)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            vo.solve(B)

    def test_solve_matches_dense_inverse(self):
        _, vo = _sensor_operator(16, seed=4)
        rng = np.random.RandomState(3)
        B = rng.randn(16, 4)
        expected = np.linalg.inv(dense_operator(vo)) @ B
        np.testing.assert_allclose(vo.solve(B), expected, rtol=1e-8, atol=1e-10)


class TestSmoothnessIdentities:
    def test_parseval_energy(self):
        """||Fx||^2 equals the response-weighted spectral energy."""
        spectrum, vo = _sensor_operator(20, seed=6)
        F = dense_operator(vo)
        rng = np.random.RandomState(5)
        for _ in range(10):
            x = rng.randn(20)
            lhs = float(np.linalg.norm(F @ x) ** 2)
            coef = spectrum.eigenvectors.T @ x
            rhs = float(np.sum((spectrum.eigenvalues + 0.1) ** 2 * coef**2))
            assert abs(lhs - rhs) <= 1e-8 * rhs

    def test_rank_equivalence_full_and_deficient(self):
        """smallest sigma(AS) and smallest |eig| of S^T inv(F*F) S cross the
        rank threshold together."""
        _, vo = _sensor_operator(12, seed=8)
        F = dense_operator(vo)
        gram_inv = np.linalg.inv(F.T @ F)
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


class TestSharedBasis:
    def test_operator_is_a_view_of_its_spectrum(self):
        """The basis is the spectrum's eigenvector array, shared with the
        whitener, and the values are the response on each eigenvalue."""
        spectrum, vo = _sensor_operator(32, seed=11)
        assert vo.basis is spectrum.eigenvectors
        assert vo.whitener.basis is vo.basis
        np.testing.assert_array_equal(vo.values, SpectralResponse()(spectrum.eigenvalues))

    def test_design_input_is_the_inverse(self):
        """F is read as the prior's precision, but the design still reads
        ``vo.whitener = F^-1``: its values are bit for bit 1/r(λ) on the
        spectrum's basis, and a design from it is byte for byte the design
        from that inverse built by hand."""
        spectrum, vo = _sensor_operator(48, seed=13)
        by_hand = VariationOperator(1.0 / SpectralResponse()(spectrum.eigenvalues), spectrum.eigenvectors)
        np.testing.assert_array_equal(vo.whitener.values, by_hand.values)
        cfg = DesignConfig(epsilon=default_radius(48, 6), seed=2)
        designed = design_sampling_operator(vo.whitener, 6, cfg).matrix
        assert designed.tobytes() == design_sampling_operator(by_hand, 6, cfg).matrix.tobytes()

    def test_build_allocates_no_square_array(self):
        """Building the operator at n=512 peaks below one n x n float array:
        the basis is shared, not copied."""
        n = 512
        spectrum = eigendecompose(laplacian(random_sensor_graph(n, 6, seed=0)))
        tracemalloc.start()
        try:
            build_variation_operator(spectrum, SpectralResponse())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


class TestSparseLaplacian:
    @pytest.mark.parametrize("n", [2, 24, 256])
    def test_matches_dense_laplacian(self, n):
        g = random_sensor_graph(n, min(6, n - 1), seed=n)
        lap = laplacian(g)
        assert lap.format == "csc"
        np.testing.assert_allclose(lap.toarray(), dense_laplacian(g), rtol=0, atol=1e-14)
        assert (lap - lap.T).count_nonzero() == 0


class TestSparseVariationOperator:
    @pytest.mark.parametrize("n", [24, 256, 1024])
    @pytest.mark.parametrize("slope, offset", [(1.0, 0.1), (-0.01, 10.0), (1.0, 1e-6)])
    def test_solve_gram_matches_spectral(self, n, slope, offset):
        """The one sparse solve with F agrees with the spectral solve. At
        offset 1e-6 cond(F) is about 1e7 and the measured gap 2.2e-10 to
        3.7e-10, below cond(F) * eps, so the tolerance is 10 cond(F) eps
        there and 1e-12 elsewhere."""
        g = random_sensor_graph(n, 6, seed=n)
        response = SpectralResponse(slope, offset)
        vo = build_variation_operator(eigendecompose(laplacian(g)), response)
        sparse = build_sparse_variation_operator(laplacian(g), response)
        assert sparse.shape == (n, n)
        B = np.random.default_rng(n).standard_normal((n, 8))
        expected = vo.solve(B)
        gap = np.linalg.norm(sparse.solve(B) - expected) / np.linalg.norm(expected)
        cond = vo.values.max() / vo.values.min()
        assert gap <= max(1e-12, 10.0 * cond * np.finfo(float).eps)

    def test_solve_vector(self):
        g = random_sensor_graph(16, 6, seed=4)
        sparse = build_sparse_variation_operator(laplacian(g), SpectralResponse())
        vo = build_variation_operator(eigendecompose(laplacian(g)), SpectralResponse())
        b = np.arange(16.0)
        np.testing.assert_allclose(sparse.solve(b), vo.solve(b), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 256])
    def test_largest_eigenvalue_matches_eigh(self, n):
        """ARPACK's λ_max from the fixed start; a 1 x 1 matrix is its own."""
        g = random_sensor_graph(n, min(6, n - 1), seed=n) if n > 1 else Graph(1, [], [])
        expected = eigendecompose(laplacian(g)).eigenvalues[-1]
        assert abs(_largest_eigenvalue(laplacian(g)) - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize(
        "slope, offset, message",
        [
            (1.0, 0.0, "positive on the whole spectrum"),
            (-1.0, 0.1, "positive on the whole spectrum"),  # F indefinite; LU would factor it
            (1.0, 1e-13, "numerically singular"),
        ],
    )
    @pytest.mark.parametrize("route", ["spectral", "sparse", "reconstruct"])
    def test_same_rejection_on_every_route(self, route, slope, offset, message, tmp_path, capsys):
        """The spectral builder, the sparse builder and ``graphsamp
        reconstruct`` reject each response with the same message. The path
        graph on two vertices has spectrum {0, 2} exactly."""
        g = Graph(2, [(0, 1)], [1.0])
        response = SpectralResponse(slope, offset)
        if route == "spectral":
            with pytest.raises(ValueError, match=message):
                build_variation_operator(eigendecompose(laplacian(g)), response)
        elif route == "sparse":
            with pytest.raises(ValueError, match=message):
                build_sparse_variation_operator(laplacian(g), response)
        else:
            save_graph(g, tmp_path / "g.txt")
            save_matrix(np.array([[1.0], [0.5]]), tmp_path / "S.txt")
            save_signal(np.array([0.3, -0.2]), tmp_path / "x.txt")
            rc = main(
                ["reconstruct", "--graph", str(tmp_path / "g.txt"),
                 "--sampling", str(tmp_path / "S.txt"), "--signal", str(tmp_path / "x.txt"),
                 "--out-dir", str(tmp_path / "out"),
                 f"--response-slope={slope}", f"--response-offset={offset}"]
            )
            assert rc == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1])  # eigh's λ_0: +1.4e-15, -7.0e-17
    def test_zero_offset_named_whatever_the_sign_of_lambda_0(self, seed):
        """A zero offset is rejected at λ = 0 itself, not at the rounded λ_0
        that ``eigh`` returns, so both builders name it alike on both seeds."""
        g = random_sensor_graph(24, 6, seed)
        response = SpectralResponse(1.0, 0.0)
        message = r"^spectral response must be positive on the whole spectrum \(min value 0\)$"
        with pytest.raises(ValueError, match=message):
            build_variation_operator(eigendecompose(laplacian(g)), response)
        with pytest.raises(ValueError, match=message):
            build_sparse_variation_operator(laplacian(g), response)

    def test_build_and_pipeline_allocate_no_square_array(self):
        """Laplacian, factor and pipeline at n=1024, K=128 peak below one n x n
        float array (2.1 MB measured). SuperLU allocates its factors in C,
        outside tracemalloc's view; they hold about 20 000 entries here."""
        n = 1024
        g = random_sensor_graph(n, 6, seed=0)
        S = np.random.default_rng(0).standard_normal((n, 128))
        tracemalloc.start()
        try:
            sparse = build_sparse_variation_operator(laplacian(g), SpectralResponse())
            build_pipeline(sparse, S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


def _refusal(check):
    """The message of the ValueError that ``check()`` raises, or None."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestResponseBound:
    """``build_sparse_variation_operator`` checks the response at the
    Gershgorin bound ``2 * max weighted degree`` first and asks ARPACK for
    λ_max only when that check refuses."""

    def test_default_reconstruct_runs_no_arpack(self, monkeypatch, tmp_path, capsys):
        g = random_sensor_graph(64, 6, seed=0)
        save_graph(g, tmp_path / "g.txt")
        save_matrix(np.random.default_rng(0).standard_normal((64, 8)), tmp_path / "S.txt")
        save_signal(np.random.default_rng(1).standard_normal(64), tmp_path / "x.txt")
        def refuse(lap):
            raise AssertionError("ARPACK ran")

        monkeypatch.setattr(variation, "_largest_eigenvalue", refuse)
        rc = main(
            ["reconstruct", "--graph", str(tmp_path / "g.txt"),
             "--sampling", str(tmp_path / "S.txt"), "--signal", str(tmp_path / "x.txt"),
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "x_hat.txt").exists()

    def test_zero_between_lambda_max_and_bound_accepted(self, monkeypatch):
        """``r(λ) = z - λ`` with λ_max < z < bound is positive on the
        spectrum though not at the bound: ARPACK runs and accepts it."""
        g = random_sensor_graph(64, 6, seed=1)
        lap = laplacian(g)
        spectrum = eigendecompose(lap)
        lam_max = spectrum.eigenvalues[-1]
        bound = float(abs(lap).sum(axis=0).max())
        assert lam_max < bound
        response = SpectralResponse(-1.0, 0.5 * (lam_max + bound))
        calls = []

        def spy(matrix):
            calls.append(matrix.shape)
            return _largest_eigenvalue(matrix)

        monkeypatch.setattr(variation, "_largest_eigenvalue", spy)
        sparse = build_sparse_variation_operator(lap, response)
        assert calls == [(64, 64)]
        B = np.random.default_rng(2).standard_normal((64, 3))
        expected = build_variation_operator(spectrum, response).solve(B)
        np.testing.assert_allclose(sparse.solve(B), expected, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["negative", "singular"])
    def test_refusal_names_lambda_max(self, kind):
        """A response refused at the bound and at λ_max gets the message of
        the λ_max check, not of the bound, byte for byte."""
        g = random_sensor_graph(24, 6, seed=24)
        lap = laplacian(g)
        lam_max = eigendecompose(lap).eigenvalues[-1]
        bound = float(abs(lap).sum(axis=0).max())
        if kind == "negative":
            response = SpectralResponse(-1.0, 0.1)
            expected = f"spectral response must be positive on the whole spectrum (min value {0.1 - lam_max:g})"
            assert f"{0.1 - bound:g}" not in expected
        else:  # r(λ_max) about 1e-13 r(0)
            response = SpectralResponse(-1.0, lam_max * (1.0 + 1e-13))
            expected = "variation operator is numerically singular"
        assert _refusal(lambda: build_sparse_variation_operator(lap, response)) == expected

    def test_subnormal_response_refused(self):
        """A response positive on the spectrum but subnormal somewhere makes
        F too imprecise to factor (an exact zero pivot): both builders refuse it."""
        lap = laplacian(random_sensor_graph(3, 2, seed=0))
        response = SpectralResponse(5e-324, 5e-324)
        expected = "variation operator is numerically singular"
        assert _refusal(lambda: build_sparse_variation_operator(lap, response)) == expected
        assert _refusal(lambda: build_variation_operator(eigendecompose(lap), response)) == expected

    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**16),
        slope=st.floats(-4.0, 4.0),
        offset=st.floats(-2.0, 40.0),
    )
    @example(n=64, seed=1, slope=-1.0, offset=12.0)  # zero between λ_max 7.94 and bound 14.2
    @example(n=3, seed=0, slope=5e-324, offset=5e-324)  # subnormal F: an exact zero pivot
    @settings(max_examples=150, deadline=None)
    def test_same_decision_as_lambda_max_rule(self, n, seed, slope, offset):
        """Accepted or refused, and with which message, exactly as the checks
        at ARPACK's λ_max alone decide."""
        lap = laplacian(random_sensor_graph(n, min(6, n - 1), seed))
        response = SpectralResponse(slope, offset)
        want = _refusal(lambda: _check_response(response, _largest_eigenvalue(lap)))
        assert _refusal(lambda: build_sparse_variation_operator(lap, response)) == want
