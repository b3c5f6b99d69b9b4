"""Graph construction, Laplacian, and eigendecomposition checks.

Ground truth:
- Path graph P2: Laplacian [[1,-1],[-1,1]], spectrum {0, 2}.
- Diagonal matrices: spectrum read off the diagonal.
- Any Laplacian: zero row sums, PSD, constant null vector.
- k-NN selection: a per-vertex ``lexsort`` loop, kept here as the reference.
"""

import numpy as np
import pytest

from graphsamp import Graph, eigendecompose, laplacian, random_sensor_graph
from graphsamp.graphs import _nearest_neighbours


def _distances(points):
    delta = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=2))


def _reference_neighbours(dist, k):
    """Per vertex: sort by (distance, index), skip itself, keep the first k."""
    n = dist.shape[0]
    index = np.arange(n)
    picked = []
    for u in range(n):
        order = [v for v in np.lexsort((index, dist[u])) if v != u]
        picked.append(order[:k])
    return np.array(picked)


def _reference_edges(points, k):
    """Edge list of the sensor graph on ``points``, built pair by pair."""
    dist = _distances(points)
    nbrs = _reference_neighbours(dist, k)
    pairs = sorted({(min(u, v), max(u, v)) for u in range(len(points)) for v in nbrs[u]})
    sigma = float(np.mean([dist[u, v] for u in range(len(points)) for v in nbrs[u]]))
    return [(u, v, float(np.exp(-dist[u, v] ** 2 / (2.0 * sigma**2)))) for u, v in pairs]


class TestGraphValidation:
    def test_valid_two_vertex_graph(self):
        g = Graph(2, [(0, 1, 1.0)])
        assert g.num_vertices == 2
        assert g.edges == [(0, 1, 1.0)]

    def test_edges_canonicalized(self):
        """Edges are stored as (min, max, w) sorted by vertex pair."""
        g = Graph(3, [(2, 1, 0.5), (1, 0, 2.0)])
        assert g.edges == [(0, 1, 2.0), (1, 2, 0.5)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Graph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError, match="weight"):
            Graph(2, [(0, 1, -1.0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2, 1.0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_bad_coordinate_shape_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            Graph(2, [(0, 1, 1.0)], coordinates=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Graph(2, [(0, 1, 1.0)], coordinates=np.array([[0.0, 0.0], [bad, 1.0]]))

    def test_weight_matrix_symmetric(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
        W = g.weight_matrix()
        np.testing.assert_array_equal(W, W.T)
        assert W[0, 1] == 2.0 and W[1, 2] == 0.5 and W[0, 2] == 0.0


class TestRandomSensorGraph:
    def test_benchmark_scale_graph(self):
        """n=256, k=6 produces a connected graph with unit-square coordinates."""
        g = random_sensor_graph(256, 6, seed=1)
        assert g.num_vertices == 256
        assert g.coordinates.shape == (256, 2)
        assert np.all((g.coordinates >= 0.0) & (g.coordinates <= 1.0))
        weights = np.array([w for _, _, w in g.edges])
        assert np.all(weights > 0.0) and np.all(weights <= 1.0)

    def test_two_vertices_single_edge(self):
        """Only one topology exists on two vertices."""
        g = random_sensor_graph(2, 1, seed=123)
        assert [(u, v) for u, v, _ in g.edges] == [(0, 1)]

    def test_deterministic(self):
        """Identical seeds give bit-identical graphs."""
        a = random_sensor_graph(64, 6, seed=9)
        b = random_sensor_graph(64, 6, seed=9)
        assert a.edges == b.edges
        np.testing.assert_array_equal(a.coordinates, b.coordinates)

    def test_seed_changes_graph(self):
        a = random_sensor_graph(64, 6, seed=1)
        b = random_sensor_graph(64, 6, seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("n,k", [(16, 3), (32, 4), (64, 6), (256, 6), (20, 19)])
    def test_matches_per_vertex_reference(self, n, k):
        """Same edge set as the per-vertex lexsort loop; weights to rtol 1e-14."""
        for seed in range(3):
            g = random_sensor_graph(n, k, seed=seed)
            expected = _reference_edges(g.coordinates, k)
            assert [(u, v) for u, v, _ in g.edges] == [(u, v) for u, v, _ in expected]
            np.testing.assert_allclose(
                [w for _, _, w in g.edges], [w for _, _, w in expected], rtol=1e-14, atol=0
            )

    @pytest.mark.parametrize("k", [1, 3, 4, 8, 15])
    def test_lattice_ties_break_by_lowest_index(self, k):
        """On a 4x4 grid most distances tie exactly; the order must match the reference."""
        grid = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float) / 4
        dist = _distances(grid)
        expected = _reference_neighbours(dist, k)
        np.testing.assert_array_equal(_nearest_neighbours(dist, k), expected)

    def test_coincident_points_keep_lowest_index_first(self):
        points = np.array([[0.5, 0.5], [0.5, 0.5], [0.1, 0.1], [0.5, 0.5]])
        dist = _distances(points)
        expected = _reference_neighbours(dist, 2)
        np.testing.assert_array_equal(_nearest_neighbours(dist, 2), expected)
        np.testing.assert_array_equal(expected[3], [0, 1])

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_sensor_graph(1, 1, seed=0)
        with pytest.raises(ValueError):
            random_sensor_graph(8, 8, seed=0)
        with pytest.raises(ValueError):
            random_sensor_graph(8, 0, seed=0)


class TestLaplacian:
    def test_path_graph_p2(self):
        """P2 with unit weight: [[1,-1],[-1,1]] by definition."""
        L = laplacian(Graph(2, [(0, 1, 1.0)]))
        np.testing.assert_array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_vanish(self):
        g = random_sensor_graph(48, 5, seed=4)
        L = laplacian(g)
        ones = np.ones(48)
        scale = np.max(np.diag(L))
        assert np.max(np.abs(L @ ones)) <= 1e-12 * scale

    def test_positive_semidefinite(self):
        """Eigendecomposition oracle: smallest eigenvalue 0, constant eigenvector."""
        g = random_sensor_graph(32, 6, seed=2)
        spectrum = eigendecompose(laplacian(g))
        lam_max = spectrum.eigenvalues[-1]
        assert spectrum.eigenvalues[0] >= -1e-10 * lam_max
        assert abs(spectrum.eigenvalues[0]) <= 1e-10 * lam_max
        constant = np.full(32, 1.0 / np.sqrt(32))
        np.testing.assert_allclose(np.abs(spectrum.eigenvectors[:, 0]), constant, atol=1e-8)


class TestEigendecompose:
    def test_p2_spectrum(self):
        """Known P2 spectrum {0, 2}."""
        spectrum = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_diagonal_matrix(self):
        """diag(3,1,2) sorts to (1,2,3) with permutation eigenvectors."""
        spectrum = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
        np.testing.assert_allclose(spectrum.eigenvectors, expected, atol=1e-12)

    def test_reconstruction_residual(self):
        g = random_sensor_graph(16, 4, seed=3)
        L = laplacian(g)
        spectrum = eigendecompose(L)
        rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T
        lam_max = spectrum.eigenvalues[-1]
        assert np.max(np.abs(rebuilt - L)) <= 1e-8 * lam_max

    def test_orthonormal_eigenvectors(self):
        g = random_sensor_graph(24, 5, seed=6)
        U = eigendecompose(laplacian(g)).eigenvectors
        assert np.max(np.abs(U.T @ U - np.eye(24))) <= 1e-8

    def test_sign_convention(self):
        """Largest-magnitude entry of every eigenvector is positive."""
        g = random_sensor_graph(24, 5, seed=8)
        U = eigendecompose(laplacian(g)).eigenvectors
        lead = np.argmax(np.abs(U), axis=0)
        assert np.all(U[lead, np.arange(24)] > 0.0)

    def test_reproducible(self):
        L = laplacian(random_sensor_graph(24, 5, seed=12))
        a = eigendecompose(L)
        b = eigendecompose(L)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.zeros((2, 3)))
