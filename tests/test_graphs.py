"""Graph construction, Laplacian, and eigendecomposition checks.

Ground truth:
- Path graph P2: Laplacian [[1,-1],[-1,1]], spectrum {0, 2}.
- Diagonal matrices: spectrum read off the diagonal.
- Any Laplacian: zero row sums, PSD, constant null vector.
- k-NN selection: a per-vertex ``lexsort`` loop, kept here as the reference.
- Edge validation: the per-edge loop ``Graph`` used before its edges were
  arrays, kept here as the reference.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsamp import Graph, eigendecompose, laplacian, random_sensor_graph
from graphsamp.graphs import _nearest_neighbours


def _reference_graph(n, edges):
    """Canonical ``(u, v, w)`` list of an edge list, validated one edge at a time.

    Raises the ValueError ``Graph`` raises, for the first offending edge in
    input order; connectivity is checked by an independent union-find.
    """
    canonical = []
    seen = set()
    for u, v, w in edges:
        w = float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self loop at vertex {u}")
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError(f"edge ({u}, {v}) weight must be positive and finite, got {w}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        canonical.append((key[0], key[1], w))
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v, _ in canonical:
        root[find(u)] = find(v)
    if len({find(x) for x in range(n)}) != 1:
        raise ValueError("graph is not connected")
    return sorted(canonical)


@st.composite
def _edge_lists(draw):
    """n <= 12 and edge lists mixing valid edges with every fault.

    An optional spanning path, its pairs reversed at random, makes many
    lists connected; random extra edges bring self loops and duplicates;
    injected faults add out-of-range indices, weights of 0, -1, inf or
    nan, self loops and reversed duplicates at random positions.
    """
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    edges = []
    if draw(st.booleans()):
        for v in range(n - 1):
            pair = (v + 1, v) if draw(st.booleans()) else (v, v + 1)
            edges.append((*pair, draw(weight)))
    edges += draw(st.lists(st.tuples(vertex, vertex, weight), max_size=4))
    faults = st.sampled_from(["range", "weight", "loop", "repeat"])
    for fault in draw(st.lists(faults, max_size=2)):
        u, v, w = draw(vertex), draw(vertex), draw(weight)
        if fault == "range":
            v = draw(st.sampled_from([-1, n]))
        elif fault == "weight":
            w = draw(st.sampled_from([0.0, -1.0, np.inf, np.nan]))
        elif fault == "loop":
            v = u
        elif edges:
            v, u, _ = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), (u, v, w))
    return n, edges


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
        g = Graph(2, [(0, 1)], [1.0])
        assert g.num_vertices == 2
        assert g.edges.tolist() == [[0, 1]] and g.weights.tolist() == [1.0]

    def test_edges_canonicalized(self):
        """Edges are stored as (min, max) pairs sorted by vertex pair."""
        g = Graph(3, [(2, 1), (1, 0)], [0.5, 2.0])
        assert g.edges.tolist() == [[0, 1], [1, 2]] and g.weights.tolist() == [2.0, 0.5]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(2, [(0, 0), (0, 1)], [1.0, 1.0])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)], [1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        for w in [0.0, -1.0, np.inf, np.nan]:
            with pytest.raises(ValueError, match="weight"):
                Graph(2, [(0, 1)], [w])
        message = r"^edge \(0, 1\) weight must be positive and finite, got inf$"
        with pytest.raises(ValueError, match=message):
            Graph(2, [(0, 1)], [np.inf])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)], [1.0])

    @pytest.mark.parametrize("edge", [(0.7, 1), (0, 1.0), ("0", 1), (False, True)])
    def test_non_integer_vertex_index_rejected(self, edge):
        """An index is never truncated or parsed: (0.7, 1) is not edge (0, 1).
        Nor is an edge of bools, which numpy stores with a bool dtype."""
        with pytest.raises(ValueError, match=r"non-integer vertex index"):
            Graph(2, [edge], [1.0])

    @pytest.mark.parametrize("n", [2.0, "2", 0])
    def test_bad_vertex_count_rejected(self, n):
        with pytest.raises(ValueError, match=r"^num_vertices must be"):
            Graph(n, [(0, 1)], [1.0])

    def test_numpy_vertex_count_stored_as_int(self):
        assert type(Graph(np.int64(2), [(0, 1)], [1.0]).num_vertices) is int

    def test_numpy_integer_indices_accepted(self):
        for edges in [[(np.int64(1), np.int32(0))], np.array([[1, 0]], dtype=np.uint32)]:
            g = Graph(2, edges, [1.0])
            assert g.edges.tolist() == [[0, 1]]
            assert g.edges.dtype == np.intp

    def test_non_integer_index_names_its_edge(self):
        """A float anywhere makes the whole array float; the message still
        names the edge that holds it, not the first edge."""
        message = r"^edge \(1, 2\.5\) has a non-integer vertex index"
        with pytest.raises(ValueError, match=message):
            Graph(3, [(0, 1), (1, 2.5)], [1.0, 1.0])

    def test_index_beyond_int64_out_of_range(self):
        """numpy stores 2**63 as a float; it is still an integer, out of range."""
        with pytest.raises(ValueError, match=rf"^edge \(0, {2**63}\) out of range for 2"):
            Graph(2, [(0, 2**63)], [1.0])

    def test_edge_and_weight_counts_must_match(self):
        with pytest.raises(ValueError, match=r"^got 2 edges but weights of shape \(1,\)$"):
            Graph(3, [(0, 1), (1, 2)], [1.0])

    def test_single_vertex_without_edges(self):
        """``[]`` is float64 under ``np.asarray``; an empty edge list still passes."""
        g = Graph(1, [], [])
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.intp
        assert g.weights.shape == (0,)
        np.testing.assert_array_equal(laplacian(g), [[0.0]])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph(4, [(0, 1), (2, 3)], [1.0, 1.0])

    def test_too_few_edges_rejected_before_any_vertex_sized_array(self):
        """m < n - 1 edges cannot connect n vertices, so a vertex count of 10**6
        with one edge is refused before any array of n entries is built."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^graph is not connected$"):
                Graph(10**6, [(0, 1)], [1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_bad_coordinate_shape_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            Graph(2, [(0, 1)], [1.0], coordinates=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [bad, 1.0]]))

    def test_weight_matrix_symmetric(self):
        """The off-diagonal of the Laplacian is minus the symmetric weight matrix."""
        g = Graph(3, [(0, 1), (1, 2)], [2.0, 0.5])
        L = laplacian(g)
        W = np.diag(np.diag(L)) - L
        np.testing.assert_array_equal(W, W.T)
        assert W[0, 1] == 2.0 and W[1, 2] == 0.5 and W[0, 2] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(case=_edge_lists())
    def test_matches_per_edge_reference(self, case):
        """Accepts exactly what the per-edge loop accepts, stores the same
        canonical pairs and weights, and otherwise raises the same error."""
        n, edges = case
        try:
            expected = _reference_graph(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                Graph(n, [(u, v) for u, v, _ in edges], [w for *_, w in edges])
            assert str(raised.value) == str(exc)
            return
        g = Graph(n, [(u, v) for u, v, _ in edges], [w for *_, w in edges])
        assert g.edges.tolist() == [[u, v] for u, v, _ in expected]
        assert g.weights.tolist() == [w for *_, w in expected]


class TestRandomSensorGraph:
    def test_benchmark_scale_graph(self):
        """n=256, k=6 produces a connected graph with unit-square coordinates."""
        g = random_sensor_graph(256, 6, seed=1)
        assert g.num_vertices == 256
        assert g.coordinates.shape == (256, 2)
        assert np.all((g.coordinates >= 0.0) & (g.coordinates <= 1.0))
        assert np.all(g.weights > 0.0) and np.all(g.weights <= 1.0)

    def test_two_vertices_single_edge(self):
        """Only one topology exists on two vertices."""
        g = random_sensor_graph(2, 1, seed=123)
        assert g.edges.tolist() == [[0, 1]]

    def test_deterministic(self):
        """Identical seeds give bit-identical graphs."""
        a = random_sensor_graph(64, 6, seed=9)
        b = random_sensor_graph(64, 6, seed=9)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)

    def test_seed_changes_graph(self):
        a = random_sensor_graph(64, 6, seed=1)
        b = random_sensor_graph(64, 6, seed=2)
        assert not np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("n,k", [(16, 3), (32, 4), (64, 6), (256, 6), (20, 19)])
    def test_matches_per_vertex_reference(self, n, k):
        """Same edge set as the per-vertex lexsort loop; weights to rtol 1e-14."""
        for seed in range(3):
            g = random_sensor_graph(n, k, seed=seed)
            expected = _reference_edges(g.coordinates, k)
            assert g.edges.tolist() == [[u, v] for u, v, _ in expected]
            np.testing.assert_allclose(
                g.weights, [w for _, _, w in expected], rtol=1e-14, atol=0
            )

    @pytest.mark.parametrize("k", [1, 3, 4, 8, 15])
    def test_lattice_ties_break_by_lowest_index(self, k):
        """On a 4x4 grid most distances tie exactly; the order must match the reference."""
        grid = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float) / 4
        dist = _distances(grid)
        expected = _reference_neighbours(dist, k)
        np.testing.assert_array_equal(_nearest_neighbours(dist, k), expected)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 13, 59])
    def test_matches_stable_argsort_with_many_ties(self, k):
        """Integer points on a 6x6 grid, some coincident: many rows tie at the k-th
        distance and take the fallback, the rest the partition, and both must give
        the stable row sort's first k columns in the same order."""
        points = np.random.default_rng(4).integers(0, 6, size=(60, 2)).astype(float)
        dist = _distances(points)
        expected = dist.copy()
        np.fill_diagonal(expected, np.inf)
        expected = np.argsort(expected, axis=1, kind="stable")[:, :k]
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
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            random_sensor_graph(16.0, 2, seed=0)
        with pytest.raises(ValueError, match=r"^k must be an integer"):
            random_sensor_graph(16, 2.5, seed=0)
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            random_sensor_graph(16, 2, seed=0.5)
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            random_sensor_graph(16, 2, seed=-1)


class TestLaplacian:
    def test_path_graph_p2(self):
        """P2 with unit weight: [[1,-1],[-1,1]] by definition."""
        L = laplacian(Graph(2, [(0, 1)], [1.0]))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        """NaN passes the symmetry comparison, so it is checked on its own."""
        M = np.eye(3)
        M[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eigendecompose(M)
