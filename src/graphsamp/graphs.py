"""Weighted undirected graphs, combinatorial Laplacians, and their spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .seeds import _UINT64_MASK

MAX_PLACEMENT_ATTEMPTS = 50


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected weighted undirected graph.

    Edges are canonicalized to (u, v, w) with u < v and sorted by vertex
    pair. Construction validates index bounds, absence of self loops and
    duplicate pairs, strictly positive finite weights, and connectivity,
    so every instance is safe to feed to the spectral pipeline.
    """

    num_vertices: int
    edges: list[tuple[int, int, float]]
    coordinates: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"num_vertices must be a positive integer, got {n!r}")
        object.__setattr__(self, "num_vertices", int(n))
        canonical = []
        seen = set()
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not np.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canonical.append((key[0], key[1], w))
        canonical.sort()
        object.__setattr__(self, "edges", canonical)
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=float)
            if coords.shape != (n, 2):
                raise ValueError(
                    f"coordinates must have shape ({n}, 2), got {coords.shape}"
                )
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, "coordinates", coords)
        if _component_count(n, [(u, v) for u, v, _ in canonical]) != 1:
            raise ValueError("graph is not connected")

    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric matrix of edge weights."""
        W = np.zeros((self.num_vertices, self.num_vertices))
        for u, v, w in self.edges:
            W[u, v] = w
            W[v, u] = w
        return W


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; the
    matrix is orthonormal and each column's sign is fixed so that its
    largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _component_count(n: int, pairs) -> int:
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    adjacency = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    count, _ = connected_components(adjacency, directed=False)
    return int(count)


def _nearest_neighbours(dist: np.ndarray, k: int) -> np.ndarray:
    """Each vertex's k nearest other vertices, nearest first, ties by lowest index.

    Sets the diagonal of ``dist`` to infinity in place: a stable sort then
    places each vertex after all others, so no row has to drop its own index.
    """
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def random_sensor_graph(n: int, k: int, seed: int) -> Graph:
    """Random k-nearest-neighbour sensor graph on the unit square.

    Places n vertices uniformly at random in [0, 1]^2, links each vertex
    to its k nearest Euclidean neighbours (ties broken by lowest index),
    and keeps an edge when either endpoint selected the other. Weights
    follow a Gaussian kernel exp(-d^2 / (2 sigma^2)) with sigma the mean
    of all n*k nearest-neighbour distances. Disconnected placements are
    resampled with seed + attempt, up to MAX_PLACEMENT_ATTEMPTS.

    Raises:
        RuntimeError: if no connected placement is found, which signals
            pathological (n, k).
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    for attempt in range(MAX_PLACEMENT_ATTEMPTS):
        rng = np.random.default_rng((int(seed) + attempt) & _UINT64_MASK)
        points = rng.random((n, 2))
        delta = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(delta * delta, axis=2))
        del delta
        rows = np.repeat(np.arange(n), k)
        cols = _nearest_neighbours(dist, k).ravel()
        sigma = float(np.mean(dist[rows, cols]))
        if sigma <= 0.0:
            continue  # coincident placement; resample
        keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
        lo, hi = np.divmod(keys, n)
        if _component_count(n, np.column_stack((lo, hi))) != 1:
            continue
        weights = np.exp(-dist[lo, hi] ** 2 / (2.0 * sigma**2))
        edges = list(zip(lo.tolist(), hi.tolist(), weights.tolist()))
        return Graph(num_vertices=n, edges=edges, coordinates=points)
    raise RuntimeError(
        f"failed to draw a connected sensor graph in {MAX_PLACEMENT_ATTEMPTS} "
        f"attempts (n={n}, k={k}); parameters look pathological"
    )


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian: degree matrix minus weight matrix."""
    W = graph.weight_matrix()
    return np.diag(W.sum(axis=1)) - W


def eigendecompose(matrix: np.ndarray) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix.

    Eigenvalues come back ascending with orthonormal eigenvectors. Each
    eigenvector's sign is fixed deterministically: the entry of largest
    magnitude (lowest index on ties) is made positive.

    Raises:
        ValueError: if the input is not square and symmetric.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    eigenvalues, vectors = np.linalg.eigh(M)
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=vectors * signs)
