"""Weighted undirected graphs, combinatorial Laplacians, and their spectra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .seeds import _UINT64_MASK, _count, _integer, _neighbour_count, _seed, _vertex_count

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix

MAX_PLACEMENT_ATTEMPTS = 50
_DISCONNECTED = "graph is not connected"


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected weighted undirected graph.

    ``edges`` is an m×2 ``intp`` array of vertex pairs with u < v, rows
    sorted by pair, and ``weights`` the m edge weights in that order.
    Construction checks integer indices, bounds, self loops, duplicates,
    positive finite weights, one weight per edge and connectivity, naming
    the first offending edge in input order.
    """

    num_vertices: int
    edges: np.ndarray
    weights: np.ndarray
    coordinates: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = _count("num_vertices", self.num_vertices)
        object.__setattr__(self, "num_vertices", n)
        pairs = np.asarray(self.edges) if len(self.edges) else np.empty((0, 2), np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be an m×2 array of pairs, got shape {pairs.shape}")
        if pairs.dtype.kind not in "iu":
            raise ValueError(_index_fault(self.edges, n))
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(pairs),):
            raise ValueError(f"got {len(pairs)} edges but weights of shape {weights.shape}")
        lo, hi = np.sort(pairs, axis=1).T
        out_of_range = (lo < 0) | (hi >= n)
        bad_weight = ~(np.isfinite(weights) & (weights > 0.0))
        order = np.lexsort((hi, lo))
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
        bad = out_of_range | (lo == hi) | bad_weight | repeat
        if bad.any():
            i = int(np.argmax(bad))
            (a, b), w = pairs[i].tolist(), float(weights[i])
            if out_of_range[i]:
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
            if a == b:
                raise ValueError(f"self loop at vertex {a}")
            if bad_weight[i]:
                raise ValueError(f"edge ({a}, {b}) weight must be positive and finite, got {w}")
            raise ValueError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
        object.__setattr__(self, "edges", np.column_stack((lo, hi))[order].astype(np.intp))
        object.__setattr__(self, "weights", weights[order])
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=float)
            if coords.shape != (n, 2):
                raise ValueError(f"coordinates must have shape ({n}, 2), got {coords.shape}")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, "coordinates", coords)
        # fewer than n - 1 edges cannot connect n vertices: refused before any n-sized array
        if len(self.edges) < n - 1 or _component_count(n, self.edges) != 1:
            raise ValueError(_DISCONNECTED)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; the
    matrix is orthonormal and each column's sign is fixed so that its
    largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _index_fault(edges, n: int) -> str:
    """Why numpy gave ``edges`` no integer dtype: the first edge, in input order, with a
    non-integer or out-of-range index, or else (bools, an object array) the first edge."""
    for u, v in edges:
        name = f"edge ({u!r}, {v!r}) has a non-integer vertex index; each index"
        try:
            if not (0 <= _integer(name, u) < n and 0 <= _integer(name, v) < n):
                return f"edge ({u}, {v}) out of range for {n} vertices"
        except ValueError as exc:
            return str(exc)
    return f"edge {tuple(edges[0])} has a non-integer vertex index ({np.asarray(edges).dtype})"


def _component_count(n: int, pairs: np.ndarray) -> int:
    """Number of connected components of the graph on n vertices with edges ``pairs``.

    Min-label hooking with pointer jumping, in numpy: each round every root
    hooks to the smallest root it shares an edge with, if that is smaller,
    and labels then jump to their roots. Hooks point only to smaller
    labels, so the pointers form a forest and the loop ends. Hooking to the
    smallest neighbour, not to any, takes a star whose centre has the
    largest index two rounds, not one per leaf. ``scipy.sparse.csgraph``
    would load scipy's sparse solvers and ``scipy.linalg`` into every
    process.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        a, b = label[pairs[:, 0]], label[pairs[:, 1]]
        differ = a != b
        if not differ.any():
            return int(np.count_nonzero(label == np.arange(n)))
        a, b = a[differ], b[differ]
        # sorted by (larger root, smaller root): the first of each run is the smallest
        hi, lo = np.divmod(np.sort(np.maximum(a, b) * n + np.minimum(a, b)), n)
        first = np.concatenate(([True], hi[1:] != hi[:-1]))
        label[hi[first]] = lo[first]
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _nearest_neighbours(dist: np.ndarray, k: int) -> np.ndarray:
    """Each vertex's k nearest other vertices, nearest first, ties by lowest index.

    Sets the diagonal of ``dist`` to infinity in place, which places each
    vertex after all others, so no row has to drop its own index. Each row
    partitions off its k + 1 nearest: when the k-th of them is strictly
    nearer than the (k+1)-th, the first k are the row's k nearest and only
    they are sorted, by (distance, index); a row with a tie there takes the
    stable sort of the whole row. Either way the result equals
    ``np.argsort(dist, axis=1, kind="stable")[:, :k]``.
    """
    np.fill_diagonal(dist, np.inf)
    rows = np.arange(dist.shape[0])[:, None]
    part = np.argpartition(dist, k, axis=1)[:, : k + 1]
    part[:, :k].sort(axis=1)
    near = dist[rows, part]
    order = np.argsort(near[:, :k], axis=1, kind="stable")
    chosen = part[rows, order]
    tied = np.flatnonzero(near[:, :k].max(axis=1) >= near[:, k])
    if tied.size:
        chosen[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return chosen


def random_sensor_graph(n: int, k: int, seed: int) -> Graph:
    """Random k-nearest-neighbour sensor graph on the unit square.

    Places n vertices uniformly at random in [0, 1]^2, links each vertex
    to its k nearest Euclidean neighbours (ties broken by lowest index),
    and keeps an edge when either endpoint selected the other. Weights
    follow a Gaussian kernel exp(-d^2 / (2 sigma^2)) with sigma the mean
    of all n*k nearest-neighbour distances. Disconnected placements are
    resampled with seed + attempt, up to MAX_PLACEMENT_ATTEMPTS.

    Raises:
        ValueError: naming a non-integer n or k, a bad seed, or a bad range.
        RuntimeError: if no connected placement is found, which signals
            pathological (n, k).
    """
    n = _vertex_count("n", n)
    k, seed = _neighbour_count("k", k, n), _seed("seed", seed)
    for attempt in range(MAX_PLACEMENT_ATTEMPTS):
        rng = np.random.default_rng((seed + attempt) & _UINT64_MASK)
        points = rng.random((n, 2))
        x, y = points.T
        dist = np.sqrt((x[:, None] - x) ** 2 + (y[:, None] - y) ** 2)
        rows = np.repeat(np.arange(n), k)
        cols = _nearest_neighbours(dist, k).ravel()
        sigma = float(np.mean(dist[rows, cols]))
        if sigma <= 0.0:
            continue  # coincident placement; resample
        keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
        pairs = np.column_stack(np.divmod(keys, n))
        weights = np.exp(-dist[pairs[:, 0], pairs[:, 1]] ** 2 / (2.0 * sigma**2))
        try:  # the constructor counts components once; resample a disconnected placement
            return Graph(n, pairs, weights, points)
        except ValueError as exc:
            if str(exc) != _DISCONNECTED:
                raise
    raise RuntimeError(
        f"failed to draw a connected sensor graph in {MAX_PLACEMENT_ATTEMPTS} "
        f"attempts (n={n}, k={k}); parameters look pathological"
    )


def laplacian(graph: Graph) -> csc_matrix:
    """Combinatorial Laplacian, degree matrix minus weight matrix, as a sparse
    CSC matrix with no n x n array.

    Degrees are ``np.bincount`` sums of the edge weights. The matrix is
    symmetric, so it is also its own CSR transpose.
    """
    from scipy.sparse import coo_matrix  # scipy loads only where a sparse matrix is built

    n = graph.num_vertices
    u, v = graph.edges.T
    w = graph.weights
    degrees = np.bincount(u, w, n) + np.bincount(v, w, n)
    diagonal = np.arange(n)
    rows = np.concatenate((u, v, diagonal))
    cols = np.concatenate((v, u, diagonal))
    data = np.concatenate((-w, -w, degrees))
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()


def _real_csc(matrix, name: str) -> csc_matrix:
    """``matrix`` as a float CSC matrix. Complex input is refused by name:
    the float conversion would drop its imaginary part with only a warning."""
    from scipy.sparse import csc_matrix  # scipy loads only where a sparse matrix is built

    dtype = matrix.dtype if hasattr(matrix, "dtype") else np.asarray(matrix).dtype
    if dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex dtype {dtype}")
    return csc_matrix(matrix, dtype=float)


def eigendecompose(matrix) -> Spectrum:
    """Full spectral decomposition of a symmetric matrix, read as CSC.

    The finite and symmetry checks read only the nonzeros, and ``eigh``
    gets the one n x n copy of the matrix, so set-up peaks at 3 n x n
    arrays. Eigenvalues ascend with orthonormal eigenvectors, each signed
    in place so its largest-magnitude entry (lowest index on ties) is positive.

    Raises:
        ValueError: if the input is not a non-empty square matrix, real,
            finite and symmetric.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {shape}")
    A = _real_csc(matrix, "matrix")
    if not np.all(np.isfinite(A.data)):
        raise ValueError("matrix has a non-finite entry (nan or inf)")
    scale = float(np.max(np.abs(A.data), initial=1.0))
    if abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    eigenvalues, vectors = np.linalg.eigh(A.toarray())
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[lead, np.arange(shape[0])] < 0.0, -1.0, 1.0)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=vectors)
