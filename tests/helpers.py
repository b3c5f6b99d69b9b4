"""Test-only oracles: nuclear norm, numerical rank, the nuclear-norm
subgradient, the sensor graph built from its n x n x 2 coordinate
differences, the dense Laplacian of a graph and its harmonic extension,
the dense matrices of a factored variation operator and of a whitener,
the line-by-line graph and signal loaders, the token-wise matrix loader
and the ``xml.etree`` renderer that the package's text paths must match
byte for byte.

The package reads none of these; the design loop takes the polar factor
through ``graphsamp.design._polar_factor``, which ``nuclear_subgradient``
wraps so the subgradient tests exercise the loop's own step.
"""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from graphsamp.design import _polar_factor
from graphsamp.fileio import _finite
from graphsamp.graphs import MAX_PLACEMENT_ATTEMPTS, Graph
from graphsamp.render import _CANVAS, _HIGH, _LOW, _MARGIN, _MID, _VERTEX_RADIUS
from graphsamp.seeds import _UINT64_MASK, _count, _naming


def nuclear_norm(M):
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)))


def numerical_rank(M, rank_tol=1e-10):
    """Count singular values above ``rank_tol`` times the largest."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def nuclear_subgradient(M):
    """The polar factor ``U @ V.T`` of M, an element of its nuclear-norm
    subdifferential; raises ValueError for the zero matrix."""
    return _polar_factor(np.asarray(M, dtype=float))[0]


def dense_sensor_graph(n, k, seed):
    """``random_sensor_graph`` by its dense definition: distances summed over
    the n x n x 2 coordinate differences, each vertex's k nearest by a stable
    sort of its whole row, and a placement ``Graph`` refuses redrawn from
    seed + attempt."""
    for attempt in range(MAX_PLACEMENT_ATTEMPTS):
        points = np.random.default_rng((seed + attempt) & _UINT64_MASK).random((n, 2))
        delta = points[:, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(delta * delta, axis=2))
        np.fill_diagonal(dist, np.inf)
        rows = np.repeat(np.arange(n), k)
        cols = np.argsort(dist, axis=1, kind="stable")[:, :k].ravel()
        sigma = float(np.mean(dist[rows, cols]))
        keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
        pairs = np.column_stack(np.divmod(keys, n))
        weights = np.exp(-dist[pairs[:, 0], pairs[:, 1]] ** 2 / (2.0 * sigma**2))
        try:
            return Graph(n, pairs, weights, points)
        except ValueError:  # not connected, or every point coincides
            continue
    raise RuntimeError(f"no connected placement in {MAX_PLACEMENT_ATTEMPTS} attempts")


def dense_laplacian(graph):
    """The n x n combinatorial Laplacian, degree matrix minus weight matrix,
    with degrees as numpy's row sums of the dense weight matrix."""
    u, v = graph.edges.T
    W = np.zeros((graph.num_vertices, graph.num_vertices))
    W[u, v] = W[v, u] = graph.weights
    return np.diag(W.sum(axis=1)) - W


def dense_harmonic_extension(L, anchors, values):
    """The signal equal to ``values`` on ``anchors`` whose Laplacian vanishes
    elsewhere, by ``np.linalg.solve`` of the dense free block."""
    n = L.shape[0]
    x = np.zeros(n)
    x[anchors] = values
    free = np.setdiff1d(np.arange(n), anchors)
    x[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, anchors)] @ values)
    return x


def dense_whitener(whitener):
    """The n x n matrix ``diag(values) @ basis.T`` of a whitener, such as
    ``vo.whitener = F^-1 = U diag(1/r(λ)) U.T``; it is F^-1 rotated on the left
    by ``U.T``, so it whitens the same prior."""
    return whitener.values[:, None] * whitener.basis.T


def dense_operator(vo):
    """The n x n matrix ``basis @ diag(values) @ basis.T`` of a ``VariationOperator``."""
    return (vo.basis * vo.values) @ vo.basis.T


def reference_load_graph(path):
    """``load_graph`` with ``int()`` and ``float()`` per token, line by line."""
    with _naming(path):
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty graph file")
        header = lines[0].split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"expected header 'n <num_vertices>', got {lines[0]!r}")
        n = _count("header vertex count", int(header[1]))
        pos = 1
        coords = None
        if pos < len(lines) and lines[pos] == "coords":
            pos += 1
            if len(lines) < pos + n:
                raise ValueError(f"coords block needs {n} lines")
            coords = []
            for ln in lines[pos : pos + n]:
                parts = ln.split()
                if len(parts) != 2:
                    raise ValueError(f"bad coords line {ln!r}")
                coords.append((float(parts[0]), float(parts[1])))
            coords = np.array(coords)
            pos += n
        pairs = np.empty((len(lines) - pos, 2), dtype=np.intp)
        weights = np.empty(len(lines) - pos)
        for i, ln in enumerate(lines[pos:]):
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"bad edge line {ln!r}")
            pairs[i] = int(parts[0]), int(parts[1])
            weights[i] = float(parts[2])
        return Graph(n, pairs, weights, coords)


def reference_load_signal(path):
    """``load_signal`` with one ``float()`` per line."""
    with _naming(path):
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty signal file")
        header = lines[0].split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"expected header 'n <len>', got {lines[0]!r}")
        length = int(header[1])
        if length < 0:
            raise ValueError(f"header '{lines[0]}' has a negative length")
        if len(lines) - 1 != length:
            raise ValueError(f"expected {length} values, found {len(lines) - 1}")
        return _finite(np.array([float(ln) for ln in lines[1:]]))


def reference_load_matrix(path):
    """``load_matrix`` as one ``float()`` per whitespace-separated token."""
    with _naming(path):
        text = Path(path).read_text().split()
        if len(text) < 2:
            raise ValueError("expected '<rows> <cols>' header")
        rows, cols = int(text[0]), int(text[1])
        if rows < 0 or cols < 0:
            raise ValueError(f"header '{text[0]} {text[1]}' has a negative dimension")
        body = text[2:]
        if len(body) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"found {len(body)}"
            )
        return _finite(np.array([float(tok) for tok in body]).reshape(rows, cols))


def _blend(c0, c1, t):
    return tuple(int(round(a + (b - a) * t)) for a, b in zip(c0, c1))


def _diverging_color(t):
    if t <= 0.5:
        r, g, b = _blend(_LOW, _MID, 2.0 * t)
    else:
        r, g, b = _blend(_MID, _HIGH, 2.0 * t - 1.0)
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_svg(graph, values, path):
    """``render_signal_svg`` as an ``xml.etree`` tree, one colour per vertex
    by Python ``round``; the caller checks the inputs."""
    x = np.asarray(values, dtype=float).ravel()
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    pos = _MARGIN + np.asarray(graph.coordinates) * (_CANVAS - 2.0 * _MARGIN)
    pos[:, 1] = _CANVAS - pos[:, 1]
    size = str(int(_CANVAS))
    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": size,
            "height": size,
            "viewBox": f"0 0 {size} {size}",
        },
    )
    edge_group = ET.SubElement(svg, "g", {"stroke": "#999999", "stroke-width": "1"})
    for u, v in graph.edges.tolist():
        ET.SubElement(
            edge_group, "line", x1=f"{pos[u, 0]:.2f}", y1=f"{pos[u, 1]:.2f}",
            x2=f"{pos[v, 0]:.2f}", y2=f"{pos[v, 1]:.2f}",
        )
    vertex_group = ET.SubElement(svg, "g", {"stroke": "#333333", "stroke-width": "0.5"})
    for i in range(graph.num_vertices):
        t = 0.5 if span == 0.0 else (x[i] - lo) / span
        ET.SubElement(
            vertex_group, "circle", cx=f"{pos[i, 0]:.2f}", cy=f"{pos[i, 1]:.2f}",
            r=str(_VERTEX_RADIUS), fill=_diverging_color(t),
        )
    ET.ElementTree(svg).write(str(Path(path)), encoding="UTF-8", xml_declaration=True)
