"""Plain-text serialization for graphs, matrices, signals, and design traces.

Formats are line oriented and diffable:

* graph: header ``n <num_vertices>``, optional ``coords`` block of n
  ``x y`` lines, then one ``u v w`` line per edge (0-based indices);
* matrix: header ``<rows> <cols>``, then row-major decimals;
* signal: header ``n <len>``, then one decimal per line;
* design trace: CSV with columns ``iter,nuclear_norm,step_norm``.

Floats are written with ``repr`` so every file round-trips exactly. A
loader reports every malformed or non-finite value with an error that
names the file.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .design import SamplingDesign
from .graphs import Graph


def _fmt(value: float) -> str:
    return repr(float(value))


@contextmanager
def _naming(path):
    """Re-raise a ValueError or OverflowError raised inside as a ValueError naming ``path``."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value (nan or inf)")
    return values


def save_graph(graph: Graph, path) -> None:
    lines = [f"n {graph.num_vertices}"]
    if graph.coordinates is not None:
        lines.append("coords")
        for x, y in graph.coordinates:
            lines.append(f"{_fmt(x)} {_fmt(y)}")
    for (u, v), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        lines.append(f"{u} {v} {_fmt(w)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    with _naming(path):
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty graph file")
        header = lines[0].split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"expected header 'n <num_vertices>', got {lines[0]!r}")
        n = int(header[1])
        if n < 1:
            raise ValueError(f"header vertex count must be at least 1, got {n}")
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


def save_matrix(matrix: np.ndarray, path) -> None:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = M.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(_fmt(v) for v in M[r]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
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


def save_signal(x: np.ndarray, path) -> None:
    values = np.asarray(x, dtype=float).ravel()
    lines = [f"n {values.size}"] + [_fmt(v) for v in values]
    Path(path).write_text("\n".join(lines) + "\n")


def load_signal(path) -> np.ndarray:
    with _naming(path):
        lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise ValueError("empty signal file")
        header = lines[0].split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"expected header 'n <len>', got {lines[0]!r}")
        length = int(header[1])
        if len(lines) - 1 != length:
            raise ValueError(f"expected {length} values, found {len(lines) - 1}")
        return _finite(np.array([float(ln) for ln in lines[1:]]))


def save_trace_csv(design: SamplingDesign, path) -> None:
    lines = ["iter,nuclear_norm,step_norm"]
    for i, (nuc, step) in enumerate(zip(design.nuclear_norms, design.step_norms)):
        lines.append(f"{i},{_fmt(nuc)},{_fmt(step)}")
    Path(path).write_text("\n".join(lines) + "\n")
