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

A matrix body is parsed in one C pass, ``np.fromstring(body, sep=" ")``,
which makes no Python object per entry. Where that pass stops at text it
cannot read, finds the wrong entry count or reads a non-finite value,
the body is read again with one ``float()`` per token, which accepts what
``float()`` accepts (``1_0``) and raises the same error, naming the count,
the token or the non-finite value.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .design import SamplingDesign
from .graphs import Graph
from .seeds import _naming


def _fmt(value: float) -> str:
    return repr(float(value))


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
        parts = Path(path).read_text().split(None, 2)
        if len(parts) < 2:
            raise ValueError("expected '<rows> <cols>' header")
        rows, cols = int(parts[0]), int(parts[1])
        if rows < 0 or cols < 0:
            raise ValueError(f"header '{parts[0]} {parts[1]}' has a negative dimension")
        # split() leaves no whitespace-only body: it is absent or starts with a token
        body = parts[2] if len(parts) == 3 else ""
        values = _parse_floats(body)
        if values is None or values.size != rows * cols or not np.all(np.isfinite(values)):
            values = _parse_tokens(body, rows, cols)
        return values.reshape(rows, cols)


def _parse_floats(body: str) -> np.ndarray | None:
    """The whitespace-separated decimals of ``body`` in one C pass, or None
    where it stops at text it cannot read.

    numpy 2 raises ValueError there; older numpy warns with a
    DeprecationWarning and returns the values before it.
    """
    if not body:
        # not np.fromstring's to read: it reads some blank strings as [-1.]
        return np.empty(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(body, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _parse_tokens(body: str, rows: int, cols: int) -> np.ndarray:
    """``body`` read token by token with ``float()``, which also takes what
    numpy does not (``1_0``); its errors name the entry count, the first bad
    token or a non-finite value."""
    tokens = body.split()
    if len(tokens) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
            f"found {len(tokens)}"
        )
    return _finite(np.array([float(tok) for tok in tokens]))


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
        if length < 0:
            raise ValueError(f"header '{lines[0]}' has a negative length")
        if len(lines) - 1 != length:
            raise ValueError(f"expected {length} values, found {len(lines) - 1}")
        return _finite(np.array([float(ln) for ln in lines[1:]]))


def save_trace_csv(design: SamplingDesign, path) -> None:
    lines = ["iter,nuclear_norm,step_norm"]
    for i, (nuc, step) in enumerate(zip(design.nuclear_norms, design.step_norms)):
        lines.append(f"{i},{_fmt(nuc)},{_fmt(step)}")
    Path(path).write_text("\n".join(lines) + "\n")
