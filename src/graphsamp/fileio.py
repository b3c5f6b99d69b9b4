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

Each block of numbers is read in one C pass that makes no Python object
per value: a matrix body by ``np.fromstring(body, sep=" ")``; a graph's
``coords`` block, its edge block (a structured row of two ``intp``
indices and a float weight, so no index is rounded) and a signal's
values by one ``np.loadtxt`` each, on the stripped lines. A pass misses
where it raises ValueError, warns, or finds the wrong number of columns
or entries (or, in a matrix, a non-finite value). The block is then read
again token by token with ``int()`` and ``float()``, which accept more
than numpy does (``1_0``, ``٣``, ints beyond int64) and raise the error
the file gets, naming its line, entry count, token or non-finite value.
So either pass gives the same bits and the same message.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .design import SamplingDesign
from .graphs import Graph
from .seeds import _count, _naming


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


# an edge line as np.loadtxt reads it: integer indices, so none is rounded
_EDGE_ROW = np.dtype([("u", np.intp), ("v", np.intp), ("w", float)])


def load_graph(path) -> Graph:
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
            block = lines[pos : pos + n]
            coords = _c_pass(np.loadtxt, block, comments=None, ndmin=2)
            if coords is None or coords.shape[1] != 2:
                coords = _parse_coords(block)
            pos += n
        block = lines[pos:]
        rows = _c_pass(np.loadtxt, block, dtype=_EDGE_ROW, comments=None, ndmin=1)
        if rows is None:
            pairs, weights = _parse_edges(block)
        else:
            pairs, weights = np.column_stack((rows["u"], rows["v"])), rows["w"]
        return Graph(n, pairs, weights, coords)


def _parse_coords(block: list[str]) -> np.ndarray:
    """The ``coords`` block read line by line; errors name the first bad line."""
    coords = []
    for ln in block:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad coords line {ln!r}")
        coords.append((float(parts[0]), float(parts[1])))
    return np.array(coords)


def _parse_edges(block: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The edge block read line by line; errors name the first bad line."""
    pairs = np.empty((len(block), 2), dtype=np.intp)
    weights = np.empty(len(block))
    for i, ln in enumerate(block):
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {ln!r}")
        pairs[i] = int(parts[0]), int(parts[1])
        weights[i] = float(parts[2])
    return pairs, weights


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
        # not np.fromstring's to read: it reads some blank strings as [-1.]
        values = _c_pass(np.fromstring, body, sep=" ") if body else np.empty(0)
        if values is None or values.size != rows * cols or not np.all(np.isfinite(values)):
            values = _parse_tokens(body, rows, cols)
        return values.reshape(rows, cols)


def _c_pass(parse, *args, **kwargs) -> np.ndarray | None:
    """``parse(*args, **kwargs)``, a numpy parse of text in one C pass, or
    None where it raises ValueError or warns.

    Every warning is a miss: numpy before 2 warns where ``np.fromstring``
    stops at text it cannot read and returns the values before it, and
    where ``np.loadtxt`` reads an integer field such as ``1.0`` through
    float; ``np.loadtxt`` warns of input with no lines.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse(*args, **kwargs)
        except (ValueError, Warning):
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
        values = _c_pass(np.loadtxt, lines[1:], comments=None, ndmin=2)
        if values is None or values.shape[1] != 1:
            values = np.array([float(ln) for ln in lines[1:]])
        return _finite(values.ravel())


def save_trace_csv(design: SamplingDesign, path) -> None:
    lines = ["iter,nuclear_norm,step_norm"]
    for i, (nuc, step) in enumerate(zip(design.nuclear_norms, design.step_norms)):
        lines.append(f"{i},{_fmt(nuc)},{_fmt(step)}")
    Path(path).write_text("\n".join(lines) + "\n")
