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
per value. A matrix body, a flat run of tokens, is read by
``np.fromstring(body, sep=" ")``. Each line block (a graph's ``coords``
and edges, a signal's values) is read by one helper: one ``np.loadtxt``
of the stripped lines into a record per line, whose field count numpy
checks (an edge's two indices are ``intp``, so none is rounded). A pass
misses where it raises ValueError or warns, or, in a matrix, finds the
wrong entry count or a non-finite value. A matrix body with the wrong
token count is refused with that count; any other miss is read again by
one line loop, which takes a matrix body as one token per line. The loop
reads token by token with ``int()`` and ``float()``, which accept more
than numpy does (``1_0``, ``٣``, ints beyond int64) and raise the error
the file gets, naming its line, token or non-finite value. So either
pass gives the same bits and the same message.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .design import SamplingDesign
from .graphs import Graph
from .seeds import _count, _naming


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value (nan or inf)")
    return values


def save_graph(graph: Graph, path) -> None:
    lines = [f"n {graph.num_vertices}"]
    if graph.coordinates is not None:
        lines.append("coords")
        lines.extend(f"{x!r} {y!r}" for x, y in graph.coordinates.tolist())
    for (u, v), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        lines.append(f"{u} {v} {w!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# a line of each block as a record, one field per run of tokens of one type;
# edge indices are integers, so none is rounded
_COORDS = np.dtype([("xy", float, (2,))])
_EDGE = np.dtype([("uv", np.intp, (2,)), ("w", float, (1,))])
_VALUE = np.dtype([("v", float, (1,))])


def load_graph(path) -> Graph:
    with _naming(path):
        count, lines = _headed_lines(path, "graph", "num_vertices")
        n = _count("header vertex count", count)
        pos = 1
        coords = None
        if pos < len(lines) and lines[pos] == "coords":
            pos += 1
            if len(lines) < pos + n:
                raise ValueError(f"coords block needs {n} lines")
            coords = _read_block(lines[pos : pos + n], _COORDS, "coords")["xy"]
            pos += n
        edges = _read_block(lines[pos:], _EDGE, "edge")
        return Graph(n, edges["uv"], edges["w"][:, 0], coords)


def _headed_lines(path, kind: str, count: str) -> tuple[int, list[str]]:
    """The stripped non-blank lines of a ``kind`` file, the first of them the
    header ``n <count>``, and the header's integer."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"empty {kind} file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError(f"expected header 'n <{count}>', got {lines[0]!r}")
    return int(header[1]), lines


def _read_block(lines: list[str], dtype: np.dtype, kind: str | None) -> np.ndarray:
    """``lines`` as records of ``dtype``: one ``np.loadtxt`` pass, or on a
    miss a line loop that raises the error of the first bad line.

    The loop splits a line into tokens (with ``kind`` None the whole line
    is its one token), refuses a wrong token count as ``bad <kind> line``
    and reads each field's run with ``int()`` or ``float()``. A run is
    stored before the next is read, so an index beyond ``intp`` is refused
    before a bad weight on its line.
    """
    rows = _c_pass(np.loadtxt, lines, dtype=dtype, comments=None, ndmin=1)
    if rows is not None:
        return rows
    rows = np.empty(len(lines), dtype)
    fields = [(rows[name], int if rows[name].dtype.kind == "i" else float) for name in dtype.names]
    width = sum(column.shape[1] for column, _ in fields)
    for i, ln in enumerate(lines):
        tokens = ln.split() if kind else [ln]
        if len(tokens) != width:
            raise ValueError(f"bad {kind} line {ln!r}")
        for column, parse in fields:
            column[i] = [parse(tok) for tok in tokens[: column.shape[1]]]
            tokens = tokens[column.shape[1] :]
    return rows


def save_matrix(matrix: np.ndarray, path) -> None:
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = M.shape
    lines = [f"{rows} {cols}"] + [" ".join(map(repr, row)) for row in M.tolist()]
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
            tokens = body.split()
            if len(tokens) != rows * cols:
                raise ValueError(
                    f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                    f"found {len(tokens)}"
                )
            values = _finite(_read_block(tokens, _VALUE, None)["v"][:, 0])
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


def save_signal(x: np.ndarray, path) -> None:
    values = np.asarray(x, dtype=float).ravel()
    lines = [f"n {values.size}", *map(repr, values.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def load_signal(path) -> np.ndarray:
    with _naming(path):
        length, lines = _headed_lines(path, "signal", "len")
        if length < 0:
            raise ValueError(f"header '{lines[0]}' has a negative length")
        if len(lines) - 1 != length:
            raise ValueError(f"expected {length} values, found {len(lines) - 1}")
        return _finite(_read_block(lines[1:], _VALUE, None)["v"][:, 0])


def save_trace_csv(design: SamplingDesign, path) -> None:
    nucs = np.asarray(design.nuclear_norms, dtype=float).tolist()
    steps = np.asarray(design.step_norms, dtype=float).tolist()
    lines = ["iter,nuclear_norm,step_norm"]
    lines += [f"{i},{nuc!r},{step!r}" for i, (nuc, step) in enumerate(zip(nucs, steps))]
    Path(path).write_text("\n".join(lines) + "\n")
