"""Static SVG rendering of a signal on an embedded graph."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .graphs import Graph

_CANVAS = 600.0
_MARGIN = 24.0
_VERTEX_RADIUS = 5.0

# diverging endpoints: blue through near-white to red
_LOW = (59, 76, 192)
_MID = (247, 247, 247)
_HIGH = (180, 4, 38)


def render_signal_svg(graph: Graph, values: np.ndarray, path) -> None:
    """Write an SVG with vertices coloured by signal value.

    The colour map is a linear diverging blue/white/red ramp over
    [min(values), max(values)]; a constant signal maps every vertex to
    the white midpoint. Edges render as grey lines beneath the vertex
    circles, with graph coordinates scaled into the canvas and the
    y-axis flipped to SVG conventions. The text is joined from strings,
    one element per edge and per vertex, in the layout
    ``xml.etree.ElementTree`` writes with an XML declaration.

    Raises:
        ValueError: if the graph has no coordinates, or the signal's
            length does not match the vertex count, it has a non-finite
            value or its range overflows.
    """
    if graph.coordinates is None:
        raise ValueError("graph has no coordinates to render")
    x = np.asarray(values, dtype=float).ravel()
    if x.size != graph.num_vertices:
        raise ValueError(
            f"signal length {x.size} does not match {graph.num_vertices} vertices"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("signal has a non-finite value (nan or inf)")
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span == math.inf:
        raise ValueError(f"signal range [{lo:g}, {hi:g}] is wider than a float holds")
    pos = _MARGIN + np.asarray(graph.coordinates) * (_CANVAS - 2.0 * _MARGIN)
    pos[:, 1] = _CANVAS - pos[:, 1]
    xy = [f"{c:.2f}" for c in pos.ravel().tolist()]
    xs, ys = xy[0::2], xy[1::2]
    lines = [
        f'<line x1="{xs[u]}" y1="{ys[u]}" x2="{xs[v]}" y2="{ys[v]}" />'
        for u, v in graph.edges.tolist()
    ]
    size = str(int(_CANVAS))
    edge_group = '<g stroke="#999999" stroke-width="1"'
    parts = [
        "<?xml version='1.0' encoding='UTF-8'?>\n",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"{edge_group}>{''.join(lines)}</g>" if lines else f"{edge_group} />",
        '<g stroke="#333333" stroke-width="0.5">',
    ]
    radius = str(_VERTEX_RADIUS)
    parts += [
        f'<circle cx="{a}" cy="{b}" r="{radius}" fill="{fill}" />'
        for a, b, fill in zip(xs, ys, _diverging_colors(x, lo, span))
    ]
    parts.append("</g></svg>")
    Path(path).write_text("".join(parts), encoding="utf-8")


def _diverging_colors(x: np.ndarray, lo: float, span: float) -> list[str]:
    """``#rrggbb`` of each value on the ramp: ``low + (mid - low) * 2t`` up to
    the midpoint t = 1/2, ``mid + (high - mid) * (2t - 1)`` above it, each
    channel rounded half to even."""
    t = (np.full(x.shape, 0.5) if span == 0.0 else (x - lo) / span)[:, None]
    low, mid, high = (np.array(c, dtype=float) for c in (_LOW, _MID, _HIGH))
    rgb = np.where(
        t <= 0.5, low + (mid - low) * (2.0 * t), mid + (high - mid) * (2.0 * t - 1.0)
    )
    return [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in np.rint(rgb).astype(int).tolist()]
