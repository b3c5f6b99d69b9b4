"""Static SVG rendering of a signal on an embedded graph."""

from __future__ import annotations

import xml.etree.ElementTree as ET
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


def _blend(c0, c1, t):
    return tuple(int(round(a + (b - a) * t)) for a, b in zip(c0, c1))


def _diverging_color(t: float) -> str:
    if t <= 0.5:
        r, g, b = _blend(_LOW, _MID, 2.0 * t)
    else:
        r, g, b = _blend(_MID, _HIGH, 2.0 * t - 1.0)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_signal_svg(graph: Graph, values: np.ndarray, path) -> None:
    """Write an SVG with vertices coloured by signal value.

    The colour map is a linear diverging blue/white/red ramp over
    [min(values), max(values)]; a constant signal maps every vertex to
    the white midpoint. Edges render as grey lines beneath the vertex
    circles, with graph coordinates scaled into the canvas and the
    y-axis flipped to SVG conventions.

    Raises:
        ValueError: if the graph has no coordinates, or the signal's
            length does not match the vertex count or it has a
            non-finite value.
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
