"""SVG rendering structure and well-formedness."""

import xml.dom.minidom

import numpy as np
import pytest

from graphsamp import Graph, random_sensor_graph, render_signal_svg


def _circles_and_lines(path):
    doc = xml.dom.minidom.parse(str(path))
    return doc.getElementsByTagName("circle"), doc.getElementsByTagName("line")


class TestRenderSignalSvg:
    def test_two_vertex_graph(self, tmp_path):
        """Exactly 2 circles and 1 line."""
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = tmp_path / "fig.svg"
        render_signal_svg(g, np.array([0.0, 1.0]), out)
        circles, lines = _circles_and_lines(out)
        assert len(circles) == 2 and len(lines) == 1

    def test_constant_signal_single_color(self, tmp_path):
        g = random_sensor_graph(12, 3, seed=0)
        out = tmp_path / "fig.svg"
        render_signal_svg(g, np.full(12, 3.5), out)
        circles, _ = _circles_and_lines(out)
        fills = {c.getAttribute("fill") for c in circles}
        assert len(fills) == 1

    def test_extremes_use_diverging_endpoints(self, tmp_path):
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = tmp_path / "fig.svg"
        render_signal_svg(g, np.array([-1.0, 1.0]), out)
        circles, _ = _circles_and_lines(out)
        fills = [c.getAttribute("fill") for c in circles]
        assert fills[0] == "#3b4cc0"  # low end: blue
        assert fills[1] == "#b40426"  # high end: red

    def test_well_formed_xml(self, tmp_path):
        g = random_sensor_graph(20, 4, seed=1)
        out = tmp_path / "fig.svg"
        render_signal_svg(g, np.random.RandomState(0).randn(20), out)
        doc = xml.dom.minidom.parse(str(out))
        assert doc.documentElement.tagName == "svg"
        circles, lines = _circles_and_lines(out)
        assert len(circles) == 20 and len(lines) == len(g.edges)

    def test_missing_coordinates_rejected(self, tmp_path):
        g = Graph(2, [(0, 1)], [1.0])
        with pytest.raises(ValueError, match="coordinates"):
            render_signal_svg(g, np.zeros(2), tmp_path / "fig.svg")

    def test_length_mismatch_rejected(self, tmp_path):
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="length"):
            render_signal_svg(g, np.zeros(3), tmp_path / "fig.svg")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, tmp_path, bad):
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = tmp_path / "fig.svg"
        with pytest.raises(ValueError, match="non-finite"):
            render_signal_svg(g, np.array([0.0, bad]), out)
        assert not out.exists()
