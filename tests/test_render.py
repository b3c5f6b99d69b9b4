"""SVG rendering structure and well-formedness."""

import xml.dom.minidom

import numpy as np
import pytest
from helpers import reference_svg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    def test_overflowing_range_rejected(self, tmp_path):
        """max - min is inf, so no vertex has a place on the ramp."""
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        out = tmp_path / "fig.svg"
        with pytest.raises(ValueError, match=r"^signal range \[-1e\+308, 1e\+308\] is wider"):
            render_signal_svg(g, np.array([-1e308, 1e308]), out)
        assert not out.exists()


# coordinates whose canvas x or y lies just below 0, so they format as -0.00
_NEGATIVE_ZERO_X = -24.0 / 552.0 - 1e-9
_NEGATIVE_ZERO_Y = 576.0 / 552.0 + 1e-9


@st.composite
def _sensor_graphs(draw):
    n = draw(st.integers(2, 40))
    k = draw(st.integers(min(4, n - 1), min(8, n - 1)))
    return random_sensor_graph(n, k, draw(st.integers(0, 2**32)))


@st.composite
def _path_graphs(draw):
    """Paths on 1 to 6 vertices (the 2-vertex graph among them) with
    coordinates that include the ones formatting as -0.00."""
    n = draw(st.integers(1, 6))
    coordinate = st.sampled_from([_NEGATIVE_ZERO_X, _NEGATIVE_ZERO_Y, 0.0, 1.0]) | st.floats(
        -2.0, 2.0
    )
    coords = draw(arrays(np.float64, (n, 2), elements=coordinate))
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, [1.0] * (n - 1), coordinates=coords)


@st.composite
def _signals(draw, n):
    """Random signals, constant ones (span 0), and ones on the grid j/8 with
    both ends present, which puts vertices exactly on the ramp's ends and
    midpoint and channels on exact halves (171 * 2/4 = 85.5)."""
    kind = draw(st.sampled_from(["random", "constant", "grid"]))
    if kind == "random":
        return draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e6, 1e6)))
    x = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=float) / 8.0
    x[0], x[-1] = 0.0, 1.0
    return x


class TestAgainstElementTree:
    """The joined text is byte for byte what ``xml.etree`` writes."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=_sensor_graphs() | _path_graphs())
    def test_same_bytes(self, tmp_path_factory, data, g):
        x = data.draw(_signals(g.num_vertices))
        out = tmp_path_factory.mktemp("svg")
        render_signal_svg(g, x, out / "fig.svg")
        reference_svg(g, x, out / "ref.svg")
        assert (out / "fig.svg").read_bytes() == (out / "ref.svg").read_bytes()

    def test_negative_zero_and_midpoint(self, tmp_path):
        """Pinned: -0.00 coordinates, the white midpoint and both ends."""
        coords = np.array([[_NEGATIVE_ZERO_X, _NEGATIVE_ZERO_Y], [0.5, 0.5], [1.0, 0.0]])
        g = Graph(3, [(0, 1), (1, 2)], [1.0, 1.0], coordinates=coords)
        render_signal_svg(g, np.array([-1.0, 0.0, 1.0]), tmp_path / "fig.svg")
        reference_svg(g, np.array([-1.0, 0.0, 1.0]), tmp_path / "ref.svg")
        text = (tmp_path / "fig.svg").read_text()
        assert '<circle cx="-0.00" cy="-0.00" r="5.0" fill="#3b4cc0" />' in text
        assert 'fill="#f7f7f7"' in text and 'fill="#b40426"' in text
        assert (tmp_path / "fig.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
