"""Round trips and error handling for the text file formats."""

import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from helpers import reference_load_graph, reference_load_matrix, reference_load_signal

from graphsamp import (
    ExperimentConfig,
    Graph,
    load_experiment_config,
    load_graph,
    load_matrix,
    load_signal,
    random_sensor_graph,
    save_graph,
    save_matrix,
    save_signal,
    save_trace_csv,
)
from graphsamp.bench import _CONFIG_PARSERS, config_from_mapping


class TestGraphFormat:
    def test_round_trip_with_coordinates(self, tmp_path):
        g = random_sensor_graph(20, 4, seed=1)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.num_vertices == g.num_vertices
        np.testing.assert_array_equal(loaded.edges, g.edges)
        np.testing.assert_array_equal(loaded.weights, g.weights)
        np.testing.assert_array_equal(loaded.coordinates, g.coordinates)

    def test_round_trip_without_coordinates(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)], [0.25, 1.5])
        path = tmp_path / "g.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.coordinates is None
        np.testing.assert_array_equal(loaded.edges, g.edges)
        np.testing.assert_array_equal(loaded.weights, g.weights)

    def test_round_trip_single_vertex(self, tmp_path):
        """A 1-vertex graph has no edge lines; loading still gives index arrays."""
        g = Graph(1, [], [], coordinates=np.array([[0.5, 0.5]]))
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert path.read_text() == "n 1\ncoords\n0.5 0.5\n"
        loaded = load_graph(path)
        assert loaded.num_vertices == 1
        assert loaded.edges.shape == (0, 2) and loaded.edges.dtype == np.intp
        assert loaded.weights.shape == (0,)
        np.testing.assert_array_equal(loaded.coordinates, g.coordinates)

    def test_header_layout(self, tmp_path):
        g = Graph(2, [(0, 1)], [1.0], coordinates=np.array([[0.0, 0.0], [1.0, 1.0]]))
        path = tmp_path / "g.txt"
        save_graph(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 2"
        assert lines[1] == "coords"
        assert lines[4] == "0 1 1.0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("vertices 3\n")
        with pytest.raises(ValueError, match="header"):
            load_graph(path)

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_nonpositive_vertex_count_rejected(self, tmp_path, count):
        """The header count is checked before it is used as a line count."""
        path = tmp_path / "g.txt"
        path.write_text(f"n {count}\ncoords\n0 1 1.0\n")
        message = f"^{re.escape(str(path))}: header vertex count must be at least 1, got {count}$"
        with pytest.raises(ValueError, match=message):
            load_graph(path)

    def test_header_count_allocates_nothing_of_its_size(self, tmp_path):
        """A 19-byte file claiming 10**6 vertices and one edge is refused as
        disconnected with a peak under 1 MB: the header count sizes nothing."""
        path = tmp_path / "g.txt"
        path.write_text("n 1000000\n0 1 1.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: graph is not connected$"):
                load_graph(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\ncoords\n0.0 0.0\nnan 1.0\n0 1 1.0\n")
        with pytest.raises(ValueError, match="coordinates must be finite"):
            load_graph(path)

    def test_bad_edge_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n0 1\n")
        with pytest.raises(ValueError, match="edge"):
            load_graph(path)

    @pytest.mark.parametrize(
        "text",
        [
            "n two\n0 1 1.0\n",
            "n 2\ncoords\n0.0 0.0\n0.5 abc\n0 1 1.0\n",
            "n 2\ncoords\n0.0 0.0\n0.5 1.0 2.0\n0 1 1.0\n",
            "n 2\n0 1.5 1.0\n",
            "n 2\n0 1 heavy\n",
            "n 2\n0 99999999999999999999 1.0\n",
        ],
        ids=["header", "coord", "coords-line", "index", "weight", "huge-index"],
    )
    def test_malformed_number_names_file(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_graph(path)

    def test_lines_checked_in_file_order(self, tmp_path):
        """A bad number on an early edge line is reported before a short later line."""
        path = tmp_path / "g.txt"
        path.write_text("n 3\n0 x 1.0\n1 2\n")
        with pytest.raises(ValueError, match=r"invalid literal for int\(\) with base 10: 'x'"):
            load_graph(path)


class TestMatrixFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.RandomState(2)
        M = rng.randn(5, 3)
        path = tmp_path / "m.txt"
        save_matrix(M, path)
        np.testing.assert_array_equal(load_matrix(path), M)

    def test_header(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(np.zeros((2, 4)), path)
        assert path.read_text().splitlines()[0] == "2 4"

    def test_wrong_entry_count_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="entries"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "header,body",
        [("-1 -2", "1.0 2.0"), ("-2 -1", "1.0\n2.0"), ("0 -1", "")],
        ids=["both", "rows", "cols"],
    )
    def test_negative_dimension_rejected(self, tmp_path, header, body):
        """-1 * -2 entries pass the count check, so the header is checked first."""
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n{body}\n")
        message = f"^{re.escape(str(path))}: header '{header}' has a negative dimension$"
        with pytest.raises(ValueError, match=message):
            load_matrix(path)

    @pytest.mark.parametrize("text", ["2 x\n1.0 2.0\n", "1 2\n1.0 abc\n"], ids=["header", "entry"])
    def test_malformed_number_names_file(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_matrix(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        path = tmp_path / "m.txt"
        path.write_text(f"2 2\n1.0 2.0\n{bad} 3.0\n")
        with pytest.raises(ValueError, match=f"{path}: non-finite"):
            load_matrix(path)


class TestSignalFormat:
    def test_round_trip_exact(self, tmp_path):
        x = np.random.RandomState(3).randn(11)
        path = tmp_path / "x.txt"
        save_signal(x, path)
        np.testing.assert_array_equal(load_signal(path), x)

    def test_header(self, tmp_path):
        path = tmp_path / "x.txt"
        save_signal(np.array([1.0, 2.0]), path)
        assert path.read_text().splitlines()[0] == "n 2"

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("n 3\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_signal(path)

    @pytest.mark.parametrize("length", ["-2", "-1"])
    def test_negative_length_rejected(self, tmp_path, length):
        """The header length is checked before it is compared with the value count."""
        path = tmp_path / "x.txt"
        path.write_text(f"n {length}\n")
        message = f"^{re.escape(str(path))}: header 'n {length}' has a negative length$"
        with pytest.raises(ValueError, match=message):
            load_signal(path)

    @pytest.mark.parametrize("text", ["n 2.0\n1.0\n2.0\n", "n 2\n1.0\nabc\n"], ids=["header", "value"])
    def test_malformed_number_names_file(self, tmp_path, text):
        path = tmp_path / "x.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_signal(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "x.txt"
        path.write_text(f"n 3\n1.0\n{bad}\n2.0\n")
        with pytest.raises(ValueError, match=f"{path}: non-finite"):
            load_signal(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _same_bits(a, b):
    """Equal shapes and bit patterns, so -0.0 and 0.0 count as different."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def _graphs(draw):
    """Connected graphs: a random spanning tree plus random extra edges."""
    n = draw(st.integers(1, 8))
    weights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(weights)
    if n > 1:
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=6)):
            edges[pair] = draw(weights)
    coords = draw(st.none() | arrays(np.float64, (n, 2), elements=_FINITE))
    return Graph(n, list(edges), list(edges.values()), coordinates=coords)


class TestRoundTripProperties:
    """Saving then loading gives back every finite float bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(M=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=_FINITE))
    def test_matrix(self, tmp_path_factory, M):
        path = tmp_path_factory.mktemp("m") / "m.txt"
        save_matrix(M, path)
        assert _same_bits(load_matrix(path), M)

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, st.integers(0, 20), elements=_FINITE))
    def test_signal(self, tmp_path_factory, x):
        path = tmp_path_factory.mktemp("x") / "x.txt"
        save_signal(x, path)
        assert _same_bits(load_signal(path), x)

    @settings(max_examples=60, deadline=None)
    @given(g=_graphs())
    def test_graph(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("g") / "g.txt"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.num_vertices == g.num_vertices
        np.testing.assert_array_equal(loaded.edges, g.edges)
        assert _same_bits(loaded.weights, g.weights)
        if g.coordinates is None:
            assert loaded.coordinates is None
        else:
            assert _same_bits(loaded.coordinates, g.coordinates)


# tokens float() reads or rejects differently from numpy's C parser, or not
# at all, and whitespace that str.split() splits on but C's isspace() does not
_ODD_TOKENS = ["abc", "1_0", "1.0-2.0", "0x1p3", "nan", "inf", "-inf", "infinity",
               "nan(12)", "1e500", "1e-400", "-0.0", ".", "1e", "+.5"]
_SEPARATORS = [" ", "\n", "\t", "  ", "\r\n", "\x0b", "\x0c", "\xa0", "\x1c", " \n "]


@st.composite
def _matrix_texts(draw):
    """Matrix files: small or negative headers (``0 k`` among them), bodies
    of repr floats mixed with odd tokens, entry counts right or wrong, and
    bodies of whitespace only."""
    rows = draw(st.integers(-1, 3))
    cols = draw(st.integers(-1, 3))
    header = f"{rows} {cols}"
    if draw(st.booleans()):
        count = max(rows, 0) * max(cols, 0)
    else:
        count = draw(st.integers(0, 10))
    token = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if draw(st.booleans()):
        token = token | st.sampled_from(_ODD_TOKENS)
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=count + 2, max_size=count + 2))
    body = "".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[-1]
    return header + seps[-2] + body


class TestMatrixAgainstTokenLoop:
    """``load_matrix`` returns the bits, or raises the message, of one
    ``float()`` per token."""

    @settings(max_examples=300, deadline=None)
    @given(text=_matrix_texts())
    def test_same_result(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("m") / "m.txt"
        path.write_text(text)
        try:
            expected = reference_load_matrix(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                load_matrix(path)
            assert str(raised.value) == str(exc)
        else:
            assert _same_bits(load_matrix(path), expected)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 0\n  \n\t", None),
            ("1 1\n \n", "expected 1 entries for a 1x1 matrix, found 0"),
            ("1 2\n1_0 2.5\n", None),
            ("1 2\n1.0 nan(12)\n", "could not convert string to float: 'nan(12)'"),
            ("1 2\n1.0 1e500\n", "non-finite value (nan or inf)"),
        ],
        ids=["whitespace-body", "whitespace-short", "underscore", "nan-payload", "overflow"],
    )
    def test_pinned_cases(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        if message is None:
            assert _same_bits(load_matrix(path), reference_load_matrix(path))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_matrix(path)

    def test_old_numpy_warning_names_the_token(self, tmp_path, monkeypatch):
        """numpy before 2 warns and returns the values before a bad token;
        the error still names the token, whatever the caller's filters."""

        def truncating_fromstring(text, sep):
            warnings.warn(
                "string or file could not be read to its end due to unmatched data",
                DeprecationWarning,
            )
            return np.array([1.0, 2.0])

        monkeypatch.setattr(np, "fromstring", truncating_fromstring)
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1.0 2.0\nabc 4.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as raised:
                load_matrix(path)
        assert str(raised.value) == f"{path}: could not convert string to float: 'abc'"


# index tokens read by int() alone (``1_0``, ``٣``, beyond int64), by
# neither, or by both int() and np.loadtxt's int64 field
_ODD_INDICES = ["1_0", "1.0", "+5", "-1", "٣", "1e3", "#", "x", str(2**63)]
# number tokens read by float() alone (digits of other scripts), and
# comment marks, which np.loadtxt would skip unless told not to
_ODD_NUMBERS = _ODD_TOKENS + ["٣", "１", "#", "#1"]
# whitespace str.split() splits on within a line, and blank lines
_LINE_SEPARATORS = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
_BLANKS = ["", " ", "\t", "\u3000"]


def _line(draw, tokens):
    """``tokens``, each followed by drawn in-line whitespace, after a drawn indent."""
    seps = draw(st.lists(st.sampled_from(_LINE_SEPARATORS), min_size=len(tokens),
                         max_size=len(tokens)))
    indent = draw(st.sampled_from(["", " ", "\t"]))
    return indent + "".join(tok + sep for tok, sep in zip(tokens, seps))


def _lines_text(draw, lines):
    """``lines`` with blank lines drawn between them, as file text."""
    out = []
    for ln in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(_BLANKS)))
        out.append(ln)
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _row(draw, good, odd, columns):
    """A line of ``columns`` tokens drawn from ``good``; sometimes one odd
    token, sometimes a token too few or too many."""
    tokens = [draw(g) for g in good]
    if draw(st.integers(0, 7)) == 0:
        tokens[draw(st.integers(0, columns - 1))] = draw(st.sampled_from(odd))
    if draw(st.integers(0, 11)) == 0:
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + [tokens[0]]
    return _line(draw, tokens)


@st.composite
def _graph_texts(draw):
    """Graph files: a spanning tree plus extra edges of small graphs (n = 1
    has none), with or without a coords block of about n lines, and odd
    tokens, separators, blank lines and column counts."""
    n = draw(st.integers(1, 5))
    lines = [f"n {n}"]
    if draw(st.booleans()):
        lines.append("coords")
        coord = st.floats(0.0, 1.0).map(repr)
        count = n if draw(st.integers(0, 5)) else draw(st.integers(0, n + 1))
        lines += [_row(draw, [coord, coord], _ODD_NUMBERS, 2) for _ in range(count)]
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    weight = st.floats(1e-3, 10.0).map(repr)
    for u, v in pairs:
        tokens = [st.just(str(u)), st.just(str(v)), weight]
        odd = draw(st.sampled_from([_ODD_INDICES, _ODD_NUMBERS]))
        lines.append(_row(draw, tokens, odd, 2 if odd is _ODD_INDICES else 3))
    return _lines_text(draw, lines)


@st.composite
def _signal_texts(draw):
    """Signal files of 0 to 5 values, the header's length right or off by one."""
    count = draw(st.integers(0, 5))
    length = count if draw(st.integers(0, 5)) else count + draw(st.sampled_from([-1, 1]))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = [f"n {length}"] + [_row(draw, [value], _ODD_NUMBERS, 1) for _ in range(count)]
    return _lines_text(draw, lines)


def _same_graph(a, b):
    if a.num_vertices != b.num_vertices or (a.coordinates is None) != (b.coordinates is None):
        return False
    return (
        a.edges.dtype == b.edges.dtype
        and np.array_equal(a.edges, b.edges)
        and _same_bits(a.weights, b.weights)
        and (a.coordinates is None or _same_bits(a.coordinates, b.coordinates))
    )


def _check_against_reference(path, load, reference, same):
    try:
        expected = reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            load(path)
        assert str(raised.value) == str(exc)
    else:
        assert same(load(path), expected)


class TestLinesAgainstLineLoop:
    """``load_graph`` and ``load_signal`` return the bits, or raise the
    message, of the line-by-line ``int()`` and ``float()`` loaders."""

    @settings(max_examples=400, deadline=None)
    @given(text=_graph_texts())
    def test_graph_same_result(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("g") / "g.txt"
        path.write_text(text)
        _check_against_reference(path, load_graph, reference_load_graph, _same_graph)

    @settings(max_examples=300, deadline=None)
    @given(text=_signal_texts())
    def test_signal_same_result(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("x") / "x.txt"
        path.write_text(text)
        _check_against_reference(path, load_signal, reference_load_signal, _same_bits)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 1\n", None),
            ("n 1\ncoords\n0.5\t0.5\n", None),
            ("n 2\n0\x1f1\xa00.5\n\n\u3000\n", None),
            ("n 2\n+0 1 infinity\n", "edge (0, 1) weight must be positive and finite, got inf"),
            ("n 2\n0 1 1e500\n", "edge (0, 1) weight must be positive and finite, got inf"),
            ("n 2\n0 1 nan\n", "edge (0, 1) weight must be positive and finite, got nan"),
            ("n 2\n0 1_0 1.0\n", "edge (0, 10) out of range for 2 vertices"),
            ("n 2\n0 ٣ 1.0\n", "edge (0, 3) out of range for 2 vertices"),
            ("n 2\n0 1.0 1.0\n", "invalid literal for int() with base 10: '1.0'"),
            (f"n 2\n0 {2**63} 1.0\n", "Python int too large to convert to C long"),
            ("n 2\n0 1 0x1p3\n", "could not convert string to float: '0x1p3'"),
            ("n 2\n# 0 1 1.0\n0 1 1.0\n", "bad edge line '# 0 1 1.0'"),
            ("n 2\n0 1 x\n", "could not convert string to float: 'x'"),
            ("n 2\ncoords\n0.0 0.0\n0 1 1.0\n", "bad coords line '0 1 1.0'"),
            ("n 3\ncoords\n0.0 0.0\n", "coords block needs 3 lines"),
            ("n 2\n0 1 1.0 2.0\n", "bad edge line '0 1 1.0 2.0'"),
            # both indices are read, then stored, then the weight is read
            (f"n 2\n0 {2**63} x\n", "Python int too large to convert to C long"),
            (f"n 2\n{2**63} x 1.0\n", "invalid literal for int() with base 10: 'x'"),
        ],
        ids=[
            "single-vertex", "single-vertex-coords", "separators", "plus-infinity", "overflow",
            "nan", "underscore", "arabic-digit", "float-index", "beyond-int64", "hex-float",
            "comment-mark", "bad-weight", "edge-in-coords-block", "short-coords-block",
            "long-edge", "beyond-int64-then-bad-weight", "beyond-int64-then-bad-index",
        ],
    )
    def test_pinned_graph_cases(self, tmp_path, text, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        _check_against_reference(path, load_graph, reference_load_graph, _same_graph)
        if message is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_graph(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 0\n", None),
            ("n 2\n1_0\n٣\n", None),
            ("n 2\n1.5\n1e500\n", "non-finite value (nan or inf)"),
            ("n 2\n1.5 2.5\n0.5 1.0\n", "could not convert string to float: '1.5 2.5'"),
            ("n 1\n#\n", "could not convert string to float: '#'"),
        ],
        ids=["empty", "underscore-arabic", "overflow", "two-columns", "comment-mark"],
    )
    def test_pinned_signal_cases(self, tmp_path, text, message):
        path = tmp_path / "x.txt"
        path.write_text(text)
        _check_against_reference(path, load_signal, reference_load_signal, _same_bits)
        if message is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_signal(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 2\n0 1.0 1.0\n", "invalid literal for int() with base 10: '1.0'"),
            ("n 3\n0 1 1.0\n1 2\n", "bad edge line '1 2'"),
        ],
        ids=["float-index", "short-line"],
    )
    def test_warning_loadtxt_names_the_bad_line(self, tmp_path, monkeypatch, text, message):
        """numpy 1.24-1.26 warns where it reads an integer field through
        float and returns the rows; a pass that warns is a miss, whatever
        the caller's filters, so the line loop names the bad line."""

        def warning_loadtxt(lines, dtype=float, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([(0, 1, 1.0), (1, 2, 1.0)][: len(lines)], dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "g.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as raised:
                load_graph(path)
        assert str(raised.value) == f"{path}: {message}"


class TestTraceCsv:
    def test_columns_and_length(self, tmp_path):
        from graphsamp import DesignConfig, design_sampling_operator
        from graphsamp.variation import VariationOperator

        design = design_sampling_operator(
            VariationOperator(np.ones(8), np.eye(8)), 2, DesignConfig(epsilon=4.0, seed=0)
        )
        path = tmp_path / "trace.csv"
        save_trace_csv(design, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,nuclear_norm,step_norm"
        assert len(lines) == 1 + design.iterations
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == design.nuclear_norms[0]


class TestExperimentConfigFile:
    def test_parse_full_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "\n".join(
                [
                    "# benchmark preset, desk scale",
                    "n 32",
                    "k 8",
                    "graph_k 4",
                    "trials 3",
                    "master_seed 99",
                    "baseline random_vertex",
                    "fixed_graph true",
                    "response.slope 1.0",
                    "response.offset 0.1",
                    "model.kind pwl",
                    "model.density 0.25",
                    "design.epsilon auto",
                    "design.max_iter 50",
                ]
            )
            + "\n"
        )
        cfg = load_experiment_config(path)
        assert cfg.n == 32 and cfg.num_samples == 8 and cfg.graph_k == 4
        assert cfg.trials == 3 and cfg.master_seed == 99
        assert cfg.fixed_graph is True
        assert cfg.model.kind == "pwl" and cfg.model.density == 0.25
        assert cfg.design.epsilon == pytest.approx(np.sqrt(32 * 8))
        assert cfg.design.max_iter == 50

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n 32\nk 8\ntrials 2\n")
        cfg = load_experiment_config(path, overrides={"trials": "7", "master_seed": "3"})
        assert cfg.trials == 7 and cfg.master_seed == 3

    def test_duplicate_key_rejected(self, tmp_path):
        """A key set twice names the key and both lines, instead of the
        last value silently winning."""
        path = tmp_path / "cfg.txt"
        path.write_text("n 32\nk 8\ntrials 2\n# stale line below\ntrials 5\n")
        with pytest.raises(ValueError, match=r"cfg.txt:5: key 'trials' is set twice, on lines 3 and 5"):
            load_experiment_config(path)

    def test_duplicate_key_rejected_even_when_overridden(self, tmp_path):
        """An override replaces the file's value but does not excuse a
        malformed file."""
        path = tmp_path / "cfg.txt"
        path.write_text("n 32\nk 8\ntrials 2\ntrials 5\n")
        with pytest.raises(ValueError, match="set twice"):
            load_experiment_config(path, overrides={"trials": "7"})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n 32\nk 8\nnn_k 4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "key",
        ["model.seed", "design.t_mode", "design.rank_tol", "design.gamma", "design.stop_tol"],
    )
    def test_removed_key_rejected(self, key):
        """Keys of removed settings are unknown: signals draw from the trial's
        own stream, the design step is always the polar factor scaled by d,
        and the loop's stop tolerance is a constant."""
        with pytest.raises(ValueError, match=f"unknown config keys: {re.escape(key)}$"):
            config_from_mapping({"n": "32", "k": "8", key: "4"})

    @pytest.mark.parametrize(
        "line", ["trials many", "design.max_iter fast", "fixed_graph maybe"]
    )
    def test_bad_value_names_key(self, tmp_path, line):
        key = line.split()[0]
        path = tmp_path / "cfg.txt"
        path.write_text(f"n 32\nk 8\n{line}\n")
        with pytest.raises(ValueError, match=f"config key {re.escape(key)}: "):
            load_experiment_config(path)

    def test_readme_config_block(self, tmp_path):
        """The README's config example loads and names every config key once."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config format", 1)[1]
        block = section.split("```", 2)[1].strip("\n")
        keys = [line.split()[0] for line in block.splitlines()]
        assert sorted(keys) == sorted(_CONFIG_PARSERS)
        path = tmp_path / "cfg.txt"
        path.write_text(block + "\n")
        cfg = load_experiment_config(path)
        assert cfg.n == 256 and cfg.num_samples == 32 and cfg.trials == 100

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            config_from_mapping({"n": "32"})

    @pytest.mark.parametrize(
        "n, k, name", [("32", "0", "k"), ("32", "-2", "k"), ("-5", "3", "n"), ("0", "3", "n")]
    )
    def test_nonpositive_n_or_k_named_before_auto_radius(self, tmp_path, n, k, name):
        """sqrt(n * k) is never taken of a negative product: the value is
        named, not reported as a nan or zero epsilon, and warns of nothing."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"n {n}\nk {k}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^config key {name}: "):
                load_experiment_config(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("n 24\nk 30\n", "config key k: k must satisfy 1 <= K < 24, got 30"),
            ("n 24\nk 0\n", "config key k: k must satisfy 1 <= K < 24, got 0"),
            (
                "n 24\nk 4\ngraph_k 30\n",
                "config key graph_k: graph_k must satisfy 1 <= graph_k < n, got graph_k=30, n=24",
            ),
            ("n 1\nk 3\n", "config key n: n must be at least 2, got 1"),
            (
                "n 24\nk 4\ndesign.epsilon -1\n",
                "config key design.epsilon: epsilon must be finite and at least 2.23e-308, got -1.0",
            ),
            (
                "n 24\nk 4\ndesign.epsilon 5e-324\n",
                "config key design.epsilon: epsilon must be finite and at least 2.23e-308, "
                "got 5e-324",
            ),
            (
                "n 24\nk 4\ndesign.epsilon 1e400\n",
                "config key design.epsilon: epsilon must be finite and at least 2.23e-308, got inf",
            ),
            (
                "n 24\nk 4\ndesign.max_iter 0\n",
                "config key design.max_iter: max_iter must be at least 1, got 0",
            ),
            ("n 24\nk 4\ntrials 0\n", "config key trials: trials must be at least 1, got 0"),
            (
                "n 24\nk 4\nmaster_seed -1\n",
                "config key master_seed: master_seed must be an integer in [0, 2**64), got -1",
            ),
            (
                "n 24\nk 4\nbaseline x\n",
                "config key baseline: baseline must be one of ('random_vertex',), got 'x'",
            ),
            (
                "n 24\nk 4\nmodel.kind foo\n",
                "config key model.kind: model kind must be one of ('gmrf', 'pwl'), got 'foo'",
            ),
            (
                "n 24\nk 4\nmodel.eta 0\n",
                "config key model.eta: eta must be positive and finite, got 0.0",
            ),
            (
                "n 24\nk 4\nmodel.density 2\n",
                "config key model.density: density must lie in (0, 1], got 2.0",
            ),
            (
                f"n {10**400}\nk 5\ndesign.epsilon auto\n",
                "config key n: int too large to convert to float",
            ),
            (
                "n 24\nk 4\nresponse.offset 0\n",
                "config key response.slope/response.offset: spectral response must be "
                "positive on the whole spectrum (min value 0)",
            ),
            (
                "n 24\nk 4\nresponse.offset -0.5\n",
                "config key response.slope/response.offset: spectral response must be "
                "positive on the whole spectrum (min value -0.5)",
            ),
            (
                "n 24\nk 4\nresponse.slope inf\n",
                "config key response.slope/response.offset: spectral response must "
                "evaluate to finite scalars",
            ),
            (
                "n 24\nk 4\nresponse.offset nan\n",
                "config key response.slope/response.offset: spectral response must "
                "evaluate to finite scalars",
            ),
        ],
        ids=[
            "k-too-large", "k-zero", "graph_k", "n", "epsilon", "epsilon-underflow",
            "epsilon-overflow", "max_iter", "trials",
            "master_seed", "baseline", "model.kind", "model.eta", "model.density", "auto-radius",
            "offset-zero", "offset-negative", "slope-inf", "offset-nan",
        ],
    )
    def test_out_of_range_value_names_key(self, tmp_path, lines, message):
        """A size or design value out of range is reported after the key the
        file wrote, not the field it fills."""
        path = tmp_path / "cfg.txt"
        path.write_text(lines)
        with pytest.raises(ValueError) as info:
            load_experiment_config(path)
        assert str(info.value) == message

    def test_negative_slope_loads(self):
        """Whether a negative slope keeps the response positive depends on
        λ_max, which only a trial's graph gives, so the file loads."""
        cfg = config_from_mapping({"n": "24", "k": "4", "response.slope": "-1"})
        assert cfg.response.slope == -1.0

    def test_vertex_count_beyond_int64_or_float_range(self, tmp_path):
        """n beyond int64 is a Python int the radius takes without numpy; n
        beyond the float range is a named error, not a traceback. Neither
        file runs a trial."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"n {10**20}\nk 5\n")
        cfg = load_experiment_config(path)
        assert cfg.design.epsilon == math.sqrt(5 * 10**20)
        path.write_text(f"n {10**400}\nk 5\n")
        with pytest.raises(ValueError, match="^config key n: "):
            load_experiment_config(path)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(-3, 40),
        k=st.integers(-3, 45),
        graph_k=st.integers(-3, 45),
    )
    def test_file_and_library_accept_the_same_sizes(self, n, k, graph_k):
        """A file is refused exactly when the library refuses its sizes; the
        file names the first bad one of n, k and graph_k by its key, the
        library by its field."""
        try:
            ExperimentConfig(n=n, num_samples=k, graph_k=graph_k)
        except ValueError as exc:
            library_error = str(exc)
        else:
            library_error = None
        try:
            config_from_mapping({"n": str(n), "k": str(k), "graph_k": str(graph_k)})
        except ValueError as exc:
            file_error = str(exc)
        else:
            file_error = None
        assert (file_error is None) == (library_error is None)
        if file_error is None:
            return
        first_bad = "n" if n < 2 else "k" if not 1 <= k < n else "graph_k"
        assert file_error.startswith(f"config key {first_bad}: {first_bad} ")
        field = {"k": "num_samples"}.get(first_bad, first_bad)
        assert library_error.startswith(f"{field} ")

    def test_explicit_epsilon(self):
        cfg = config_from_mapping({"n": "32", "k": "8", "design.epsilon": "5.5"})
        assert cfg.design.epsilon == 5.5

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n 32\nk\n")
        with pytest.raises(ValueError, match="key value"):
            load_experiment_config(path)
