import random
import reprlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrstrength import (
    FormatError,
    Graph,
    format_edge_list,
    make_triangular_book,
    parse_edge_list,
)
from irrstrength import graphs
from irrstrength.bounds import bound_report, has_small_component, lower_bound_s
from irrstrength.graphs import _integer_array

from conftest import make_family, random_solid_graph
from test_codec_pins import FAMILIES


def _reference_edges(edges) -> list[tuple[int, int]]:
    """The canonical edge list of ``edges``, in plain Python: self-loops are reported before duplicates."""
    rows = [(min(u, v), max(u, v)) for u, v in edges]
    if any(u == v for u, v in rows):
        raise ValueError("self-loops are not allowed")
    if len(set(rows)) != len(rows):
        raise ValueError("duplicate edges are not allowed")
    return sorted(rows)


class TestGraphConstruction:
    def test_canonicalizes_unsorted_input(self):
        g = Graph(4, [(3, 1), (0, 2), (1, 0)])
        assert g.edge_tuples() == [(0, 1), (0, 2), (1, 3)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "order,edges,message",
        [
            (3, [(0, 10**20)], "edge endpoint out of range"),
            (3, [(0, 2**63)], "edge endpoint out of range"),
            (3, [(0.9, 1.5), (0, 2)], "must be integers"),
            (3, [("0", "1")], "must be integers"),
            (3, np.array([[0.0, 2.0]]), "must be integers"),
            (3.0, [(0, 1)], "order must be an integer"),
            (True, [], "order must be an integer"),
            (3, [(True, 2)], "must be integers"),
        ],
        ids=[
            "past-int64", "mixed-past-int64", "float", "string", "float-array", "float-order", "bool-order",
            "bool-endpoint",
        ],
    )
    def test_rejects_non_integer_input(self, order, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph(order, edges)

    @pytest.mark.parametrize("edges", [[0, 1], [(0, 1, 2)]], ids=["flat", "triple"])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError, match="edges must be a sequence of vertex pairs"):
            Graph(3, edges)

    def test_accepts_numpy_integers(self):
        g = Graph(np.int64(3), np.array([[0, 2]], dtype=np.uint8))
        assert g.order == 3 and g.edge_tuples() == [(0, 2)] and g.edges.dtype == np.int64

    def test_integer_lists_become_int64(self):
        assert _integer_array([[0, 1], [2, 3]], "edge endpoints").dtype == np.int64
        assert _integer_array([1, np.uint8(2)], "edge labels").dtype == np.int64
        assert _integer_array([1, 2**63], "edge labels").tolist() == [1, 2**63]  # past int64 stays exact

    def test_rejects_oversized_order(self):
        with pytest.raises(ValueError, match="limit"):
            Graph(10**6 + 1, [(0, 1)])

    def test_edges_are_read_only(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.size == 0
        assert g.degrees().tolist() == []

    def test_edgeless_degrees(self):
        assert Graph(5, []).degrees().tolist() == [0] * 5

    def test_single_edge_degrees(self):
        assert Graph(4, [(1, 3)]).degrees().tolist() == [0, 1, 0, 1]

    def test_degree_counts_are_the_degree_histogram(self):
        graphs_ = [Graph(5, []), Graph(4, [(0, 1), (1, 2)]), Graph(4, [(1, 3)]), make_family("star", 6)]
        rng = random.Random(7)
        graphs_ += [random_solid_graph(rng, 3, 14, rng.choice((0.2, 0.4, 0.7))) for _ in range(200)]
        for g in graphs_:
            counts = g._degree_counts()
            degrees, numbers = np.unique(g.degrees(), return_counts=True)
            assert counts == (tuple(degrees.tolist()), tuple(numbers.tolist()))
            assert g._degree_counts() is counts
            assert type(has_small_component(g)) is bool

    def test_equality_and_hash(self):
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(2, 3), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(5, [(0, 1), (2, 3)])

    def test_canonical_array_is_copied(self):
        arr = np.array([[0, 1], [1, 2]], dtype=np.int64)
        g = Graph(3, arr)
        assert arr.flags.writeable
        arr[0, 0] = 2
        assert g.edge_tuples() == [(0, 1), (1, 2)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_a_reference(self, data):
        # shuffled rows, random orientations, flipped duplicates and self-loops
        order = data.draw(st.integers(1, 8), label="order")
        pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        if edges:
            edges += data.draw(st.lists(st.sampled_from(edges), max_size=2), label="duplicates")
        edges += [(w, w) for w in data.draw(st.lists(st.integers(0, order - 1), max_size=1), label="loops")]
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in data.draw(st.permutations(edges))]
        if data.draw(st.booleans(), label="as array"):
            edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        try:
            expected = _reference_edges(edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                Graph(order, edges)
            assert str(caught.value) == str(exc)
        else:
            assert Graph(order, edges).edge_tuples() == expected


class TestTriangularBook:
    def test_one_page_is_a_triangle(self):
        g = make_triangular_book(1)
        assert g.order == 3
        assert g.size == 3
        assert g.edge_tuples() == [(0, 1), (0, 2), (1, 2)]

    def test_two_pages(self):
        g = make_triangular_book(2)
        assert (g.order, g.size) == (4, 5)

    def test_five_pages(self):
        g = make_triangular_book(5)
        assert (g.order, g.size) == (7, 11)

    def test_edge_roles(self):
        n = 4
        g = make_triangular_book(n)
        expected = (
            [(0, 1)]
            + [(0, i + 1) for i in range(1, n + 1)]
            + [(1, i + 1) for i in range(1, n + 1)]
        )
        assert g.edge_tuples() == expected

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            make_triangular_book(0)

    def test_rejects_order_past_the_limit(self):
        with pytest.raises(ValueError, match="exceeds supported limit"):
            make_triangular_book(999_999)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 131])
    def test_degree_shape(self, n):
        deg = make_triangular_book(n).degrees()
        # degree multiset: n pages of degree 2 plus two centers of degree n + 1
        assert sorted(deg.tolist()) == sorted([2] * n + [n + 1] * 2)
        assert int(deg.sum()) == 2 * (2 * n + 1)

    def test_one_page_equals_cycle_three(self):
        assert make_triangular_book(1) == make_family("cycle", 3)


class TestFamilies:
    """``conftest.make_family``, whose graphs the codec digests also pin."""

    def test_path_two_is_single_edge(self):
        g = make_family("path", 2)
        assert (g.order, g.size) == (2, 1)

    def test_star_four_leaves(self):
        g = make_family("star", 4)
        assert (g.order, g.size) == (5, 4)
        assert g.degrees().tolist() == [4, 1, 1, 1, 1]

    def test_cycle_edges(self):
        g = make_family("cycle", 4)
        assert g.edge_tuples() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_family("wheel", 5)


class TestEdgeListFormat:
    def test_format(self):
        text = format_edge_list(make_family("path", 3))
        assert text == "3 2\n0 1\n1 2\n"

    def test_round_trip(self):
        for g in (make_triangular_book(4), make_family("star", 3), make_family("cycle", 5)):
            assert parse_edge_list(format_edge_list(g)) == g

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("3\n0 1\n")

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(FormatError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1\n")

    def test_rejects_unordered_pair(self):
        with pytest.raises(FormatError, match="u < v"):
            parse_edge_list("3 1\n1 0\n")

    def test_rejects_non_numeric(self):
        with pytest.raises(FormatError):
            parse_edge_list("3 1\na b\n")

    def test_rejects_oversized_order(self):
        with pytest.raises(FormatError, match="limit"):
            parse_edge_list(f"{10**6 + 1} 0\n")

    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            parse_edge_list("")

    def test_long_token_with_leading_zeros(self):
        assert parse_edge_list("3 1\n" + "0" * 30 + "1 2\n") == Graph(3, [(1, 2)])

    def test_endpoint_past_int64_is_format_error(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_edge_list("3 1\n0 100000000000000000000\n")

    def test_any_ascii_whitespace_separates(self):
        text = "\x1f3\t2\r\n\x1c0\t\x1f1\x0c\x1d\n 1\x1f2\x1e"
        assert parse_edge_list(text) == make_family("path", 3)

    def test_trusted_book_path_matches_validated_constructor(self):
        # make_triangular_book skips validation and fills its runs and degree histogram from
        # its closed form; cross-check every derived fact against Graph(), which computes them
        for n in [*range(1, 301), 99_999, 100_000]:
            fast = make_triangular_book(n)
            slow = Graph(fast.order, fast.edges.copy())
            assert fast == slow
            for a, b in zip(fast._up_runs(), slow._up_runs()):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert fast._degree_counts() == slow._degree_counts()
            assert np.array_equal(fast.degrees(), slow.degrees())
            assert lower_bound_s(fast) == lower_bound_s(slow)
            assert has_small_component(fast) is has_small_component(slow) is False
            assert bound_report(fast) == bound_report(slow)


def reference_parse(text: str) -> Graph:
    """Line-by-line edge-list parser with the same grammar, as an oracle."""
    if not text.isascii() or any(c in text for c in "+-_"):
        raise FormatError("edge-list numbers must be unsigned ASCII decimals")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("first line must be 'order m'")
    try:
        order, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {reprlib.repr(lines[0])}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {reprlib.repr(m)} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {reprlib.repr(ln)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {reprlib.repr(ln)}") from exc
        if not u < v:
            raise FormatError(f"edge line {reprlib.repr(ln)} must satisfy u < v")
        edges.append((u, v))
    try:
        return Graph(order, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


INLINE = [" ", " ", "\t", "\x1f", " \t", "\t\x1f "]
# these also break lines, so as separators they split a line in two
SPLITTING = ["\v", "\f", "\r", "\x1c", "\x1d", "\x1e"]
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\n\n", "\n \x1f\n"])
STRAY = st.sampled_from(["a", "1x", "x1", "1.0", "0x1", "9" * 20, "1" + "0" * 19, "0" * 25 + "7", "O"])


@st.composite
def edge_list_texts(draw):
    """Edge lists near the grammar: padded numbers, any ASCII whitespace, stray tokens."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.sampled_from([1, 1, 2, 3, 0])), max_size=8))
    pairs = [(u, u + d) if draw(st.sampled_from([True] * 9 + [False])) else (u + d, u) for u, d in pairs]
    order = max((v for pair in pairs for v in pair), default=0) + draw(st.sampled_from([1, 1, 1, 0, 2]))
    rows = [[order, len(pairs) + draw(st.sampled_from([0, 0, 0, 1, -1]))], *map(list, pairs)]
    separators = st.sampled_from(draw(st.sampled_from([INLINE, INLINE, INLINE, INLINE + SPLITTING])))
    lines = []
    for row in rows:
        line = [draw(st.sampled_from(["", "", "0", "000", "0" * 20])) + str(x) for x in row]
        if draw(st.sampled_from([False] * 19 + [True])):  # a stray token, inserted or in place of one
            i = draw(st.integers(0, len(line)))
            line[i : i + draw(st.integers(0, 1))] = [draw(STRAY)]
        lines.append(line)
    text = draw(st.sampled_from(["", " ", "\n", "\r\n\x1f"]))
    for line in lines:
        text += draw(separators).join(line) + draw(BREAKS)
    return text if draw(st.booleans()) else text.rstrip()


FREE_TEXT = st.text(st.sampled_from(list("0123456789 \t\n\r\v\f\x1c\x1d\x1e\x1fa+")), max_size=30)


class TestParserAgainstReference:
    """``parse_edge_list`` accepts, rejects and reports exactly as the per-line reference."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_near_grammar(self, text):
        self.check(text)

    @settings(max_examples=100, deadline=None)
    @given(FREE_TEXT)
    def test_free_text(self, text):
        self.check(text)

    @staticmethod
    def check(text):
        try:
            want = reference_parse(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                parse_edge_list(text)
            assert str(got.value) == str(exc)
            return
        assert parse_edge_list(text) == want

    # an empty slot with a value after the last break: the digit-free bytes
    # alone match the writer's layout, so these must take the line path
    @pytest.mark.parametrize("text", ["4 2\n0 1\n 2\n3", "3 1\n 1\n2", "3 2\n0 1\n 2\n5"])
    def test_empty_slots(self, text):
        self.check(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_writer_output_one_byte_off(self, data):
        order = data.draw(st.integers(1, 12))
        pairs = data.draw(st.sets(st.tuples(st.integers(0, order - 1), st.integers(0, order - 1))))
        text = format_edge_list(Graph(order, sorted((u, v) for u, v in pairs if u < v)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        at = data.draw(st.integers(0, len(text) - (op != "insert")))
        byte = "" if op == "delete" else data.draw(st.sampled_from("0123456789 \n\r\t"))
        self.check(text[:at] + byte + text[at + (op != "insert") :])


class TestWriterLayoutPath:
    """``format_edge_list`` output never reaches the line-by-line reader."""

    def test_writer_output_is_read_as_arrays(self, monkeypatch):
        def line_path(text):
            raise AssertionError(f"line path taken for {text[:20]!r}")

        monkeypatch.setattr(graphs, "_edge_lines", line_path)
        books = [make_triangular_book(n) for n in [*range(1, 301), 19998, 100000]]
        for g in books + [make_family(*f) for f in FAMILIES]:
            assert parse_edge_list(format_edge_list(g)) == g


class TestCrlfEdgeLists:
    """CRLF line ends, read line by line: the same graphs as LF, and every error stays as it was."""

    def test_crlf_reads_as_lf(self):
        inputs = [make_triangular_book(n) for n in (1, 2, 7, 100000)] + [make_family(*f) for f in FAMILIES]
        texts = [format_edge_list(g) for g in inputs]
        lf = [parse_edge_list(text) for text in texts]
        assert [parse_edge_list(text.replace("\n", "\r\n")) for text in texts] == lf

    # messages taken before CRLF text was tried on the array path
    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("3 1\r\n0 3\r\n", "edge endpoint out of range"),
            ("3 2\r\n0 1\r\n", "expected 2 edge lines, found 1"),
            ("3 1\r\n1 0\r\n", "edge line '1 0' must satisfy u < v"),
            ("3 1\r\n0 1 2\r\n", "bad edge line '0 1 2'"),
            ("3 x\r\n0 1\r\n", "bad header '3 x'"),
            ("3 2\r\n0 1\r\n0 1\r\n", "duplicate edges are not allowed"),
            ("3 1\r\n-0 1\r\n", "edge-list numbers must be unsigned ASCII decimals"),
            ("\r\n\r\n", "empty edge-list input"),
            ("1000001 1\r\n0 1\r\n", "order 1000001 exceeds supported limit 1000000"),
            ("3 1\r\n0 1\r\n1 2\r\n", "expected 1 edge lines, found 2"),
            ("3 1\r\n0 1\r\r\n1 2\r\n", "expected 1 edge lines, found 2"),
        ],
    )
    def test_malformed_crlf_errors(self, text, message):
        with pytest.raises(FormatError) as got:
            parse_edge_list(text)
        assert str(got.value) == message
        TestParserAgainstReference.check(text)


# each a boundary of a group of 4 digits, or the int64 extreme
EDGE_VALUES = [0, 9_999, 10_000, 10**8, 10**16, 2**63 - 1]


@st.composite
def row_columns(draw):
    """1-3 equal-length columns of non-negative int64, zero rows allowed."""
    rows = draw(st.integers(0, 12))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**63 - 1))
    return [draw(st.lists(value, min_size=rows, max_size=rows)) for _ in range(draw(st.integers(1, 3)))]


class TestRows:
    """``graphs._rows`` writes what ``%`` writes, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(row_columns(), st.data())
    def test_matches_percent_format(self, columns, data):
        text = st.text(st.characters(min_codepoint=1, max_codepoint=127).filter(lambda c: c != "%"), max_size=4)
        template = "%d".join(data.draw(st.lists(text, min_size=len(columns) + 1, max_size=len(columns) + 1)))
        want = "".join(template % row for row in zip(*columns))
        assert graphs._rows(template, *(np.array(c, dtype=np.int64) for c in columns)) == want

    def test_rows_span_blocks(self):
        rows = 2 * graphs._BLOCK + 3
        values = np.arange(rows, dtype=np.int64) ** 3
        want = "".join("%d,%d;" % row for row in zip(values.tolist(), values[::-1].tolist()))
        assert graphs._rows("%d,%d;", values, values[::-1]) == want
