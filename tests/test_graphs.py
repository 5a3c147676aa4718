import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrstrength import (
    FormatError,
    Graph,
    format_edge_list,
    make_family,
    make_triangular_book,
    parse_edge_list,
)
from irrstrength.graphs import _integer_array


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

    def test_equality_and_hash(self):
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(2, 3), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(5, [(0, 1), (2, 3)])


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

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 131])
    def test_degree_shape(self, n):
        deg = make_triangular_book(n).degrees()
        # degree multiset: n pages of degree 2 plus two centers of degree n + 1
        assert sorted(deg.tolist()) == sorted([2] * n + [n + 1] * 2)
        assert int(deg.sum()) == 2 * (2 * n + 1)

    def test_one_page_equals_cycle_three(self):
        assert make_triangular_book(1) == make_family("cycle", 3)


class TestFamilies:
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

    @pytest.mark.parametrize(
        "kind,size", [("path", 1), ("cycle", 2), ("star", 1), ("star", 3.0)]
    )
    def test_rejects_undersized(self, kind, size):
        with pytest.raises(ValueError):
            make_family(kind, size)

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
        # make_triangular_book skips validation; cross-check against Graph()
        for n in (1, 2, 5, 12):
            fast = make_triangular_book(n)
            slow = Graph(fast.order, fast.edges.copy())
            assert fast == slow
            assert np.array_equal(fast.degrees(), slow.degrees())


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
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if order > 10**6:
        raise FormatError(f"order {order} exceeds supported limit {10**6}")
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        if not u < v:
            raise FormatError(f"edge line {ln!r} must satisfy u < v")
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
