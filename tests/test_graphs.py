import numpy as np
import pytest

from irrstrength import (
    FormatError,
    Graph,
    format_edge_list,
    make_family,
    make_triangular_book,
    parse_edge_list,
)


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
        "kind,size", [("path", 1), ("cycle", 2), ("star", 1)]
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

    def test_trusted_book_path_matches_validated_constructor(self):
        # make_triangular_book skips validation; cross-check against Graph()
        for n in (1, 2, 5, 12):
            fast = make_triangular_book(n)
            slow = Graph(fast.order, fast.edges.copy())
            assert fast == slow
            assert np.array_equal(fast.degrees(), slow.degrees())
