import math

import pytest

from irrstrength import (
    Graph,
    bound_report,
    lower_bound_s,
    make_family,
    make_triangular_book,
    modular_infinite,
)
from irrstrength.bounds import has_small_component


class TestSmallComponents:
    def test_isolated_vertex(self):
        assert has_small_component(Graph(4, [(0, 1), (1, 2)]))

    def test_lone_edge_component(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert has_small_component(g)

    def test_books_are_solid(self):
        assert not has_small_component(make_triangular_book(3))

    def test_path_two(self):
        assert has_small_component(make_family("path", 2))


class TestLowerBoundS:
    def test_book_five(self):
        assert lower_bound_s(make_triangular_book(5)) == 3

    def test_cycle_three_bound_is_two(self):
        # actual strength is 3; the counting bound is not tight here
        assert lower_bound_s(make_family("cycle", 3)) == 2

    def test_book_six(self):
        assert lower_bound_s(make_triangular_book(6)) == 4

    @pytest.mark.parametrize("n", range(2, 120))
    def test_book_closed_form(self, n):
        assert lower_bound_s(make_triangular_book(n)) == (n + 2) // 2

    def test_star_bound(self):
        # m leaves of degree 1: ceil((m + 0) / 1) = m
        assert lower_bound_s(make_family("star", 6)) == 6

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="component"):
            lower_bound_s(Graph(4, [(0, 1), (1, 2)]))

    def test_rejects_lone_edge_component(self):
        with pytest.raises(ValueError, match="component"):
            lower_bound_s(Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            lower_bound_s(Graph(0, []))


class TestModularInfinite:
    def test_book_four_order_six(self):
        assert modular_infinite(make_triangular_book(4))

    def test_book_five_order_seven(self):
        assert not modular_infinite(make_triangular_book(5))

    def test_book_eight_order_ten(self):
        assert modular_infinite(make_triangular_book(8))

    @pytest.mark.parametrize("n", range(1, 40))
    def test_matches_page_divisibility(self, n):
        # order n + 2 is 2 mod 4 exactly when n is 0 mod 4
        assert modular_infinite(make_triangular_book(n)) == (n % 4 == 0)


class TestLowerBoundMs:
    def test_book_four_infinite(self):
        assert bound_report(make_triangular_book(4)).ms_lower == math.inf

    def test_book_five(self):
        assert bound_report(make_triangular_book(5)).ms_lower == 3

    def test_book_seven(self):
        assert bound_report(make_triangular_book(7)).ms_lower == 4


class TestBoundReport:
    def test_report_fields(self):
        rep = bound_report(make_triangular_book(5))
        assert rep.s_lower == 3
        assert rep.ms_lower == 3
        assert not rep.ms_infinite

    def test_infinite_report(self):
        rep = bound_report(make_triangular_book(8))
        assert rep.s_lower == 5
        assert rep.ms_lower == math.inf
        assert rep.ms_infinite

    @pytest.mark.parametrize("n", range(1, 30))
    def test_invariants(self, n):
        g = make_triangular_book(n)
        rep = bound_report(g)
        assert rep.ms_lower >= rep.s_lower
        assert rep.ms_infinite == (g.order % 4 == 2)
