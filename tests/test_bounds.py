import itertools
import math
import random

import pytest

from irrstrength import (
    Graph,
    bound_report,
    count_labelings,
    lower_bound_s,
    make_triangular_book,
    solve,
)
from irrstrength.bounds import has_small_component, modular_infinite

from conftest import make_family, random_solid_graph


def _pair_bound(g) -> int:
    """ceil((n_i + ... + n_j + i - 1) / j) maximised over every pair of occurring degrees i <= j."""
    deg = g.degrees().tolist()
    best = 0
    for i, j in itertools.combinations_with_replacement(sorted(set(deg)), 2):
        n = sum(i <= d <= j for d in deg)
        best = max(best, math.ceil((n + i - 1) / j))
    return best


def _single_degree_bound(g) -> int:
    deg = g.degrees().tolist()
    return max(math.ceil((deg.count(i) + i - 1) / i) for i in set(deg))


def _solid_graphs(order: int):
    """Every labelled graph on ``order`` vertices with no component of order <= 2."""
    pairs = list(itertools.combinations(range(order), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        g = Graph(order, [e for e, c in zip(pairs, chosen) if c])
        if not has_small_component(g):
            yield g


class TestSmallComponents:
    def test_isolated_vertex(self):
        assert has_small_component(Graph(4, [(0, 1), (1, 2)]))

    def test_lone_edge_component(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert has_small_component(g)

    def test_leaves_without_a_lone_edge(self):
        assert not has_small_component(make_family("path", 4))

    def test_cycles_are_solid(self):
        assert not has_small_component(make_family("cycle", 5))

    def test_books_are_solid(self):
        assert not has_small_component(make_triangular_book(3))

    def test_path_two(self):
        assert has_small_component(make_family("path", 2))

    def test_empty_graph(self):
        assert not has_small_component(Graph(0, []))


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

    def test_equals_brute_force_over_degree_pairs(self):
        rng = random.Random(11)
        raised = 0
        for _ in range(200):
            g = random_solid_graph(rng, 3, 14, rng.choice((0.2, 0.4, 0.7)))
            assert lower_bound_s(g) == _pair_bound(g)
            raised += lower_bound_s(g) > _single_degree_bound(g)
        assert raised > 0

    @pytest.mark.parametrize("order", (3, 4, 5))
    def test_sound_on_every_small_graph(self, order):
        # the search starts at the bound, so the counting oracle checks the
        # level below it independently
        checked = 0
        for g in _solid_graphs(order):
            bound = lower_bound_s(g)
            assert bound <= solve(g, "s").k
            if bound > 1:
                assert count_labelings(g, "s", bound - 1) == 0
            checked += 1
        assert checked == {3: 4, 4: 38, 5: 728}[order]  # the connected labelled graphs

    def test_degree_range_beats_single_degrees(self):
        # P_5 has degrees 1, 2, 2, 2, 1: each degree alone gives 2, both together 3
        g = make_family("path", 5)
        assert _single_degree_bound(g) == 2
        assert lower_bound_s(g) == 3
        rep = bound_report(g)
        assert (rep.s_lower, rep.ms_lower, rep.ms_infinite) == (3, 3, False)

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
