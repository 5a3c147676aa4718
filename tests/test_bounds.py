import collections
import itertools
import math
import random
import tracemalloc

import pytest

from irrstrength import (
    Graph,
    bound_report,
    count_labelings,
    lower_bound_s,
    make_triangular_book,
    solve,
)
from irrstrength import bounds
from irrstrength.bounds import _refute, has_small_component, lower_bound_ms, modular_infinite

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


def _weight_tuples(order: int, degrees, k: int) -> tuple[bool, bool]:
    """(some weights w_v in [d_v, k * d_v] take distinct residues mod ``order``,
    some do with an even sum), by enumerating every tuple of weights."""
    distinct = False
    for weights in itertools.product(*(range(d, k * d + 1) for d in degrees)):
        if len({w % order for w in weights}) == order:
            distinct = True
            if sum(weights) % 2 == 0:
                return True, True
    return distinct, False


def _histogram(degrees) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``Graph._degree_counts()`` of a degree multiset."""
    counts = collections.Counter(degrees)
    return tuple(sorted(counts)), tuple(counts[d] for d in sorted(counts))


def _multisets():
    """(order, ascending degrees, k) over orders 3..7, degrees 1..4 and k 1..4, at most 5,000 weight tuples each."""
    for order in range(3, 8):
        for degrees in itertools.combinations_with_replacement(range(1, 5), order):
            for k in range(1, 5):
                if math.prod((k - 1) * d + 1 for d in degrees) <= 5000:
                    yield order, degrees, k


def _even_residues(order: int, degrees, k: int) -> bool:
    """Whether ``_refute`` leaves k open at a full budget."""
    return _refute(order, _histogram(degrees), k, bounds._PARITY_BUDGET) is None


class TestParityFloor:
    def test_equals_weight_enumeration(self):
        # exact wherever no shortcut applies: odd orders whose widest range is under 2 * order
        cases = collections.Counter()
        for order, degrees, k in _multisets():
            if order % 2 and (k - 1) * degrees[-1] + 1 < 2 * order:
                distinct, even = _weight_tuples(order, degrees, k)
                assert _even_residues(order, degrees, k) == even, (order, degrees, k)
                cases[distinct, even] += 1
        # 13 cases take distinct residues, each time with an odd sum only
        assert cases == {(False, False): 275, (True, True): 82, (True, False): 13}

    def test_shortcuts_hold_by_enumeration(self):
        # order 0 mod 4, or an odd order with a range of 2 * order weights: wherever the
        # residues can be distinct, they can be with an even sum, so True is never wrong
        shortcuts = collections.Counter()
        for order, degrees, k in _multisets():
            wide = order % 2 and (k - 1) * degrees[-1] + 1 >= 2 * order
            if order % 4 == 0 or wide:
                assert _even_residues(order, degrees, k)
                distinct, even = _weight_tuples(order, degrees, k)
                assert even == distinct, (order, degrees, k)
                shortcuts["wide" if wide else "0 mod 4", distinct] += 1
        assert shortcuts == {("0 mod 4", True): 84, ("0 mod 4", False): 40, ("wide", True): 38}

    def test_two_mod_four_never_sums_even(self):
        # the infinity property, by enumeration: distinct residues, but never an even sum
        distinct = 0
        for order, degrees, k in _multisets():
            if order % 4 == 2:
                found, even = _weight_tuples(order, degrees, k)
                assert not even
                distinct += found
        assert distinct == 37

    def test_spent_budget_passes_every_k(self, monkeypatch):
        monkeypatch.setattr(bounds, "_PARITY_BUDGET", 0)
        for order, degrees, k in _multisets():
            if order % 4 != 2:
                assert _even_residues(order, degrees, k)
        triangle = make_family("cycle", 3)
        assert lower_bound_ms(triangle) == lower_bound_s(triangle) == 2

    def test_triangle_skips_two(self):
        # weights in [2, 4] take residues 2, 0, 1 mod 3 once each, so they sum to 9
        triangle = make_family("cycle", 3)
        assert (lower_bound_s(triangle), lower_bound_ms(triangle)) == (2, 3)
        assert bound_report(triangle).ms_lower == 3

    def test_hubs_take_the_wide_shortcut(self):
        # B_99999 has order 100001; its hubs of degree 100000 reach every weight parity at k = 50000
        g = make_triangular_book(99999)
        assert lower_bound_ms(g) == lower_bound_s(g) == 50000

    @pytest.mark.parametrize("n", (4097, 200001))
    def test_wide_states_stop_at_the_first_charge(self, n):
        # an odd cycle takes no shortcut: at k = (n + 1) / 2 each range holds every residue once.
        # Its states are n bits wide, so the first state's charge, n weights times its machine
        # words, passes the budget before a move is built; C_4097's n weights alone would not
        g = make_family("cycle", n)
        g._degree_counts()
        tracemalloc.start()
        report = bound_report(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert report.s_lower == report.ms_lower == (n + 1) // 2
        assert peak < 64 * 1024

    def test_refutes_only_within_the_budget(self, monkeypatch):
        # g10 of the random corpus of tests/test_solve_pins.py: refuting k = 3 charges 1,038 extensions
        rng = random.Random(0)
        g10 = [random_solid_graph(rng, 8, 11, 0.3) for _ in range(20)][10]
        assert (lower_bound_s(g10), lower_bound_ms(g10)) == (3, 4)
        monkeypatch.setattr(bounds, "_PARITY_BUDGET", 1038)
        assert lower_bound_ms(g10) == 4
        monkeypatch.setattr(bounds, "_PARITY_BUDGET", 1037)
        assert lower_bound_ms(g10) == 3

    @pytest.mark.parametrize("n", (4, 8, 100000))
    def test_orders_two_mod_four_are_infinite(self, n):
        assert lower_bound_ms(make_triangular_book(n)) == math.inf


class TestAtlasCensus:
    """The floor against the solver over the networkx atlas: every graph on at most 7 vertices."""

    def test_floor_against_the_solver(self):
        nx = pytest.importorskip("networkx")
        graphs = [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()[1:]]
        graphs = [g for g in graphs if not has_small_component(g)]
        finite = risen = above_s = explained = 0
        for g in graphs:
            floor, ms = lower_bound_ms(g), solve(g, "ms")
            if ms.outcome != "finite":
                assert floor == math.inf
                continue
            finite += 1
            assert floor <= ms.k
            if floor > lower_bound_s(g):
                risen += 1
                assert floor == ms.k
            if ms.k > solve(g, "s").k:
                above_s += 1
                explained += floor == ms.k
        assert (len(graphs), finite, risen, above_s, explained) == (1009, 894, 177, 112, 66)


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
