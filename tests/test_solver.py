import collections
import hashlib
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from irrstrength import (
    Graph,
    SolverConfig,
    bound_report,
    certificate_to_json,
    count_labelings,
    lower_bound_s,
    make_triangular_book,
    solve,
    verify_irregular,
    verify_modular,
)
from irrstrength import solver
from irrstrength.books import irregular_strength, modular_strength
from irrstrength.solver import _search_plan

from conftest import make_family, random_solid_graph

C3 = make_family("cycle", 3)


def _pinned_corpus():
    """The random corpus of tests/test_solve_pins.py."""
    rng = random.Random(0)
    return [random_solid_graph(rng, 8, 11, 0.3) for _ in range(20)]


def _reference_plan(g):
    """``_search_plan``'s greedy as it ranked edges before its integer keys,
    kept to referee them: each step rescans every unassigned edge for the
    least ``rank``. Returns each step's (edge, u, v, closing, opened) and the
    first-touch order; the twin and front passes are checked on their own."""
    ends = g.edge_tuples()
    remaining = g.degrees().tolist()

    def rank(e):
        u, v = ends[e]
        closes = (remaining[u] == 1) + (remaining[v] == 1)
        return -closes, remaining[u] + remaining[v], e

    unassigned = set(range(g.size))
    plan = []
    while unassigned:
        e = min(unassigned, key=rank)
        unassigned.remove(e)
        u, v = ends[e]
        remaining[u] -= 1
        remaining[v] -= 1
        closing = tuple(w for w in (u, v) if not remaining[w])
        plan.append((e, u, v, closing, tuple((w, remaining[w]) for w in (u, v) if remaining[w])))
    return plan, tuple(dict.fromkeys(w for _, u, v, *_ in plan for w in (u, v)))


def _components(g):
    parent = list(range(g.order))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edge_tuples():
        parent[root(u)] = root(v)
    return len({root(x) for x in range(g.order)})


# search nodes per instance of the corpora of ``test_plans_are_pinned``
NODE_PINS = {
    ("books", "s"): [17, 10, 10, 14, 19, 24, 30, 36, 43, 50, 58, 66, 75, 84, 94, 104, 115, 126],
    ("books", "ms"): [17, 10, 10, 0, 397, 134, 244, 0, 118, 71, 58, 0, 4708, 2536, 1998, 0, 352, 157],
    ("random", "s"): [33, 61, 33, 66, 26, 40, 37, 33, 20, 32, 51, 34, 21, 81, 107, 66, 28, 33, 29, 28],
    ("random", "ms"): [33, 75, 0, 66, 23, 5018, 0, 0, 34, 0, 11_197, 96, 22, 81, 1203, 66, 0, 33, 678, 0],
}


class TestSolveBooks:
    def test_irregular_strengths_match_closed_form(self):
        for n in range(1, 7):
            result = solve(make_triangular_book(n), "s")
            assert result.outcome == "finite"
            assert result.k == irregular_strength(n)

    def test_book_five_modular_is_four(self):
        result = solve(make_triangular_book(5), "ms")
        assert result.outcome == "finite"
        assert result.k == 4
        assert result.nodes < 2_000

    def test_deep_irregular_search_stays_small(self):
        # 1,201 steps deep. A doubled value mask kept for every step down the descent
        # peaks at 29 MB, runs wider than the order at 8 MB
        g = make_triangular_book(600)
        tracemalloc.start()
        try:
            result = solve(g, "s")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.k == irregular_strength(600) == 301
        assert peak < 4 * 2**20

    def test_deep_search_leaves_the_recursion_limit(self):
        # set first: an earlier deep solve in this process may have raised it already
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert solve(make_triangular_book(600), "s").k == 301
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_modular_agreement_skipping_infinite(self):
        for n in (1, 2, 3, 5, 6):
            result = solve(make_triangular_book(n), "ms")
            assert result.outcome == "finite"
            assert result.k == modular_strength(n)

    def test_infinite_by_order_criterion_without_search(self):
        for n in (4, 8):
            result = solve(make_triangular_book(n), "ms")
            assert result.outcome == "infinite"
            assert result.nodes == 0

    def test_cycle_three_modular(self):
        result = solve(C3, "ms")
        assert result.outcome == "finite"
        assert result.k == 3

    def test_certificates_verify(self):
        r = solve(make_triangular_book(4), "s")
        assert verify_irregular(r.certificate.graph, r.certificate.labeling).ok
        assert r.certificate.labeling.k <= r.k
        r = solve(make_triangular_book(6), "ms")
        assert verify_modular(r.certificate.graph, r.certificate.labeling).ok

    def test_modular_certificates_are_also_irregular(self):
        for n in (1, 2, 3, 5, 6):
            r = solve(make_triangular_book(n), "ms")
            assert verify_irregular(r.certificate.graph, r.certificate.labeling).ok

    def test_ms_lower_bound_sound_on_solved_books(self):
        for n in (1, 2, 3, 5, 6, 7):
            g = make_triangular_book(n)
            result = solve(g, "ms")
            assert result.outcome == "finite"
            assert bound_report(g).ms_lower <= result.k


class TestSolveEdgeCases:
    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="empty"):
            solve(Graph(0, []), "s")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            solve(C3, "total")

    def test_small_component_gives_infinite_in_s_mode(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        assert solve(g, "s").outcome == "infinite"
        assert solve(make_family("path", 2), "s").outcome == "infinite"

    def test_small_component_rejected_in_ms_mode(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        with pytest.raises(ValueError, match="component"):
            solve(g, "ms")

    def test_rejects_empty_graph_in_ms_mode(self):
        with pytest.raises(ValueError, match="empty"):
            solve(Graph(0, []), "ms")

    def test_order_two_mod_four_is_infinite_in_ms_mode_despite_a_lone_edge(self):
        # C4 and a lone edge: the order criterion is judged before the bound, which has no value here
        g = Graph(6, [(0, 1), (0, 3), (1, 2), (2, 3), (4, 5)])
        assert solve(g, "ms").outcome == "infinite"

    def test_ceiling_reached_is_unknown(self):
        result = solve(C3, "s", SolverConfig(k_max=2))
        assert result.outcome == "unknown"
        assert result.k_max == 2

    def test_rejects_ceiling_below_bound(self):
        with pytest.raises(ValueError, match="below the lower bound"):
            solve(make_triangular_book(6), "s", SolverConfig(k_max=3))

    def test_bad_config(self):
        for k_max in (0, True, 2.5, "3"):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                SolverConfig(k_max=k_max)


class TestCountLabelings:
    def test_triangle_irregular_two_labels(self):
        assert count_labelings(C3, "s", 2) == 0

    def test_triangle_modular_three_labels(self):
        # 6 = the labelings placing 1, 2, 3 on the three edges in any order
        assert count_labelings(C3, "ms", 3) == 6

    def test_triangle_irregular_three_labels(self):
        assert count_labelings(C3, "s", 3) == 6

    def test_book_five_modular_impossibility(self):
        g = make_triangular_book(5)
        assert 3 ** g.size == 177147
        assert count_labelings(g, "ms", 3) == 0

    def test_monotone_in_k(self):
        for g in (C3, make_family("path", 4), make_triangular_book(2)):
            for mode in ("s", "ms"):
                assert count_labelings(g, mode, 2) <= count_labelings(g, mode, 3)

    def test_guard_rejects_large_instances(self, monkeypatch):
        monkeypatch.setattr(solver, "_COUNT_BUDGET", 1000)
        with pytest.raises(ValueError, match="too large"):
            count_labelings(make_triangular_book(5), "ms", 16)
        # the path's two edges extend 1 state, then 200 states, by 200 labels each
        monkeypatch.setattr(solver, "_COUNT_BUDGET", 200 + 200 * 200)
        assert count_labelings(make_family("path", 3), "s", 200) == 200 * 199
        monkeypatch.setattr(solver, "_COUNT_BUDGET", 200 + 200 * 200 - 1)
        with pytest.raises(ValueError, match="too large"):
            count_labelings(make_family("path", 3), "s", 200)

    @pytest.mark.parametrize("n, mode, k, extensions", [(5, "ms", 3, 1251), (6, "s", 3, 1287), (8, "s", 4, 14_720)])
    def test_budget_exact_extension_counts(self, monkeypatch, n, mode, k, extensions):
        # the label extensions each count makes, taken when a state was a tuple:
        # a state packed into one int must merge exactly as the tuples did
        g = make_triangular_book(n)
        monkeypatch.setattr(solver, "_COUNT_BUDGET", extensions)
        assert count_labelings(g, mode, k) == 0
        monkeypatch.setattr(solver, "_COUNT_BUDGET", extensions - 1)
        with pytest.raises(ValueError, match="too large"):
            count_labelings(g, mode, k)

    def test_book_twelve_irregular_at_two_counts_nothing(self):
        g = make_triangular_book(12)
        assert 2**g.size == 2**25
        assert count_labelings(g, "s", 2) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            count_labelings(C3, "s", 0)
        with pytest.raises(ValueError):
            count_labelings(C3, "s", True)
        with pytest.raises(ValueError):
            count_labelings(C3, "s", 2.5)
        with pytest.raises(ValueError):
            count_labelings(C3, "irregular", 2)
        with pytest.raises(ValueError):
            count_labelings(Graph(3, []), "s", 2)

    def test_accepts_numpy_integers(self):
        assert count_labelings(C3, "s", np.int64(3)) == 6

    def test_many_batches_with_a_partial_last(self):
        # 200 + 200**2 = 40,200 label extensions, 200 states after the first edge
        assert count_labelings(make_family("path", 3), "s", 200) == 200 * 199

    def test_more_labels_than_one_block(self):
        k2 = Graph(2, [(0, 1)])
        for mode in ("s", "ms"):
            assert count_labelings(k2, mode, 40_000) == 0
        # the call must stay far below one array of k labels
        tracemalloc.start()
        try:
            assert count_labelings(k2, "s", 40_000) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000 * np.dtype(np.int32).itemsize

    @pytest.mark.parametrize(
        "g, mode, k",
        [
            (make_family("star", 3), "s", 21),  # values span 3 * 21 + 1 = 64
            (make_family("star", 3), "s", 22),  # span 67
            (C3, "s", 33),  # span 67, and valid labelings reach weight 65
            (Graph(64, [(i, i + 1) for i in range(10)]), "ms", 2),  # span 64, 53 isolated vertices
            (Graph(65, [(i, i + 1) for i in range(10)]), "ms", 2),  # span 65
        ],
    )
    def test_matches_brute_force_across_value_spans(self, g, mode, k):
        expected = 0
        for labels in itertools.product(range(1, k + 1), repeat=g.size):
            weights = [0] * g.order
            for (u, v), lab in zip(g.edge_tuples(), labels):
                weights[u] += lab
                weights[v] += lab
            values = [w % g.order for w in weights] if mode == "ms" else weights
            expected += len(set(values)) == g.order
        assert count_labelings(g, mode, k) == expected

    def test_degree_zero_vertices_hold_value_zero(self):
        # a, a + b, b and 0 pairwise distinct mod 4: a != b in 1..3 with a + b != 4
        assert count_labelings(Graph(4, [(0, 1), (1, 2)]), "ms", 4) == 4
        assert count_labelings(Graph(5, [(0, 1), (1, 2)]), "s", 3) == 0  # two vertices of weight 0

    def test_single_label_counts_nothing(self):
        for g in (C3, make_triangular_book(2), make_family("star", 3)):
            for mode in ("s", "ms"):
                assert count_labelings(g, mode, 1) == 0

    def test_single_label_needs_no_enumeration(self):
        g = make_triangular_book(3000)
        tracemalloc.start()
        try:
            assert count_labelings(g, "s", 1) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20  # no search plan, which alone takes about a second on B_3000

    def test_state_width_follows_the_front_not_the_order(self, monkeypatch):
        # 300 disjoint triangles: order 900, a front of at most two vertices;
        # states that gave every vertex a field of its own would take about
        # ten times the plan's memory before the budget stops the count.
        # count_labelings reuses the plan built here, kept on g, so the peak
        # after the reset is the DP's alone
        g = Graph(900, [(3 * t + i, 3 * t + j) for t in range(300) for i, j in ((0, 1), (1, 2), (0, 2))])
        monkeypatch.setattr(solver, "_COUNT_BUDGET", 2**15)
        tracemalloc.start()
        try:
            solver._search_plan(g)
            plan = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="too large"):
                count_labelings(g, "s", 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * plan

    def test_agrees_with_pruned_search_counts(self):
        # counting oracle vs the pruned search, both modes: from the bound up to
        # the solved k, the search finds a labeling by j iff the oracle counts one at j
        rng = random.Random(20240817)
        instances = [C3, make_family("path", 4), make_family("star", 3), make_triangular_book(2)]
        instances += [random_solid_graph(rng, 3, 5) for _ in range(6)]
        for g in instances:
            for mode in ("s", "ms"):
                if mode == "ms" and g.order % 4 == 2:
                    continue
                result = solve(g, mode)
                assert result.outcome == "finite"
                for j in range(lower_bound_s(g), result.k + 1):
                    found = solve(g, mode, SolverConfig(k_max=j)).outcome == "finite"
                    assert found == (count_labelings(g, mode, j) > 0)


class TestMinimality:
    def test_book_five_modular_minimal(self):
        # the solver's k = 4 is minimal: the exact count at 3 is zero
        assert count_labelings(make_triangular_book(5), "ms", 3) == 0
        assert solve(make_triangular_book(5), "ms").k == 4

    def test_cycle_modular_minimal(self):
        assert count_labelings(C3, "ms", 2) == 0
        assert solve(C3, "ms").k == 3

    def test_deepening_starts_at_lower_bound(self):
        for n in (2, 3, 5, 6):
            g = make_triangular_book(n)
            assert solve(g, "s").k >= lower_bound_s(g)


class TestSearchOrder:
    def test_is_a_permutation_of_the_edges(self):
        rng = random.Random(31)
        graphs = [C3, make_family("star", 4), make_triangular_book(1), make_triangular_book(7)]
        graphs += [random_solid_graph(rng, 3, 9) for _ in range(10)]
        for g in graphs:
            plan, touch = _search_plan(g)
            assert sorted(e for e, *_ in plan) == list(range(g.size))
            assert touch == tuple(dict.fromkeys(w for _, a, b, *_ in plan for w in (a, b)))
            closed = [w for _, _, _, closing, *_ in plan for w in closing]
            assert sorted(closed) == np.flatnonzero(g.degrees()).tolist()
            # opened: each endpoint left with unassigned edges, recounted from the later steps
            for i, (_, u, v, closing, opened, *_) in enumerate(plan):
                later = collections.Counter(x for _, a, b, *_ in plan[i + 1 :] for x in (a, b))
                assert opened == tuple((w, later[w]) for w in (u, v) if later[w])
                assert closing == tuple(w for w in (u, v) if not later[w])

    def test_integer_keys_rank_as_the_reference(self):
        # 320 random graphs of order 2-14 from sparse to complete, isolated
        # vertices and several components included, and B_1..B_60: each step's
        # edge, endpoints, closing and opened, and the first-touch order, as the
        # rescanning planner. Twins, fronts, rests and t are checked by
        # test_twin_transpositions, test_fronts_are_the_open_touched_vertices_outside_twin_spans,
        # TestLexFirst and the node, plan and solve pins
        rng = random.Random(24)
        graphs = [make_triangular_book(n) for n in range(1, 61)]
        graphs += [Graph(5, []), Graph(9, [(0, 1), (0, 2), (1, 2), (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)])]
        for _ in range(320):
            order = rng.randint(2, 14)
            p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0))
            graphs.append(Graph(order, [(u, v) for u, v in itertools.combinations(range(order), 2) if rng.random() < p]))
        isolated = several = complete = 0
        for g in graphs:
            plan, touch = _search_plan(g)
            assert ([step[:5] for step in plan], touch) == _reference_plan(g)
            isolated += bool((g.degrees() == 0).any())
            several += _components(g) > 1
            complete += g.size == g.order * (g.order - 1) // 2
        assert min(isolated, several, complete) >= 20

    def test_fronts_are_the_open_touched_vertices_outside_twin_spans(self):
        # a step's front: the vertices earlier steps touched and did not close,
        # in first-touch order; None exactly on step 0 and inside some twin
        # transposition's [min p + 1, max q]. A keyed step also holds its front's unassigned
        # edge counts and the start of the untouched suffix of the plan's
        # first-touch order, and never lists a twin transposition
        rng = random.Random(7)
        graphs = [make_triangular_book(n) for n in (1, 2, 7)] + [make_family("cycle", 6)]
        graphs += [Graph(4, list(itertools.combinations(range(4), 2)))]
        # twins 0 and 4, with cycles (1, 5), (2, 8), (3, 6): the span ends at the greatest q,
        # 8, not at the q of the cycle with the greatest p
        graphs += [Graph(6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5), (4, 5)])]
        graphs += [random_solid_graph(rng, 5, 11, 0.3) for _ in range(20)]
        kinds = collections.Counter()
        for g in graphs:
            plan, touch = _search_plan(g)
            swaps = {cycles for step in plan for cycles in step[5]}
            for j, step in enumerate(plan):
                inside = not j or any(cycles[0][0] < j <= max(q for _, q in cycles) for cycles in swaps)
                touched = dict.fromkeys(w for _, a, b, *_ in plan[:j] for w in (a, b))
                closed = {w for _, _, _, closing, *_ in plan[:j] for w in closing}
                front = tuple(w for w in touched if w not in closed)
                later = collections.Counter(x for _, a, b, *_ in plan[j:] for x in (a, b))
                if inside:
                    assert step[6:] == (None, None, None)
                else:
                    assert step[6:] == (front, tuple(later[w] for w in front), len(touched))
                    assert touch[: step[8]] == tuple(touched)
                    assert not step[5]
                kinds[inside] += 1
        assert kinds[True] and kinds[False]

    def test_minimal_k_agrees_with_enumeration(self):
        rng = random.Random(2024)
        for _ in range(30):
            g = random_solid_graph(rng, 3, 7)
            for mode in ("s", "ms"):
                if mode == "ms" and g.order % 4 == 2:
                    continue
                k = solve(g, mode).k
                assert count_labelings(g, mode, k) > 0
                if k - 1 >= lower_bound_s(g):
                    assert count_labelings(g, mode, k - 1) == 0

    def test_book_ten_irregular_node_guard(self):
        result = solve(make_triangular_book(10), "s")
        assert result.k == 6
        assert result.nodes < 10_000

    def test_book_thirteen_modular_solves(self):
        result = solve(make_triangular_book(13), "ms")
        assert result.outcome == "finite"
        assert result.k == 7
        assert result.nodes < 50_000

    def test_book_twenty_one_modular_solves(self):
        result = solve(make_triangular_book(21), "ms")
        assert result.outcome == "finite"
        assert result.k == 11

    @pytest.mark.parametrize("name, digest", [
        ("books", "2aaea6dc0b7760207c308a520e06d67606b16c7ed606fa4ac8d55106117efa4b"),
        ("random", "02322ea4dc51636866e663a50f3ad01fab59d263dd7bf2472ffe0fc1d52ad8ae"),
    ])
    def test_plans_are_pinned(self, name, digest):
        # B_1..B_18 and the pinned random corpus; a rewrite of the planner must
        # give the same plans
        graphs = [make_triangular_book(n) for n in range(1, 19)] if name == "books" else _pinned_corpus()
        text = repr([[step[:4] for step in _search_plan(g)[0]] for g in graphs])
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("name, mode", sorted(NODE_PINS))
    def test_nodes_are_pinned(self, name, mode):
        # per instance, B_1..B_18 and the pinned random corpus; a change to the
        # search that moves any count updates these pins on purpose
        graphs = [make_triangular_book(n) for n in range(1, 19)] if name == "books" else _pinned_corpus()
        assert [solve(g, mode).nodes for g in graphs] == NODE_PINS[name, mode]

    def test_book_nineteen_modular_node_guard(self):
        result = solve(make_triangular_book(19), "ms")
        assert result.k == 10
        assert result.nodes < 300_000

    def test_random_corpus_node_guard(self):
        graphs = _pinned_corpus()
        assert sum(solve(g, mode).nodes for g in graphs for mode in ("s", "ms")) < 30_000

    def test_twin_transpositions(self):
        # B_n, n >= 2: the n - 1 swaps of consecutive pages and a <-> b; B_1
        # and K_4: the swaps of consecutive true twins; C_5 has no twins
        graphs = [(make_triangular_book(n), n) for n in (2, 5, 9)]
        graphs += [(make_triangular_book(1), 2), (Graph(4, list(itertools.combinations(range(4), 2))), 3)]
        graphs += [(make_family("cycle", 5), 0)]
        for g, count in graphs:
            checks = [step[5] for step in _search_plan(g)[0]]
            swaps = {cycles for twins in checks for cycles in twins}
            assert len(swaps) == count
            for cycles in swaps:
                assert [p for p, _ in cycles] == sorted(p for p, _ in cycles)
                assert all(p < q for p, q in cycles)
                assert [q for q, twins in enumerate(checks) if cycles in twins] == sorted(q for _, q in cycles)


def _distinct_picks(choices) -> bool:
    """Whether one value can be picked from each list, all distinct (Kuhn's augmenting paths)."""
    owner = {}

    def place(i, seen) -> bool:
        for x in choices[i]:
            if x not in seen:
                seen.add(x)
                if x not in owner or place(owner[x], seen):
                    owner[x] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(choices)))


class TestHallCheck:
    # solver._hall on hand-built states: ``degrees`` gives the order and the
    # untouched vertices' runs, ``front`` the open touched vertices with their
    # weights and unassigned edges, ``taken`` the values closed vertices hold

    def test_open_vertices_squeezed_into_too_few_values_are_cut(self):
        # s, k = 3: weight 2 with one edge left reaches [3, 5]; 4 is taken
        matched = solver._hall([3] * 6, tuple(range(6)), 3, 10, 0)
        weights, taken = [2] * 6, 1 << 4
        assert 0b111 << 3 & ~taken  # each vertex alone passes the reach test
        assert matched((0, 1), (1, 1), weights, 6, taken)
        assert not matched((0, 1, 2), (1, 1, 1), weights, 6, taken)

    def test_untouched_vertices_take_their_degree_runs(self):
        # s, k = 2: vertex 0 (weight 0, one edge left) and the untouched
        # vertices 1 and 2 of degree 1 all reach only [1, 2]; vertex 3's run,
        # [3, 6], has order or more values and is dropped
        matched = solver._hall([1, 1, 1, 3], (0, 1, 2, 3), 2, 7, 0)
        assert matched((0,), (1,), [0] * 4, 2, 0)
        assert not matched((0,), (1,), [0] * 4, 1, 0)

    def test_modular_arc_wrapping_past_the_order(self):
        # ms, order 5, k = 2: weight 3 with one edge left reaches residues 4 and 0,
        # unrolled as bits 4 and 5 of the doubled line
        matched = solver._hall([4] * 5, tuple(range(5)), 2, 5, 5)
        weights = [3] * 5
        assert matched((0, 1), (1, 1), weights, 5, 0)
        assert not matched((0, 1, 2), (1, 1, 1), weights, 5, 0)
        for taken in (1 << 0, 1 << 4):  # either residue taken leaves room for one
            assert matched((0,), (1,), weights, 5, taken)
            assert not matched((0, 1), (1, 1), weights, 5, taken)
        assert not matched((0,), (1,), weights, 5, 1 << 0 | 1 << 4)

    def test_full_length_modular_arc_is_dropped(self):
        # ms, order 5: two edges left at k = 3 reach all 5 residues, so the run
        # is dropped even with every residue taken; one edge at k = 4 reaches 4
        # residues and is checked
        degrees, touch, everything = [4] * 5, tuple(range(5)), 0b11111
        assert solver._hall(degrees, touch, 3, 5, 5)((0,), (2,), [0] * 5, 5, everything)
        assert not solver._hall(degrees, touch, 4, 5, 5)((0,), (1,), [0] * 5, 5, everything)

    @pytest.mark.parametrize("mode", ["s", "ms"])
    def test_root_check_is_the_counting_bound(self, mode):
        # with nothing touched or taken the runs are [d, d*k]: Hall's condition
        # on them is the degree-range bound, so step 0 needs no check
        rng = random.Random(3)
        for _ in range(60):
            g = random_solid_graph(rng, 3, 12, 0.4)
            degrees, lb = g.degrees().tolist(), lower_bound_s(g)
            for k in range(max(1, lb - 2), lb + 3):
                span = g.order if mode == "ms" else k * max(degrees) + 1
                matched = solver._hall(degrees, tuple(range(g.order)), k, span, span if mode == "ms" else 0)
                assert matched((), (), [0] * g.order, 0, 0) == (k >= lb)

    @pytest.mark.parametrize("mode", ["s", "ms"])
    def test_agrees_with_brute_force_matching(self, mode):
        # random states with no more closed and open vertices than the order:
        # in s the check is exact; in ms it passes every state whose runs can
        # take distinct free residues
        rng = random.Random(5)
        cuts = 0
        for _ in range(300):
            order, k = rng.randint(4, 7), rng.randint(2, 3)
            degrees = [rng.randint(1, 3) for _ in range(order)]
            span = order if mode == "ms" else k * max(degrees) + 1
            vertices = rng.sample(range(order), order)
            closed = rng.randint(0, min(order, span) - 1)
            opens = vertices[closed:]
            t = rng.randint(0, len(opens))  # the open vertices touched
            front = tuple(opens[:t])
            rests = tuple(rng.randint(1, degrees[w]) for w in front)
            weights = [0] * order
            for w, r in zip(front, rests):
                weights[w] = rng.randint(degrees[w] - r, k * (degrees[w] - r))
            taken = 0
            while taken.bit_count() < closed:
                taken |= 1 << rng.randrange(span)
            pairs = [(weights[w], r) for w, r in zip(front, rests)] + [(0, degrees[w]) for w in opens[t:]]
            choices = [
                [x for x in ((w + j) % span for j in range(r, r * k + 1)) if not taken >> x & 1]
                for w, r in pairs
            ]
            feasible = _distinct_picks(choices)
            verdict = solver._hall(degrees, tuple(vertices), k, span, order if mode == "ms" else 0)(
                front, rests, weights, closed + t, taken
            )
            if mode == "s":
                assert verdict == feasible
            else:
                assert verdict or not feasible
            cuts += not verdict
        assert 50 <= cuts <= 250


def _is_valid(g, labels, mode: str) -> bool:
    """Pure-Python check of a labeling in canonical edge order."""
    weights = [0] * g.order
    for (u, v), lab in zip(g.edge_tuples(), labels):
        weights[u] += lab
        weights[v] += lab
    if mode == "s":
        return len(set(weights)) == g.order
    return len({w % g.order for w in weights}) == g.order


def _planted_twins(rng, order: int) -> Graph:
    """A random graph on ``order`` vertices whose last vertex is a false twin of vertex 0."""
    g = random_solid_graph(rng, order - 1, order - 1, 0.3)
    ends = g.edge_tuples()
    return Graph(order, ends + [(v, order - 1) for u, v in ends if u == 0])


class TestLexFirst:
    def test_certificate_is_the_first_valid_labeling_in_plan_order(self):
        # twin pruning and the failed-subtree table must keep the first
        # labeling of the unpruned DFS, on twin-rich graphs, on random ones
        # and on order 7-8 graphs with a planted twin pair, whose plans mix
        # keyed steps with steps inside a twin span
        rng = random.Random(8)
        planted = [_planted_twins(rng, 7 + n % 2) for n in range(12)]
        mixed = 0  # step 0 is never keyed, so count the plans that mix on later steps
        for g in planted:
            fronts = [step[6] for step in _search_plan(g)[0]][1:]
            mixed += None in fronts and any(front is not None for front in fronts)
        assert mixed >= 10
        twin_rich = planted + [
            Graph(4, list(itertools.combinations(range(4), 2))),
            Graph(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)]),
            Graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]),
            make_family("star", 4),
        ] + [make_triangular_book(n) for n in (2, 3, 4)]
        rng = random.Random(1996)
        checked = 0
        for g in twin_rich + [random_solid_graph(rng, 3, 6) for _ in range(40)]:
            for mode in ("s", "ms"):
                result = solve(g, mode)
                if result.outcome != "finite" or result.k ** g.size > 3**10:
                    continue
                k = result.k
                steps = [e for e, *_ in _search_plan(g)[0]]
                for labels in itertools.product(range(1, k + 1), repeat=g.size):
                    canonical = [0] * g.size
                    for e, lab in zip(steps, labels):
                        canonical[e] = lab
                    if _is_valid(g, canonical, mode):
                        break
                assert canonical == result.certificate.labeling.labels.tolist()
                if k - 1 >= lower_bound_s(g):
                    assert count_labelings(g, mode, k - 1) == 0
                checked += 1
        assert checked >= 66


def _no_lists(value) -> bool:
    """Whether no list occurs in ``value``, nested tuples searched."""
    return not isinstance(value, list) and (not isinstance(value, tuple) or all(map(_no_lists, value)))


class TestPlanKeptOnTheGraph:
    GRAPHS = [C3, make_triangular_book(5), make_triangular_book(9)] + _pinned_corpus()[:6]

    def test_second_call_returns_the_stored_plan(self):
        for g in self.GRAPHS:
            assert _search_plan(g) is _search_plan(g)

    def test_both_modes_and_the_oracle_build_one_plan(self, monkeypatch):
        builds = []
        build = solver._build_plan
        monkeypatch.setattr(solver, "_build_plan", lambda g: builds.append(g) or build(g))
        for g in [make_triangular_book(5)] + [g for g in _pinned_corpus() if g.order % 4 != 2][:3]:
            s, ms = solve(g, "s"), solve(g, "ms")
            count_labelings(g, "ms", ms.k - 1)
            assert solve(g, "s", SolverConfig(k_max=s.k)).k == s.k
            assert len(builds) == 1 and builds.pop() is g

    def test_equal_graphs_get_equal_plans_and_certificates(self):
        for g in self.GRAPHS:
            twin = Graph(g.order, g.edges.tolist())
            assert twin is not g and twin == g
            assert _search_plan(twin) == _search_plan(g) and _search_plan(twin) is not _search_plan(g)
            for mode in ("s", "ms"):
                assert solve(twin, mode).to_json() == solve(g, mode).to_json()

    def test_stored_plan_holds_no_list(self):
        for g in self.GRAPHS:
            plan, touch = _search_plan(g)
            assert isinstance(plan, tuple) and all(isinstance(step, tuple) for step in plan)
            assert _no_lists((plan, touch))  # the twins field of every step included


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        g = make_triangular_book(5)
        a = solve(g, "ms")
        b = solve(g, "ms")
        assert certificate_to_json(a.certificate) == certificate_to_json(b.certificate)


class TestResultJson:
    def test_finite_document(self):
        import json

        result = solve(C3, "ms")
        doc = json.loads(result.to_json())
        assert list(doc) == ["mode", "outcome", "k", "certificate"]
        assert doc["outcome"] == "finite" and doc["k"] == 3

    def test_infinite_document(self):
        import json

        doc = json.loads(solve(make_triangular_book(4), "ms").to_json())
        assert doc == {"mode": "ms", "outcome": "infinite"}

    def test_unknown_document(self):
        import json

        doc = json.loads(solve(C3, "s", SolverConfig(k_max=2)).to_json())
        assert doc == {"mode": "s", "outcome": "unknown", "kMax": 2}
