import random

import pytest

from irrstrength import (
    Graph,
    SolverConfig,
    certificate_to_json,
    count_labelings,
    lower_bound_s,
    make_family,
    make_triangular_book,
    solve,
    verify_irregular,
    verify_modular,
)
from irrstrength.books import irregular_strength, modular_strength
from irrstrength.solver import _search_order

from conftest import random_solid_graph

C3 = make_family("cycle", 3)


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
        from irrstrength import lower_bound_ms

        for n in (1, 2, 3, 5, 6, 7):
            g = make_triangular_book(n)
            result = solve(g, "ms")
            assert result.outcome == "finite"
            assert lower_bound_ms(g) <= result.k


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

    def test_ceiling_reached_is_unknown(self):
        result = solve(C3, "s", SolverConfig(k_max=2))
        assert result.outcome == "unknown"
        assert result.k_max == 2

    def test_rejects_ceiling_below_bound(self):
        with pytest.raises(ValueError, match="below the lower bound"):
            solve(make_triangular_book(6), "s", SolverConfig(k_max=3))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(k_max=0)
        with pytest.raises(ValueError):
            SolverConfig(thread_count=0)


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

    def test_guard_rejects_large_instances(self):
        with pytest.raises(ValueError, match="too large"):
            count_labelings(make_triangular_book(5), "ms", 16)  # 11 * 4 = 44 bits

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            count_labelings(C3, "s", 0)
        with pytest.raises(ValueError):
            count_labelings(C3, "irregular", 2)
        with pytest.raises(ValueError):
            count_labelings(Graph(3, []), "s", 2)

    def test_agrees_with_pruned_search_counts(self):
        # enumeration oracle vs the solver's counting DFS, both modes
        rng = random.Random(20240817)
        instances = [C3, make_family("path", 4), make_family("star", 3), make_triangular_book(2)]
        instances += [random_solid_graph(rng, 3, 5) for _ in range(6)]
        for g in instances:
            for mode in ("s", "ms"):
                if mode == "ms" and g.order % 4 == 2:
                    continue
                result = solve(g, mode, SolverConfig(count_solutions=True))
                assert result.outcome == "finite"
                assert result.solution_count == count_labelings(g, mode, result.k)

    def test_solver_count_identical_across_thread_counts(self):
        g = make_triangular_book(3)
        single = solve(g, "ms", SolverConfig(count_solutions=True, thread_count=1))
        multi = solve(g, "ms", SolverConfig(count_solutions=True, thread_count=4))
        assert single.solution_count == multi.solution_count
        assert single.certificate == multi.certificate


class TestMinimality:
    def test_book_five_modular_minimal(self):
        # the solver's k = 4 is minimal: full enumeration at 3 finds nothing
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
            assert sorted(_search_order(g)) == list(range(g.size))

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


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        g = make_triangular_book(5)
        a = solve(g, "ms", SolverConfig(thread_count=1))
        b = solve(g, "ms", SolverConfig(thread_count=1))
        assert certificate_to_json(a.certificate) == certificate_to_json(b.certificate)

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_multithreaded_matches_single(self, threads):
        for g, mode in [
            (make_triangular_book(5), "ms"),
            (make_triangular_book(4), "s"),
            (make_family("cycle", 5), "s"),
            (make_family("star", 4), "s"),
        ]:
            single = solve(g, mode, SolverConfig(thread_count=1))
            multi = solve(g, mode, SolverConfig(thread_count=threads))
            assert single.k == multi.k
            assert single.certificate == multi.certificate

    def test_multithreaded_random_instances(self):
        rng = random.Random(905)
        for _ in range(25):
            g = random_solid_graph(rng, 3, 6)
            single = solve(g, "s", SolverConfig(thread_count=1))
            multi = solve(g, "s", SolverConfig(thread_count=3))
            assert single.k == multi.k
            assert single.certificate == multi.certificate


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
