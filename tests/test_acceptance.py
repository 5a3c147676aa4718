"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import numpy as np

from irrstrength import (
    EdgeLabeling,
    SolverConfig,
    certificate_from_json,
    certificate_to_json,
    count_labelings,
    lower_bound_s,
    make_certificate,
    make_family,
    make_triangular_book,
    solve,
    verify_irregular,
    verify_modular,
    vertex_weights,
)
from irrstrength.books import (
    irregular_labeling,
    irregular_strength,
    modular_labeling,
    modular_strength,
    predicted_weights,
)

from conftest import random_graph, random_labeling, random_solid_graph


@contextmanager
def criterion(num, text):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {text}")
        raise
    print(f"\nACCEPTANCE {num} PASS ({time.monotonic() - start:.1f}s): {text}")


def test_criterion_1_solver_matches_closed_form_strengths():
    with criterion(1, "solve(B_n, s) = (3,2,2,3,3,4) for n = 1..6, under 60 s"):
        start = time.monotonic()
        got = []
        for n in range(1, 7):
            result = solve(make_triangular_book(n), "s")
            assert result.outcome == "finite"
            assert result.k == irregular_strength(n)
            assert verify_irregular(result.certificate.graph, result.certificate.labeling).ok
            got.append(result.k)
        assert got == [3, 2, 2, 3, 3, 4]
        assert time.monotonic() - start < 60.0


def test_criterion_2_five_page_impossibility():
    with criterion(2, "B_5: no modular 3-labeling among all 177147; ms solves to 4, under 10 s"):
        start = time.monotonic()
        g = make_triangular_book(5)
        assert 3 ** g.size == 177147  # full enumeration space of the oracle
        assert count_labelings(g, "ms", 3) == 0
        result = solve(g, "ms")
        assert result.outcome == "finite"
        assert result.k == 4
        assert verify_modular(result.certificate.graph, result.certificate.labeling).ok
        assert time.monotonic() - start < 10.0


def test_criterion_3_infinity_rule_without_search():
    with criterion(3, "solve(B_n, ms) infinite for n in {4, 8} with zero search nodes"):
        for n in (4, 8):
            result = solve(make_triangular_book(n), "ms")
            assert result.outcome == "infinite"
            assert result.nodes == 0
            assert result.elapsed < 0.1


def test_criterion_4_modular_construction_for_all_n_to_10000():
    with criterion(4, "modular construction sound for n = 1..10000 (n != 0 mod 4), under 10 s"):
        start = time.monotonic()
        for n in range(1, 10001):
            if n % 4 == 0:
                continue
            g = make_triangular_book(n)
            f = modular_labeling(n)
            assert verify_modular(g, f).ok, n
            assert f.k == modular_strength(n), n
            prof = vertex_weights(g, f)
            assert prof == predicted_weights(n, theorem=2), n
            if n == 1:
                assert prof.weights.tolist() == [4, 5, 3]
            else:
                assert prof.weights[2:].tolist() == list(range(2, n + 2)), n
                if n == 5:
                    assert (prof.residues[0], prof.residues[1]) == (1, 0)
                else:
                    assert (prof.residues[0], prof.residues[1]) == (0, 1), n
        assert time.monotonic() - start < 10.0


def test_criterion_5_irregular_construction_for_all_n_to_10000():
    with criterion(5, "irregular construction sound for n = 1..10000, center quadratics exact"):
        for n in range(1, 10001):
            g = make_triangular_book(n)
            f = irregular_labeling(n)
            assert verify_irregular(g, f).ok, n
            assert f.k == irregular_strength(n), n
            w = vertex_weights(g, f).weights
            if n == 1:
                assert w.tolist() == [4, 5, 3]
            elif n == 2:
                assert w.tolist() == [4, 5, 2, 3]
            elif n % 2 == 1:
                assert w[0] == (n * n + 2 * n + 5) // 4, n
                assert w[1] == (n * n + 4 * n + 3) // 4, n
            else:
                assert w[0] == (n * n + 2 * n + 4) // 4, n
                assert w[1] == (n * n + 4 * n + 4) // 4, n


def test_criterion_6_bound_consistency():
    with criterion(6, "bound = ceil((n+1)/2) on books to 10000; bound <= exact s on random corpus"):
        for n in range(2, 10001):
            assert lower_bound_s(make_triangular_book(n)) == (n + 2) // 2, n
        rng = random.Random(60616)
        solved = 0
        while solved < 20:
            g = random_solid_graph(rng, min_order=3, max_order=8)
            result = solve(g, "s", SolverConfig(k_max=16))
            assert result.outcome == "finite"
            assert lower_bound_s(g) <= result.k
            solved += 1


def test_criterion_7_property_suite_over_randomized_instances():
    with criterion(7, "handshake, modular=>irregular, consecutive-weight rule, round trip, "
                      "determinism: 1000+ instances each"):
        rng = random.Random(774400)

        # handshake identity
        for _ in range(1000):
            g = random_graph(rng)
            f = random_labeling(rng, g)
            prof = vertex_weights(g, f)
            assert int(prof.weights.sum()) == 2 * int(f.labels.sum())

        # modular ok => irregular ok; random draws plus the closed-form
        # constructions as a guaranteed non-vacuous population
        non_vacuous = 0
        for _ in range(1000):
            g = random_graph(rng)
            f = random_labeling(rng, g, k_max=3)
            if verify_modular(g, f).ok:
                non_vacuous += 1
                assert verify_irregular(g, f).ok
        book_pages = [n for n in range(2, 1500) if n % 4 != 0]
        assert len(book_pages) + non_vacuous >= 1000
        for n in book_pages:
            g = make_triangular_book(n)
            f = modular_labeling(n)
            assert verify_modular(g, f).ok
            assert verify_irregular(g, f).ok

        # consecutive-weight irregular assignments are modular; random
        # implication draws plus exhaustive small families for coverage
        for _ in range(1000):
            g = random_graph(rng, min_order=3, max_order=6)
            f = random_labeling(rng, g, k_max=3)
            if verify_irregular(g, f).ok:
                w = np.sort(vertex_weights(g, f).weights)
                if (np.diff(w) == 1).all():
                    assert verify_modular(g, f).ok
        hits = 0
        for g, kmax in [
            (make_family("path", 3), 3),
            (make_family("path", 4), 3),
            (make_family("path", 5), 3),
            (make_family("cycle", 3), 3),
            (make_family("cycle", 4), 3),
            (make_family("star", 3), 3),
        ]:
            for labels in product(range(1, kmax + 1), repeat=g.size):
                f = EdgeLabeling(labels)
                if not verify_irregular(g, f).ok:
                    continue
                w = np.sort(vertex_weights(g, f).weights)
                if (np.diff(w) == 1).all():
                    hits += 1
                    assert verify_modular(g, f).ok
        assert hits > 0

        # certificate round trip is byte-identical
        for i in range(1000):
            g = random_graph(rng)
            f = random_labeling(rng, g)
            mode = "modular" if i % 2 else "irregular"
            text = certificate_to_json(make_certificate(g, f, mode))
            assert certificate_to_json(certificate_from_json(text)) == text
        for kind, sizes in [("path", range(3, 9)), ("cycle", range(3, 9)), ("star", range(2, 7))]:
            for size, mode in product(sizes, ("s", "ms")):
                result = solve(make_family(kind, size), mode)
                if result.outcome == "finite":
                    text = certificate_to_json(result.certificate)
                    assert certificate_to_json(certificate_from_json(text)) == text

        # repeat runs give a byte-identical certificate
        repeats_checked = 0
        for i in range(1000):
            g = random_solid_graph(rng, min_order=4, max_order=6)
            mode = "ms" if (i % 2 == 0 and g.order % 4 != 2) else "s"
            first = solve(g, mode)
            if i % 10 == 0 and first.outcome == "finite":
                again = solve(g, mode)
                assert certificate_to_json(again.certificate) == certificate_to_json(
                    first.certificate
                )
                repeats_checked += 1
        assert repeats_checked > 0
