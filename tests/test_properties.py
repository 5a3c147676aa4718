"""Property-based checks over randomized graphs and labelings."""

import math
from itertools import combinations, product

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irrstrength import (
    EdgeLabeling,
    Graph,
    certificate_from_json,
    certificate_to_json,
    count_labelings,
    make_certificate,
    make_triangular_book,
    verify_irregular,
    verify_modular,
    verify_profile,
    vertex_weights,
)
from irrstrength.books import (
    _case,
    irregular_labeling,
    irregular_strength,
    modular_labeling,
    modular_strength,
    predicted_weights,
)
from irrstrength.bounds import has_small_component, lower_bound_s
from irrstrength.labelings import LABEL_LIMIT

from conftest import make_family


@st.composite
def graphs(draw, min_order=3, max_order=8):
    order = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(order), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return Graph(order, sorted(edges))


@st.composite
def labeled_instances(draw, max_label=6, **kw):
    g = draw(graphs(**kw))
    labels = draw(st.lists(st.integers(1, max_label), min_size=g.size, max_size=g.size))
    return g, EdgeLabeling(labels)


@st.composite
def gappy_instances(draw):
    """Up to 12 vertices and few edges, so some vertices are isolated and some have no higher neighbour."""
    order = draw(st.integers(1, 12))
    pairs = list(combinations(range(order), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=order))) if pairs else []
    labels = draw(st.lists(st.integers(1, LABEL_LIMIT), min_size=len(edges), max_size=len(edges)))
    return Graph(order, edges), labels


@st.composite
def sparse_instances(draw):
    """Paths, cycles, and small graphs with small labels: better odds of
    hitting consecutive-weight irregular assignments."""
    g = draw(
        st.one_of(
            st.integers(3, 6).map(lambda s: make_family("path", s)),
            st.integers(3, 6).map(lambda s: make_family("cycle", s)),
            graphs(3, 6),
        )
    )
    labels = draw(st.lists(st.integers(1, 3), min_size=g.size, max_size=g.size))
    return g, EdgeLabeling(labels)


class TestWeightProperties:
    @given(labeled_instances())
    def test_handshake(self, inst):
        g, f = inst
        prof = vertex_weights(g, f)
        assert int(prof.weights.sum()) == 2 * int(f.labels.sum())

    @given(labeled_instances())
    def test_weights_match_incidence_sums(self, inst):
        # independent pure-python recomputation of the vectorized path
        g, f = inst
        prof = vertex_weights(g, f)
        expected = [0] * g.order
        for (u, v), lab in zip(g.edge_tuples(), f.labels.tolist()):
            expected[u] += lab
            expected[v] += lab
        assert prof.weights.tolist() == expected

    @given(gappy_instances())
    @example((Graph(7, [(0, 3), (3, 5), (3, 6)]), [7, LABEL_LIMIT, 1]))
    def test_degrees_and_weights_match_per_edge_sums(self, inst):
        g, labels = inst
        degrees = [0] * g.order
        weights = [0] * g.order
        for (u, v), lab in zip(g.edge_tuples(), labels):
            for x in (u, v):
                degrees[x] += 1
                weights[x] += lab
        assert g.degrees().tolist() == degrees
        if labels:
            assert vertex_weights(g, EdgeLabeling(labels)).weights.tolist() == weights

    @given(labeled_instances())
    def test_residues_are_weights_mod_order(self, inst):
        g, f = inst
        prof = vertex_weights(g, f)
        assert np.array_equal(prof.residues, prof.weights % g.order)
        assert int(prof.residues.min()) >= 0
        assert int(prof.residues.max()) < g.order
        assert not prof.residues.flags.writeable

    @given(labeled_instances(), st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, inst, rnd):
        g, f = inst
        perm = list(range(g.order))
        rnd.shuffle(perm)
        relabeled = {}
        for (u, v), lab in zip(g.edge_tuples(), f.labels.tolist()):
            a, b = sorted((perm[u], perm[v]))
            relabeled[(a, b)] = lab
        g2 = Graph(g.order, list(relabeled))
        f2 = EdgeLabeling([relabeled[e] for e in g2.edge_tuples()])
        w1 = vertex_weights(g, f).weights
        w2 = vertex_weights(g2, f2).weights
        for v in range(g.order):
            assert int(w2[perm[v]]) == int(w1[v])


class TestVerifierProperties:
    @given(labeled_instances())
    def test_modular_ok_implies_irregular_ok(self, inst):
        g, f = inst
        if verify_modular(g, f).ok:
            assert verify_irregular(g, f).ok

    @given(labeled_instances())
    def test_reported_pair_really_collides(self, inst):
        g, f = inst
        prof = vertex_weights(g, f)
        verdict = verify_irregular(g, f)
        if not verdict.ok:
            u, v = verdict.pair
            assert u < v
            assert prof.weights[u] == prof.weights[v]
        verdict = verify_modular(g, f)
        if not verdict.ok:
            u, v = verdict.pair
            assert prof.residues[u] == prof.residues[v]

    @given(labeled_instances())
    def test_verifiers_are_deterministic(self, inst):
        g, f = inst
        assert verify_irregular(g, f) == verify_irregular(g, f)
        assert verify_modular(g, f) == verify_modular(g, f)

    @given(labeled_instances(max_label=4))
    @example((make_triangular_book(5), modular_labeling(5)))  # both rules hold
    @example((make_triangular_book(4), irregular_labeling(4)))  # irregular only
    def test_verdicts_match_distinctness_oracle(self, inst):
        # the two rules restated over pure-python weights
        g, f = inst
        w = [0] * g.order
        for (u, v), lab in zip(g.edge_tuples(), f.labels.tolist()):
            w[u] += lab
            w[v] += lab
        assert verify_irregular(g, f).ok == (len(set(w)) == g.order)
        assert verify_modular(g, f).ok == (sorted(x % g.order for x in w) == list(range(g.order)))

    @given(labeled_instances(max_label=4), st.sampled_from(["irregular", "modular"]))
    @example((make_triangular_book(5), modular_labeling(5)), "modular")
    def test_profile_verdict_matches_graph_verdict(self, inst, mode):
        g, f = inst
        verify = {"irregular": verify_irregular, "modular": verify_modular}[mode]
        assert verify_profile(make_certificate(g, f, mode).profile, mode) == verify(g, f)

    @given(sparse_instances())
    def test_consecutive_weights_upgrade_to_modular(self, inst):
        # an irregular assignment whose weights are consecutive integers
        # covers every residue class mod the order exactly once; vacuous
        # draws are fine, TestLemmaEnumerated pins non-vacuous coverage
        g, f = inst
        if not verify_irregular(g, f).ok:
            return
        w = np.sort(vertex_weights(g, f).weights)
        if not (np.diff(w) == 1).all():
            return
        assert verify_modular(g, f).ok


class TestCertificateProperties:
    @given(labeled_instances(), st.sampled_from(["irregular", "modular"]))
    def test_json_round_trip_is_byte_identical(self, inst, mode):
        g, f = inst
        text = certificate_to_json(make_certificate(g, f, mode))
        assert certificate_to_json(certificate_from_json(text)) == text

    @given(labeled_instances())
    def test_profile_recomputable(self, inst):
        g, f = inst
        cert = make_certificate(g, f, "irregular")
        assert cert.profile == vertex_weights(cert.graph, cert.labeling)


class TestBookConstructionProperties:
    @given(st.integers(1, 3000))
    def test_irregular_construction_sound(self, n):
        g = make_triangular_book(n)
        f = irregular_labeling(n)
        assert verify_irregular(g, f).ok
        assert f.k == irregular_strength(n)
        assert vertex_weights(g, f) == predicted_weights(n, theorem=1)

    @given(st.integers(1, 3000))
    def test_modular_construction_sound(self, n):
        assume(n % 4 != 0)
        g = make_triangular_book(n)
        f = modular_labeling(n)
        assert verify_modular(g, f).ok
        assert f.k == modular_strength(n)
        assert vertex_weights(g, f) == predicted_weights(n, theorem=2)

    @given(st.integers(2, 3000))
    def test_page_weights_follow_index(self, n):
        f = irregular_labeling(n)
        w = vertex_weights(make_triangular_book(n), f).weights
        assert w[2:].tolist() == list(range(2, n + 2))

    @given(st.integers(1, 10**6))
    def test_strength_formulas_agree_outside_carveouts(self, n):
        s = irregular_strength(n)
        ms = modular_strength(n)
        if n % 4 == 0:
            assert ms == math.inf
        elif n == 5:
            assert ms == s + 1
        else:
            assert ms == s

    @given(st.integers(1, 10**6), st.sampled_from([1, 2]))
    def test_case_tags_total(self, n, theorem):
        # every page count has a row, None (no labeling) exactly for Theorem 2 at n = 0 mod 4
        row, m = _case(theorem, n)
        assert m == n and (row is None) == (theorem == 2 and n % 4 == 0)

    @given(st.integers(2, 2000))
    def test_bound_closed_form_for_books(self, n):
        assert lower_bound_s(make_triangular_book(n)) == (n + 2) // 2


class TestSolverProperties:
    @settings(max_examples=30, deadline=None)
    @given(graphs(3, 5), st.integers(1, 2), st.sampled_from(["s", "ms"]))
    def test_count_monotone_in_k(self, g, k, mode):
        assert count_labelings(g, mode, k) <= count_labelings(g, mode, k + 1)

    @settings(max_examples=40, deadline=None)
    @given(graphs(3, 6), st.integers(1, 3), st.sampled_from(["s", "ms"]))
    def test_count_matches_brute_force(self, g, k, mode):
        # the counting oracle against a plain loop over itertools.product
        assume(k**g.size <= 3**8)
        expected = 0
        for labels in product(range(1, k + 1), repeat=g.size):
            weights = [0] * g.order
            for (u, v), lab in zip(g.edge_tuples(), labels):
                weights[u] += lab
                weights[v] += lab
            if mode == "s":
                expected += len(set(weights)) == g.order
            else:
                expected += sorted(w % g.order for w in weights) == list(range(g.order))
        assert count_labelings(g, mode, k) == expected

    @settings(max_examples=20, deadline=None)
    @given(graphs(3, 6))
    def test_bound_never_exceeds_exact_strength(self, g):
        from irrstrength import SolverConfig, solve

        assume(not has_small_component(g))
        result = solve(g, "s", SolverConfig(k_max=12))
        assume(result.outcome == "finite")
        assert lower_bound_s(g) <= result.k


class TestLemmaEnumerated:
    def test_consecutive_weight_instances_exist_and_upgrade(self):
        # exhaustive over small paths/cycles/stars with small labels
        corpus = [
            (make_family("path", 3), 3),
            (make_family("path", 4), 3),
            (make_family("path", 5), 3),
            (make_family("cycle", 3), 3),
            (make_family("cycle", 4), 3),
            (make_family("star", 3), 3),
            (make_triangular_book(2), 2),
        ]
        hits = 0
        for g, kmax in corpus:
            for labels in product(range(1, kmax + 1), repeat=g.size):
                f = EdgeLabeling(labels)
                if not verify_irregular(g, f).ok:
                    continue
                w = np.sort(vertex_weights(g, f).weights)
                if not (np.diff(w) == 1).all():
                    continue
                hits += 1
                assert verify_modular(g, f).ok
        assert hits > 0
