import gc
import json
import reprlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrstrength import (
    EdgeLabeling,
    FormatError,
    Graph,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    count_labelings,
    format_edge_list,
    make_certificate,
    make_triangular_book,
    modular_labeling,
    parse_edge_list,
    solve,
    verify_irregular,
    verify_modular,
    vertex_weights,
)
from irrstrength.books import irregular_labeling
from irrstrength.graphs import _CHUNK, _integer, _integer_array
from irrstrength.labelings import (
    IRREGULAR,
    LABEL_LIMIT,
    MODULAR,
    Certificate,
    Verdict,
    WeightProfile,
    _empty_slot,
    _first_collision,
    _writer_doc,
    verify_profile,
)

from conftest import make_family


C3 = make_family("cycle", 3)


class TestEdgeLabeling:
    def test_k_is_max_label(self):
        assert EdgeLabeling([1, 4, 2]).k == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            EdgeLabeling([1, 0, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EdgeLabeling([])

    def test_rejects_oversized_label(self):
        with pytest.raises(ValueError, match="limit"):
            EdgeLabeling([1, 10**6 + 1])

    @pytest.mark.parametrize(
        "labels",
        [[1.7, 2.2], ["3", "1"], [True, False], np.array([1.0, 2.0]), [True, 2]],
        ids=["float", "string", "bool", "float-array", "mixed-bool"],
    )
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="edge labels must be integers"):
            EdgeLabeling(labels)

    def test_label_past_int64_is_value_error(self):
        with pytest.raises(ValueError, match="exceeds supported limit"):
            EdgeLabeling([1, 2**70])

    def test_rejects_nested_labels(self):
        with pytest.raises(ValueError, match="flat sequence"):
            EdgeLabeling([[1, 2]])

    def test_labels_read_only(self):
        f = EdgeLabeling([1, 2])
        with pytest.raises(ValueError):
            f.labels[0] = 3

    def test_caller_array_stays_writable_and_apart(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        f = EdgeLabeling(a)
        assert a.flags.writeable
        assert not np.shares_memory(a, f.labels)
        a[0] = 7
        assert f.labels.tolist() == [1, 2, 3]


class TestVertexWeights:
    def test_triangle_one_two_three(self):
        prof = vertex_weights(C3, EdgeLabeling([1, 2, 3]))
        assert prof.weights.tolist() == [3, 4, 5]
        assert prof.residues.tolist() == [0, 1, 2]

    def test_all_ones_gives_degree_sequence(self):
        for g in (make_triangular_book(4), make_family("star", 5), make_family("path", 6)):
            prof = vertex_weights(g, EdgeLabeling([1] * g.size))
            assert np.array_equal(prof.weights, g.degrees())

    def test_book_two_closed_form(self):
        g = make_triangular_book(2)
        prof = vertex_weights(g, irregular_labeling(2))
        assert prof.weights.tolist() == [4, 5, 2, 3]

    def test_single_edge(self):
        assert vertex_weights(Graph(4, [(1, 3)]), EdgeLabeling([7])).weights.tolist() == [0, 7, 0, 7]

    def test_star_hub_sum_is_exact_int64(self):
        weights = vertex_weights(make_family("star", 2000), EdgeLabeling([LABEL_LIMIT] * 2000)).weights
        assert weights.dtype == np.int64 and not weights.flags.writeable
        assert int(weights[0]) == 2 * 10**9
        assert weights[1:].tolist() == [LABEL_LIMIT] * 2000

    def test_star_hub_past_int32_matches_a_python_sum(self):
        g = make_family("star", 3000)
        f = EdgeLabeling([LABEL_LIMIT - i for i in range(3000)])
        expected = [0] * g.order
        for (u, v), lab in zip(g.edge_tuples(), f.labels.tolist()):
            expected[u] += lab
            expected[v] += lab
        assert expected[0] > 2**31
        assert vertex_weights(g, f).weights.tolist() == expected

    def test_rejects_misaligned_labeling(self):
        with pytest.raises(ValueError, match="covers"):
            vertex_weights(C3, EdgeLabeling([1, 2]))

    def test_matches_incidence_sum(self):
        g = make_triangular_book(3)
        f = EdgeLabeling([5, 1, 4, 2, 3, 1, 2])
        prof = vertex_weights(g, f)
        expected = [0] * g.order
        for (u, v), lab in zip(g.edge_tuples(), f.labels.tolist()):
            expected[u] += lab
            expected[v] += lab
        assert prof.weights.tolist() == expected


class TestWeighedOnce:
    """A labeling keeps the profile of the graph object it was last weighed on."""

    def test_same_pair_returns_the_same_profile(self):
        g, f = make_triangular_book(6), irregular_labeling(6)
        assert vertex_weights(g, f) is vertex_weights(g, f)

    def test_equal_but_distinct_graph_is_weighed_afresh(self):
        g, f = make_triangular_book(6), irregular_labeling(6)
        twin = Graph(g.order, g.edges)
        assert twin == g and twin is not g
        first = vertex_weights(g, f)
        again = vertex_weights(twin, f)
        assert again is not first and again == first

    def test_other_graph_of_the_same_size_gets_its_own_weights(self):
        a, b = make_family("path", 4), make_family("star", 3)
        f = EdgeLabeling([1, 2, 3])
        assert vertex_weights(a, f).weights.tolist() == [1, 3, 5, 3]
        assert vertex_weights(b, f).weights.tolist() == [6, 1, 2, 3]
        assert vertex_weights(a, f).weights.tolist() == [1, 3, 5, 3]

    def test_misaligned_graph_still_raises_after_a_cached_call(self):
        f = EdgeLabeling([1, 2, 3])
        vertex_weights(C3, f)
        with pytest.raises(ValueError, match="labeling covers 3 edges, graph has 4"):
            vertex_weights(make_family("path", 5), f)

    @pytest.mark.parametrize("mode", [IRREGULAR, MODULAR])
    def test_certificate_holds_the_weighed_profile(self, mode):
        g, f = make_triangular_book(5), modular_labeling(5)
        assert make_certificate(g, f, mode).profile is vertex_weights(g, f)


class TestVerifyIrregular:
    def test_triangle_ok(self):
        assert verify_irregular(C3, EdgeLabeling([1, 2, 3])).ok

    def test_constant_labels_collide(self):
        verdict = verify_irregular(C3, EdgeLabeling([1, 1, 1]))
        assert not verdict.ok
        assert verdict.kind == "duplicate-weight"
        assert verdict.pair == (0, 1)

    def test_book_five_modular_labeling_is_irregular(self):
        g = make_triangular_book(5)
        f = EdgeLabeling([1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4])
        assert verify_irregular(g, f).ok

    def test_reports_first_pair_in_vertex_order(self):
        # path 0-1-2-3 with labels 2,1,2: weights 2,3,3,2 -> (0,3) vs (1,2)
        g = make_family("path", 4)
        verdict = verify_irregular(g, EdgeLabeling([2, 1, 2]))
        assert verdict.pair == (1, 2)


class TestVerifyModular:
    def test_book_five_case(self):
        g = make_triangular_book(5)
        f = EdgeLabeling([1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4])
        verdict = verify_modular(g, f)
        assert verdict.ok
        prof = vertex_weights(g, f)
        assert prof.weights[0] == 8 and prof.residues[0] == 1
        assert prof.weights[1] == 14 and prof.residues[1] == 0
        assert prof.weights[2:].tolist() == [2, 3, 4, 5, 6]

    def test_triangle(self):
        assert verify_modular(C3, EdgeLabeling([1, 2, 3])).ok

    def test_book_two_closed_form_is_modular(self):
        g = make_triangular_book(2)
        assert verify_modular(g, irregular_labeling(2)).ok  # weights 4,5,2,3 mod 4

    def test_collision_reported(self):
        verdict = verify_modular(C3, EdgeLabeling([1, 1, 1]))
        assert not verdict.ok
        assert verdict.kind == "residue-collision"
        assert verdict.pair == (0, 1)

    def test_rejects_tiny_order(self):
        g = make_family("path", 2)
        with pytest.raises(ValueError, match="order >= 3"):
            verify_modular(g, EdgeLabeling([1]))

    def test_modular_ok_implies_irregular_ok(self):
        g = make_triangular_book(5)
        f = EdgeLabeling([1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4])
        assert verify_modular(g, f).ok and verify_irregular(g, f).ok


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def weight_lists(draw):
    """3..64 int64 weights: residue-class permutations shifted by multiples of the order, small values, or any.

    The ``runs`` kinds sort the values in 1..40 pieces, so the irregular verdict meets both few
    ascending runs, as in a book's profile, and many; a repeat is then planted within a run,
    across two runs or at the boundary of two.
    """
    size = draw(st.integers(3, 64))
    kind = draw(st.sampled_from(["classes", "small", "any", "small runs", "runs"]))
    if kind == "classes":
        shifts = st.integers(-(2**40), 2**40)
        weights = [r + size * draw(shifts) for r in draw(st.permutations(range(size)))]
    else:
        extremes = st.sampled_from([-(2**63), 2**63 - 1])
        value = st.integers(-2 * size, 2 * size) if kind.startswith("small") else st.one_of(INT64, extremes)
        weights = draw(st.lists(value, min_size=size, max_size=size))
    if not kind.endswith("runs"):
        if draw(st.booleans()):  # one weight copied onto another
            weights[draw(st.integers(0, size - 1))] = weights[draw(st.integers(0, size - 1))]
        return weights
    cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=39)))
    runs = [sorted(weights[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, size])]
    plant = draw(st.sampled_from(["none", "within", "across", "boundary"]))
    if plant == "within" and any(len(run) > 1 for run in runs):
        run = runs[draw(st.sampled_from([r for r, run in enumerate(runs) if len(run) > 1]))]
        i = draw(st.integers(0, len(run) - 2))
        run[i + 1] = run[i]  # the run stays ascending
    elif plant == "across" and len(runs) > 1:
        a, b = draw(st.lists(st.integers(0, len(runs) - 1), min_size=2, max_size=2, unique=True))
        runs[b][draw(st.integers(0, len(runs[b]) - 1))] = draw(st.sampled_from(runs[a]))
        runs[b].sort()
    elif plant == "boundary" and len(runs) > 1:
        r = draw(st.integers(1, len(runs) - 1))
        runs[r][0] = runs[r - 1][-1]  # the run opens with the last weight of the one before
    return [w for run in runs for w in run]


def first_repeat(values):
    """The earliest j whose value occurred before, with that first occurrence i, as (i, j)."""
    for j, value in enumerate(values):
        if value in values[:j]:
            return values.index(value), j
    return None


class TestVerifyProfile:
    """``verify_profile`` on hand-built profiles against the two definitions."""

    @settings(max_examples=800, deadline=None)
    @given(weight_lists())
    def test_matches_the_definitions(self, weights):
        n = len(weights)
        profile = WeightProfile(weights=np.array(weights, dtype=np.int64))
        residues = [w % n for w in weights]
        assert profile.residues.tolist() == residues
        cases = (
            (IRREGULAR, weights, len(set(weights)) == n, "duplicate-weight"),
            (MODULAR, residues, sorted(residues) == list(range(n)), "residue-collision"),
        )
        for mode, values, ok, kind in cases:
            verdict = verify_profile(profile, mode)
            assert verdict == (Verdict(ok=True) if ok else Verdict(ok=False, kind=kind, pair=first_repeat(values)))

    def test_rejects_unknown_mode(self):
        profile = vertex_weights(C3, EdgeLabeling([1, 2, 3]))
        with pytest.raises(ValueError, match="unknown mode"):
            verify_profile(profile, "bogus")

    # taken before the modular verdict marked residues in a bitmap
    def test_modular_pins_at_b_99999(self):
        n = 99999
        g, f = make_triangular_book(n), modular_labeling(n)
        assert verify_modular(g, f) == Verdict(ok=True)
        labels = f.labels.copy()
        labels[[1, 2 * n]] = labels[[2 * n, 1]]  # ac_1 and bc_n swap their labels 1 and 50000
        verdict = verify_modular(g, EdgeLabeling(labels))
        assert verdict == Verdict(ok=False, kind="residue-collision", pair=(0, 49999))


def scan_collision(values):
    """The first repeat in id order by one dict scan, as (first holder, repeat), or None."""
    seen = {}
    for v, value in enumerate(values):
        if value in seen:
            return seen[value], v
        seen[value] = v
    return None


@pytest.mark.parametrize("size", [2, 3, 10, 1000, 100_000])
def test_first_collision_matches_the_scan(size):
    rng = np.random.default_rng(size)
    distinct = rng.permutation(size).astype(np.int64) * 3 - size  # negatives too
    plants = [[(0, 1)], [(0, size - 1)], [(size - 2, size - 1)]]  # at the start and at the end
    plants += [list(zip(rng.integers(0, size, 4), rng.integers(0, size, 4))) for _ in range(6)]  # several places
    cases = []
    for pairs in plants:
        values = distinct.copy()
        for i, j in pairs:
            values[j] = values[i]
        cases.append(values)
    cases.append(rng.integers(-3, 3, size))  # repeats everywhere
    cases.append(np.full(size, 2**63 - 1))
    for values in cases:
        expected = scan_collision(values.tolist())
        if expected is None:  # every plant copied a value onto itself
            with pytest.raises(AssertionError, match="no collision"):
                _first_collision(values)
        else:
            assert _first_collision(values) == expected


class TestCertificateJson:
    def test_fixed_key_order(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        text = certificate_to_json(cert)
        assert text == (
            '{"order":3,"edges":[[0,1],[0,2],[1,2]],"labels":[1,2,3],'
            '"weights":[3,4,5],"residues":[0,1,2],"k":3,"mode":"modular"}'
        )

    def test_round_trip_byte_identical(self):
        g = make_triangular_book(7)
        cert = make_certificate(g, EdgeLabeling(list(range(1, g.size + 1))), "irregular")
        text = certificate_to_json(cert)
        again = certificate_to_json(certificate_from_json(text))
        assert text == again

    def test_round_trip_value_equality(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_bytes_read_as_the_same_text(self):
        cert = make_certificate(make_triangular_book(5), modular_labeling(5), "modular")
        # the writer's own layout, then a layout only json.loads reads
        for text in (certificate_to_json(cert), json.dumps(json.loads(certificate_to_json(cert)), indent=1)):
            assert certificate_from_json(text.encode()) == certificate_from_json(text) == cert

    def test_residues_are_derived_from_the_weights(self):
        prof = vertex_weights(C3, EdgeLabeling([1, 2, 3]))
        with pytest.raises(TypeError):
            WeightProfile(weights=prof.weights, residues=prof.residues)

    def test_rejects_tampered_weights(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        doc = json.loads(certificate_to_json(cert))
        doc["weights"][0] += 1
        with pytest.raises(FormatError, match="weights"):
            certificate_from_json(json.dumps(doc))

    def test_rejects_tampered_residues(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        doc = json.loads(certificate_to_json(cert))
        doc["residues"] = [1, 0, 2]
        with pytest.raises(FormatError, match="residues"):
            certificate_from_json(json.dumps(doc))

    def test_rejects_wrong_k(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        doc = json.loads(certificate_to_json(cert))
        doc["k"] = 5
        with pytest.raises(FormatError, match="k="):
            certificate_from_json(json.dumps(doc))

    def test_rejects_missing_field(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        doc = json.loads(certificate_to_json(cert))
        del doc["labels"]
        with pytest.raises(FormatError, match="missing"):
            certificate_from_json(json.dumps(doc))

    def test_rejects_bad_mode(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        doc = json.loads(certificate_to_json(cert))
        doc["mode"] = "total"
        with pytest.raises(FormatError, match="mode"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("order", [3], r"order must be an integer >= 0, got \[3\]"),
            ("order", 1_000_001, "order 1000001 exceeds supported limit 1000000"),
            ("edges", [0, 1, 0, 2, 1, 2], "edges must be a sequence of vertex pairs"),
        ],
        ids=["order-list", "order-past-limit", "flat-edges"],
    )
    def test_rejects_malformed_field(self, field, value, message):
        doc = json.loads(certificate_to_json(make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")))
        doc[field] = value
        with pytest.raises(FormatError, match=message):
            certificate_from_json(json.dumps(doc))

    def test_rejects_junk(self):
        with pytest.raises(FormatError):
            certificate_from_json("{not json")
        with pytest.raises(FormatError):
            certificate_from_json('["a","list"]')
        with pytest.raises(FormatError):
            certificate_from_json('{"edges":' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_rejects_bad_mode_at_creation(self):
        with pytest.raises(ValueError):
            make_certificate(C3, EdgeLabeling([1, 2, 3]), "total")


def c3_text(indent=None, **fields) -> str:
    """C3's modular certificate as JSON text, compact or indented, with ``fields`` replaced."""
    doc = json.loads(certificate_to_json(make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")))
    doc.update(fields)
    return json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))


@pytest.mark.parametrize(
    ("message", "calls"),
    [
        (
            "order 1000001 exceeds supported limit 1000000",
            [
                lambda: Graph(1_000_001, []),
                lambda: parse_edge_list("1000001 0\n"),  # the writer's layout, read as arrays
                lambda: parse_edge_list("1000001 0\r\n"),  # read line by line
                lambda: certificate_from_json(c3_text(order=1_000_001)),
                lambda: certificate_from_json(c3_text(1, order=1_000_001)),
            ],
        ),
        (
            "unknown mode 'total'",
            [
                lambda: make_certificate(C3, EdgeLabeling([1, 2, 3]), "total"),
                lambda: certificate_from_json(c3_text(mode="total")),
            ],
        ),
        (
            "labeling covers 2 edges, graph has 3",
            [
                lambda: vertex_weights(C3, EdgeLabeling([2, 3])),
                lambda: certificate_from_json(c3_text(labels=[2, 3])),
            ],
        ),
        (
            "edge labels must be integers",
            [
                lambda: EdgeLabeling([1.5, 2, 3]),
                lambda: certificate_from_json(c3_text(labels=[1.5, 2, 3])),
            ],
        ),
        (
            "label 1180591620717411303424 exceeds supported limit 1000000",
            [
                lambda: EdgeLabeling([2**70, 2, 3]),
                lambda: certificate_from_json(c3_text(labels=[2**70, 2, 3])),
            ],
        ),
        (
            "edge endpoints must be integers",
            [
                lambda: Graph(3, [(0, 1.5), (0, 2), (1, 2)]),
                lambda: certificate_from_json(c3_text(edges=[[0, 1.5], [0, 2], [1, 2]])),
            ],
        ),
        (
            "order must be an integer >= 0, got [3]",
            [
                lambda: Graph([3], []),
                lambda: certificate_from_json(c3_text(order=[3])),
            ],
        ),
    ],
    ids=["order-limit", "mode", "alignment", "label-type", "label-limit", "endpoint-type", "order-type"],
)
def test_each_rule_gives_one_message(message, calls):
    """A rule is judged by the code that owns it, so every entry point reports it alike."""
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_certificate(C3, EdgeLabeling([1, 2, 3]), "x" * 300_000),
        lambda: verify_profile(vertex_weights(C3, EdgeLabeling([1, 2, 3])), "x" * 300_000),
        lambda: solve(C3, "x" * 300_000),
        lambda: count_labelings(C3, "x" * 300_000, 3),
        lambda: parse_edge_list("3 " + "x" * 500_000 + "\n0 1\n"),
        lambda: parse_edge_list("3 1\n0 " + "x" * 1_000_000 + "\n"),
        lambda: parse_edge_list("3 1\n1" + " " * 1_000_000 + "0\n"),
        lambda: certificate_from_json(c3_text(mode=[1] * 100_000)),
        lambda: certificate_from_json(c3_text(k=[1] * 100_000)),
    ],
    ids=["make-certificate", "verify-profile", "solve", "count", "header", "edge-line", "edge-order", "cert-mode", "cert-k"],
)
def test_messages_shorten_long_values(call):
    """A message repeats an outside value through ``reprlib.repr``, so a long one is cut."""
    with pytest.raises(ValueError) as got:
        call()
    assert len(str(got.value)) < 200


class TestDotExport:
    def test_triangle_dot(self):
        cert = make_certificate(C3, EdgeLabeling([1, 2, 3]), "modular")
        assert certificate_to_dot(cert) == (
            "graph G {\n"
            '  0 [label="3"];\n'
            '  1 [label="4"];\n'
            '  2 [label="5"];\n'
            '  0 -- 1 [label="1"];\n'
            '  0 -- 2 [label="2"];\n'
            '  1 -- 2 [label="3"];\n'
            "}\n"
        )


def reference_from_json(text: str) -> Certificate:
    """The certificate reader with ``json.loads`` as its only parser, as an oracle."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("certificate must be a JSON object")
    missing = {"order", "edges", "labels", "weights", "residues", "k", "mode"} - doc.keys()
    if missing:
        raise FormatError(f"certificate missing fields: {sorted(missing)}")
    try:
        cert = make_certificate(Graph(doc["order"], doc["edges"]), EdgeLabeling(doc["labels"]), doc["mode"])
        k = _integer(doc["k"], "k", 1)
        weights, residues = _integer_array(doc["weights"], "weights"), _integer_array(doc["residues"], "residues")
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc
    if cert.labeling.k != k:
        raise FormatError(f"stored k={reprlib.repr(k)} but max label is {cert.labeling.k}")
    if not np.array_equal(cert.profile.weights, weights):
        raise FormatError("stored weights do not match recomputation")
    if not np.array_equal(cert.profile.residues, residues):
        raise FormatError("stored residues do not match recomputation")
    return cert


def writer_texts() -> list[str]:
    """Closed-form certificates of small books, then solved ones of the small families."""
    certs = []
    for n in (1, 2, 3, 5, 30):
        g = make_triangular_book(n)
        certs.append(make_certificate(g, irregular_labeling(n), "irregular"))
        if modular_labeling(n) is not None:
            certs.append(make_certificate(g, modular_labeling(n), "modular"))
    for kind, size in [("path", 3), ("path", 6), ("cycle", 4), ("cycle", 7), ("star", 3)]:
        for mode in ("s", "ms"):
            result = solve(make_family(kind, size), mode)
            if result.outcome == "finite":
                certs.append(result.certificate)
    return [certificate_to_json(c) for c in certs]


TEXTS = writer_texts()
PIECES = [*"0123456789,[]{}:\"", " ", "\t", "\n", "\r", "\x0c", *"-+.eE", "00", "9" * 20, "true", "null"]
PADS = st.sampled_from(["", "", "", " ", "\n", "\r\n\t ", "\x0c"])


@st.composite
def mutated_texts(draw):
    """Writer output with a few characters inserted, deleted, replaced or moved."""
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "move"]))
        piece = text[i] if edit == "move" else draw(st.sampled_from(PIECES))
        if edit != "insert":
            text = text[:i] + text[i + 1 :]
        if edit == "move":
            i = draw(st.integers(0, len(text)))
        if edit != "delete":
            text = text[:i] + piece + text[i:]
    return draw(PADS) + text + draw(PADS)


@st.composite
def rearranged_texts(draw):
    """Writer output with its keys in another order, one of them perhaps given twice."""
    pairs = draw(st.permutations(list(json.loads(draw(st.sampled_from(TEXTS))).items())))
    if draw(st.booleans()):
        other = list(json.loads(draw(st.sampled_from(TEXTS))).items())
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(other)))
    return "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}" for k, v in pairs) + "}"


class TestReaderAgainstReference:
    """``certificate_from_json`` reads, rejects and reports exactly as the ``json.loads`` reference."""

    @settings(max_examples=1000, deadline=None)
    @given(mutated_texts())
    def test_mutated(self, text):
        self.check(text)

    @settings(max_examples=100, deadline=None)
    @given(rearranged_texts())
    def test_rearranged(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"order":3', '"order":03'),
            ("[3,1,2]", "[03,1,2]"),
            ("[3,1,2]", "[00,1,2]"),
            ("[3,1,2]", "[%d,1,2]" % 10**18),
            ("[3,1,2]", "[99999999999999999999,1,2]"),
            ('"k":3', '"k":%d' % 2**63),
            ('[[0,1],[0,2]', '[[,1],[0,2]'),
            ('[[0,1],[0,2],[1,2]],"labels"', '[[,1],[0,2],[1,2]],"lab0els"'),
            ("[3,1,2]", "[3,1,2,]"),
            ("[3,1,2]", "[-3,1,2]"),
            ("[1,2,0]", "[9999999999999999999,2,0]"),
            ("}", "}\x0c"),
            ("}", "} \t\r\n"),
        ],
    )
    def test_near_writer_output(self, old, new):
        self.check(TEXTS[0].replace(old, new, 1))

    def test_writer_output_never_reaches_json(self, monkeypatch):
        texts = TEXTS + [certificate_to_json(make_certificate(make_triangular_book(1000), irregular_labeling(1000), "irregular"))]
        for n in [*range(1, 51), 19998, 100000]:
            for labeling, mode in ((irregular_labeling(n), "irregular"), (modular_labeling(n), "modular")):
                if labeling is not None:
                    texts.append(certificate_to_json(make_certificate(make_triangular_book(n), labeling, mode)))

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads reached")

        monkeypatch.setattr(json, "loads", refuse)
        for text in texts:
            for padded in (text, text + "\n", " \t" + text + "\r\n"):
                # ASCII bytes take the same whole-array path as str
                for read in (padded, padded.encode()):
                    assert certificate_to_json(certificate_from_json(read)) == text

    @pytest.mark.parametrize("at", [_CHUNK - 2, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1])
    def test_empty_slot_across_chunks(self, at):
        # B_20000's text moved by leading space so that byte ``at`` opens the slot of its
        # second value; emptied, with a digit outside every slot to keep the count, only
        # the empty-slot check tells it from writer output
        text = certificate_to_json(make_certificate(make_triangular_book(20000), irregular_labeling(20000), "irregular"))
        opener = text.index('"edges":[[0,') + len('"edges":[[0')
        text = " " * (at - opener) + text
        assert text[at : at + 3] == ",1]" and not _empty_slot(text)
        text = text[: at + 1] + text[at + 2 :].replace('"labels"', '"lab0els"')
        assert _empty_slot(text) and _empty_slot(text.encode())
        self.check(text)

    def test_non_ascii_text_goes_to_json(self):
        text = TEXTS[0].replace('"irregular"', '"irrégular"')
        assert _writer_doc(text) is None and _writer_doc(text.encode()) is None
        self.check(text)

    @staticmethod
    def check(text):
        try:
            want = reference_from_json(text)
        except FormatError as exc:
            for read in (text, text.encode()):
                with pytest.raises(FormatError) as got:
                    certificate_from_json(read)
                assert str(got.value) == str(exc)
            return
        assert certificate_from_json(text) == certificate_from_json(text.encode()) == want


class TestReaderMemory:
    """Traced memory of the whole-array readers on B_100000, as multiples of the text's bytes.

    Measured (numpy 2.4.6, Python 3.11.7) with the readers' full-size temporaries,
    then without them: ``certificate_from_json`` peak 5.25 -> 3.16 and retained
    2.41 -> 1.30, ``parse_edge_list`` peak 6.09 -> 5.20. Each bound lies between.
    """

    N = 100000

    @staticmethod
    def traced(read, text):
        gc.collect()
        tracemalloc.start()
        try:
            result = read(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak / len(text), retained / len(text)

    def test_certificate_reader(self):
        g = make_triangular_book(self.N)
        text = certificate_to_json(make_certificate(g, irregular_labeling(self.N), "irregular"))
        cert, peak, retained = self.traced(certificate_from_json, text)
        assert cert.graph == g
        assert peak < 4.2
        assert retained < 1.85

    def test_edge_list_reader(self):
        g = make_triangular_book(self.N)
        parsed, peak, _ = self.traced(parse_edge_list, format_edge_list(g))
        assert parsed == g
        assert peak < 5.65

    @pytest.mark.parametrize("indent", [None, 1])
    def test_labels_own_their_memory(self, indent):
        # the writer's layout is read as whole arrays, an indented text through json.loads
        text = certificate_to_json(make_certificate(make_triangular_book(50), irregular_labeling(50), "irregular"))
        if indent:
            text = json.dumps(json.loads(text), indent=indent)
        labels = certificate_from_json(text).labeling.labels
        assert labels.base is None
        assert np.array_equal(labels, irregular_labeling(50).labels)
