import json

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
    make_certificate,
    make_family,
    make_triangular_book,
    modular_labeling,
    solve,
    verify_irregular,
    verify_modular,
    vertex_weights,
)
from irrstrength.books import irregular_labeling
from irrstrength.graphs import ORDER_LIMIT, _integer_array
from irrstrength.labelings import Certificate

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

    def test_labels_read_only(self):
        f = EdgeLabeling([1, 2])
        with pytest.raises(ValueError):
            f.labels[0] = 3


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


def reference_ints(doc: dict, field: str, scan_bools: bool) -> np.ndarray:
    """``doc[field]`` as an int64 array, or the reader's FormatError for it."""
    value = doc[field]
    try:
        arr = np.asarray(value)
        _integer_array(value if scan_bools else arr, field)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"{field}: {exc}") from exc
    if arr.size and arr.dtype.kind != "i":
        raise FormatError(f"{field} must be JSON integers within int64, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def reference_from_json(text: str) -> Certificate:
    """The certificate reader with ``json.loads`` as its only parser, as an oracle."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bad certificate JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("certificate must be a JSON object")
    missing = {"order", "edges", "labels", "weights", "residues", "k", "mode"} - doc.keys()
    if missing:
        raise FormatError(f"certificate missing fields: {sorted(missing)}")
    if doc["mode"] not in ("irregular", "modular"):
        raise FormatError(f"unknown certificate mode {doc['mode']!r}")
    scan_bools = "true" in text or "false" in text
    order = reference_ints(doc, "order", scan_bools)
    if order.ndim or order > ORDER_LIMIT:
        raise FormatError("certificate order missing or out of range")
    edges = reference_ints(doc, "edges", scan_bools)
    labels = reference_ints(doc, "labels", scan_bools)
    try:
        graph = Graph(int(order), edges)
        labeling = EdgeLabeling(labels)
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc
    k = reference_ints(doc, "k", scan_bools)
    if k.ndim or labeling.k != k:
        raise FormatError(f"stored k={doc['k']} but max label is {labeling.k}")
    if len(labeling) != graph.size:
        raise FormatError("labels not aligned with edge list")
    profile = vertex_weights(graph, labeling)
    if not np.array_equal(profile.weights, reference_ints(doc, "weights", scan_bools)):
        raise FormatError("stored weights do not match recomputation")
    if not np.array_equal(profile.residues, reference_ints(doc, "residues", scan_bools)):
        raise FormatError("stored residues do not match recomputation")
    return Certificate(graph=graph, labeling=labeling, profile=profile, mode=doc["mode"])


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
            ("}", "}\x0c"),
            ("}", "} \t\r\n"),
        ],
    )
    def test_near_writer_output(self, old, new):
        self.check(TEXTS[0].replace(old, new, 1))

    def test_writer_output_never_reaches_json(self, monkeypatch):
        texts = TEXTS + [certificate_to_json(make_certificate(make_triangular_book(1000), irregular_labeling(1000), "irregular"))]

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads reached")

        monkeypatch.setattr(json, "loads", refuse)
        for text in texts:
            for padded in (text, text + "\n", " \t" + text + "\r\n"):
                assert certificate_to_json(certificate_from_json(padded)) == text

    @staticmethod
    def check(text):
        try:
            want = reference_from_json(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                certificate_from_json(text)
            assert str(got.value) == str(exc)
            return
        assert certificate_from_json(text) == want
