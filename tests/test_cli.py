import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import irrstrength
from irrstrength import (
    EdgeLabeling,
    certificate_to_json,
    format_edge_list,
    lower_bound_s,
    make_certificate,
    make_triangular_book,
    modular_labeling,
    parse_edge_list,
)
from irrstrength.cli import run

from conftest import make_family

B3 = make_triangular_book(3)
B3_EDGES = format_edge_list(B3)
B3_CERT = certificate_to_json(make_certificate(B3, modular_labeling(3), "modular"))
INT_FIELDS = ("order", "k", "edges", "labels", "weights", "residues")
# JSON texts, so that each draw is a fresh object the mutation may edit further
JUNK = st.sampled_from(["null", "true", "false", "0.5", "3.0", '"3"', "[[1, 2]]", str(2**70)]).map(json.loads)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBookVerb:
    def test_prints_edge_list(self, capsys):
        code, out, _ = invoke(capsys, "book", "--n", "1")
        assert code == 0
        assert out == "3 3\n0 1\n0 2\n1 2\n"

    def test_rejects_zero_pages(self, capsys):
        code, _, err = invoke(capsys, "book", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_rejects_order_past_the_limit(self, capsys):
        code, _, err = invoke(capsys, "book", "--n", "999999")
        assert code == 2
        assert "exceeds supported limit" in err


class TestLabelVerb:
    def test_modular_certificate(self, capsys):
        code, out, _ = invoke(capsys, "label", "--n", "5", "--theorem", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == [1, 1, 1, 1, 2, 2, 1, 2, 3, 3, 4]
        assert doc["k"] == 4
        assert doc["mode"] == "modular"
        assert list(doc) == ["order", "edges", "labels", "weights", "residues", "k", "mode"]

    def test_single_page_weights(self, capsys):
        code, out, _ = invoke(capsys, "label", "--n", "1", "--theorem", "2")
        assert code == 0
        assert sorted(json.loads(out)["weights"]) == [3, 4, 5]

    def test_irregular_certificate(self, capsys):
        code, out, _ = invoke(capsys, "label", "--n", "2", "--theorem", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["weights"] == [4, 5, 2, 3]
        assert doc["mode"] == "irregular"

    def test_infinite_class_fails(self, capsys):
        code, out, err = invoke(capsys, "label", "--n", "4", "--theorem", "2")
        assert code == 1
        assert out == ""
        assert "no modular labeling" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = invoke(capsys, "label", "--n", "3", "--theorem", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["k"] == 2


class TestVerifyVerb:
    def _write_pair(self, capsys, tmp_path, n, theorem):
        graph_file = tmp_path / "g.txt"
        cert_file = tmp_path / "c.json"
        code, out, _ = invoke(capsys, "book", "--n", str(n))
        graph_file.write_text(out)
        code, out, _ = invoke(capsys, "label", "--n", str(n), "--theorem", str(theorem))
        cert_file.write_text(out)
        return graph_file, cert_file

    def test_round_trip_ok(self, capsys, tmp_path):
        graph_file, cert_file = self._write_pair(capsys, tmp_path, 5, 2)
        code, out, _ = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "modular",
        )
        assert code == 0
        assert out == "ok\n"

    def test_round_trip_many(self, capsys, tmp_path):
        for n, theorem, mode in [(1, 1, "irregular"), (3, 2, "modular"), (6, 2, "modular"),
                                 (7, 1, "irregular")]:
            graph_file, cert_file = self._write_pair(capsys, tmp_path, n, theorem)
            code, out, _ = invoke(
                capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
                "--mode", mode,
            )
            assert (code, out) == (0, "ok\n")

    def test_failure_prints_colliding_pair(self, capsys, tmp_path):
        # self-consistent certificate whose weights collide
        c3 = make_family("cycle", 3)
        cert = make_certificate(c3, EdgeLabeling([1, 1, 1]), "irregular")
        graph_file = tmp_path / "g.txt"
        cert_file = tmp_path / "c.json"
        graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
        cert_file.write_text(certificate_to_json(cert))
        code, out, _ = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "irregular",
        )
        assert code == 1
        assert out == "duplicate-weight 0 1\n"

    def test_residue_collision(self, capsys, tmp_path):
        # book 4 irregular labeling is not modular: weights 7,9,2,3,4,5 mod 6
        graph_file, cert_file = self._write_pair(capsys, tmp_path, 4, 1)
        code, out, _ = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "modular",
        )
        assert code == 1
        assert out.startswith("residue-collision")

    def test_graph_mismatch(self, capsys, tmp_path):
        _, cert_file = self._write_pair(capsys, tmp_path, 5, 2)
        other_graph = tmp_path / "other.txt"
        code, out, _ = invoke(capsys, "book", "--n", "3")
        other_graph.write_text(out)
        code, _, err = invoke(
            capsys, "verify", "--graph", str(other_graph), "--cert", str(cert_file),
            "--mode", "modular",
        )
        assert code == 1
        assert "does not match" in err

    def test_tampered_certificate_is_format_error(self, capsys, tmp_path):
        graph_file, cert_file = self._write_pair(capsys, tmp_path, 5, 2)
        doc = json.loads(cert_file.read_text())
        doc["weights"][0] += 1
        cert_file.write_text(json.dumps(doc))
        code, _, err = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "modular",
        )
        assert code == 3
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "verify", "--graph", str(tmp_path / "nope.txt"),
            "--cert", str(tmp_path / "nope.json"), "--mode", "modular",
        )
        assert code == 3

    def test_integer_past_the_digit_limit_is_format_error(self, capsys, tmp_path):
        # json.loads raises a plain ValueError past Python's 4,300-digit limit
        graph_file = tmp_path / "g.txt"
        cert_file = tmp_path / "c.json"
        graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
        cert_file.write_text('{"order":' + "1" * 5000 + "}")
        code, out, err = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "irregular",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: bad certificate JSON")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", [3.7, 1.2, 2.9]),  # would truncate to a valid labeling
            ("labels", ["3", "1", "2"]),
            ("labels", [2**70, 1, 2]),
            ("edges", None),
            ("edges", [[0.9, 1.5], [0, 2], [1, 2]]),  # would truncate to the triangle
            ("edges", [[False, True], [0, 2], [1, 2]]),
            ("edges", [0, 1, 0, 2, 1, 2]),
            ("labels", [3, True, 2]),  # would read as the valid [3, 1, 2]
            ("weights", [4.7, 5.2, 3.9]),
            ("residues", [1.0, 2.0, 0.0]),
            ("k", 3.0),
        ],
        ids=["float-labels", "string-labels", "label-2^70", "edges-null", "float-edges",
             "bool-edges", "flat-edges", "bool-labels", "float-weights", "float-residues", "float-k"],
    )
    def test_non_integer_input_is_format_error(self, capsys, tmp_path, field, value):
        doc = {"order": 3, "edges": [[0, 1], [0, 2], [1, 2]], "labels": [3, 1, 2],
               "weights": [4, 5, 3], "residues": [1, 2, 0], "k": 3, "mode": "irregular"}
        doc[field] = value
        graph_file = tmp_path / "g.txt"
        cert_file = tmp_path / "c.json"
        graph_file.write_text("3 3\n0 1\n0 2\n1 2\n")
        cert_file.write_text(json.dumps(doc))
        code, out, err = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file),
            "--mode", "irregular",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:")


class TestBoundVerb:
    def test_finite(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "5")
        graph_file.write_text(out)
        code, out, _ = invoke(capsys, "bound", "--graph", str(graph_file))
        assert code == 0
        assert out == "s_lower 3\nms_infinite false\nms_lower 3\n"

    def test_infinite(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "4")
        graph_file.write_text(out)
        code, out, _ = invoke(capsys, "bound", "--graph", str(graph_file))
        assert code == 0
        assert out == "s_lower 3\nms_infinite true\nms_lower inf\n"

    def test_bad_graph_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        code, _, err = invoke(capsys, "bound", "--graph", str(bad))
        assert code == 3

    @pytest.mark.parametrize(
        "text",
        ["3 1\n0 \u0661\n", "3 1\n0 +1\n", "3 1\n-0 1\n", "1_0 1\n0 1\n",
         "3 1\n0 1" + "0" * 5000 + "\n", "3 1\n0 100000000000000000000\n"],
        ids=["arabic-indic-digit", "plus-sign", "minus-zero", "underscore", "past-digit-limit",
             "endpoint-past-int64"],
    )
    def test_non_decimal_token_is_format_error(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, "bound", "--graph", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith("error:")


class TestNonUtf8Input:
    """A file that is not UTF-8 is a format error on every verb that reads one."""

    @pytest.mark.parametrize("argv, bad", [
        (["bound", "--graph", "G"], "G"),
        (["solve", "--graph", "G", "--mode", "s"], "G"),
        (["verify", "--graph", "G", "--cert", "C", "--mode", "modular"], "G"),
        (["verify", "--graph", "G", "--cert", "C", "--mode", "modular"], "C"),
        (["export", "--cert", "C", "--format", "dot"], "C"),
    ], ids=["bound-graph", "solve-graph", "verify-graph", "verify-cert", "export-cert"])
    def test_exits_three(self, capsys, tmp_path, argv, bad):
        files = {"G": tmp_path / "g.txt", "C": tmp_path / "c.json"}
        files["G"].write_text(B3_EDGES)
        files["C"].write_text(B3_CERT)
        files[bad].write_bytes(b"\xff3 1\n0 1\n")
        code, out, err = invoke(capsys, *[str(files.get(arg, arg)) for arg in argv])
        assert (code, out) == (3, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestLineEnds:
    """The CLI's text-mode read is the one line-end rule: CRLF and lone-CR edge lists read as LF."""

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_prints_what_lf_prints(self, capsys, tmp_path, end):
        _, text, _ = invoke(capsys, "book", "--n", "1000")
        cert = tmp_path / "c.json"
        assert invoke(capsys, "label", "--n", "1000", "--theorem", "1", "--out", str(cert))[0] == 0
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", end).encode())
        for verb, *rest in (["bound"], ["verify", "--cert", str(cert), "--mode", "irregular"]):
            want = invoke(capsys, verb, "--graph", str(lf), *rest)
            assert want[0] == 0
            assert invoke(capsys, verb, "--graph", str(other), *rest) == want


class TestSolveVerb:
    def test_modular_book_five(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "5")
        graph_file.write_text(out)
        code, out, err = invoke(capsys, "solve", "--graph", str(graph_file), "--mode", "ms")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "finite" and doc["k"] == 4
        assert err.startswith("stats nodes=")

    def test_infinite_outcome(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "4")
        graph_file.write_text(out)
        code, out, _ = invoke(capsys, "solve", "--graph", str(graph_file), "--mode", "ms")
        assert code == 0
        assert json.loads(out) == {"mode": "ms", "outcome": "infinite"}

    def test_kmax_below_bound_is_usage_error(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "6")
        graph_file.write_text(out)
        code, _, err = invoke(
            capsys, "solve", "--graph", str(graph_file), "--mode", "s", "--kmax", "2"
        )
        assert code == 2
        assert "below the lower bound" in err

    def test_kmax_below_degree_range_bound_is_usage_error(self, capsys, tmp_path):
        # P_5: degree 1 alone gives 2, degree 2 alone 2, degrees 1..2 together 3
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(format_edge_list(make_family("path", 5)))
        code, out, _ = invoke(capsys, "bound", "--graph", str(graph_file))
        assert (code, out) == (0, "s_lower 3\nms_infinite false\nms_lower 3\n")
        code, out, err = invoke(
            capsys, "solve", "--graph", str(graph_file), "--mode", "s", "--kmax", "2"
        )
        assert (code, out, err) == (2, "", "error: k_max=2 is below the lower bound 3\n")


class TestSmallComponent:
    """A component of order <= 2 (here the isolated vertex 3): s is infinite, and ms and its bound are undefined."""

    TEXT = "4 2\n0 1\n1 2\n"

    def test_s_is_infinite(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(self.TEXT)
        code, out, _ = invoke(capsys, "solve", "--graph", str(graph_file), "--mode", "s")
        assert (code, out) == (0, '{"mode":"s","outcome":"infinite"}\n')

    @pytest.mark.parametrize("argv", [["bound"], ["solve", "--mode", "ms"]], ids=["bound", "solve-ms"])
    def test_bound_and_ms_are_usage_errors(self, capsys, tmp_path, argv):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(self.TEXT)
        with pytest.raises(ValueError) as want:
            lower_bound_s(parse_edge_list(self.TEXT))
        assert "component" in str(want.value)
        code, out, err = invoke(capsys, argv[0], "--graph", str(graph_file), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {want.value}\n")


class TestTableVerb:
    def test_formula_columns(self, capsys):
        code, out, _ = invoke(capsys, "table", "--from", "1", "--to", "8")
        assert code == 0
        lines = out.splitlines()
        row5 = lines[5].split()
        assert row5 == ["5", "3", "4", "-", "-"]
        row4 = lines[4].split()
        assert row4 == ["4", "3", "inf", "-", "-"]

    def test_solver_columns_agree(self, capsys):
        code, out, _ = invoke(capsys, "table", "--from", "1", "--to", "6", "--solve-upto", "6")
        assert code == 0
        for line in out.splitlines()[1:]:
            n, s_formula, ms_formula, s_solved, ms_solved = line.split()
            assert s_solved == s_formula
            assert ms_solved == ms_formula

    def test_each_solved_row_plans_one_book(self, capsys, monkeypatch):
        # s and ms solve the same book object, so a row builds one search plan, and a row
        # past --solve-upto none; the table reads as the closed forms and the solver give it
        builds = []
        build = irrstrength.solver._build_plan
        monkeypatch.setattr(irrstrength.solver, "_build_plan", lambda g: builds.append(g.order - 2) or build(g))
        code, out, err = invoke(capsys, "table", "--from", "1", "--to", "8", "--solve-upto", "6")
        assert (code, err, builds) == (0, "", [1, 2, 3, 4, 5, 6])
        assert out == (
            "     n      s     ms  s_solved  ms_solved\n"
            "     1      3      3         3          3\n"
            "     2      2      2         2          2\n"
            "     3      2      2         2          2\n"
            "     4      3    inf         3        inf\n"
            "     5      3      4         3          4\n"
            "     6      4      4         4          4\n"
            "     7      4      4         -          -\n"
            "     8      5    inf         -          -\n"
        )

    def test_bad_range(self, capsys):
        code, out, err = invoke(capsys, "table", "--from", "5", "--to", "3")
        assert code == 2
        assert (out, err) == ("", "error: table range must satisfy 1 <= from <= to\n")

    def test_solved_row_off_the_closed_form_exits_one(self, capsys, monkeypatch):
        closed_form = irrstrength.books.modular_strength
        monkeypatch.setattr(irrstrength.books, "modular_strength", lambda n: 4 if n == 3 else closed_form(n))
        code, out, err = invoke(capsys, "table", "--from", "1", "--to", "6", "--solve-upto", "6")
        assert code == 1
        assert out.splitlines()[-1].split() == ["3", "2", "4", "2", "2"]
        assert err == "n=3: solved s, ms = 2, 2 but closed form 2, 4\n"


class TestExportVerb:
    def test_dot_output(self, capsys, tmp_path):
        cert_file = tmp_path / "c.json"
        _, out, _ = invoke(capsys, "label", "--n", "1", "--theorem", "2")
        cert_file.write_text(out)
        code, out, _ = invoke(capsys, "export", "--cert", str(cert_file), "--format", "dot")
        assert code == 0
        assert out == (
            "graph G {\n"
            '  0 [label="4"];\n'
            '  1 [label="5"];\n'
            '  2 [label="3"];\n'
            '  0 -- 1 [label="3"];\n'
            '  0 -- 2 [label="1"];\n'
            '  1 -- 2 [label="2"];\n'
            "}\n"
        )

    def test_unknown_format_is_usage_error(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "export", "--cert", "x", "--format", "png")
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(irrstrength.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "irrstrength", "book", "--n", "2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n")


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "book", "--n", "3", "--fast")
        assert code == 2

    def test_no_verb(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2


def _json_integers(value) -> bool:
    if isinstance(value, list):
        return all(map(_json_integers, value))
    return isinstance(value, int) and not isinstance(value, bool)


@st.composite
def mutated_certificates(draw):
    """The B_3 certificate with one to three fields or elements replaced by junk or deleted."""
    doc = json.loads(B3_CERT)
    for _ in range(draw(st.integers(1, 3))):
        if not doc:
            break
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], list) and parent[key] and draw(st.booleans()):
            parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    return doc


@st.composite
def mutated_edge_lists(draw):
    """The B_3 edge list with one to four characters inserted, deleted or replaced."""
    text = list(B3_EDGES)
    chars = st.one_of(st.sampled_from([*"0123456789 \n\t-+_.", "9" * 20]), st.characters(codec="utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            text.insert(draw(st.integers(0, len(text))), draw(chars))
        elif text:
            i = draw(st.integers(0, len(text) - 1))
            if op == "delete":
                del text[i]
            else:
                text[i] = draw(chars)
    return "".join(text)


class TestFuzzedInputs:
    """Malformed input ends in a clean exit code, never in a traceback."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_certificates(), st.sampled_from(["irregular", "modular"]))
    def test_mutated_certificate(self, capsys, tmp_path, doc, mode):
        graph_file = tmp_path / "g.txt"
        cert_file = tmp_path / "c.json"
        graph_file.write_text(B3_EDGES)
        cert_file.write_text(json.dumps(doc))
        code, _, _ = invoke(
            capsys, "verify", "--graph", str(graph_file), "--cert", str(cert_file), "--mode", mode
        )
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert all(field in doc and _json_integers(doc[field]) for field in INT_FIELDS)
        code, _, _ = invoke(capsys, "export", "--cert", str(cert_file), "--format", "dot")
        assert code in (0, 1, 2, 3)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_edge_lists())
    def test_mutated_edge_list(self, capsys, tmp_path, text):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(text, encoding="utf-8")
        code, _, _ = invoke(capsys, "bound", "--graph", str(graph_file))
        assert code in (0, 1, 2, 3)
