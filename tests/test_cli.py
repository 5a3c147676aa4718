import json

import pytest

from irrstrength import EdgeLabeling, certificate_to_json, make_certificate, make_family
from irrstrength.cli import run


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("labels", [3.7, 1.2, 2.9]),  # would truncate to a valid labeling
            ("labels", ["3", "1", "2"]),
            ("labels", [2**70, 1, 2]),
            ("edges", None),
        ],
        ids=["float-labels", "string-labels", "label-2^70", "edges-null"],
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

    def test_threads_flag(self, capsys, tmp_path):
        graph_file = tmp_path / "g.txt"
        _, out, _ = invoke(capsys, "book", "--n", "5")
        graph_file.write_text(out)
        code, out, _ = invoke(
            capsys, "solve", "--graph", str(graph_file), "--mode", "ms", "--threads", "3"
        )
        assert code == 0
        assert json.loads(out)["k"] == 4

    def test_threads_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IRRSTRENGTH_THREADS", "2")
        from irrstrength.cli import build_parser

        args = build_parser().parse_args(["solve", "--graph", "x", "--mode", "s"])
        assert args.threads == 2


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

    def test_bad_range(self, capsys):
        code, _, err = invoke(capsys, "table", "--from", "5", "--to", "3")
        assert code == 2


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
