"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_lists_the_runner_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in spec:
        assert printed[m["name"]] == m["unit"]
    assert "failed_ratio" in printed


def test_wrong_expected_value_is_counted_in_failed_ratio(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "book_s", lambda n: 0)
    assert run.main(["--workload", "sweep", "--seed", "0", "--seconds", "0.3", "--tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False
    ratio = next(line for line in lines if line.startswith("metric failed_ratio "))
    assert float(ratio.split()[2]) == 1.0
    assert any(line.startswith("FAIL sweep n1 [books] Theorem 1 labeling has k=3, expected 0") for line in lines)


def test_solver_nodes_repeat_exactly():
    nodes = []
    for seed in ("1", "2"):
        _, result = result_of(bench("--workload", "solve-books", "--seed", seed, "--seconds", "0.3", "--trace", "1", "--tiny"))
        nodes.append(result["metrics"]["solver.nodes"]["value"])
    assert nodes[0] == nodes[1] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
