"""Smoke test: the in-process A/B script runs with the working tree on both sides."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("ops", ["books", "random", "sweep", "cli"])
def test_one_round_against_itself(ops):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(ROOT), "--ops", ops, "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    count = {"books": 21, "random": 40, "sweep": 2000, "cli": 106}[ops]
    assert lines[0].startswith(f"{ops}: {count} operations, 1 rounds;")
    assert lines[1].startswith("tree/base median ")


def test_rejects_a_checkout_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "--base", str(tmp_path), "--ops", "books", "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "no module at" in proc.stderr
