"""Smoke test: the reproduction script runs end to end on a small range."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_results_small_range():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_results.py"),
         "--table-to", "8", "--solve-upto", "8", "--sweep-to", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all reproduction checks passed" in proc.stdout.splitlines()
