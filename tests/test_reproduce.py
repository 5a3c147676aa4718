"""The reproduction script runs end to end on a small range, and its checks stop it."""

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


def test_checks_hold_under_optimize():
    """``python -O`` strips asserts; a wrong closed form must still stop the sweep."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
        "import reproduce_results as script\n"
        "strength = script.irregular_strength\n"
        "script.irregular_strength = lambda n: strength(n) + 1\n"
        "script.construction_sweep(10)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "check failed: Theorem 1 largest label is s, n=1\n"
