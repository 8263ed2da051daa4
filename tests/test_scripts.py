"""The scripts under scripts/ call the public API; run each end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("reproduce_reference_instances.py", ()),
])
def test_script_runs(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr


def test_tree_census_runs():
    done = run_script("tree_census.py", "--nmax", "8", "--cmax", "3")
    assert done.returncode == 0, done.stderr
    assert "???" not in done.stdout


def test_polymatroid_census_counts_the_n4_requests():
    """Every connected labelled graph on 4 vertices with c in [1..3]^4."""
    done = run_script("polymatroid_census.py", "--n", "4", "--cmax", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == ["requests: 3078", "distinct basis sets: 377"]
