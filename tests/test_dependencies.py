import os
import subprocess
import sys
from pathlib import Path

import polylevel as pl

# scipy is a test-only dependency: the library must import and run without it
SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import polylevel as pl
P = pl.facets(pl.enumerate_bases(pl.path(3), (2, 3, 2)))
rep = pl.analyze_polytope(P)
print(rep.level, rep.int_star_degree, pl.delta_vector(P).delta)
"""


# networkx is no dependency at all: the tree catalog of check A11 and of
# scripts/tree_census.py comes from polylevel.trees
NO_NETWORKX = """
import runpy
import sys
sys.modules["networkx"] = None  # any import of networkx now raises ImportError
from polylevel.acceptance import criterion_11
print(*criterion_11())
census = sys.argv[1]
sys.argv = [census, "--nmax", "7"]
runpy.run_path(census, run_name="__main__")
"""


def run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_runtime_needs_no_scipy():
    out = run_python(SCRIPT)
    assert out.returncode == 0, out.stderr
    P = pl.facets(pl.enumerate_bases(pl.path(3), (2, 3, 2)))
    rep = pl.analyze_polytope(P)
    want = f"{rep.level} {rep.int_star_degree} {pl.delta_vector(P).delta}"
    assert out.stdout.splitlines()[0] == want


def test_tree_catalog_needs_no_networkx():
    census = Path(__file__).resolve().parents[1] / "scripts" / "tree_census.py"
    out = run_python(NO_NETWORKX, str(census))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "True 24 trees, rule == search"
    assert "???" not in out.stdout
    assert out.stdout.splitlines()[-1] == "admitting a witness: 8, not admitting: 16"
