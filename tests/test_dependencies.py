import os
import subprocess
import sys

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


def test_runtime_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    P = pl.facets(pl.enumerate_bases(pl.path(3), (2, 3, 2)))
    rep = pl.analyze_polytope(P)
    want = f"{rep.level} {rep.int_star_degree} {pl.delta_vector(P).delta}"
    assert out.stdout.splitlines()[0] == want
