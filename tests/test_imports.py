"""calab loads on numpy and scipy.linalg alone.

scipy.special, scipy.spatial and scipy.optimize cost about half of
``import calab``; the library replaces them with its own Gauss-Legendre rule,
Nelder-Mead and polar seed search, and the tests use them only as oracles.
A fresh interpreter shows that neither the import nor a run brings them in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.special", "scipy.spatial", "scipy.optimize")

_PROBE = f"""
import json, sys
heavy = {HEAVY!r}
seen = {{}}
import calab, calab.cli
seen["import"] = [m for m in heavy if m in sys.modules]
from calab import bodies, cli, pinching
cfg = json.load(open({str(ROOT / "configs" / "pinch_ellipsoid.json")!r}))
v = cli.validate("pinch", cfg, seed=0)
pinching.optimize_image(v["body"], v["grid"], iters=v["optimize"]["iters"])
seen["optimize_image"] = [m for m in heavy if m in sys.modules]
bodies.evaluate_on_grid(bodies.polar(v["body"], v["grid"]), v["grid"])
seen["polar"] = [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
"""


def test_calab_loads_and_runs_without_heavy_scipy_subpackages():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    assert seen == {"import": [], "optimize_image": [], "polar": []}
