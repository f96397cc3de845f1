"""calab loads and runs on numpy alone.

The library has its own Gauss-Legendre rule, Nelder-Mead, polar seed search
and Cholesky reduction of the symmetric-definite Galerkin pencils, so no
scipy module is needed at run time; the tests use scipy only as an oracle.
A fresh interpreter shows that neither the import nor a pinch, polar,
spectrum or Hessian-gap run brings any scipy module in.  The CLI's import
leaves the modules that only some commands use out as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = f"""
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {{}}
import calab, calab.cli
seen["import"] = scipy_modules()
from calab import bodies, cli, pinching, spectral
from calab.calculus import build_state
from calab.sphere import build_grid
cfg = json.load(open({str(ROOT / "configs" / "pinch_ellipsoid.json")!r}))
v = cli.validate("pinch", cfg, seed=0)
pinching.optimize_image(v["body"], iters=v["optimize"]["iters"])
seen["optimize_image"] = scipy_modules()
bodies.evaluate_on_grid(bodies.polar(v["body"].body, v["grid"]), v["grid"])
g = build_grid(3, 8)
bodies.evaluate_on_grid(bodies.polar(bodies.perturbed_ball(3, 0.1), g), g)
seen["polar"] = scipy_modules()
system = spectral.assemble(build_state(bodies.evaluate_on_grid(
    bodies.perturbed_ball(3, 0.1), g)), spectral.GalerkinBasis(g, 8))
spectral.solve_spectrum(system, k=4)
spectral.hessian_gap_even(system)
seen["spectrum"] = scipy_modules()
print(json.dumps(seen))
"""


def test_calab_loads_and_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    assert seen == {"import": [], "optimize_image": [], "polar": [], "spectrum": []}


def test_cli_import_leaves_the_thread_pool_out():
    # concurrent.futures (and the logging it imports) loads only when
    # `sweep --threads N` opens a pool with N > 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import json, sys, calab.cli; print(json.dumps(sorted("
             "m for m in ('logging', 'concurrent.futures') if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []


def test_cli_import_leaves_acceptance_out():
    # only verify-all runs the acceptance criteria, so calab.acceptance loads
    # when a verify-all config is read or run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import json, sys, calab.cli; "
             "print(json.dumps('calab.acceptance' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) is False


def test_import_builds_no_dataclass():
    # calab's records are NamedTuples and small immutable classes, which
    # the import builds without generating code: dataclasses does not load
    # unless numpy already loaded it, and no calab class is a dataclass
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = (
        "import inspect, json, sys, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import calab, calab.cli, calab.acceptance\n"
        "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'calab']\n"
        "print(json.dumps({'loaded': 'dataclasses' in sys.modules and not before,\n"
        "    'dataclasses': sorted(f'{m.__name__}.{name}' for m in mods\n"
        "        for name, cls in inspect.getmembers(m, inspect.isclass)\n"
        "        if cls.__module__ == m.__name__\n"
        "        and hasattr(cls, '__dataclass_fields__'))}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"loaded": False, "dataclasses": []}
