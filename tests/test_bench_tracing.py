"""The benchmark's tracer still finds every calab name it wraps.

``bench/tracing.py`` replaces calab functions and methods by name when it is
installed, and fails there when one of them has been removed or renamed.
Installing it monkeypatches calab for the whole process, so the check runs in
a fresh interpreter: install, one traced spectrum, one Hessian gap on the
same grid, two reads of that grid's basis tables, one Ricci check and one
polar support of an l_q ball, and every per-layer metric that BENCHMARK.json
declares is present in ``layer_metrics``, apart from the two that
``bench/run.py`` computes itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMPUTED_BY_RUN = {"cli.sweep_scaling_eff", "trace.overhead_frac"}

_PROBE = """
import json
import numpy as np
import tracing
from calab import bodies, calculus, spectral
from calab.bodies import ball, ellipsoid, evaluate_on_grid
from calab.spectral import compute_spectrum
from calab.sphere import build_grid
tracer = tracing.Tracer()
tracing.install(tracer)
grid = build_grid(2, 8)
compute_spectrum(bodies.evaluate_on_grid(ball(1.0, 2), grid), k=3)
state = calculus.build_state(bodies.evaluate_on_grid(ball(1.0, 2), grid))
spectral.hessian_gap_even(spectral.assemble(state, spectral.GalerkinBasis(grid, 8)))
grid.basis_tables()
grid.basis_tables(4)
calculus.ricci_star_check(calculus.build_state(
    evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 1.0])), build_grid(3, 8))))
bodies.polar(bodies.lq_gauge_body(4, 2), grid).support(grid.pair_nodes)
print(json.dumps(tracing.layer_metrics(tracer.spans)))
"""


def test_tracing_installs_and_reports_every_declared_layer():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out)
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert COMPUTED_BY_RUN <= declared
    assert declared - COMPUTED_BY_RUN <= metrics.keys()
    # the spectrum's and the gap's calls went through the wrapped names
    assert metrics["spectral.assemble_calls"] == 2
    assert metrics["spectral.solve_calls"] == 1
    assert metrics["bodies.evaluate_on_grid_calls"] == 2
    assert metrics["spectral.hessian_gap_s"] > 0
    # the forms stream their rows and build no table; the two table reads
    # built the grid's tables once
    assert metrics["sphere.basis_tables_calls"] == 1
    assert metrics["sphere.basis_tables_mb"] > 0
    # so did the Ricci check that acceptance and the benchmark call by name
    assert metrics["calculus.ricci_check_s"] > 0
    # the per-call l_q ball class and the polar's methods are instrumented
    assert metrics["bodies.support_calls"] > 0
