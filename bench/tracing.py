"""Span tracing of calab's public functions, installed from benchmark code.

``install()`` wraps calab's public functions, the grid/basis table methods and
every ``support``/``support_grad``/``support_hess`` method.  A function is
replaced under each module attribute that holds it (``calab.cli`` and
``calab.spectral`` import names directly), so nested calls are traced too.
Untraced runs never call ``install()``.

A span is ``[id, parent_id, key, start, end, info]``, its times read from the
tracer's clock (the worker's leaves out the host-speed probe); spans stay in
memory until ``write_spans``.  ``layer_metrics`` turns them into the per-layer
metrics: a ``*_s`` metric is the self time (span minus direct children) of
its key's spans plus the self time of untimed descendants, such as body
``support`` calls, that have no timed span of their own between them.  The
``cli.*_s`` metrics are inclusive instead: the whole command.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from calab import bodies, calculus, isomorphic, minkowski, pinching, spectral, sphere

# keys whose self time is reported; all other keys fold into their parent
TIMED = {
    "sphere.build_grid", "sphere.basis_tables", "sphere.eval_derivs",
    "sphere.transform", "bodies.evaluate_on_grid", "bodies.polar",
    "bodies.quantities", "calculus.build_state", "calculus.hbm_apply",
    "calculus.ricci_check", "spectral.assemble", "spectral.solve",
    "spectral.hessian_gap", "pinching.measure", "pinching.optimize",
    "isomorphic.construct", "isomorphic.verify", "isomorphic.direct_route",
    "minkowski.minimize", "cli.main",
}

CLI_COMMANDS = ("spectrum", "bochner", "pinch", "isomorphic", "solve", "sweep")

SUPPORT_METHODS = ("support", "support_grad", "support_hess")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, key, before=None, after=None):
        """Span-recording wrapper.  ``before(args)`` returns the span's info
        dict and ``after(info, result)`` may add to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            info = before(args) if before else {}
            span = [next(self._ids), parent[0] if parent else 0, key, 0.0, 0.0, info]
            stack.append(span)
            span[3] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                info["error"] = True
                raise
            finally:
                span[4] = self.clock()
                stack.pop()
                self.spans.append(span)
            if after:
                after(info, result)
            return result

        return traced


def _replace_everywhere(original, wrapped):
    """Rebind every calab module attribute holding ``original``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "calab" or name.startswith("calab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _points(args):
    return {"points": len(np.atleast_2d(args[1]))}


def _instrument_body_class(tracer: Tracer, cls):
    for meth in SUPPORT_METHODS:
        fn = cls.__dict__.get(meth)
        if fn is None:
            continue
        key = "bodies.polar" if issubclass(cls, bodies.PolarBody) else "bodies.support"
        setattr(cls, meth, tracer.wrap(fn, key, before=_points))


def _body_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _body_classes(sub)


def install(tracer: Tracer) -> None:
    """Wrap calab's public functions and methods so calls record spans."""
    from calab import cli

    def fn(mod, name, key, before=None, after=None):
        original = getattr(mod, name)
        _replace_everywhere(original, tracer.wrap(original, key, before, after))

    # sphere
    fn(sphere, "build_grid", "sphere.build_grid")
    for name in ("analyze", "synthesize", "tangential_gradient", "tangential_hessian"):
        fn(sphere, name, "sphere.transform")

    def tables_before(args):
        grid = args[0]
        if grid._tables is not None:
            return {}
        nb, n = grid.basis.size, grid.n
        return {"built": True,
                "mb": grid.node_count * nb * (1 + n + n * n) * 8 / 1e6}

    sphere.SphereGrid.basis_tables = tracer.wrap(
        sphere.SphereGrid.basis_tables, "sphere.basis_tables", before=tables_before)
    sphere.HarmonicBasis.eval_derivs = tracer.wrap(
        sphere.HarmonicBasis.eval_derivs, "sphere.eval_derivs", before=_points)

    # bodies
    fn(bodies, "evaluate_on_grid", "bodies.evaluate_on_grid")
    fn(bodies, "quantities", "bodies.quantities")
    fn(bodies, "polar", "bodies.polar")
    fn(bodies, "random_even_body", "bodies.random_even_body")
    for cls in _body_classes(bodies.BodyEvaluator):
        _instrument_body_class(tracer, cls)
    # lq_gauge_body defines its body class per call
    fn(bodies, "lq_gauge_body", "bodies.lq_gauge_body",
       after=lambda info, body: _instrument_body_class(tracer, type(body)))

    # calculus
    fn(calculus, "build_state", "calculus.build_state")
    fn(calculus, "hbm_apply", "calculus.hbm_apply")
    fn(calculus, "ricci_star_check", "calculus.ricci_check")

    # spectral
    def assemble_before(args):
        state, basis = args[0], args[1]
        n, nb = state.grid.n, basis.size
        return {"gflop": 2.0 * state.grid.node_count * nb * nb * (1 + n + n * n) / 1e9}

    def solve_after(info, rep):
        info["max_residual"] = float(rep.residuals.max()) if len(rep.residuals) else 0.0

    fn(spectral, "assemble", "spectral.assemble", before=assemble_before)
    fn(spectral, "solve_spectrum", "spectral.solve", after=solve_after)
    fn(spectral, "hessian_gap_even", "spectral.hessian_gap")

    # pinching, isomorphic, minkowski
    fn(pinching, "measure_pinching", "pinching.measure")
    fn(pinching, "optimize_image", "pinching.optimize",
       after=lambda info, res: info.update(nit=int(res["iterations"])))
    fn(isomorphic, "construct", "isomorphic.construct")
    fn(isomorphic, "verify", "isomorphic.verify")
    fn(isomorphic, "direct_route_support", "isomorphic.direct_route")

    def minimize_after(info, res):
        info.update(iterations=int(res.iterations), el=float(res.el_residual),
                    stalled=res.message == "line search stalled")

    fn(minkowski, "minimize", "minkowski.minimize", after=minimize_after)

    # cli
    fn(cli, "main", "cli.main", before=lambda args: {"command": args[0][0]})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (unitless numbers) from one traced process."""
    spans = sorted(spans, key=lambda s: s[0])
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += s[4] - s[3]

    owner = {}   # span id -> timed key its self time is charged to
    self_time = defaultdict(float)
    sums = defaultdict(float)
    for s in spans:
        sid, parent, key, t0, t1, info = s
        parent_key = by_id[parent][2] if parent else None
        # evaluations that fill grid tables belong to basis_tables
        if key == "sphere.eval_derivs" and parent_key == "sphere.basis_tables":
            key = "sphere.basis_tables.eval"
        if key in TIMED:
            owner[sid] = key
        else:
            owner[sid] = owner.get(parent, "untimed")
        self_time[owner[sid]] += (t1 - t0) - child_time[sid]
        if key in ("bodies.support", "bodies.polar") and "points" in info:
            sums["support_calls"] += 1
            sums["support_points"] += info["points"]
        if key == "sphere.basis_tables" and info.get("built"):
            sums["tables_calls"] += 1
            sums["tables_mb"] += info["mb"]
        if key == "sphere.eval_derivs":
            sums["eval_points"] += info["points"]
        if key == "bodies.evaluate_on_grid":
            sums["evaluate_calls"] += 1
            if parent_key == "bodies.random_even_body":
                sums["random_draws"] += 1
        if key == "bodies.random_even_body" and not info.get("error"):
            sums["random_accepted"] += 1
        if key == "spectral.assemble":
            sums["assemble_calls"] += 1
            sums["assemble_gflop"] += info["gflop"]
        if key == "spectral.solve":
            sums["solve_calls"] += 1
            sums["max_eig_residual"] = max(sums["max_eig_residual"],
                                           info.get("max_residual", 0.0))
        if key == "pinching.optimize":
            sums["nm_iterations"] += info.get("nit", 0)
        if key == "minkowski.minimize":
            sums["solves"] += 1
            sums["iterations"] += info.get("iterations", 0)
            sums["stalled"] += bool(info.get("stalled"))
            sums["max_el"] = max(sums["max_el"], info.get("el", 0.0))
        if key == "cli.main":
            sums[f"cli.{info['command']}"] += t1 - t0

    assemble_s = self_time["spectral.assemble"]
    out = {
        "sphere.basis_tables_s": self_time["sphere.basis_tables"],
        "sphere.basis_tables_calls": sums["tables_calls"],
        "sphere.basis_tables_mb": sums["tables_mb"],
        "sphere.eval_derivs_s": self_time["sphere.eval_derivs"],
        "sphere.eval_derivs_points": sums["eval_points"],
        "sphere.build_grid_s": self_time["sphere.build_grid"],
        "sphere.transform_s": self_time["sphere.transform"],
        "bodies.evaluate_on_grid_s": self_time["bodies.evaluate_on_grid"],
        "bodies.evaluate_on_grid_calls": sums["evaluate_calls"],
        "bodies.polar_s": self_time["bodies.polar"],
        "bodies.support_calls": sums["support_calls"],
        "bodies.support_points": sums["support_points"],
        "bodies.quantities_s": self_time["bodies.quantities"],
        "bodies.random_accept_ratio": (sums["random_accepted"] / sums["random_draws"]
                                       if sums["random_draws"] else 0.0),
        "calculus.build_state_s": self_time["calculus.build_state"],
        "calculus.hbm_apply_s": self_time["calculus.hbm_apply"],
        "calculus.ricci_check_s": self_time["calculus.ricci_check"],
        "spectral.assemble_s": assemble_s,
        "spectral.assemble_calls": sums["assemble_calls"],
        "spectral.assemble_gflop": sums["assemble_gflop"],
        "spectral.assemble_gflops": (sums["assemble_gflop"] / assemble_s
                                     if assemble_s > 0 else 0.0),
        "spectral.solve_s": self_time["spectral.solve"],
        "spectral.solve_calls": sums["solve_calls"],
        "spectral.hessian_gap_s": self_time["spectral.hessian_gap"],
        "spectral.max_eig_residual": sums["max_eig_residual"],
        "pinching.measure_s": self_time["pinching.measure"],
        "pinching.optimize_s": self_time["pinching.optimize"],
        "pinching.nm_iterations": sums["nm_iterations"],
        "isomorphic.construct_s": self_time["isomorphic.construct"],
        "isomorphic.verify_s": self_time["isomorphic.verify"],
        "isomorphic.direct_route_s": self_time["isomorphic.direct_route"],
        "minkowski.minimize_s": self_time["minkowski.minimize"],
        "minkowski.solves": sums["solves"],
        "minkowski.iterations": sums["iterations"],
        "minkowski.stalled": sums["stalled"],
        "minkowski.max_el_residual": sums["max_el"],
        "cli.main_s": sum(sums[f"cli.{c}"] for c in CLI_COMMANDS),
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = sums[f"cli.{c}"]
    return {k: float(v) for k, v in out.items()}


def write_spans(spans: list[list], path) -> None:
    """Write spans as JSON: one [id, parent, key, start, end, info] per line."""
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s[0]):
            fh.write(json.dumps(s) + "\n")
