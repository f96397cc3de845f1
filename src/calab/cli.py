"""Command-line front end: configuration ingestion, reports, and sweeps.

Usage:  calab <command> --config <path> --out <dir> [--seed N] [--threads N]

Each command is one entry of ``COMMAND_TABLE``: its handler and the kind and
default of each config key.  ``validate`` reads the whole config against it
before anything is written, builds the grid and the bodies, evaluates on the
grid the bodies that must be strongly convex there (the body of spectrum
and bochner, solve's target) and reads density files; it is the only place a ConfigError is
raised.  The handlers only compute.  Reports are JSON (byte-deterministic
for a fixed config and seed); tabular results go to CSV, wall-clock timing
to a separate timing file.
Exit status: 0 all checks pass, 1 numerical failure (report still written),
2 configuration error (nothing written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import calab
from calab.bodies import (ball, ellipsoid, evaluate_on_grid, lq_gauge_body,
                          perturbed_ball, polar, quantities, random_even_body)
from calab.calculus import build_state
from calab.isomorphic import construct, isometric_gamma, p_gamma_D, verify
from calab.minkowski import TargetMeasure, minimize
from calab.pinching import measure_pinching, optimize_image
from calab.spectral import (GalerkinBasis, bochner_residual, compute_spectrum,
                            hessian_gap_even)
from calab.sphere import build_grid


class ConfigError(Exception):
    pass


# ----------------------------------------------------------------------
# config schema

REQUIRED = object()  # default of a key the config must give


def _read(kind, value, where: str, top: dict):
    """``value`` checked against ``kind`` and converted.

    A kind is float, int or str; a tuple of allowed strings; a list of kinds
    (a list of exactly that length, read item by item) or ``[kind, ...]`` (a
    list of any length); a dict of keys (a nested object, see ``_object``); or
    a reader ``f(value, where, top)``, such as the grid, the bodies and
    ``_bounded`` numbers, whose ValueError, LookupError, RuntimeError or
    ArithmeticError becomes a ConfigError naming ``where`` here and only here.
    ``top`` holds the top-level values read so far."""
    if kind is float or kind is int:
        # the comparison also rejects NaN, inf and an int beyond every float
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        if kind is int and value != int(value):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return kind(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{where} must be one of {', '.join(kind)}; got {value!r}")
        return value
    if isinstance(kind, dict):
        return _object(kind, value, where, top, {})
    if isinstance(kind, list):
        many = kind[-1] is Ellipsis
        if not isinstance(value, list) or (not many and len(value) != len(kind)):
            size = "" if many else f" of {len(kind)} items"
            raise ConfigError(f"{where} must be a list{size}, got {value!r}")
        kinds = kind[:1] * len(value) if many else kind
        return [_read(k, item, f"{where}[{i}]", top)
                for i, (k, item) in enumerate(zip(kinds, value))]
    try:
        return kind(value, where, top)
    except (ValueError, LookupError, RuntimeError, ArithmeticError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _in_range(kind, low, high, open_, value, where, top):
    x = _read(kind, value, where, top)
    low, high = (b(top) if callable(b) else b for b in (low, high))
    inside = operator.lt if open_ else operator.le
    if inside(low, x) and (high is None or inside(x, high)):
        return x
    if high is None:
        span = f"greater than {low}" if open_ else f"at least {low}"
    else:
        span = f"in ({low}, {high})" if open_ else f"in {low}..{high}"
    raise ConfigError(f"{where} must be {span}, got {value!r}")


def _bounded(kind, low, high=None, open_=False):
    """A reader of a number of ``kind`` in [low, high], or in (low, high) with
    ``open_``; ``high`` None is no upper bound.  A bound is a number or a
    function of the top-level values read so far."""
    return partial(_in_range, kind, low, high, open_)


def _object(keys: dict, raw, where: str, top: dict, out: dict) -> dict:
    """Read the object ``raw`` against ``keys`` into ``out``.

    ``keys`` maps each allowed key to (kind, default).  The default is
    REQUIRED; None (the key is optional, and null means absent); a raw value,
    read like a given one; or a function of ``top`` that returns one."""
    name = where or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object, got {raw!r}")
    unknown = [k for k in raw if k not in keys]
    if unknown:
        raise ConfigError(f"{name} has unknown key {unknown[0]!r} "
                          f"(known: {', '.join(keys)})")
    for key, (kind, default) in keys.items():
        path = f"{where}.{key}" if where else key
        if key in raw and (raw[key] is not None or default is not None):
            out[key] = _read(kind, raw[key], path, top)
        elif default is REQUIRED:
            raise ConfigError(f"{name} needs {key!r}")
        else:
            value = default(top) if callable(default) else default
            out[key] = None if value is None else _read(kind, value, path, top)
    return out


def _grid(raw, where, top):
    g = _object({"n": (int, REQUIRED), "L": (int, REQUIRED), "nodes": (int, None)},
                raw, where, top, {})
    return build_grid(g["n"], g["L"], n_nodes=g["nodes"])


def _grid_L(top):
    return top["grid"].band_limit


def _ellipsoid(diag, matrix, n):
    if (diag is None) == (matrix is None):
        raise ConfigError("an ellipsoid needs one of 'diag' and 'matrix'")
    body = ellipsoid(np.diag(diag) if matrix is None else matrix)
    if body.n != n:  # the one body whose dimension is its own: its matrix size
        raise ValueError(f"the ellipsoid has dimension {body.n}, the grid n={n}")
    return body


# body type -> (constructor, config keys = its keyword arguments but n)
BODY_TYPES = {
    "ball": (ball, {"r": (float, 1.0)}),
    "ellipsoid": (_ellipsoid, {"diag": ([float, ...], None),
                               "matrix": ([[float, ...], ...], None)}),
    "perturbed_ball": (perturbed_ball, {"eps": (float, 0.1),
                                        "coeffs": ([[int, int, float], ...], None)}),
    "random": (random_even_body, {"seed": (int, REQUIRED), "band": (int, 8),
                                  "strength": (float, 0.3)}),
    "lq": (lq_gauge_body, {"q": (int, 4)}),
}


def _body(raw, where, top):
    """The body of a descriptor, built in the grid's dimension n."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a body object, got {raw!r}")
    build, keys = BODY_TYPES[_read(tuple(BODY_TYPES), raw.get("type"),
                                   f"{where}.type", top)]
    args = _object(keys, {k: x for k, x in raw.items() if k != "type"}, where,
                   top, {})
    return build(n=top["grid"].n, **args)


def _strong_body(raw, where, top):
    """The body of a descriptor evaluated on the grid (a BodyOnGrid, which
    the handler reuses); it must be strongly convex there."""
    bg = evaluate_on_grid(_body(raw, where, top), top["grid"])
    if not bg.valid:
        raise ConfigError(f"{where} is not strongly convex on the grid (least "
                          f"eigenvalue of D^2h {bg.min_eig_D2h:.3g})")
    return bg


def _density_csv(path, where, top):
    """The target measure of a CSV with columns ``node,value``, placed by
    node; the node indices must be exactly 0..N-1 of the grid, in any order,
    and the values a valid density (positive and even)."""
    count = top["grid"].node_count
    try:
        with open(_read(str, path, where, top), newline="") as fh:
            rows = list(csv.DictReader(fh, restval=""))  # a short row reads ""
    except (OSError, csv.Error) as exc:
        raise ConfigError(f"cannot read {where}: {exc}") from exc
    nodes = np.array([int(r["node"]) for r in rows], dtype=int)
    values = np.array([float(r["value"]) for r in rows])
    if not np.array_equal(np.sort(nodes), np.arange(count)):
        raise ConfigError(f"{where} nodes must be exactly 0..{count - 1}")
    density = np.empty(count)
    density[nodes] = values
    return TargetMeasure.from_density(top["grid"], density)


# ----------------------------------------------------------------------
# command handlers: each takes the validated values and the thread count and
# returns its checks, the report payload and its output files (name -> a
# JSON-ready dict, or (header, rows) for a CSV)


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode()


def _check(name, value, expected, tolerance, passed) -> dict:
    return {"name": name, "value": None if value is None else float(value),
            "expected": None if expected is None else float(expected),
            "tolerance": float(tolerance), "pass": bool(passed)}


def _lambda1_tol(v):
    return 1e-3 if v["grid"].n == 3 else 1e-6


def _floor_check(values, n, tol) -> dict:
    """Brunn-Minkowski: no eigenvalue of -L_K off the constants lies below n - 1."""
    least = min(values, default=None)
    return _check("brunn_minkowski_floor", least, n - 1, tol,
                  least is None or least >= n - 1 - tol)


def _cmd_spectrum(v, threads):
    n, tol = v["grid"].n, v["lambda1_tol"]
    rep, _ = compute_spectrum(v["body"], v["degree_max"], k=v["k"],
                              subspace=v["subspace"])
    eigs, resid = rep.eigenvalues, rep.residuals
    # n - 1 is the eigenvalue of the linear functions, which are odd: only
    # the full subspace holds them; outside it the floor applies
    checks = [
        _check("lambda1", rep.lambda1, n - 1, tol,
               rep.lambda1 is not None and abs(rep.lambda1 - (n - 1)) <= tol),
    ] if v["subspace"] == "all" else [_floor_check(eigs, n, tol)]
    checks += [
        _check("eigenvalues_nonnegative", eigs.min(), 0.0, 1e-8, eigs.min() >= -1e-8),
        _check("max_residual", resid.max(), 0.0, 1e-8, resid.max() <= 1e-8),
    ]
    files = {"spectrum.json": rep.to_dict(),
             "eigenvalues.csv": (["index", "eigenvalue"],
                                 [[i, repr(float(lam))] for i, lam in enumerate(eigs)])}
    return checks, {"spectrum": rep.to_dict()}, files


def _cmd_bochner(v, threads):
    grid, tol = v["grid"], v["tolerance"]
    st = build_state(v["body"])
    rng = np.random.default_rng(v["seed"])
    nb = GalerkinBasis(grid, v["field_band"]).size
    worst = 0.0
    for _ in range(v["n_fields"]):
        c = rng.normal(size=grid.basis.size)[:nb]
        worst = max(worst, bochner_residual(st, c))
    checks = [_check("max_bochner_residual", worst, 0.0, tol, worst <= tol)]
    return checks, {"max_residual": worst, "fields": v["n_fields"]}, {}


_PINCH_FIELDS = ["r_curv", "R_curv", "A", "B", "r_in", "R_out", "p_main", "p_strong"]


def _cmd_pinch(v, threads):
    bg = v["body"]
    rep = best = measure_pinching(bg)
    payload = {"pinching": rep.to_dict()}
    if v["optimize"] is not None:
        res = optimize_image(bg, iters=v["optimize"]["iters"])
        best = res["report"]
        payload["optimized"] = {
            **best.to_dict(), "T": res["T"].tolist(), "iterations": res["iterations"],
            "stopped_by": res["stopped_by"]}
    checks = [_check("rolling_lower", rep.r_curv, rep.r_in, 1e-8,
                     rep.r_curv <= rep.r_in + 1e-8),
              _check("rolling_upper", rep.R_out, rep.R_curv, 1e-8,
                     rep.R_out <= rep.R_curv + 1e-8)]
    row = [bg.body.label] + [repr(float(getattr(best, f))) for f in _PINCH_FIELDS]
    return checks, payload, {"pinching.json": payload,
                             "pinching.csv": (["label"] + _PINCH_FIELDS, [row])}


def _subspace_size(v):
    """The dimension of the spectrum's subspace at degree_max: the basis
    size, or its even columns but the constant."""
    basis = v["grid"].basis
    band = basis.L if v["degree_max"] is None else v["degree_max"]
    cols = basis.degrees <= band
    if v["subspace"] == "all":
        return int(cols.sum())
    size = int((cols & (basis.parity > 0)).sum()) - 1
    if size < 1:
        raise ConfigError(f"subspace {v['subspace']} is empty at degree_max {band}")
    return size


def _isomorphic_alpha(v):
    """alpha from the distance budget gamma = (1+beta) sqrt(1+alpha^2), or
    the explicit alpha and beta.  A certificate needs r_in <= R_out."""
    cert = v["certificate"]
    if cert is not None and cert[0] > cert[1]:
        raise ConfigError(f"certificate [r_in, R_out] needs r_in <= R_out, got {cert}")
    if v["gamma"] is None:
        if v["alpha"] is None or v["beta"] is None:
            raise ConfigError("isomorphic needs 'gamma', or 'alpha' and 'beta'")
        return
    if v["alpha"] is not None:
        raise ConfigError("isomorphic takes 'gamma' or 'alpha', not both")
    r = v["gamma"] / (1.0 + v["beta"])
    if not r > 1.0:
        raise ConfigError("gamma target must exceed 1 + beta")
    # r^2 may overflow; the derived alpha is read as a given one
    v["alpha"] = _read(_ALPHA, math.sqrt(r - 1.0) * math.sqrt(r + 1.0),
                       f"alpha of gamma target {v['gamma']!r}", v)


def _cmd_isomorphic(v, threads):
    grid = v["grid"]
    kt, params = construct(v["body"].body, grid, v["alpha"], v["beta"],
                           gauge=v["gauge"], certificate=v["certificate"])
    res = verify(evaluate_on_grid(kt, grid), params, slack=v["slack"])
    checks = [_check(f"bound/{c['name']}", c["measured"], c["bound"],
                     res["slack"], c["pass"]) for c in res["checks"]]
    payload = {"params": params.to_dict(), "verification": res}
    # section-level exponents: the universal constant C is a CLI parameter
    # (default 1.0); the theory does not pin it down
    payload["p_gamma_D"] = p_gamma_D(grid.n, params.dbm_bound, params.D)
    payload["isometric_gamma"] = isometric_gamma(grid.n, params.D, C=v["C"])
    rows = [[c["name"], repr(float(c["measured"])), repr(float(c["bound"])),
             int(c["pass"])] for c in res["checks"]]
    return checks, payload, {
        "iso_params.json": params.to_dict(),
        "iso_verification.csv": (["check", "measured", "bound", "pass"], rows)}


def _solve_target(v):
    if (v["target"]["body"] is None) == (v["target"]["density_csv"] is None):
        raise ConfigError("solve target needs one of 'body' and 'density_csv'")


def _cmd_solve(v, threads):
    grid, target = v["grid"], v["target"]
    p = target["p"]
    if target["body"] is not None:
        mu = TargetMeasure.from_body(target["body"], p)
    else:
        mu = target["density_csv"]
    res = minimize(mu, p, band=v["band"], max_iter=v["max_iter"])
    checks = [_check("converged", float(res.converged), 1.0, 0.0, res.converged),
              _check("el_residual", res.el_residual, 0.0, 1e-4,
                     res.el_residual <= 1e-4)]
    h = res.body.support(grid.nodes)
    rows = [[i] + [repr(float(c)) for c in pnt] + [repr(float(hi))]
            for i, (pnt, hi) in enumerate(zip(grid.nodes, h))]
    header = ["index"] + ["x", "y", "z"][: grid.n] + ["h"]
    return checks, {"solution": res.to_dict()}, {
        "solution.json": res.to_dict(), "solution_h.csv": (header, rows)}


def _sweep_bodies(v):
    """The swept bodies, at least one: the 'bodies' list, or the random
    family's."""
    fam = v["family"]
    if (v["bodies"] is None) == (fam is None):
        raise ConfigError("sweep needs one of 'bodies' and 'family'")
    if fam is not None:
        seeds = fam["seeds"]
        if seeds is None:
            seeds = range(v["seed"], v["seed"] + fam["count"])
        v["bodies"] = [_read(_body, {"type": "random", "seed": s, "band": fam["band"],
                                     "strength": fam["strength"]}, f"family seed {s}", v)
                       for s in seeds]
    if not v["bodies"]:
        raise ConfigError("sweep names no body: give a non-empty 'bodies' list, "
                          "or a family with a count of at least 1 or non-empty "
                          "'seeds'")


_SWEEP_HEADER = ["index", "label", "lambda1", "lambda1_even", "hessian_gap",
                 "p_main", "p_strong", "omega_gap", "error"]


def _sweep_one(idx, body, grid):
    try:
        bg = evaluate_on_grid(body, grid)
        rep, system = compute_spectrum(bg, k=4)
        gap = hessian_gap_even(system)
        pin = measure_pinching(bg)
        q = quantities(bg)
        qp = quantities(evaluate_on_grid(polar(body, grid), grid))
        omega_gap = abs(q.omega_n - qp.omega_n) / q.omega_n
        return [idx, body.label] + [repr(float(x)) for x in (
            rep.lambda1, rep.lambda1_even, gap, pin.p_main, pin.p_strong,
            omega_gap)] + [""]
    except Exception as exc:  # per-body failures become rows, sweep continues
        return [idx, body.label, "", "", "", "", "", "", str(exc)]


def _cmd_sweep(v, threads):
    jobs = (range(len(v["bodies"])), v["bodies"], [v["grid"]] * len(v["bodies"]))
    if threads > 1:
        # imported here: concurrent.futures pulls in logging at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_one, *jobs))
    else:
        rows = list(map(_sweep_one, *jobs))
    failed = [r for r in rows if r[-1]]
    count = len(v["bodies"])
    lambdas = (float(x) for r in rows if not r[-1] for x in r[2:4])  # lambda1(_even)
    checks = [_check("rows", len(rows), count, 0, len(rows) == count),
              _check("errors", len(failed), 0.0, 0, len(failed) == 0),
              _floor_check(lambdas, v["grid"].n, _lambda1_tol(v))]
    return (checks, {"rows": len(rows), "errors": len(failed)},
            {"sweep.csv": (_SWEEP_HEADER, rows)})


def _criterion(raw, where, top):
    """A criterion name, one of acceptance.CRITERIA.  acceptance is imported
    here and in _cmd_verify_all, on use: no other command runs it."""
    from calab import acceptance
    return _read(tuple(acceptance.CRITERIA), raw, where, top)


def _verify_criteria(v):
    """No criteria list runs every criterion; a given list names at least one."""
    if v["criteria"] == []:
        raise ConfigError("verify-all names no criterion: give a non-empty "
                          "'criteria' list, or leave it out to run them all")


def _cmd_verify_all(v, threads):
    from calab import acceptance
    records, ok = acceptance.run_criteria(v["criteria"], seed=v["seed"])
    checks = [_check(f"{rec['criterion']}/{c['name']}", c["value"],
                     c["expected"], c["tolerance"], c["passed"])
              for rec in records for c in rec["checks"]]
    return checks, {"criteria_passed": ok}, {"criteria.json": {"criteria": records}}


# ----------------------------------------------------------------------
# the command table and driver


class Command(NamedTuple):
    run: Callable  # run(values, threads) -> (checks, payload, files)
    keys: dict     # config key -> (kind, default), read in this order
    finish: Callable | None = None  # cross-key rules; may derive values


_GRID = (_grid, REQUIRED)
_POSITIVE = _bounded(float, 0, open_=True)
_ALPHA = _bounded(float, 0, math.sqrt(sys.float_info.max), open_=True)  # alpha^2 finite

COMMAND_TABLE = {
    "spectrum": Command(_cmd_spectrum, {
        "grid": _GRID, "body": (_strong_body, {"type": "ball"}),
        "subspace": (("all", "even-nonconstant"), "all"),
        # with all, lambda1 needs degree_max >= 1 (the linear functions) and k >= 2
        "degree_max": (_bounded(int, lambda v: int(v["subspace"] == "all"), _grid_L), None),
        "k": (_bounded(int, lambda v: 1 + (v["subspace"] == "all"), _subspace_size), 10),
        "lambda1_tol": (_bounded(float, 0), _lambda1_tol),
    }),
    "bochner": Command(_cmd_bochner, {
        "grid": _GRID,
        "body": (_strong_body, lambda v: {"type": "random", "seed": v["seed"]}),
        "n_fields": (_bounded(int, 1), 20),
        # a constant field has zero residual
        "field_band": (_bounded(int, 1, _grid_L), lambda v: max(_grid_L(v) // 3, 4)),
        "tolerance": (_bounded(float, 0), lambda v: 1e-6 if v["grid"].n == 2 else 1e-3),
    }),
    "pinch": Command(_cmd_pinch, {
        "grid": _GRID, "body": (_strong_body, REQUIRED),
        "optimize": ({"iters": (_bounded(int, 1), 200)}, None),
    }),
    "isomorphic": Command(_cmd_isomorphic, {
        "grid": _GRID, "body": (_strong_body, REQUIRED),
        "gamma": (float, None), "alpha": (_ALPHA, None),
        # with a gamma target, beta defaults to the constant-order choice
        # 1 + sqrt(2) of the isomorphic regime
        "beta": (_POSITIVE, lambda v: None if v["gamma"] is None else 1.0 + math.sqrt(2.0)),
        "certificate": ([_POSITIVE, float], None),
        "slack": (_bounded(float, 0), 0.02), "C": (_POSITIVE, 1.0),
        "gauge": (("auto", "numeric"), "auto"),
    }, _isomorphic_alpha),
    "solve": Command(_cmd_solve, {
        "grid": _GRID,
        "target": ({"p": (_bounded(float, lambda v: -v["grid"].n, 1, open_=True), REQUIRED),
                    "body": (_strong_body, None),
                    "density_csv": (_density_csv, None)}, REQUIRED),
        "band": (_bounded(int, 0, _grid_L), 16),
        "max_iter": (_bounded(int, 1), 4000),
    }, _solve_target),
    "sweep": Command(_cmd_sweep, {
        "grid": _GRID, "bodies": ([_body, ...], None),
        "family": ({"type": (("random",), REQUIRED), "count": (int, 0),
                    "seeds": ([int, ...], None), "band": (int, 8),
                    "strength": (float, 0.3)}, None),
    }, _sweep_bodies),
    "verify-all": Command(_cmd_verify_all, {
        "criteria": ([_criterion, ...], None),
    }, _verify_criteria),
}


def validate(command: str, cfg, seed: int) -> dict:
    """The values a command runs on, read from its raw config.

    Every key is read against the command's table entry (a config may also
    name its own command), defaults are filled in, the grid and bodies are
    built (and evaluated where they must be strongly convex) and density
    files read.  Every configuration error is raised here, so nothing has
    been written when one is."""
    entry = COMMAND_TABLE[command]
    values = {"seed": seed}
    _object({"command": ((command,), None), **entry.keys}, cfg, "", values, values)
    if entry.finish is not None:
        entry.finish(values)
    return values


def run_command(command: str, cfg, values: dict, threads: int = 1):
    """Run a command on its validated values: the deterministic report (which
    echoes the raw config) and the output files."""
    checks, payload, files = COMMAND_TABLE[command].run(values, threads)
    report = {"command": command, "config": cfg, "seed": values["seed"],
              "version": calab.__version__, "checks": checks,
              "pass": bool(all(c["pass"] for c in checks)), "result": payload}
    return report, files


def _write_files(out_dir: Path, files: dict):
    for name, content in files.items():
        if name.endswith(".json"):
            (out_dir / name).write_bytes(report_bytes(content))
            continue
        header, rows = content
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calab", description="centro-affine geometry laboratory for convex bodies")
    parser.add_argument("command", choices=list(COMMAND_TABLE))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.threads < 1:
        parser.error("--seed must be >= 0 and --threads >= 1")

    t0 = time.perf_counter()
    # read and validate the whole config before touching the output dir
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        values = validate(args.command, cfg, args.seed)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ConfigError,
            MemoryError) as exc:
        if isinstance(exc, MemoryError):  # a grid or body too large for this machine
            exc = "out of memory while building the grid or bodies (MemoryError)"
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path through one
        print(f"config error: cannot create output directory: {exc}",
              file=sys.stderr)
        return 2
    try:
        report, files = run_command(args.command, cfg, values, threads=args.threads)
    except Exception as exc:  # numerical failure: report what we know
        report = {"command": args.command, "config": cfg, "seed": args.seed,
                  "checks": [], "pass": False,
                  "error": f"{type(exc).__name__}: {exc}"}
        (out_dir / "report.json").write_bytes(report_bytes(report))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    _write_files(out_dir, files)
    (out_dir / "report.json").write_bytes(report_bytes(report))
    elapsed = time.perf_counter() - t0
    (out_dir / "timing.txt").write_text(f"{args.command}: {elapsed:.3f} s\n")
    n_pass = sum(1 for c in report["checks"] if c["pass"])
    print(f"{args.command}: {n_pass}/{len(report['checks'])} checks passed")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
