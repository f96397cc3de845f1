"""Command-line front end: configuration ingestion, reports, and sweeps.

Usage:  calab <command> --config <path> --out <dir> [--seed N] [--threads N]

Commands: spectrum, bochner, pinch, isomorphic, solve, sweep, verify-all.
Reports are JSON (machine-diffable, byte-deterministic for a fixed config and
seed); tabular results go to CSV.  Wall-clock timing is written to a separate
timing file so the report bytes stay reproducible.  Exit status: 0 all checks
pass, 1 numerical failure (report still written), 2 configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import calab
from calab import acceptance
from calab.bodies import (
    ball,
    ellipsoid,
    evaluate_on_grid,
    lq_gauge_body,
    perturbed_ball,
    polar,
    quantities,
    random_even_body,
)
from calab.calculus import build_state
from calab.isomorphic import construct, isometric_gamma, p_gamma_D, verify
from calab.minkowski import SolveOptions, TargetMeasure, minimize
from calab.pinching import measure_pinching, optimize_image
from calab.spectral import (
    GalerkinBasis,
    assemble,
    bochner_residual,
    hessian_gap_even,
    solve_spectrum,
    spectrum_of_body,
)
from calab.sphere import build_grid, synthesize

COMMANDS = ("spectrum", "bochner", "pinch", "isomorphic", "solve", "sweep",
            "verify-all")


class ConfigError(Exception):
    pass


# ----------------------------------------------------------------------
# config ingestion


def grid_from_config(cfg: dict):
    try:
        g = cfg["grid"]
        return build_grid(int(g["n"]), int(g["L"]),
                          n_nodes=g.get("nodes"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid config: {exc}") from exc


def body_from_descriptor(desc, n: int):
    """Body for a config descriptor; it must live in the grid's dimension n."""
    if not isinstance(desc, dict):
        raise ConfigError("config needs a 'body' object")
    try:
        kind = desc["type"]
        if kind == "ball":
            body = ball(float(desc.get("r", 1.0)), int(desc.get("n", n)))
        elif kind == "ellipsoid":
            if "diag" in desc:
                body = ellipsoid(np.diag([float(v) for v in desc["diag"]]))
            else:
                body = ellipsoid(np.array(desc["matrix"], dtype=float))
        elif kind == "perturbed_ball":
            coeffs = desc.get("coeffs")
            if coeffs is not None:
                coeffs = [tuple(c) for c in coeffs]
            body = perturbed_ball(int(desc.get("n", n)),
                                  float(desc.get("eps", 0.1)), coeffs)
        elif kind == "random":
            body = random_even_body(
                int(desc.get("n", n)), seed=int(desc["seed"]),
                band=int(desc.get("band", 8)),
                strength=float(desc.get("strength", 0.3)),
            )
        elif kind == "lq":
            body = lq_gauge_body(int(desc.get("q", 4)), int(desc.get("n", n)))
        else:
            raise ConfigError(f"unknown body type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad body descriptor: {exc}") from exc
    if body.n != n:
        raise ConfigError(f"body dimension {body.n} does not match grid n={n}")
    return body


def config_number(value, what: str, kind=float):
    """``kind(value)`` (float or int) for a config value.

    A value that is not a number is a ConfigError, raised before the command
    does any numerics."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def required_numbers(section, keys, where: str) -> list[float]:
    """The values of required keys of a config object, as floats.

    A section that is not an object, a missing key or a value that is not a
    number is a ConfigError, raised before the command does any numerics."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where} needs {missing[0]!r}")
    return [config_number(section[k], f"{where} {k!r}") for k in keys]


def read_density_csv(path, node_count: int) -> np.ndarray:
    """Density values from a CSV with columns ``node,value``, placed by node.

    The node indices must be exactly 0..node_count-1, in any order."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        nodes = np.array([int(r["node"]) for r in rows], dtype=int)
        values = np.array([float(r["value"]) for r in rows])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad density_csv: {exc}") from exc
    if not np.array_equal(np.sort(nodes), np.arange(node_count)):
        raise ConfigError(
            f"density_csv nodes must be exactly 0..{node_count - 1}")
    density = np.empty(node_count)
    density[nodes] = values
    return density


# ----------------------------------------------------------------------
# report plumbing


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode()


def _check(name, value, expected, tolerance, passed) -> dict:
    return {
        "name": name,
        "value": None if value is None else float(value),
        "expected": None if expected is None else float(expected),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------------
# command implementations (each returns report dict + optional files)


def _cmd_spectrum(cfg, seed, out_dir):
    grid = grid_from_config(cfg)
    body = body_from_descriptor(cfg.get("body", {"type": "ball"}), grid.n)
    n = grid.n
    k = config_number(cfg.get("k", 10), "k", int)
    tol = config_number(cfg.get("lambda1_tol", 1e-3 if n == 3 else 1e-6),
                        "lambda1_tol")
    degree_max = cfg.get("degree_max")
    if degree_max is not None:
        degree_max = config_number(degree_max, "degree_max", int)
    rep = spectrum_of_body(body, grid, degree_max=degree_max, k=k,
                           subspace=cfg.get("subspace", "all"))
    checks = [
        _check("lambda1", rep.lambda1, n - 1, tol,
               rep.lambda1 is not None and abs(rep.lambda1 - (n - 1)) <= tol),
        _check("eigenvalues_nonnegative", rep.eigenvalues.min(), 0.0, 1e-8,
               rep.eigenvalues.min() >= -1e-8),
        _check("max_residual", rep.residuals.max(), 0.0, 1e-8,
               rep.residuals.max() <= 1e-8),
    ]
    if out_dir is not None:
        (out_dir / "spectrum.json").write_bytes(report_bytes(rep.to_dict()))
        _write_csv(out_dir / "eigenvalues.csv", ["index", "eigenvalue"],
                   [[i, repr(float(v))] for i, v in enumerate(rep.eigenvalues)])
    return checks, {"spectrum": rep.to_dict()}


def _cmd_bochner(cfg, seed, out_dir):
    grid = grid_from_config(cfg)
    body = body_from_descriptor(cfg.get("body", {"type": "random", "seed": seed}),
                                grid.n)
    n_fields = config_number(cfg.get("n_fields", 20), "n_fields", int)
    band = config_number(cfg.get("field_band", max(grid.band_limit // 3, 4)),
                         "field_band", int)
    tol = config_number(cfg.get("tolerance", 1e-6 if grid.n == 2 else 1e-3),
                        "tolerance")
    st = build_state(evaluate_on_grid(body, grid))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        c = rng.normal(size=grid.basis.size) * (grid.basis.degrees <= band)
        worst = max(worst, bochner_residual(st, synthesize(grid, c)))
    checks = [_check("max_bochner_residual", worst, 0.0, tol, worst <= tol)]
    return checks, {"max_residual": worst, "fields": n_fields}


def _cmd_pinch(cfg, seed, out_dir):
    grid = grid_from_config(cfg)
    body = body_from_descriptor(cfg.get("body"), grid.n)
    opt_cfg = cfg.get("optimize")
    if opt_cfg:
        if not isinstance(opt_cfg, dict):
            raise ConfigError("optimize must be an object")
        iters = config_number(opt_cfg.get("iters", 200), "optimize 'iters'", int)
    bg = evaluate_on_grid(body, grid)
    rep = measure_pinching(bg)
    opt_report = None
    if opt_cfg:
        opt_report = optimize_image(body, grid, iters=iters)["report"]
    checks = [
        _check("rolling_lower", rep.r_curv, rep.r_in, 1e-8,
               rep.r_curv <= rep.r_in + 1e-8),
        _check("rolling_upper", rep.R_out, rep.R_curv, 1e-8,
               rep.R_out <= rep.R_curv + 1e-8),
    ]
    payload = {"pinching": rep.to_dict()}
    if opt_report is not None:
        payload["optimized"] = opt_report.to_dict()
    if out_dir is not None:
        (out_dir / "pinching.json").write_bytes(report_bytes(payload))
        best = opt_report or rep
        _write_csv(
            out_dir / "pinching.csv",
            ["label", "r_curv", "R_curv", "A", "B", "r_in", "R_out",
             "p_main", "p_strong"],
            [[body.label] + [repr(float(getattr(best, f))) for f in
                             ("r_curv", "R_curv", "A", "B", "r_in", "R_out",
                              "p_main", "p_strong")]],
        )
    return checks, payload


def _cmd_isomorphic(cfg, seed, out_dir):
    grid = grid_from_config(cfg)
    if "gamma" in cfg:
        # distance budget gamma = (1+beta) sqrt(1+alpha^2); beta defaults to
        # the constant-order choice 1 + sqrt(2) of the isomorphic regime
        beta = config_number(cfg.get("beta", 1.0 + np.sqrt(2.0)), "beta")
        (gamma,) = required_numbers(cfg, ["gamma"], "config")
        if gamma <= 1.0 + beta:
            raise ConfigError("gamma target must exceed 1 + beta")
        alpha = float(np.sqrt((gamma / (1.0 + beta)) ** 2 - 1.0))
    else:
        alpha, beta = required_numbers(cfg, ["alpha", "beta"],
                                       "config without 'gamma'")
    body = body_from_descriptor(cfg.get("body"), grid.n)
    cert = cfg.get("certificate")
    if cert is not None:
        if not isinstance(cert, list) or len(cert) != 2:
            raise ConfigError("certificate must be a pair [r_in, R_out]")
        cert = tuple(config_number(c, "certificate") for c in cert)
    slack = config_number(cfg.get("slack", 0.02), "slack")
    C = config_number(cfg.get("C", 1.0), "C")
    kt, params = construct(body, grid, alpha, beta,
                           gauge=cfg.get("gauge", "auto"), certificate=cert)
    res = verify(evaluate_on_grid(kt, grid), params, slack=slack)
    checks = [
        _check(f"bound/{c['name']}", c["measured"], c["bound"], res["slack"],
               c["pass"])
        for c in res["checks"]
    ]
    payload = {"params": params.to_dict(), "verification": res}
    # section-level exponents: the universal constant C is a CLI parameter
    # (default 1.0); the theory does not pin it down
    payload["p_gamma_D"] = p_gamma_D(grid.n, params.dbm_bound, params.D)
    payload["isometric_gamma"] = isometric_gamma(grid.n, params.D, C=C)
    if out_dir is not None:
        (out_dir / "iso_params.json").write_bytes(report_bytes(params.to_dict()))
        _write_csv(
            out_dir / "iso_verification.csv",
            ["check", "measured", "bound", "pass"],
            [[c["name"], repr(float(c["measured"])), repr(float(c["bound"])),
              int(c["pass"])] for c in res["checks"]],
        )
    return checks, payload


def _cmd_solve(cfg, seed, out_dir):
    grid = grid_from_config(cfg)
    target = cfg.get("target")
    (p,) = required_numbers(target, ["p"], "solve target")
    opts = SolveOptions(band=config_number(cfg.get("band", 16), "band", int),
                        max_iter=config_number(cfg.get("max_iter", 4000),
                                               "max_iter", int))
    if "body" in target:
        body = body_from_descriptor(target["body"], grid.n)
        mu = TargetMeasure.from_body(evaluate_on_grid(body, grid), p)
    elif "density_csv" in target:
        vals = read_density_csv(target["density_csv"], grid.node_count)
        mu = TargetMeasure.from_density(grid, vals)
    else:
        raise ConfigError("solve target needs 'body' or 'density_csv'")
    res = minimize(mu, p, options=opts)
    checks = [
        _check("converged", float(res.converged), 1.0, 0.0, res.converged),
        _check("el_residual", res.el_residual, 0.0, 1e-4,
               res.el_residual <= 1e-4),
    ]
    if out_dir is not None:
        (out_dir / "solution.json").write_bytes(report_bytes(res.to_dict()))
        h = res.body.support(grid.nodes)
        coords = ["x", "y", "z"][: grid.n]
        _write_csv(
            out_dir / "solution_h.csv",
            ["index"] + coords + ["h"],
            [[i] + [repr(float(c)) for c in pnt] + [repr(float(v))]
             for i, (pnt, v) in enumerate(zip(grid.nodes, h))],
        )
    return checks, {"solution": res.to_dict()}


_SWEEP_HEADER = ["index", "label", "lambda1", "lambda1_even", "hessian_gap",
                 "p_main", "p_strong", "omega_gap", "error"]


def _sweep_one(idx, desc, grid):
    try:
        body = body_from_descriptor(desc, grid.n)
        bg = evaluate_on_grid(body, grid)
        st = build_state(bg)
        system = assemble(st, GalerkinBasis(grid, grid.band_limit))
        rep = solve_spectrum(system, k=4)
        gap = hessian_gap_even(system)
        pin = measure_pinching(bg)
        q = quantities(bg)
        qp = quantities(evaluate_on_grid(polar(body, grid), grid))
        omega_gap = abs(q.omega_n - qp.omega_n) / q.omega_n
        return [idx, body.label, repr(float(rep.lambda1)),
                repr(float(rep.lambda1_even)), repr(float(gap)),
                repr(float(pin.p_main)), repr(float(pin.p_strong)),
                repr(float(omega_gap)), ""]
    except Exception as exc:  # per-body failures become rows, sweep continues
        return [idx, desc.get("type", "?"), "", "", "", "", "", "", str(exc)]


def _cmd_sweep(cfg, seed, out_dir, threads=1):
    grid = grid_from_config(cfg)
    if "bodies" in cfg:
        descs = cfg["bodies"]
    elif "family" in cfg:
        fam = cfg["family"]
        if not isinstance(fam, dict) or fam.get("type") != "random":
            raise ConfigError("sweep family must be 'random' or use 'bodies'")
        seeds = fam.get("seeds")
        if seeds is None:
            count = config_number(fam.get("count", 0), "family 'count'", int)
            seeds = list(range(seed, seed + count))
        elif not isinstance(seeds, list):
            raise ConfigError("sweep family 'seeds' must be a list")
        descs = [
            {"type": "random", "seed": config_number(s, "family seed", int),
             "band": fam.get("band", 8), "strength": fam.get("strength", 0.3)}
            for s in seeds
        ]
    else:
        raise ConfigError("sweep config needs 'bodies' or 'family'")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _sweep_one(t[0], t[1], grid),
                                 enumerate(descs)))
    else:
        rows = [_sweep_one(i, d, grid) for i, d in enumerate(descs)]
    failed = [r for r in rows if r[-1]]
    checks = [_check("rows", len(rows), len(descs), 0, len(rows) == len(descs)),
              _check("errors", len(failed), 0.0, 0, len(failed) == 0)]
    if out_dir is not None:
        _write_csv(out_dir / "sweep.csv", _SWEEP_HEADER, rows)
    return checks, {"rows": len(rows), "errors": len(failed)}


def _cmd_verify_all(cfg, seed, out_dir):
    names = cfg.get("criteria")
    records, ok = acceptance.run_criteria(names, seed=seed)
    checks = []
    for rec in records:
        for c in rec["checks"]:
            checks.append(_check(f"{rec['criterion']}/{c['name']}", c["value"],
                                 c["expected"], c["tolerance"], c["passed"]))
    if out_dir is not None:
        (out_dir / "criteria.json").write_bytes(
            report_bytes({"criteria": records}))
    return checks, {"criteria_passed": ok}


# ----------------------------------------------------------------------
# driver


def run_command(command: str, cfg: dict, seed: int, out_dir: Path | None,
                threads: int = 1) -> dict:
    """Execute a command, returning the deterministic report dict."""
    if command == "spectrum":
        checks, payload = _cmd_spectrum(cfg, seed, out_dir)
    elif command == "bochner":
        checks, payload = _cmd_bochner(cfg, seed, out_dir)
    elif command == "pinch":
        checks, payload = _cmd_pinch(cfg, seed, out_dir)
    elif command == "isomorphic":
        checks, payload = _cmd_isomorphic(cfg, seed, out_dir)
    elif command == "solve":
        checks, payload = _cmd_solve(cfg, seed, out_dir)
    elif command == "sweep":
        checks, payload = _cmd_sweep(cfg, seed, out_dir, threads=threads)
    elif command == "verify-all":
        checks, payload = _cmd_verify_all(cfg, seed, out_dir)
    else:
        raise ConfigError(f"unknown command {command!r}")
    return {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": calab.__version__,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
        "result": payload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calab",
        description="centro-affine geometry laboratory for convex bodies",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    # parse and validate the config fully before touching the output dir
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        cfg_cmd = cfg.get("command")
        if cfg_cmd is not None and cfg_cmd != args.command:
            raise ConfigError(
                f"config command {cfg_cmd!r} conflicts with {args.command!r}")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    # commands meet some config errors only while reading their inputs; the
    # topmost directory this run creates is removed again when they do
    created = next((p for p in reversed((out_dir, *out_dir.parents))
                    if not p.exists()), None)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path through one
        print(f"config error: cannot create output directory: {exc}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        report = run_command(args.command, cfg, args.seed, out_dir,
                             threads=args.threads)
    except ConfigError as exc:
        if created is not None:
            shutil.rmtree(created)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure: report what we know
        report = {
            "command": args.command,
            "config": cfg,
            "seed": args.seed,
            "checks": [],
            "pass": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
        (out_dir / "report.json").write_bytes(report_bytes(report))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    (out_dir / "report.json").write_bytes(report_bytes(report))
    elapsed = time.perf_counter() - t0
    (out_dir / "timing.txt").write_text(f"{args.command}: {elapsed:.3f} s\n")
    n_pass = sum(1 for c in report["checks"] if c["pass"])
    print(f"{args.command}: {n_pass}/{len(report['checks'])} checks passed")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
