"""The benchmark's workloads: seeded job lists with their correctness checks.

Every job returns ``{check_name: (value, passed)}`` for exactly the checks it
declares.  A job that raises counts every declared check as failed.  Jobs call
calab through module attributes (``spectral.assemble``, ...), so the traced
run sees every call once its module attributes are wrapped.

Tolerances are the CLI's and the acceptance gate's (``calab.acceptance``),
quoted where each check is made.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from calab import (bodies, calculus, cli, isomorphic, minkowski, pinching, spectral,
                   sphere)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Check names that test a flag the program reports about itself rather than
# a number against a tolerance.  They count in ``attempted``/``failed`` and in
# ``pass_frac`` but not in ``correct``: ``minimize`` can stop with
# "line search stalled" and converged=False while its EL residual and the
# recovery error are far inside tolerance (random_even_body(2, seed=5006) at
# p=0, seed 0 of planar_n2).
STATUS_CHECKS = frozenset({"converged"})


@dataclass(frozen=True)
class Job:
    name: str
    checks: tuple[str, ...]
    run: Callable[[], dict]
    writes_report: bool = False  # a CLI run: its report.json digest is compared


def _le(value, bound):
    return float(value), bool(value <= bound)


# ----------------------------------------------------------------------
# shared pieces


def _cli_job(command: str, config: str, seed: int, out_root: Path) -> Job:
    """One ``calab.cli.main`` run on a repo config, into a fresh --out."""
    out = out_root / f"cli_{command}"

    def run():
        code = cli.main([command, "--config", str(CONFIGS / config),
                         "--out", str(out), "--seed", str(seed)])
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        return {"exit_code": (float(code), code == 0), "report_sha256": digest}

    return Job(f"cli_{command}", ("exit_code",), run, writes_report=True)


def _spectral_pipeline(body, grid, k: int = 10):
    """evaluate_on_grid -> build_state -> assemble -> solve_spectrum -> gap."""
    bg = bodies.evaluate_on_grid(body, grid)
    state = calculus.build_state(bg)
    system = spectral.assemble(state, spectral.GalerkinBasis(grid, grid.band_limit))
    return spectral.solve_spectrum(system, k=k), spectral.hessian_gap_even(system)


def _spectrum_checks(prefix: str, rep, gap, n: int, lambda1_tol: float) -> dict:
    lam_even = rep.lambda1_even
    return {
        # cli spectrum: lambda1 = n - 1 within 1e-3 (n=3) / 1e-6 (n=2)
        f"{prefix}lambda1": (float(rep.lambda1),
                             abs(rep.lambda1 - (n - 1)) <= lambda1_tol),
        # criterion_gap_identity: |gap - (lambda1_even - n + 2)| / lambda1_even
        f"{prefix}gap_identity": _le(abs(gap - (lam_even - n + 2)) / lam_even, 1e-3),
    }


def _rotation_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ----------------------------------------------------------------------
# spectral_n3: Galerkin pipeline at n = 3 (basis tables and assembly)


def _spectral_n3(seed: int, out_root: Path) -> list[Job]:
    def perturbed_l24():
        rep, gap = _spectral_pipeline(bodies.perturbed_ball(3, 0.1),
                                      sphere.build_grid(3, 24))
        return _spectrum_checks("", rep, gap, 3, 1e-3)

    def rotation_l16():
        grid = sphere.build_grid(3, 16)  # one grid: tables built once
        body = bodies.perturbed_ball(3, 0.1)
        rep_k, gap_k = _spectral_pipeline(body, grid)
        rep_t, gap_t = _spectral_pipeline(
            bodies.linear_image(body, _rotation_z(0.6)), grid)
        a, b = rep_k.eigenvalues[:10], rep_t.eigenvalues[:10]
        max_gap = float((np.abs(a - b) / np.maximum(np.abs(a), 1.0)).max())
        out = _spectrum_checks("K/", rep_k, gap_k, 3, 1e-3)
        out.update(_spectrum_checks("RK/", rep_t, gap_t, 3, 1e-3))
        # criterion_gl_invariance: n3/rotation/max_gap <= 1e-8
        out["rotation_max_gap"] = _le(max_gap, 1e-8)
        return out

    return [
        _cli_job("spectrum", "spectrum_ball_n3.json", seed, out_root),
        Job("perturbed_L24", ("lambda1", "gap_identity"), perturbed_l24),
        Job("rotation_L16", ("K/lambda1", "K/gap_identity", "RK/lambda1",
                             "RK/gap_identity", "rotation_max_gap"), rotation_l16),
    ]


# ----------------------------------------------------------------------
# planar_n2: many small n = 2 jobs (per-call overhead, descent loop)

SWEEP_ROWS = 40
MINKOWSKI_BODIES = 10


def _planar_n2(seed: int, out_root: Path) -> list[Job]:
    sweep_grid = functools.cache(lambda: sphere.build_grid(2, 16))
    solve_grid = functools.cache(lambda: sphere.build_grid(2, 62, n_nodes=256))

    def sweep_row(body_seed):
        # the sequence of cli._sweep_one
        grid = sweep_grid()
        body = bodies.random_even_body(2, seed=body_seed, band=8, strength=0.3)
        bg = bodies.evaluate_on_grid(body, grid)
        system = spectral.assemble(calculus.build_state(bg),
                                   spectral.GalerkinBasis(grid, grid.band_limit))
        rep = spectral.solve_spectrum(system, k=4)
        gap = spectral.hessian_gap_even(system)
        pinching.measure_pinching(bg)
        q = bodies.quantities(bg)
        # the polar's quantities raise unless it comes out strongly convex
        bodies.quantities(bodies.evaluate_on_grid(bodies.polar(body, grid), grid))
        out = _spectrum_checks("", rep, gap, 2, 1e-6)
        # criterion_planar_log_bm (same L=16 grid): lambda1_even >= 2 - 1e-6
        out["lambda1_even"] = (float(rep.lambda1_even), rep.lambda1_even >= 2.0 - 1e-6)
        # criterion_self_duality: Omega_n^2 <= V(K) V(K polar) (1 + 1e-6)
        out["volume_product"] = _le(q.omega_n**2 / (q.volume * q.polar_volume),
                                    1.0 + 1e-6)
        return out

    def solve(body_seed, p):
        grid = solve_grid()
        body = bodies.random_even_body(2, seed=body_seed)
        mu = minkowski.TargetMeasure.from_body(bodies.evaluate_on_grid(body, grid), p)
        res = minkowski.minimize(mu, p)
        h = res.body.support(grid.nodes)
        hk = body.support(grid.nodes)
        scale = np.mean(h) / np.mean(hk)
        # cli solve / criterion_solver_round_trips tolerances
        return {
            "converged": (float(res.converged), res.converged),
            "el_residual": _le(res.el_residual, 1e-4),
            "recovery": _le(float(np.abs(h / (hk * scale) - 1.0).max()), 1e-3),
        }

    jobs = [
        _cli_job("sweep", "sweep_random_n2.json", seed, out_root),
        _cli_job("solve", "solve_ellipse_roundtrip.json", seed, out_root),
        _cli_job("bochner", "bochner_random_n2.json", seed, out_root),
    ]
    for i in range(SWEEP_ROWS):
        s = 1000 + SWEEP_ROWS * seed + i
        jobs.append(Job(f"sweep_row/{s}", ("lambda1", "gap_identity", "lambda1_even",
                                           "volume_product"),
                        functools.partial(sweep_row, s)))
    for i in range(MINKOWSKI_BODIES):
        s = 5000 + MINKOWSKI_BODIES * seed + i
        for p in (0.0, 0.5):
            jobs.append(Job(f"solve/{s}/p{p}", ("converged", "el_residual", "recovery"),
                            functools.partial(solve, s, p)))
    return jobs


# ----------------------------------------------------------------------
# geometry_n3: bodies and calculus at n = 3 without Galerkin assembly


def _geometry_n3(seed: int, out_root: Path) -> list[Job]:
    grid24 = functools.cache(lambda: sphere.build_grid(3, 24))
    grid16 = functools.cache(lambda: sphere.build_grid(3, 16))

    def smoothing(label, alpha, beta):
        # criterion_smoothing_construction at n = 3, L = 24
        grid = grid24()
        if label == "ellipsoid":
            body, cert = bodies.ellipsoid(np.diag([2.0, 1.0, 1.0])), (1.0, 2.0)
        else:
            body, cert = bodies.lq_gauge_body(4, 3), (1.0, 3.0**0.25)
        kt, params = isomorphic.construct(body, grid, alpha, beta, certificate=cert)
        h = kt.support(grid.nodes)
        res = isomorphic.verify(bodies.evaluate_on_grid(kt, grid), params, slack=0.02)
        out = {c["name"]: (float(c["measured"]), c["pass"]) for c in res["checks"]}
        h_direct = isomorphic.direct_route_support(body, grid, alpha, beta,
                                                   certificate=cert)
        out["dual_route"] = _le(float(np.abs(h - h_direct).max()), 1e-6)
        if label == "ellipsoid":
            kt2, _ = isomorphic.construct(body, grid, alpha, beta, gauge="numeric",
                                          certificate=cert)
            out["numeric_gauge"] = _le(float(np.abs(h - kt2.support(grid.nodes)).max()),
                                       1e-6)
        return out

    def self_duality(label):
        # criterion_self_duality, n3 tolerances
        grid = grid16()
        if label == "ellipsoid":
            body = bodies.ellipsoid(np.diag([2.0, 1.0, 1.0]))
        elif label == "perturbed":
            body = bodies.perturbed_ball(3, 0.1)
        else:
            body = bodies.random_even_body(3, seed=7000 + seed)
        q = bodies.quantities(bodies.evaluate_on_grid(body, grid))
        qp = bodies.quantities(bodies.evaluate_on_grid(bodies.polar(body, grid), grid))
        return {
            "omega_gap": _le(abs(q.omega_n - qp.omega_n) / q.omega_n, 1e-3),
            "volume_product": _le(q.omega_n**2 / (q.volume * q.polar_volume),
                                  1.0 + 1e-6),
        }

    def ricci(label):
        # criterion_ricci at L = 24
        if label == "ball":
            body, tol = bodies.ball(1.0, 3), 1e-6
        else:
            body, tol = bodies.ellipsoid(np.diag([2.0, 1.0, 1.0])), 1e-2
        state = calculus.build_state(bodies.evaluate_on_grid(body, grid24()))
        dev = calculus.ricci_star_check(state)["max_relative_deviation"]
        return {"ricci_deviation": _le(dev, tol)}

    bounds = ("inradius", "circumradius", "metric_lower", "metric_upper", "dual_route")
    jobs = [
        _cli_job("isomorphic", "isomorphic_l4.json", seed, out_root),
        _cli_job("pinch", "pinch_ellipsoid.json", seed, out_root),
    ]
    for label in ("ellipsoid", "l4_gauge"):
        extra = ("numeric_gauge",) if label == "ellipsoid" else ()
        for alpha, beta in ((1.0, 1.0), (0.5, 0.3)):
            jobs.append(Job(f"smoothing/{label}/a{alpha}b{beta}", bounds + extra,
                            functools.partial(smoothing, label, alpha, beta)))
    for label in ("ellipsoid", "perturbed", "random"):
        jobs.append(Job(f"self_duality/{label}", ("omega_gap", "volume_product"),
                        functools.partial(self_duality, label)))
    for label in ("ball", "ellipsoid"):
        jobs.append(Job(f"ricci/{label}", ("ricci_deviation",),
                        functools.partial(ricci, label)))
    return jobs


WORKLOADS = {
    "spectral_n3": _spectral_n3,
    "planar_n2": _planar_n2,
    "geometry_n3": _geometry_n3,
}


def make_jobs(workload: str, seed: int, out_root: Path) -> list[Job]:
    """The workload's job list; the seed fixes every generated input."""
    return WORKLOADS[workload](seed, out_root)


def run_job(job: Job) -> tuple[list[dict], str | None]:
    """Run one job; returns (check records, report digest or None)."""
    try:
        result = job.run()
        digest = result.pop("report_sha256", None)
        if set(result) != set(job.checks):
            raise RuntimeError(f"job returned checks {sorted(result)}, "
                               f"declared {sorted(job.checks)}")
        error = None
    except Exception as exc:  # a raising job fails all of its checks
        result, digest, error = {}, None, f"{type(exc).__name__}: {exc}"
    records = []
    for name in job.checks:
        value, passed = result.get(name, (None, False))
        records.append({"job": job.name, "check": name, "value": value,
                        "pass": bool(passed), "status": name in STATUS_CHECKS,
                        "error": error})
    return records, digest
