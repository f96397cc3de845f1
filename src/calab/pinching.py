"""Curvature-pinching constants of a body and the induced p-thresholds.

Two pinching regimes feed two thresholds: radii-of-curvature bounds (extreme
eigenvalues of D^2 h) give p = 3 - (n-1) r^2 / (2 R^2), and bounds on h D^2 h
together with the circumradius give p = 2 - ((n-1)/2 A - R^2)/B.  The latter
uses the circumradius R_out of the same body, which is the pairing under
which the spectral bound lambda_1_even >= n - p holds.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from calab.bodies import BodyEvaluator, BodyOnGrid, evaluate_on_grid, linear_image
from calab.calculus import build_state
from calab.spectral import GalerkinBasis, assemble, solve_spectrum
from calab.sphere import SphereGrid, unpack_sym


@dataclass(frozen=True)
class PinchingReport:
    n: int
    r_curv: float     # min eigenvalue of D^2 h over unmasked nodes
    R_curv: float     # max eigenvalue of D^2 h
    A: float          # min eigenvalue of h D^2 h
    B: float          # max eigenvalue of h D^2 h
    r_in: float       # min of h (inradius of the symmetric sandwich)
    R_out: float      # max of h (circumradius)
    p_main: float
    p_strong: float
    admissible: bool  # p_strong < 1

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_main(r: float, R: float, n: int) -> float:
    """p = 3 - (n-1) r^2 / (2 R^2) for radii of curvature in [r, R]."""
    if r <= 0 or R <= 0 or r > R:
        raise ValueError("need 0 < r <= R")
    if n < 2:
        raise ValueError("n >= 2 required")
    return 3.0 - (n - 1) / 2.0 * (r / R) ** 2


def threshold_strong(A: float, B: float, R: float, n: int) -> float:
    """p = 2 - ((n-1)/2 * A - R^2) / B for h D^2 h in [A, B], body inside R B."""
    if A <= 0 or B <= 0 or A > B or R <= 0:
        raise ValueError("need 0 < A <= B and R > 0")
    if n < 2:
        raise ValueError("n >= 2 required")
    return 2.0 - ((n - 1) / 2.0 * A - R**2) / B


def measure_pinching(bg: BodyOnGrid) -> PinchingReport:
    """Extract pinching constants from a grid evaluation."""
    if not bg.valid:
        raise ValueError("pinching requires a strongly convex body on the grid")
    keep = ~bg.grid.pole_mask
    eig = bg.eig_D2h[keep]
    heig = bg.h[keep, None] * eig
    n = bg.grid.n
    r_curv, R_curv = float(eig.min()), float(eig.max())
    A, B = float(heig.min()), float(heig.max())
    r_in, R_out = float(bg.h.min()), float(bg.h.max())
    p_strong = threshold_strong(A, B, R_out, n)
    return PinchingReport(
        n=n, r_curv=r_curv, R_curv=R_curv, A=A, B=B, r_in=r_in, R_out=R_out,
        p_main=threshold_main(r_curv, R_curv, n),
        p_strong=p_strong,
        admissible=bool(p_strong < 1.0),
    )


# ----------------------------------------------------------------------
# optimization over centro-affine images


def _sym_from_vec(z: np.ndarray, n: int) -> np.ndarray:
    """Traceless symmetric matrix from its upper triangle, row by row."""
    S = unpack_sym(np.asarray(z, dtype=float))
    return S - np.trace(S) / n * np.eye(n)


def _spd_exp(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(S)
    return (V * np.exp(w)[None, :]) @ V.T


def john_position(body: BodyEvaluator, grid: SphereGrid,
                  iters: int = 200) -> dict:
    """Approximate John position: minimize the sandwich ratio R_out/r_in of
    T(K) over unit-determinant symmetric positive-definite T (Nelder-Mead).

    The exact John ellipsoid is out of scope; any certified sandwich
    (r_in, R_out) serves downstream consumers equally well."""
    n = body.n
    dim = n * (n + 1) // 2

    def objective(z):
        T = _spd_exp(_sym_from_vec(z, n))
        h = linear_image(body, T).support(grid.nodes)
        if not np.all(np.isfinite(h)) or np.any(h <= 0):
            return 1e6
        return float(h.max() / h.min())

    res = scipy_minimize(
        objective, np.zeros(dim), method="Nelder-Mead",
        options={"maxiter": iters, "xatol": 1e-7, "fatol": 1e-10},
    )
    T = _spd_exp(_sym_from_vec(res.x, n))
    h = linear_image(body, T).support(grid.nodes)
    return {
        "T": T,
        "r_in": float(h.min()),
        "R_out": float(h.max()),
        "ratio": float(h.max() / h.min()),
    }


def optimize_image(body: BodyEvaluator, grid: SphereGrid,
                   iters: int = 200) -> dict:
    """Minimize p_strong(T(K)) over unit-determinant symmetric
    positive-definite T (Nelder-Mead on the traceless log-chart).

    Deterministic: starts from the identity; returns the best image found
    (no global guarantee)."""
    n = body.n
    dim = n * (n + 1) // 2

    def objective(z):
        T = _spd_exp(_sym_from_vec(z, n))
        try:
            bg = evaluate_on_grid(linear_image(body, T), grid)
        except ValueError:
            return 1e6
        if not bg.valid:
            return 1e6 - bg.min_eig_D2h
        return measure_pinching(bg).p_strong

    res = scipy_minimize(
        objective, np.zeros(dim), method="Nelder-Mead",
        options={"maxiter": iters, "xatol": 1e-6, "fatol": 1e-9},
    )
    best_T = _spd_exp(_sym_from_vec(res.x, n))
    report = measure_pinching(evaluate_on_grid(linear_image(body, best_T), grid))
    return {"T": best_T, "report": report, "iterations": int(res.nit)}


def spectral_consistency(body: BodyEvaluator, grid: SphereGrid,
                         degree_max: int | None = None,
                         pinch_report: PinchingReport | None = None) -> dict:
    """Check lambda_1_even >= n - p_strong - tol with tol = 1e-3 n.

    pinch_report defaults to the pinching of the body itself; pass the report
    of an optimized image to test the sharper per-image bound."""
    n = body.n
    bg = evaluate_on_grid(body, grid)
    if pinch_report is None:
        pinch_report = measure_pinching(bg)
    state = build_state(bg)
    Lb = grid.band_limit if degree_max is None else degree_max
    system = assemble(state, GalerkinBasis(grid, Lb))
    rep = solve_spectrum(system, k=2, subspace="even-nonconstant")
    lam = rep.lambda1_even
    tol = 1e-3 * n
    return {
        "p_strong": pinch_report.p_strong,
        "lambda1_even": lam,
        "satisfied": bool(lam >= n - pinch_report.p_strong - tol),
    }
