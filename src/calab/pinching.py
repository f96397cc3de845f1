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

from calab.bodies import BodyEvaluator, BodyOnGrid, evaluate_on_grid, linear_image
from calab.sphere import SphereGrid, unpack_sym


@dataclass(frozen=True)
class PinchingReport:
    n: int
    r_curv: float     # min eigenvalue of D^2 h over the nodes
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
    """Extract pinching constants from a grid evaluation, over every node."""
    if not bg.valid:
        raise ValueError("pinching requires a strongly convex body on the grid")
    eig = bg.eig_D2h
    heig = bg.h[:, None] * eig
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


def _nelder_mead(f, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize f from x0 by the Nelder-Mead simplex method (Nelder & Mead,
    Comput. J. 7, 1965); returns (x, iterations).

    The initial simplex steps each coordinate of x0 by 5% (0.00025 from
    zero), with reflection, expansion, contraction and shrink coefficients
    1, 2, 1/2, 1/2.  It stops when the simplex spans at most xatol in every
    coordinate and its values differ from the best by at most fatol, or at
    maxiter iterations.  The arithmetic is that of scipy.optimize's
    non-adaptive, unbounded Nelder-Mead, step for step, so the two agree to
    the bit."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(x) for x in sim], dtype=float)
    # scipy orders the first simplex twice; np.argsort need not be stable,
    # so with tied values the second pass can reorder them
    order = np.argsort(fsim)
    sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    nit = 1
    while True:
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
        if nit >= maxiter or (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                              and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return sim[0], nit
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1


def _isotropic_centre(body: BodyEvaluator, grid: SphereGrid) -> np.ndarray:
    """optimize_image's chart centre z0: the upper triangle of the traceless
    part of -1/2 log Q, Q = sum_j w_j v_j x_j x_j^t over the pair nodes
    (x = grad h, v the cone-volume density), so exp(z0) takes K to about its
    isotropic position (an ellipsoid to a ball); zero, the identity, when K is
    not strongly convex on the grid."""
    n = body.n
    try:
        bg = evaluate_on_grid(body, grid)
    except ValueError:
        return np.zeros(n * (n + 1) // 2)
    if not bg.valid:
        return np.zeros(n * (n + 1) // 2)
    w, V = np.linalg.eigh((bg.x.T * (grid.pair_weights * bg.vk_density)) @ bg.x)
    S = (V * (-0.5 * np.log(w))[None, :]) @ V.T
    return (S - np.trace(S) / n * np.eye(n))[np.triu_indices(n)]


def _p_strong_objective(body: BodyEvaluator, grid: SphereGrid, centre: np.ndarray):
    """optimize_image's objective: p_strong of T(K) at T = exp(centre + z) for
    the traceless log-chart coordinates z, and 1e6 - min eig D^2h (a penalty
    that still points towards strong convexity) where T(K) is not strongly
    convex on the grid."""
    def objective(z):
        T = _spd_exp(_sym_from_vec(centre + z, body.n))
        try:
            bg = evaluate_on_grid(linear_image(body, T), grid)
        except ValueError:
            return 1e6
        if not bg.valid:
            return 1e6 - bg.min_eig_D2h
        return measure_pinching(bg).p_strong
    return objective


def optimize_image(body: BodyEvaluator, grid: SphereGrid,
                   iters: int = 200) -> dict:
    """Minimize p_strong(T(K)) over unit-determinant symmetric
    positive-definite T (Nelder-Mead on the traceless log-chart).

    Deterministic: starts from K's isotropic position (_isotropic_centre),
    the identity for a body not strongly convex on the grid; returns the best
    image found (no global guarantee)."""
    n = body.n
    centre = _isotropic_centre(body, grid)
    z, nit = _nelder_mead(_p_strong_objective(body, grid, centre),
                          np.zeros(n * (n + 1) // 2), iters, xatol=1e-6, fatol=1e-9)
    best_T = _spd_exp(_sym_from_vec(centre + z, n))
    report = measure_pinching(evaluate_on_grid(linear_image(body, best_T), grid))
    return {"T": best_T, "report": report, "iterations": nit}
