"""Curvature-pinching constants of a body and the induced p-thresholds.

Two pinching regimes feed two thresholds: radii-of-curvature bounds (extreme
eigenvalues of D^2 h) give p = 3 - (n-1) r^2 / (2 R^2), and bounds on h D^2 h
together with the circumradius give p = 2 - ((n-1)/2 A - R^2)/B.  The latter
uses the circumradius R_out of the same body, which is the pairing under
which the spectral bound lambda_1_even >= n - p holds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from calab.bodies import BodyOnGrid, evaluate_on_grid, linear_image
from calab.sphere import packed_positions, unpack_sym


class PinchingReport(NamedTuple):
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
        return self._asdict()


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


def _spd_exp(S: np.ndarray) -> np.ndarray:
    """exp(S - tr(S)/n) for symmetric S, of determinant 1 and exactly
    symmetric: the upper triangle of (V e^w) V^t mirrored into the lower."""
    w, V = np.linalg.eigh(S)
    T = (V * np.exp(w - w.sum() / len(w))[None, :]) @ V.T
    lower = np.tril_indices(len(T), -1)
    T[lower] = T.T[lower]
    return T


def _nelder_mead(f, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize f from x0 by the Nelder-Mead simplex method (Nelder & Mead,
    Comput. J. 7, 1965); returns (x, iterations, converged), converged
    telling whether the stopping test below held when it returned.

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
        converged = (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                     and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol)
        if converged or nit >= maxiter:
            return sim[0], nit, bool(converged)
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


def _isotropic_centre(bg: BodyOnGrid) -> np.ndarray:
    """optimize_image's chart centre z0: the upper triangle of the traceless
    part of -1/2 log Q, Q = sum_j w_j v_j x_j x_j^t over the pair nodes
    (x = grad h, v the cone-volume density), so exp(z0) takes K near its
    isotropic position (an ellipsoid to a ball in the continuum)."""
    n = bg.n
    w, V = np.linalg.eigh((bg.x.T * (bg.grid.pair_weights * bg.vk_density)) @ bg.x)
    S = (V * (-0.5 * np.log(w))[None, :]) @ V.T
    return (S - np.trace(S) / n * np.eye(n))[np.triu_indices(n)]


def _image_samples(bg: BodyOnGrid):
    """The pinching samples of every image T(K), T = exp(S - tr(S)/n) for
    symmetric S, from K's jet on the grid alone: a function of S returning
    h_TK(u) (N/2,) and the tangent eigenvalues of (h D^2h)_TK(u) (N/2, n-1),
    ascending, at u = T^-1 v / |T^-1 v| for each pair node v.

    T is symmetric with det T = 1, so h_TK(x) = h_K(Tx), h_TK(u) =
    h_K(v) / |T^-1 v| and (h D^2h)_TK(u) = h_K(v) T D^2h_K(v) T, whose tangent
    eigenvalues are those of the frame matrix [[a, b], [c, d]] =
    (h D2h_frame)(v) F^t T^2 F (F v's tangent frame).  |T^-1 v|^2 and
    (a + d)/2, (a - d)/2, b, c are linear in the packed T^-2 and T^2, so
    their per-node rows are built once; a call takes one eigh and three
    small products.  The 2x2 eigenvalues are (a + d)/2 -+
    sqrt(((a - d)/2)^2 + bc), which does not cancel near a ball."""
    n, q, half = bg.n, bg.n - 1, len(bg.h)
    rows, cols = np.triu_indices(n)
    v, F = bg.grid.pair_nodes, bg.grid.tangent_frames()
    # |T^-1 v|^2 = v^t T^-2 v, an off-diagonal entry counted twice
    norm_rows = v[:, rows] * v[:, cols] * np.where(rows == cols, 1.0, 2.0)
    # F^t P F for symmetric P, per packed entry of P
    G = F[:, rows, :, None] * F[:, cols, None, :]
    G = (G + G.transpose(0, 1, 3, 2)) * np.where(rows == cols, 0.5, 1.0)[:, None, None]
    E = np.einsum("ikm,ipml->klip", bg.h[:, None, None] * bg.D2h_frame, G)
    if q == 2:
        E = np.stack([E[0, 0] + E[1, 1], E[0, 0] - E[1, 1], 2 * E[0, 1], 2 * E[1, 0]]) / 2
    form_rows = E.reshape(-1, len(rows))
    signs = np.array([2.0, -2.0])

    def samples(S):
        w, V = np.linalg.eigh(S)
        t2, tinv2 = ((V[rows] * V[cols])
                     @ np.exp(np.multiply.outer(w - w.sum() / n, signs))).T
        h = bg.h / np.sqrt(norm_rows @ tinv2)
        r = (form_rows @ t2).reshape(-1, half)
        if q == 1:
            return h, r.T
        m, s, bc, c = r
        bc *= c
        s *= s
        s += bc
        # the frame matrix is similar to a symmetric one, so the discriminant
        # is >= 0 but for rounding where the two eigenvalues nearly meet
        np.sqrt(np.maximum(s, 0.0, out=s), out=s)
        np.subtract(m, s, out=bc)
        s += m
        return h, r[2:0:-1].T
    return samples


def _p_strong_objective(bg: BodyOnGrid, centre: np.ndarray):
    """optimize_image's objective: p_strong of T(K) at T = exp(centre + z) for
    the traceless log-chart coordinates z, from _image_samples' extremes
    (T(K) is sampled at u = T^-1 v / |T^-1 v|, not at the grid nodes)."""
    samples, pos = _image_samples(bg), packed_positions(bg.n)

    def objective(z):
        h, eig = samples((centre + z)[pos])
        return threshold_strong(float(eig[:, 0].min()), float(eig[:, -1].max()),
                                float(h.max()), bg.n)
    return objective


def optimize_image(bg: BodyOnGrid, iters: int = 200) -> dict:
    """Minimize p_strong(T(K)) over unit-determinant symmetric
    positive-definite T (Nelder-Mead on the traceless log-chart), for the body
    K of bg.

    Strong convexity is invariant under T, so a bg that is not strongly
    convex raises ValueError.  The search reads K's jet on the grid only
    (_p_strong_objective); the returned report measures the best image on
    the grid.  Deterministic: starts from K's isotropic position
    (_isotropic_centre) and returns whichever of the search result and that
    start measures the lower p_strong on the grid, the search result on ties
    (the samples can rate an image better than the grid does; no global
    guarantee).  stopped_by is "tolerance" when Nelder-Mead's stopping test
    held at its last iteration, the iteration cap included, and "iteration
    cap" otherwise; iterations and stopped_by describe the search either
    way."""
    if not bg.valid:
        raise ValueError("optimize_image requires a strongly convex body on the grid")
    n = bg.n
    centre = _isotropic_centre(bg)
    z, nit, converged = _nelder_mead(_p_strong_objective(bg, centre),
                                     np.zeros(n * (n + 1) // 2), iters,
                                     xatol=1e-6, fatol=1e-9)

    def measured(chart):
        T = _spd_exp(unpack_sym(chart))
        return T, measure_pinching(evaluate_on_grid(linear_image(bg.body, T), bg.grid))
    # min keeps the first of equal values: the search result on ties
    best_T, report = min(map(measured, (centre + z, centre)), key=lambda m: m[1].p_strong)
    return {"T": best_T, "report": report, "iterations": nit,
            "stopped_by": "tolerance" if converged else "iteration cap"}
