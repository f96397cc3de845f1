"""Variational solver for the discrete even L^p-Minkowski problem.

Minimizes the scale-invariant functional (1/p) int h^p dmu / V^{p/n} for
p != 0, and exp(int log h dmu~) / V^{1/n} at p = 0 (mu~ the normalized
measure), whose critical points solve h^{1-p} det(D^2 h) = c f for a
prescribed positive even density f.  The variable is the even-harmonic
coefficient vector of the support function, so evenness and smoothness are
built in.  Steps are Levenberg-damped Newton steps on the exact Hessian, whose
volume part d^2 V[f, g] = int f tr(cof(D^2 h) D^2 g) is the
Hilbert-Brunn-Minkowski form; strong convexity is maintained by a
backtracking line search with an eigenvalue floor.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from calab.bodies import (BodyEvaluator, BodyOnGrid, SpectralBody, evaluate_on_grid,
                          random_even_body)
from calab.sphere import (HarmonicBasis, SphereGrid, frame_det, frame_eigvalsh,
                          packed_indices, unpack_sym)


class TargetMeasure(NamedTuple):
    grid: SphereGrid
    density: np.ndarray   # (N/2,) at the pair nodes

    @classmethod
    def from_density(cls, grid: SphereGrid, density) -> "TargetMeasure":
        """From a density at every grid node: finite, positive and even."""
        f = np.asarray(density, dtype=float)
        if f.shape != (grid.node_count,):
            raise ValueError("density does not match the grid")
        if not np.all(np.isfinite(f)):
            raise ValueError("density must be finite")
        if np.any(f <= 0):
            raise ValueError("density must be strictly positive")
        return cls(grid, grid.pair_rows(f))

    @classmethod
    def from_body(cls, bg: BodyOnGrid, p: float) -> "TargetMeasure":
        """The L^p surface-area density h^{1-p} det D^2 h of a valid body."""
        if not bg.valid:
            raise ValueError("target body must be strongly convex")
        return cls(bg.grid, bg.h ** (1.0 - p) * bg.sk_density)


class SolveResult(NamedTuple):
    coeffs: np.ndarray          # full-basis coefficients of h (odd entries 0)
    band: int
    n: int
    value: float                # functional at the result
    el_residual: float          # sup |h^{1-p} det D^2h / (c f) - 1|, c fitted
    iterations: int
    converged: bool
    normalization: float        # scale factor applied to reach V = 1
    history: tuple = ()         # functional value after each accepted step
    message: str = ""

    @property
    def body(self) -> BodyEvaluator:
        basis = HarmonicBasis(self.n, self.band)
        return SpectralBody(self.n, self.coeffs, basis, label="minkowski-solution")

    def to_dict(self) -> dict:
        return {
            "band": self.band,
            "dimension": self.n,
            "value": float(self.value),
            "el_residual": float(self.el_residual),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "normalization": float(self.normalization),
            "coefficients": [float(c) for c in self.coeffs],
            "message": self.message,
        }


# ----------------------------------------------------------------------
# solver internals

# A step whose predicted decrease -t slope is at most _UNRESOLVED |F| moves F
# by about its rounding, so Armijo cannot judge it: such a step is accepted
# when it lowers the max-norm of the preconditioned gradient instead (the
# rule of PolarBody._UNRESOLVED).
_UNRESOLVED = 1e-14

# Accepted steps in a row without a strict decrease after which minimize
# stops, a guard: while 1e-4 t slope is below an ulp of F but -t slope is
# still above _UNRESOLVED |F|, Armijo accepts F_c == F.
_NO_DECREASE_STEPS = 50

_GRAD_TOL = 1e-9    # converged: max |preconditioned gradient| <= this max(|F|, 1)
_EIG_FLOOR = 1e-6   # feasible step: min eig D^2 h > this mean(h)
_DAMPING = 1.0      # the first Newton step's Levenberg damping
_BAND = 16          # the solver's default harmonic band, uniqueness_probe's band


class _EvenModel:
    """Geometry of h = sum c_a phi_a over the even basis functions, whose
    coefficients c are the variable (`even_mask` marks them in the full basis).

    The model reads the grid's even table at the pair nodes (the odd block
    is not built for it), at the pair weights: D^2 h at a node is the frame
    matrix R = sum c_a R(phi_a), R(phi) = Hess phi + phi I."""

    def __init__(self, grid: SphereGrid, band: int):
        ((B, _, H),) = grid.basis_tables(band, blocks=(0,))
        self.grid = grid
        self.basis = HarmonicBasis(grid.n, band)
        self.even_mask = self.basis.parity > 0
        self.weights = grid.pair_weights
        # column-major: one contiguous column per even basis function
        self.B = np.asfortranarray(B)
        # packed R(phi) rows (node, component) against the coefficients,
        # column-major too, and their (node, component, function) view
        r, s = packed_indices(grid.n - 1)
        R_phi = H.transpose(0, 2, 1) + (r == s)[:, None] * B[:, None, :]
        self._R_rows = np.asfortranarray(R_phi.reshape(-1, H.shape[1]))
        self._R_phi = self._R_rows.reshape(R_phi.shape)

    def ball_coeffs(self) -> np.ndarray:
        """The unit ball's coefficients in the full basis."""
        c = np.zeros(self.basis.size)
        c[0] = 1.0 / self.basis.constant_value
        return c

    def frames(self, c: np.ndarray) -> np.ndarray:
        """The frame matrices R of D^2 h at the model's nodes."""
        return unpack_sym((self._R_rows @ c).reshape(len(self.weights), -1))

    def geometry(self, c: np.ndarray):
        """h, det D2h and the minimum tangential eigenvalue of D2h at the
        model's nodes for even coefficients c (None and -inf where h is not
        positive)."""
        h = self.B @ c
        if np.any(h <= 0):
            return h, None, -np.inf
        R = self.frames(c)
        return h, frame_det(R), float(frame_eigvalsh(R).min())

    def gram(self, weights: np.ndarray) -> np.ndarray:
        """sum w weights phi_a phi_b over the model's nodes."""
        return self.B.T @ ((self.weights * weights)[:, None] * self.B)

    def volume_hessian(self, c: np.ndarray) -> np.ndarray:
        """d^2 V_ab = sum w phi_a tr(cof(R) R(phi_b)), symmetrized: the
        derivative of the first variation B^t (w det R)."""
        if self.grid.n == 2:
            M = self._R_phi[:, 0]   # cof R = 1
        else:
            # tr(cof(R) S) = R11 S00 - 2 R01 S01 + R00 S11 for packed S
            R = self.frames(c)
            cof = np.stack([R[:, 1, 1], -2.0 * R[:, 0, 1], R[:, 0, 0]], axis=-1)
            M = (cof[:, None, :] @ self._R_phi)[:, 0]
        A = self.B.T @ (self.weights[:, None] * M)
        return 0.5 * (A + A.T)


def _objective(model: _EvenModel, f: np.ndarray, p: float, c, h, det):
    """Functional value and gradient w.r.t. even coefficients at the even
    coefficients c of h, for the target density f on the model's nodes, and
    a function that forms the Hessian there (the chain rule through
    V^{-p/n}, through exp/log at p = 0) from the same terms."""
    w = model.weights
    n = model.grid.n
    V = float(w @ (h * det)) / n
    dV = model.B.T @ (w * det)  # first variation of volume against S_L
    if p == 0:
        mass = float(w @ f)
        avg = float(w @ (f * np.log(h))) / mass
        F = np.exp(avg) / V ** (1.0 / n)
        dE = model.B.T @ (w * f / h) / mass
        g = dE - dV / (n * V)   # gradient of log F

        def hessian():
            hess_log = (-model.gram(f / h**2) / mass - model.volume_hessian(c) / (n * V)
                        + np.outer(dV, dV) / (n * V * V))
            return F * (hess_log + np.outer(g, g))
        return F, F * g, hessian
    a = p / n
    E = float(w @ (f * h**p)) / p
    dE = model.B.T @ (w * f * h ** (p - 1.0))

    def hessian():
        cross = np.outer(dE, dV)
        return ((p - 1.0) * model.gram(f * h ** (p - 2.0)) / V**a
                - a * V ** (-a - 1.0) * (cross + cross.T + E * model.volume_hessian(c))
                + a * (a + 1.0) * E * V ** (-a - 2.0) * np.outer(dV, dV))
    return E / V**a, dE / V**a - a * E * V ** (-a - 1.0) * dV, hessian


def minimize(mu: TargetMeasure, p: float, init: np.ndarray | None = None,
             band: int = _BAND, max_iter: int = 4000) -> SolveResult:
    """Minimize the functional over even-coefficient support functions by
    Levenberg-Newton steps.

    The iteration works at unit volume (the functional is 0-homogeneous) and
    solves (Hess F + mu P) d = -grad F, P = diag(1 + l(l+n-2)) the ball's
    shifted Laplacian: large mu gives the preconditioned gradient step
    -grad F / (mu P).  mu falls tenfold after a full step and rises tenfold
    when d is not a descent direction or the line search backtracks.  The
    line search starts at t = 1, rejects steps that leave the strongly
    convex cone (minimum eigenvalue of D^2 h below the floor), rescales each
    feasible candidate to unit volume and evaluates F there once, and tests
    Armijo; an accepted step keeps that evaluation.  Steps too short for F
    to resolve their decrease are judged by the preconditioned gradient
    (_UNRESOLVED), which also stops the iteration (_GRAD_TOL).  It stops
    after _NO_DECREASE_STEPS accepted steps in a row that leave the
    functional unchanged at roundoff.  Whatever the stop, convergence is
    judged on the returned iterate."""
    grid = mu.grid
    n = grid.n
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    model = _EvenModel(grid, band)

    init = model.ball_coeffs() if init is None else np.asarray(init, dtype=float)
    if len(init) != model.basis.size:
        raise ValueError("initial coefficients do not match the solver basis")
    c = init[model.even_mask]
    f = mu.density

    h, det, mn = model.geometry(c)
    if det is None or mn <= 0:
        raise ValueError("infeasible initial body")

    def renorm(c, h, det):
        V = float(model.weights @ (h * det)) / n
        s = V ** (-1.0 / n)
        return c * s, h * s, det * s ** (n - 1), s

    c, h, det, total_scale = renorm(c, h, det)

    degs = model.basis.degrees[model.even_mask].astype(float)
    metric = 1.0 + degs * (degs + n - 2)

    F, grad, hessian = _objective(model, f, p, c, h, det)
    gnorm = float(np.abs(grad / metric).max())
    history = [F]
    damping = _DAMPING
    iterations = 0
    flat = 0   # accepted steps in a row without a strict decrease
    message = "max iterations reached"
    for iterations in range(1, max_iter + 1):
        if gnorm <= _GRAD_TOL * max(abs(F), 1.0):
            break
        hess = hessian()
        d = np.linalg.solve(hess + np.diag(damping * metric), -grad)
        while grad @ d >= 0:   # not a descent direction
            damping *= 10.0
            d = np.linalg.solve(hess + np.diag(damping * metric), -grad)
        slope = float(grad @ d)
        accepted = False
        t = 1.0
        for _ in range(40):
            cand = c + t * d
            hc, detc, mnc = model.geometry(cand)
            if detc is not None and mnc > _EIG_FLOOR * np.mean(hc):
                cand, hc, detc, s = renorm(cand, hc, detc)
                Fc, gradc, hessianc = _objective(model, f, p, cand, hc, detc)
                gnormc = float(np.abs(gradc / metric).max())
                if -t * slope <= _UNRESOLVED * abs(F):
                    accepted = gnormc < gnorm
                else:
                    accepted = Fc <= F + 1e-4 * t * slope
                if accepted:
                    break
            t *= 0.5
        if not accepted:
            message = "line search stalled"
            break
        damping = damping / 10.0 if t == 1.0 else damping * 10.0
        flat = 0 if Fc < F else flat + 1
        c, h, det, F, grad, hessian, gnorm = cand, hc, detc, Fc, gradc, hessianc, gnormc
        total_scale *= s
        history.append(F)
        if flat >= _NO_DECREASE_STEPS:
            message = "no decrease at roundoff"
            break
    converged = gnorm <= _GRAD_TOL * max(abs(F), 1.0)
    if converged:
        message = "gradient tolerance reached"

    # Euler-Lagrange certificate: h^{1-p} det D2h proportional to the density
    X = h ** (1.0 - p) * det
    cfit = float((model.weights * X) @ f) / float((model.weights * f) @ f)
    el = float(np.abs(X / (cfit * f) - 1.0).max())

    full = np.zeros(model.basis.size)
    full[model.even_mask] = c
    return SolveResult(
        coeffs=full, band=band, n=n, value=F, el_residual=el,
        iterations=iterations, converged=converged,
        normalization=total_scale, history=tuple(history), message=message,
    )


# ----------------------------------------------------------------------
# uniqueness probing


def uniqueness_probe(bodyK: BodyEvaluator, p: float, n_starts: int, seed: int,
                     grid: SphereGrid) -> dict:
    """Minimize with mu = S_p K from n_starts random even bodies
    (random_even_body at the solver's band, seeds seed * n_starts + i) and
    cluster the minimizers, which minimize returns at unit volume, by single
    linkage at sup distance 1e-2.

    One cluster is evidence of (not proof of) a unique minimizer."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    bg = evaluate_on_grid(bodyK, grid)
    mu = TargetMeasure.from_body(bg, p)
    model = _EvenModel(grid, _BAND)
    results = [minimize(mu, p, init=random_even_body(grid.n, seed=seed * n_starts + i,
                                                     band=_BAND, strength=0.8).coeffs)
               for i in range(n_starts)]

    hs = np.array([model.B @ r.coeffs[model.even_mask] for r in results])
    # sup |h_i - h_j| / mean h_i for i < j, mirrored
    upper = np.triu(np.abs(hs[:, None] - hs).max(axis=2) / hs.mean(axis=1)[:, None], 1)
    dist = upper + upper.T
    # the clusters are the connected components of dist <= 1e-2 (the
    # adjacency squared to its transitive closure), numbered in the order
    # of their smallest members
    reach = dist <= 1e-2
    for _ in range(len(results).bit_length()):
        reach = reach @ reach
    firsts, labels = np.unique(reach.argmax(axis=1), return_inverse=True)
    return {
        "clusters": len(firsts),
        "labels": [int(v) for v in labels],
        "pairwise_sup_distances": dist,
        "results": results,
    }


# ----------------------------------------------------------------------
# the L^p-Minkowski inequality


def minkowski_inequality_gap(bgK: BodyOnGrid, bgL: BodyOnGrid, p: float) -> float:
    """LHS - RHS of the even L^p-Minkowski inequality (log form at p = 0);
    nonnegative when the inequality holds."""
    if bgK.grid is not bgL.grid:
        raise ValueError("bodies must share a grid")
    w = bgK.grid.pair_weights
    n = bgK.grid.n
    VK = float(w @ bgK.vk_density)
    VL = float(w @ bgL.vk_density)
    if p == 0:
        lhs = float(w @ (bgK.vk_density * np.log(bgL.h / bgK.h))) / VK
        return lhs - np.log(VL / VK) / n
    spK = bgK.h ** (1.0 - p) * bgK.sk_density
    lhs = float(w @ (spK * bgL.h**p)) / p
    rhs = n / p * VK ** (1.0 - p / n) * VL ** (p / n)
    return lhs - rhs
