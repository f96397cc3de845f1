"""Variational solver for the discrete even L^p-Minkowski problem.

Minimizes the scale-invariant functional (1/p) int h^p dmu / V^{p/n} for
p != 0, and exp(int log h dmu~) / V^{1/n} at p = 0 (mu~ the normalized
measure), whose critical points solve h^{1-p} det(D^2 h) = c f for a
prescribed positive even density f.  The variable is the even-harmonic
coefficient vector of the support function, so evenness and smoothness are
built in; strong convexity is maintained by a backtracking line search with
an eigenvalue floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from calab.bodies import BodyEvaluator, BodyOnGrid, SpectralBody, evaluate_on_grid
from calab.sphere import (HarmonicBasis, SphereGrid, frame_det, frame_eigvalsh,
                          unpack_sym)


@dataclass(frozen=True)
class TargetMeasure:
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


@dataclass
class SolveOptions:
    band: int = 16
    max_iter: int = 4000


@dataclass(frozen=True)
class SolveResult:
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
_FIRST_STEP = 0.5   # the first line search's trial step


class _EvenModel:
    """Geometry of h = sum c_a phi_a over the even basis functions, whose
    coefficients c are the variable (`even_mask` marks them in the full basis).

    The model reads the grid's even table at the pair nodes, at the pair
    weights: D^2 h at a node is the frame matrix R = sum c_a Hess phi_a + h I."""

    def __init__(self, grid: SphereGrid, band: int):
        (B, _, H), _ = grid.basis_tables(band)
        self.grid = grid
        self.basis = HarmonicBasis(grid.n, band)
        self.even_mask = self.basis.parity > 0
        self.weights = grid.pair_weights
        # column-major: one contiguous column per even basis function
        self.B = np.asfortranarray(B)
        # packed Hessian rows (node, component) against the coefficients,
        # column-major too
        self._hess = np.asfortranarray(H.transpose(0, 2, 1).reshape(-1, H.shape[1]))

    def ball_coeffs(self, radius: float = 1.0) -> np.ndarray:
        c = np.zeros(self.basis.size)
        c[0] = radius / self.basis.constant_value
        return c

    def geometry(self, c: np.ndarray):
        """h, det D2h and the minimum tangential eigenvalue of D2h at the
        model's nodes for even coefficients c (None and -inf where h is not
        positive)."""
        h = self.B @ c
        if np.any(h <= 0):
            return h, None, -np.inf
        R = unpack_sym((self._hess @ c).reshape(len(h), -1))
        diag = np.arange(self.grid.n - 1)
        R[:, diag, diag] += h[:, None]
        det = frame_det(R)
        return h, det, float(frame_eigvalsh(R).min())


def _value_and_grad(model: _EvenModel, f: np.ndarray, p: float, h, det):
    """Functional value and gradient w.r.t. even coefficients at V = 1, for
    the target density f on the model's nodes."""
    w = model.weights
    n = model.grid.n
    V = float(w @ (h * det)) / n
    dV = model.B.T @ (w * det)  # first variation of volume against S_L
    if p == 0:
        mass = float(w @ f)
        avg = float(w @ (f * np.log(h))) / mass
        F = np.exp(avg) / V ** (1.0 / n)
        dE = model.B.T @ (w * f / h) / mass
        grad = F * (dE - dV / (n * V))
    else:
        E = float(w @ (f * h**p)) / p
        dE = model.B.T @ (w * f * h ** (p - 1.0))
        F = E / V ** (p / n)
        grad = dE / V ** (p / n) - (p / n) * E * V ** (-p / n - 1.0) * dV
    return F, grad


def minimize(mu: TargetMeasure, p: float, init: np.ndarray | None = None,
             options: SolveOptions | None = None) -> SolveResult:
    """Descend the functional over even-coefficient support functions.

    The iteration renormalizes to unit volume (the functional is
    0-homogeneous), takes preconditioned steepest-descent steps with Armijo
    backtracking, and rejects steps that leave the strongly convex cone
    (minimum eigenvalue of D^2 h below the floor).  Steps too short for F to
    resolve their decrease are judged by the gradient (_UNRESOLVED).  It
    stops unconverged after _NO_DECREASE_STEPS accepted steps in a row that
    leave the functional unchanged at roundoff."""
    opts = options or SolveOptions()
    grid = mu.grid
    n = grid.n
    if not (-n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    model = _EvenModel(grid, opts.band)

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

    total_scale = 1.0
    c, h, det, s = renorm(c, h, det)
    total_scale *= s

    degs = model.basis.degrees[model.even_mask].astype(float)
    precond = 1.0 / (1.0 + degs * (degs + n - 2))

    F, grad = _value_and_grad(model, f, p, h, det)
    history = [F]
    step = _FIRST_STEP
    iterations = 0
    flat = 0   # accepted steps in a row without a strict decrease
    converged = False
    message = "max iterations reached"
    for iterations in range(1, opts.max_iter + 1):
        d = -precond * grad
        slope = float(grad @ d)
        gnorm = float(np.abs(d).max())
        if gnorm <= _GRAD_TOL * max(abs(F), 1.0):
            converged = True
            message = "gradient tolerance reached"
            break
        accepted = False
        t = step
        for _ in range(40):
            cand = c + t * d
            hc, detc, mnc = model.geometry(cand)
            if detc is not None and mnc > _EIG_FLOOR * np.mean(hc):
                Fc, gradc = _value_and_grad(model, f, p, hc, detc)
                if -t * slope <= _UNRESOLVED * abs(F):
                    accepted = float(np.abs(precond * gradc).max()) < gnorm
                else:
                    accepted = Fc <= F + 1e-4 * t * slope
                if accepted:
                    break
            t *= 0.5
        if not accepted:
            message = "line search stalled"
            break
        flat = 0 if Fc < F else flat + 1
        c, h, det = cand, hc, detc
        c, h, det, s = renorm(c, h, det)
        total_scale *= s
        F, grad = _value_and_grad(model, f, p, h, det)
        history.append(F)
        step = min(t * 1.5, 4.0)
        if flat >= _NO_DECREASE_STEPS:
            message = "no decrease at roundoff"
            break

    # Euler-Lagrange certificate: h^{1-p} det D2h proportional to the density
    X = h ** (1.0 - p) * det
    cfit = float((model.weights * X) @ f) / float((model.weights * f) @ f)
    el = float(np.abs(X / (cfit * f) - 1.0).max())

    full = np.zeros(model.basis.size)
    full[model.even_mask] = c
    return SolveResult(
        coeffs=full, band=opts.band, n=n, value=F, el_residual=el,
        iterations=iterations, converged=converged,
        normalization=total_scale, history=tuple(history), message=message,
    )


# ----------------------------------------------------------------------
# uniqueness probing


def uniqueness_probe(bodyK: BodyEvaluator, p: float, n_starts: int, seed: int,
                     grid: SphereGrid,
                     options: SolveOptions | None = None) -> dict:
    """Minimize from several random feasible starts with mu = S_p K and
    cluster the minimizers, which minimize returns at unit volume.

    One cluster is evidence of (not proof of) a unique minimizer."""
    opts = options or SolveOptions()
    bg = evaluate_on_grid(bodyK, grid)
    mu = TargetMeasure.from_body(bg, p)
    model = _EvenModel(grid, opts.band)
    rng = np.random.default_rng(seed)

    results = []
    for _ in range(n_starts):
        c = model.ball_coeffs()
        pert = rng.normal(size=model.basis.size) * np.exp(-0.7 * model.basis.degrees)
        pert[~model.even_mask] = 0.0
        pert[0] = 0.0
        scale = 0.3
        for _ in range(20):
            cand = c + scale * pert
            _, det, mn = model.geometry(cand[model.even_mask])
            if det is not None and mn > 1e-4:
                c = cand
                break
            scale *= 0.5
        results.append(minimize(mu, p, init=c, options=opts))

    hs = [model.B @ r.coeffs[model.even_mask] for r in results]
    k = len(hs)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = np.abs(hs[i] - hs[j]).max() / np.mean(hs[i])
            dist[i, j] = dist[j, i] = d

    # single-linkage clustering at threshold 1e-2
    labels = -np.ones(k, dtype=int)
    cluster = 0
    for i in range(k):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = cluster
        while stack:
            a = stack.pop()
            for b in range(k):
                if labels[b] < 0 and dist[a, b] <= 1e-2:
                    labels[b] = cluster
                    stack.append(b)
        cluster += 1
    return {
        "clusters": int(cluster),
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
