"""Centro-affine differential structures on the sphere parametrization.

Carries the metric g = D^2h/h, the primal/dual volume densities h det(D^2h)
and h^{-n}, the conjugate-connection calculus (conjugate Hessian, the induced
Hilbert-Brunn-Minkowski operator, the pointwise norms of the Bochner
identity) and the constant-Ricci check on the conjugate Christoffel symbols.
The primal connection is never assembled; everything routes through the
conjugate side and the metric, which keeps third derivatives of h out of the
numerics.

Every tensor is held and contracted as components in the grid frames
E = grid.tangent_frames(): (N, n-1) vectors and (N, n-1, n-1) matrices, where
D^2h is R = D2h_frame and g = R/h.  Nothing here returns ambient n x n
matrices; sphere.to_ambient maps frame components out where a caller needs
them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from calab.bodies import BodyEvaluator, BodyOnGrid
from calab.sphere import (
    ScalarField,
    analyze,
    gradient_from_coeffs,
    hessian_from_coeffs,
    tangent_frames,
    _angles_from_points,
)


@dataclass(frozen=True)
class CentroAffineState:
    bg: BodyOnGrid
    nu_density: np.ndarray        # h * det D^2 h (primal volume density)
    nu_star_density: np.ndarray   # h^{-n} (dual volume density)
    grad_log_h: np.ndarray        # (N, n-1) grad log h in the frames, E^t x / h
    ginv: np.ndarray              # (N, n-1, n-1) inverse metric h R^{-1}

    @property
    def grid(self):
        return self.bg.grid

    @property
    def n(self):
        return self.bg.grid.n


def build_state(bg: BodyOnGrid) -> CentroAffineState:
    if not bg.valid:
        raise ValueError("state requires a strongly convex body on the grid")
    n = bg.grid.n
    h = bg.h
    # grad log h = tangential part of the boundary point x over h
    Ex = np.einsum("ikq,ik->iq", bg.grid.tangent_frames(), bg.x)
    return CentroAffineState(
        bg=bg,
        nu_density=h * bg.sk_density,
        nu_star_density=h ** (-float(n)),
        grad_log_h=Ex / h[:, None],
        ginv=h[:, None, None] * np.linalg.inv(bg.D2h_frame),
    )


# ----------------------------------------------------------------------
# conjugate Hessian and the induced (Hilbert-Brunn-Minkowski) Laplacian


def _conjugate_hessian_arrays(state: CentroAffineState, grad: np.ndarray,
                              hess: np.ndarray) -> np.ndarray:
    """Hess* f = Hess_sphere f + d(log h) (x) df + df (x) d(log h), from the
    frame gradient and Hessian of f."""
    cross = state.grad_log_h[:, :, None] * grad[:, None, :]
    return hess + cross + cross.transpose(0, 2, 1)


def _conjugate_derivs(state: CentroAffineState, f: ScalarField):
    """(c, grad f, Hess* f): the coefficients of f, and its gradient and
    conjugate Hessian in the frames, from one analysis of f."""
    c = analyze(f)
    grad = gradient_from_coeffs(f.grid, c)
    return c, grad, _conjugate_hessian_arrays(state, grad,
                                              hessian_from_coeffs(f.grid, c))


def _hbm_arrays(state: CentroAffineState, Hs: np.ndarray) -> np.ndarray:
    """tr(g^{-1} Hess* f) per node, from the frame conjugate Hessian."""
    return np.einsum("ikl,ilk->i", state.ginv, Hs)


def hbm_apply(state: CentroAffineState, f: ScalarField) -> ScalarField:
    """The Hilbert-Brunn-Minkowski operator: trace of Hess* f in the metric,
    from one analysis of f."""
    _, _, Hs = _conjugate_derivs(state, f)
    return ScalarField.from_values(state.grid, _hbm_arrays(state, Hs))


def grad_norm_sq(state: CentroAffineState, grad: np.ndarray) -> np.ndarray:
    """|grad_g f|^2 = g^{ij} f_i f_j per node, from the frame gradient of f."""
    return np.einsum("ik,ikl,il->i", grad, state.ginv, grad)


def hess_norm_sq(state: CentroAffineState, Hs: np.ndarray) -> np.ndarray:
    """||Hess* f||_g^2 = tr(g^{-1} Hess* g^{-1} Hess*) per node, from the
    frame conjugate Hessian of f."""
    M = np.einsum("ikl,ilm->ikm", state.ginv, Hs)
    return np.einsum("ikl,ilk->i", M, M)


# ----------------------------------------------------------------------
# conjugate Christoffel symbols and the Ricci check


_SPHERE_COORD_EPS = 1e-4

# the (theta, phi) chart degenerates at the poles (cot theta, 1/sin^2 theta in
# the round-sphere symbols): the coordinate checks leave out the nodes with
# |cos theta| above this
_CHART_COS_CUTOFF = 0.999


def _chart_nodes(grid) -> np.ndarray:
    """Indices of the nodes inside the (theta, phi) chart's cutoff."""
    return np.flatnonzero(np.abs(grid.nodes[:, 2]) <= _CHART_COS_CUTOFF)


def _coord_partials_log_h(body: BodyEvaluator, theta, phi):
    """Coordinate partials (d_theta log h, d_phi log h) at given angles."""
    st, ct = np.sin(theta), np.cos(theta)
    pts = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    h, xb = body.jet(pts, 1)
    glh = (xb - h[:, None] * pts) / h[:, None]
    comps = np.einsum("ik,ikq->iq", glh, tangent_frames(pts))   # (e_theta, e_phi)
    return comps[:, 0], comps[:, 1] * st


def _sphere_symbols(theta):
    """Round-sphere Christoffels in (theta, phi) coordinates, (P, 2, 2, 2)."""
    P = len(theta)
    G = np.zeros((P, 2, 2, 2))  # indices [i, j, k] for Gamma^k_{ij}
    st, ct = np.sin(theta), np.cos(theta)
    G[:, 1, 1, 0] = -st * ct          # Gamma^theta_{phi phi}
    G[:, 0, 1, 1] = ct / st           # Gamma^phi_{theta phi}
    G[:, 1, 0, 1] = ct / st
    return G


def _sphere_symbols_dtheta(theta):
    """Analytic theta-derivatives of the round-sphere symbols."""
    P = len(theta)
    dG = np.zeros((P, 2, 2, 2))
    st = np.sin(theta)
    dG[:, 1, 1, 0] = -np.cos(2.0 * theta)
    dG[:, 0, 1, 1] = -1.0 / st**2
    dG[:, 1, 0, 1] = -1.0 / st**2
    return dG


def _body_symbols_at(body: BodyEvaluator, theta, phi):
    """Body-dependent part of the conjugate symbols (smooth, no cot terms)."""
    lt, lp = _coord_partials_log_h(body, theta, phi)
    dlog = np.stack([lt, lp], axis=-1)  # (P, 2)
    out = np.zeros((len(theta), 2, 2, 2))
    for k in range(2):
        out[:, k, :, k] -= dlog
        out[:, :, k, k] -= dlog
    return out


def _conjugate_symbols_at(body: BodyEvaluator, theta, phi):
    return _sphere_symbols(theta) + _body_symbols_at(body, theta, phi)


def ricci_star_check(state: CentroAffineState) -> dict:
    """Max relative deviation of the conjugate Ricci tensor from (n-2) g.

    The Ricci tensor is assembled from the conjugate symbols and their
    coordinate derivatives (central differences of the symbol field).
    Constant for every body; n=2 manifolds carry no Ricci (deviation 0).
    Read at the nodes inside the (theta, phi) chart's pole cutoff.
    """
    if state.n == 2:
        return {"max_relative_deviation": 0.0, "node": -1}
    grid = state.grid
    body = state.bg.body
    keep = _chart_nodes(grid)
    theta, phi = _angles_from_points(grid.nodes, 3)
    th, ph = theta[keep], phi[keep]
    eps = _SPHERE_COORD_EPS

    G0 = _conjugate_symbols_at(body, th, ph)
    # sphere part differentiated analytically (FD on cot terms loses digits
    # near the poles); the smooth body part is centrally differenced
    dG = np.empty(G0.shape + (2,))
    dG[..., 0] = _sphere_symbols_dtheta(th) + (
        _body_symbols_at(body, th + eps, ph)
        - _body_symbols_at(body, th - eps, ph)
    ) / (2 * eps)
    dG[..., 1] = (
        _body_symbols_at(body, th, ph + eps)
        - _body_symbols_at(body, th, ph - eps)
    ) / (2 * eps)

    # Ric_{jk} = d_i G^i_{jk} - d_j G^i_{ik} + G^i_{ip} G^p_{jk}
    #                                        - G^i_{jp} G^p_{ik}
    P = len(keep)
    ric = np.zeros((P, 2, 2))
    for j in range(2):
        for k in range(2):
            for i in range(2):
                ric[:, j, k] += dG[:, j, k, i, i] - dG[:, i, k, i, j]
                for p in range(2):
                    ric[:, j, k] += (
                        G0[:, i, p, i] * G0[:, j, k, p]
                        - G0[:, j, p, i] * G0[:, i, k, p]
                    )

    # coordinate components of g = E (R/h) E^t at the nodes: J E (R/h) (J E)^t
    # with J the coordinate vectors (e_theta, sin theta e_phi) of the node's
    # own frame; E is the grid frame, at an antipode its partner's
    J = tangent_frames(grid.nodes[keep])
    J[:, :, 1] *= np.sin(th)[:, None]
    JE = np.einsum("ika,ikr->iar", J, grid.tangent_frames()[keep])
    gframe = state.bg.D2h_frame[keep] / state.bg.h[keep, None, None]
    gcoord = JE @ gframe @ JE.transpose(0, 2, 1)
    dev = np.linalg.norm(ric - (state.n - 2) * gcoord, axis=(1, 2))
    scale = np.linalg.norm(gcoord, axis=(1, 2))
    rel = dev / scale
    worst = int(np.argmax(rel))
    return {"max_relative_deviation": float(rel[worst]), "node": int(keep[worst])}
