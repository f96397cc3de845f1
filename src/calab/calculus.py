"""Centro-affine differential structures on the sphere parametrization.

Carries the metric g = D^2h/h, the primal/dual volume densities h det(D^2h)
and h^{-n}, the conjugate-connection calculus (conjugate Hessian, the induced
Hilbert-Brunn-Minkowski operator, the pointwise norms of the Bochner
identity) and the constant-Ricci check on the curvature of the conjugate
connection.  The primal connection is never assembled; everything routes
through the conjugate side and the metric, which keeps third derivatives of h
out of the numerics.

The state lives at the pair nodes, as components in the grid frames
E = grid.tangent_frames(): (N/2, n-1) vectors and (N/2, n-1, n-1) matrices,
where D^2h is R = D2h_frame and g = R/h.  A full-grid field f enters as the
pair (f, f o A), A(u) = -u, an axis of length 2 after the node axis; as
h o A = h both halves use the same state rows.  Nothing here returns ambient
n x n matrices; sphere.to_ambient maps frame components out where needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from calab.bodies import BodyOnGrid
from calab.sphere import (
    ScalarField,
    _unfold,
    analyze,
    gradient_from_coeffs,
    hessian_from_coeffs,
)


@dataclass(frozen=True)
class CentroAffineState:
    bg: BodyOnGrid
    nu_density: np.ndarray        # (N/2,) h * det D^2 h (primal volume density)
    grad_log_h: np.ndarray        # (N/2, n-1) grad log h in the frames, E^t x / h
    ginv: np.ndarray              # (N/2, n-1, n-1) inverse metric h R^{-1}

    @property
    def grid(self):
        return self.bg.grid

    @property
    def n(self):
        return self.bg.grid.n


def build_state(bg: BodyOnGrid) -> CentroAffineState:
    if not bg.valid:
        raise ValueError("state requires a strongly convex body on the grid")
    h = bg.h
    # grad log h = tangential part of the boundary point x over h
    Ex = np.einsum("ikq,ik->iq", bg.grid.tangent_frames(), bg.x)
    return CentroAffineState(
        bg=bg,
        nu_density=h * bg.sk_density,
        grad_log_h=Ex / h[:, None],
        ginv=h[:, None, None] * np.linalg.inv(bg.D2h_frame),
    )


# ----------------------------------------------------------------------
# conjugate Hessian and the induced (Hilbert-Brunn-Minkowski) Laplacian


def _conjugate_hessian_arrays(state: CentroAffineState, grad: np.ndarray,
                              hess: np.ndarray) -> np.ndarray:
    """Hess* f = Hess_sphere f + d(log h) (x) df + df (x) d(log h), from the
    frame gradient and Hessian of f, or of the pair (f, f o A)."""
    cross = np.einsum("ik,i...l->i...kl", state.grad_log_h, grad)
    return hess + cross + np.swapaxes(cross, -1, -2)


def _conjugate_derivs(state: CentroAffineState, f: ScalarField):
    """(c, grad, Hess*): the coefficients of f, and the frame gradients and
    conjugate Hessians of the pair (f, f o A), from one analysis of f."""
    c = analyze(f)
    grad = gradient_from_coeffs(f.grid, c)
    return c, grad, _conjugate_hessian_arrays(state, grad,
                                              hessian_from_coeffs(f.grid, c))


def _hbm_arrays(state: CentroAffineState, Hs: np.ndarray) -> np.ndarray:
    """tr(g^{-1} Hess* f) per row, from the frame conjugate Hessian."""
    return np.einsum("ikl,i...lk->i...", state.ginv, Hs)


def hbm_apply(state: CentroAffineState, f: ScalarField) -> ScalarField:
    """The Hilbert-Brunn-Minkowski operator: trace of Hess* f in the metric,
    from one analysis of f, at every node of the grid."""
    _, _, Hs = _conjugate_derivs(state, f)
    return ScalarField.from_values(state.grid,
                                   _unfold(state.grid, _hbm_arrays(state, Hs)))


def grad_norm_sq(state: CentroAffineState, grad: np.ndarray) -> np.ndarray:
    """|grad_g f|^2 = g^{ij} f_i f_j per row, from the frame gradient of f."""
    return np.einsum("i...k,ikl,i...l->i...", grad, state.ginv, grad)


def hess_norm_sq(state: CentroAffineState, Hs: np.ndarray) -> np.ndarray:
    """||Hess* f||_g^2 = tr(g^{-1} Hess* g^{-1} Hess*) per row, from the
    frame conjugate Hessian of f."""
    M = np.einsum("ikl,i...lm->i...km", state.ginv, Hs)
    return np.einsum("...kl,...lk->...", M, M)


# ----------------------------------------------------------------------
# the Ricci check

# arc length of the great-circle steps that difference d log h
_RICCI_FD_STEP = 1e-4


def _hess_log_h_fd(state: CentroAffineState) -> np.ndarray:
    """Psi_ab = (grad0_a d log h)(e_b), (N/2, m, m), the round Hessian of log h
    in the grid frames: central differences of v = x/h - c, the ambient
    grad log h, along the great circles c = cos eps u +- sin eps e_a, read
    on e_b.  One first-order jet of the body at all 2m N/2 points."""
    u, E = state.grid.pair_nodes, state.grid.tangent_frames()
    eps = _RICCI_FD_STEP
    steps = np.sin(eps) * E.transpose(2, 0, 1)                  # (m, N, n)
    c = np.concatenate([np.cos(eps) * u + steps, np.cos(eps) * u - steps])
    c = c.reshape(-1, u.shape[1])
    h, x = state.bg.body.jet(c, 1)
    v = (x / h[:, None] - c).reshape(2, *steps.shape)
    return np.einsum("aik,ikb->iab", v[0] - v[1], E) / (2.0 * eps)


def _conjugate_ricci(p: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Ric*_bc = R*^a_abc, (P, m, m), of grad* = grad0 + A on the round unit
    sphere in orthonormal frames, from p = d log h and psi = grad0 d log h.

    A^d_bc = -(delta^d_b p_c + delta^d_c p_b), and the curvature of
    grad0 + A (Nomizu & Sasaki, Affine Differential Geometry, ch. I) is
    R*^d_abc = T^d_abc - T^d_bac with
        T^d_abc = delta^d_a delta_bc + (grad0_a A)^d_bc + A^d_ae A^e_bc,
    the first term that of the round sphere."""
    eye = np.eye(p.shape[1])
    A = -(np.einsum("db,ic->idbc", eye, p) + np.einsum("dc,ib->idbc", eye, p))
    # dA[i, a, d, b, c] = (grad0_a A)^d_bc
    dA = -(np.einsum("db,iac->iadbc", eye, psi)
           + np.einsum("dc,iab->iadbc", eye, psi))
    T = (np.einsum("da,bc->dabc", eye, eye) + np.einsum("iadbc->idabc", dA)
         + np.einsum("idae,iebc->idabc", A, A, optimize=True))
    return np.einsum("iaabc->ibc", T - T.transpose(0, 1, 3, 2, 4))


def ricci_star_check(state: CentroAffineState) -> dict:
    """Max relative deviation of the conjugate Ricci tensor from (n-2) g.

    Ric* comes from the conjugate connection in the grid frames at every
    pair node (_conjugate_ricci; Ric* and g are even), with the round Hessian
    of log h differenced along great circles.  Constant for every body; at
    n=2 both sides vanish identically.
    """
    g = state.bg.D2h_frame / state.bg.h[:, None, None]
    ric = _conjugate_ricci(state.grad_log_h, _hess_log_h_fd(state))
    rel = (np.linalg.norm(ric - (state.n - 2) * g, axis=(1, 2))
           / np.linalg.norm(g, axis=(1, 2)))
    worst = int(np.argmax(rel))
    return {"max_relative_deviation": float(rel[worst]), "node": worst}
