"""Centro-affine differential structures on the sphere parametrization.

Carries the metric g = D^2h/h, the primal/dual volume densities h det(D^2h)
and h^{-n}, the conjugate Hessian in the metric's orthonormal coframe (whose
diagonal sum is the Hilbert-Brunn-Minkowski operator and whose square sum is
the Hessian norm of the Bochner identity) and the constant-Ricci check on
the curvature of the conjugate connection.  The primal connection is never
assembled; everything routes through the conjugate side and the metric,
which keeps third derivatives of h out of the numerics.

The state lives at the pair nodes, as components in the grid frames
E = grid.tangent_frames(): (N/2, n-1) vectors and (N/2, n-1, n-1) matrices,
where D^2h is R = D2h_frame and g = R/h.  Its row roots K = sqrt(h) C^{-1},
with R = C C^t the Cholesky factor, and p = K grad log h are computed once,
here, and every quadratic form (the Galerkin forms, the Bochner identity)
reads them: K^t K = g^{-1} in E.  Nothing here returns ambient n x n
matrices; sphere.to_ambient maps frame components out where needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from calab.bodies import BodyOnGrid
from calab.sphere import (
    ScalarField,
    _antipodal_columns,
    _unfold,
    analyze,
    packed_positions,
)


@dataclass(frozen=True)
class CentroAffineState:
    bg: BodyOnGrid
    nu_density: np.ndarray        # (N/2,) h * det D^2 h (primal volume density)
    grad_log_h: np.ndarray        # (N/2, n-1) grad log h in the frames, E^t x / h
    K: np.ndarray                 # (N/2, n-1, n-1) sqrt(h) C^{-1}: K^t K = g^{-1}
    p: np.ndarray                 # (N/2, n-1) K grad log h

    @property
    def grid(self):
        return self.bg.grid

    @property
    def n(self):
        return self.bg.grid.n

    @property
    def sqrt_weights(self) -> np.ndarray:
        """(N/2,) square roots of the row weights 2 w nu, the pair weights
        against the primal volume density."""
        return np.sqrt(self.grid.pair_weights * self.nu_density)


def build_state(bg: BodyOnGrid) -> CentroAffineState:
    """The state of a strongly convex body, and the one place where
    D2h_frame is factored."""
    if not bg.valid:
        raise ValueError("state requires a strongly convex body on the grid")
    h = bg.h
    # grad log h = tangential part of the boundary point x over h
    grad_log_h = np.einsum("ikq,ik->iq", bg.grid.tangent_frames(), bg.x) / h[:, None]
    K = np.sqrt(h)[:, None, None] * np.linalg.inv(np.linalg.cholesky(bg.D2h_frame))
    return CentroAffineState(
        bg=bg,
        nu_density=h * bg.sk_density,
        grad_log_h=grad_log_h,
        K=K,
        p=np.einsum("iqr,ir->iq", K, grad_log_h),
    )


# ----------------------------------------------------------------------
# conjugate Hessian and the induced (Hilbert-Brunn-Minkowski) Laplacian


def conjugate_hessian_packed(state: CentroAffineState, grad: np.ndarray,
                             hess: np.ndarray, scale=1.0) -> np.ndarray:
    """K Hess* f K^t, the conjugate Hessian in the metric's orthonormal
    coframe (K^t K = g^{-1}), as its packed components q1 <= q2 with the
    off-diagonal ones weighted sqrt 2: their sum of squares is
    ||Hess* f||_g^2 and their diagonal sum is L f = tr(g^{-1} Hess* f).

    grad (N/2, k, n-1) and hess (N/2, k, n(n-1)/2) are the frame gradients
    and packed covariant Hessians of k functions at the pair nodes, laid out
    as the basis tables are; the result is (N/2, n(n-1)/2, k), each node's
    rows times scale (a scalar, or one per node).  With t = K grad f,
    Hess* f = Hess f + d log h (x) df + df (x) d log h becomes
    K Hess* f K^t = K Hess f K^t + p (x) t + t (x) p."""
    K, p = state.K, state.p
    iu, ju = np.triu_indices(K.shape[-1])
    off = np.where(iu == ju, 0.0, 1.0)
    # (K Hmat K^t)[q1, q2] = sum over r1 <= r2 of H[r1 r2] times
    # K[q1, r1] K[q2, r2] + K[q1, r2] K[q2, r1] (one term when r1 = r2)
    WH = (K[:, iu][:, :, iu] * K[:, ju][:, :, ju]
          + off * K[:, iu][:, :, ju] * K[:, ju][:, :, iu])
    WG = p[:, iu, None] * K[:, ju, :] + K[:, iu, :] * p[:, ju, None]
    w = (np.asarray(scale)[..., None]
         * np.where(iu == ju, 1.0, np.sqrt(2.0)))[..., None]
    return (w * WH) @ np.swapaxes(hess, -1, -2) + (w * WG) @ np.swapaxes(grad, -1, -2)


def hbm_apply(state: CentroAffineState, f: ScalarField) -> ScalarField:
    """The Hilbert-Brunn-Minkowski operator, the diagonal sum of
    conjugate_hessian_packed, from one analysis of f, at every node of the
    grid."""
    grid = state.grid
    _, G, H = grid.basis_tables()
    pair = _antipodal_columns(grid, analyze(f)).T
    Q = conjugate_hessian_packed(state, pair @ G, pair @ H)
    Lf = Q[:, packed_positions(state.n - 1).diagonal()].sum(axis=1)
    return ScalarField.from_values(grid, _unfold(grid, Lf))


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
