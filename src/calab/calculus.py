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

from typing import NamedTuple

import numpy as np

from calab.bodies import BodyOnGrid
from calab.sphere import (
    ScalarField,
    _antipodal_rows,
    _unfold,
    analyze,
    packed_indices,
    packed_positions,
)


class CentroAffineState(NamedTuple):
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


def _grad_log_h(bg: BodyOnGrid) -> np.ndarray:
    """(N/2, n-1) grad log h in the frames, E^t x / h."""
    return np.einsum("ikq,ik->iq", bg.grid.tangent_frames(), bg.x) / bg.h[:, None]


def build_state(bg: BodyOnGrid) -> CentroAffineState:
    """The state of a strongly convex body, and the one place where
    D2h_frame is factored."""
    if not bg.valid:
        raise ValueError("state requires a strongly convex body on the grid")
    grad_log_h = _grad_log_h(bg)
    K = np.sqrt(bg.h)[:, None, None] * np.linalg.inv(np.linalg.cholesky(bg.D2h_frame))
    return CentroAffineState(
        bg=bg,
        nu_density=bg.h * bg.sk_density,
        grad_log_h=grad_log_h,
        K=K,
        p=np.einsum("iqr,ir->iq", K, grad_log_h),
    )


# ----------------------------------------------------------------------
# conjugate Hessian and the induced (Hilbert-Brunn-Minkowski) Laplacian


def conjugate_hessian_weights(state: CentroAffineState, scale=1.0):
    """(WH, WG): per pair node, the (q, q) and (q, n-1) maps, q = n(n-1)/2,
    from packed Hessian and gradient components to conjugate_hessian_rows',
    times scale (a scalar, or one per node)."""
    K, p = state.K, state.p
    iu, ju = packed_indices(K.shape[-1])
    off = np.where(iu == ju, 0.0, 1.0)
    # (K Hmat K^t)[q1, q2] = sum over r1 <= r2 of H[r1 r2] times
    # K[q1, r1] K[q2, r2] + K[q1, r2] K[q2, r1] (one term when r1 = r2)
    WH = (K[:, iu][:, :, iu] * K[:, ju][:, :, ju]
          + off * K[:, iu][:, :, ju] * K[:, ju][:, :, iu])
    WG = p[:, iu, None] * K[:, ju, :] + K[:, iu, :] * p[:, ju, None]
    w = (np.asarray(scale)[..., None]
         * np.where(iu == ju, 1.0, np.sqrt(2.0)))[..., None]
    return w * WH, w * WG


def conjugate_hessian_rows(weights, grad: np.ndarray, hess: np.ndarray, out=None):
    """K Hess* f K^t = K Hess f K^t + p (x) t + t (x) p, t = K grad f: the
    conjugate Hessian in the metric's orthonormal coframe (K^t K = g^{-1}),
    packed q1 <= q2 with the off-diagonal components weighted sqrt 2, so
    their square sum is ||Hess* f||_g^2 and their diagonal sum L f.  grad
    (rows, k, n-1) and hess (rows, k, q) are k functions' frame gradients
    and packed Hessians, laid out as the basis tables are, and weights
    conjugate_hessian_weights on those rows; the result is (rows, q, k).
    `out`, a pair of (rows, q, k) arrays, takes the result and the gradient
    term, and the second may be hess's own memory: hess is read first."""
    WH, WG = weights
    if out is None:
        return WH @ np.swapaxes(hess, -1, -2) + WG @ np.swapaxes(grad, -1, -2)
    np.matmul(WH, np.swapaxes(hess, -1, -2), out=out[0])
    return np.add(out[0], np.matmul(WG, np.swapaxes(grad, -1, -2), out=out[1]), out=out[0])


def hbm_apply(state: CentroAffineState, f: ScalarField) -> ScalarField:
    """The Hilbert-Brunn-Minkowski operator at every node of the grid, the
    diagonal sum of conjugate_hessian_rows from one analysis of f."""
    grid = state.grid
    c = analyze(f)
    Q = conjugate_hessian_rows(conjugate_hessian_weights(state),
                               _antipodal_rows(grid, c, 1), _antipodal_rows(grid, c, 2))
    Lf = Q[:, packed_positions(state.n - 1).diagonal()].sum(axis=1)
    return ScalarField.from_values(grid, _unfold(grid, Lf))


# ----------------------------------------------------------------------
# the Ricci check


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
    of log h read from the body's jet on the grid: Psi = g - I - q q^t.
    Constant for every body; at n=2 both sides vanish identically.
    """
    g = state.bg.D2h_frame / state.bg.h[:, None, None]
    q = _grad_log_h(state.bg)  # from the body, not the state: a wrong state shows
    psi = g - np.eye(state.n - 1) - q[:, :, None] * q[:, None, :]
    ric = _conjugate_ricci(state.grad_log_h, psi)
    rel = (np.linalg.norm(ric - (state.n - 2) * g, axis=(1, 2))
           / np.linalg.norm(g, axis=(1, 2)))
    worst = int(np.argmax(rel))
    return {"max_relative_deviation": float(rel[worst]), "node": worst}
