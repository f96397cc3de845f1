"""Galerkin discretization and spectrum of the Hilbert-Brunn-Minkowski operator.

The operator is discretized in the grid's global harmonic basis; stiffness,
mass, and conjugate-Hessian forms are assembled against the primal volume
density h det(D^2 h).  Bodies are origin-symmetric, so the forms split into
an even and an odd diagonal block, each summed over the state's rows at the
pair nodes; the generalized eigenproblem is dense symmetric definite, solved
per block by a Cholesky reduction to a standard one (numpy only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from calab.bodies import BodyEvaluator, evaluate_on_grid, linear_image
from calab.calculus import (
    CentroAffineState,
    _conjugate_derivs,
    _hbm_arrays,
    build_state,
    grad_norm_sq,
    hess_norm_sq,
)
from calab.sphere import ScalarField, SphereGrid


@dataclass(frozen=True)
class GalerkinBasis:
    """The grid basis functions of degree <= degree_max, the trial/test
    space: a prefix of the grid basis, which is in degree order."""

    grid: SphereGrid
    degree_max: int

    def __post_init__(self):
        if not 0 <= self.degree_max <= self.grid.band_limit:
            raise ValueError(f"degree_max must be in 0..{self.grid.band_limit}")

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.grid.basis.degrees <= self.degree_max))

    @property
    def degrees(self) -> np.ndarray:
        return self.grid.basis.degrees[:self.size]

    @property
    def parities(self) -> np.ndarray:
        return self.grid.basis.parity[:self.size]


@dataclass(frozen=True)
class _Rows:
    """The node rows the forms sum over: the pair nodes, each standing for
    its antipodal pair at the pair weight."""

    sq: np.ndarray      # sqrt of the row weight 2 w nu
    K: np.ndarray       # (N/2, n-1, n-1), sqrt(h) C^{-1}: K^t K = g^{-1} in E
    p: np.ndarray       # (N/2, n-1), K grad log h


@dataclass(frozen=True)
class GalerkinSystem:
    """Stiffness and mass matrices, and the rows that the Hessian form
    (_hessian_form) is built from on the blocks a caller asks for.

    Entries outside the diagonal blocks are zero.  The blocks are the even
    basis columns, then the odd ones when there are any; the first even
    column is the constant (degree 0)."""

    basis: GalerkinBasis
    blocks: tuple[np.ndarray, ...]   # basis positions of each diagonal block
    stiffness: np.ndarray   # Dirichlet form of the operator against nu
    mass: np.ndarray        # L^2(nu) Gram matrix
    _rows: _Rows = field(repr=False)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    multiplicities: list[tuple[float, int]]   # (cluster value, count)
    lambda1: float | None
    lambda1_even: float | None
    eigenvectors: np.ndarray                  # columns, basis coefficients
    residuals: np.ndarray
    subspace: str

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "multiplicities": [[float(v), int(m)] for v, m in self.multiplicities],
            "lambda1": None if self.lambda1 is None else float(self.lambda1),
            "lambda1_even": None if self.lambda1_even is None
            else float(self.lambda1_even),
            "max_residual": float(self.residuals.max()) if len(self.residuals)
            else 0.0,
            "subspace": self.subspace,
        }


# ----------------------------------------------------------------------
# assembly


def _gram(blocks, X: np.ndarray) -> np.ndarray:
    """X^t X for the rows X of shape (N/2, ..., nb): one Gram product per
    diagonal block, zero outside the blocks."""
    nb = X.shape[-1]
    X = X.reshape(-1, nb)
    A = np.zeros((nb, nb))
    for cols in blocks:
        Xc = np.take(X, cols, axis=1)
        A[np.ix_(cols, cols)] = Xc.T @ Xc
    return A


def _rows(state: CentroAffineState) -> _Rows:
    """The state's rows at the pair nodes, at weight 2 w nu."""
    C = np.linalg.cholesky(state.bg.D2h_frame)
    K = np.sqrt(state.bg.h)[:, None, None] * np.linalg.inv(C)
    p = np.einsum("iqr,ir->iq", K, state.grad_log_h)
    return _Rows(sq=np.sqrt(state.grid.pair_weights * state.nu_density), K=K, p=p)


def assemble(state: CentroAffineState, basis: GalerkinBasis) -> GalerkinSystem:
    """Stiffness and mass matrices of the operator; _hessian_form builds the
    Hessian form from the same rows.

    Each form is a Gram product X^t X over (node, frame component) rows.
    The tables hold the derivatives as components G_a, H_a in the grid's
    frames E, where D^2 h is R = D2h_frame; with the Cholesky factor
    R = C C^t and K = sqrt(h) C^{-1}, K^t K = h R^{-1} is g^{-1} in E.
    Against the density rho = w h det(D^2 h):
      stiffness  sum_i rho_i <K G_a, K G_b>,
      mass       sum_i rho_i a_i b_i,
      Hessian    sum_i rho_i <K Hess*_a K^t, K Hess*_b K^t>,
    where K Hess*_a K^t = K H_a K^t + p (x) t_a + t_a (x) p with
    t_a = K G_a and p = K grad log h, grad log h in E.

    The tables and the state cover the pair nodes.  Bodies are
    origin-symmetric, so every row of a basis function of parity pi at -u is
    pi times its row at u: the even-odd blocks vanish and each diagonal block
    is its sum over the pair nodes at the pair weights 2 w.
    """
    if basis.grid is not state.grid:
        raise ValueError("basis and state must share a grid")
    rows = _rows(state)
    blocks = tuple(c for c in (np.flatnonzero(basis.parities > 0),
                               np.flatnonzero(basis.parities < 0)) if len(c))
    B, G, _ = state.grid.basis_tables(basis.degree_max)
    S = _gram(blocks, (rows.K * rows.sq[:, None, None]) @ G.transpose(0, 2, 1))
    M = _gram(blocks, B * rows.sq[:, None])
    return GalerkinSystem(basis=basis, blocks=blocks, stiffness=S, mass=M,
                          _rows=rows)


def _hessian_form(system: GalerkinSystem, blocks) -> np.ndarray:
    """Hessian-form Gram product over the given diagonal blocks: the packed
    frame components q1 <= q2 (off-diagonal ones weighted sqrt 2, so the
    Gram product is the full Frobenius inner product) of the conjugate
    Hessians, as one product against the packed components r1 <= r2 of H
    and the components r of G."""
    basis, rows = system.basis, system._rows
    _, G, H = basis.grid.basis_tables(basis.degree_max)
    iu, ju = np.triu_indices(G.shape[2])
    off = np.where(iu == ju, 0.0, 1.0)
    K, p = rows.K, rows.p
    # (K Hmat K^t)[q1, q2] = sum over r1 <= r2 of H[r1 r2] times
    # K[q1, r1] K[q2, r2] + K[q1, r2] K[q2, r1] (one term when r1 = r2)
    WH = (K[:, iu][:, :, iu] * K[:, ju][:, :, ju]
          + off * K[:, iu][:, :, ju] * K[:, ju][:, :, iu])
    WG = p[:, iu, None] * K[:, ju, :] + K[:, iu, :] * p[:, ju, None]
    w = (rows.sq[:, None] * np.where(iu == ju, 1.0, np.sqrt(2.0)))[:, :, None]
    return _gram(blocks, (w * WH) @ H.transpose(0, 2, 1)
                 + (w * WG) @ G.transpose(0, 2, 1))


# ----------------------------------------------------------------------
# eigen solves


def _cluster(eigs: np.ndarray) -> list[tuple[float, int]]:
    """Group eigenvalues within max(1e-6, 1e-3 * value) of the cluster head."""
    out: list[tuple[float, int]] = []
    i = 0
    while i < len(eigs):
        head = eigs[i]
        tol = max(1e-6, 1e-3 * abs(head))
        j = i
        while j < len(eigs) and abs(eigs[j] - head) <= tol:
            j += 1
        out.append((float(np.mean(eigs[i:j])), j - i))
        i = j
    return out


def _zero_tol(eigs: np.ndarray) -> float:
    scale = max(abs(eigs[-1]), 1.0) if len(eigs) else 1.0
    return 1e-6 * scale


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L by 2x2 block recursion on GEMMs:
    [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]].
    np.linalg.inv would take a general LU of the whole matrix."""
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    Ai, Di = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = Ai
    out[h:, h:] = Di
    out[h:, :h] = -Di @ (L[h:, :h] @ Ai)
    return out


def _reduce_pencil(A: np.ndarray, B: np.ndarray):
    """L^{-1} and C = L^{-1} A L^{-t} for B = L L^t: the Cholesky reduction
    of the symmetric-definite pencil (A, B) that LAPACK's sygv drivers use
    (Golub & Van Loan, Matrix Computations, 8.7).  C has the pencil's
    eigenvalues, and an eigenvector y of C maps back to v = L^{-t} y, with
    v^t B v = I.  A B that is not positive definite raises
    np.linalg.LinAlgError from the Cholesky step."""
    Li = _lower_inverse(np.linalg.cholesky(B))
    return Li, Li @ A @ Li.T


def _block_eigh(system: GalerkinSystem, cols: np.ndarray, first: int, last: int):
    """Every eigenvalue (ascending) of (stiffness, mass) restricted to the
    columns cols, and the eigenvectors first..last in full basis
    coordinates."""
    ix = np.ix_(cols, cols)
    Li, C = _reduce_pencil(system.stiffness[ix], system.mass[ix])
    eigs, y = np.linalg.eigh(C)
    vecs = np.zeros((system.basis.size, last + 1 - first))
    vecs[cols] = Li.T @ y[:, first:last + 1]
    return eigs, vecs


def solve_spectrum(system: GalerkinSystem, k: int | None = None,
                   subspace: str = "all") -> SpectrumReport:
    """k smallest generalized eigenpairs of (stiffness, mass).

    subspace 'all' solves each diagonal block for its k smallest pairs and
    merges them; 'even-nonconstant' solves on the even functions and drops
    the constant, whose eigenvalue is an exact 0 (the stiffness annihilates
    it, and the other eigenvectors are mass-orthogonal to it).  lambda1_even
    is the even eigenvalue right after that 0.
    """
    nb = system.basis.size
    if k is None:
        k = nb
    if not 1 <= k <= nb:
        raise ValueError(f"k must be in 1..{nb}, the basis size")
    even = system.blocks[0]

    lambda1_even = None
    if subspace == "all":
        eigs, vecs = [], []
        for cols in system.blocks:
            count = min(k, len(cols))
            e, v = _block_eigh(system, cols, 0, count - 1)
            if cols is even and len(e) > 1:
                lambda1_even = float(e[1])
            eigs.append(e[:count])
            vecs.append(v)
        eigs, vecs = np.concatenate(eigs), np.concatenate(vecs, axis=1)
        order = np.argsort(eigs, kind="stable")[:k]
        eigs, vecs = eigs[order], vecs[:, order]
    elif subspace == "even-nonconstant":
        count = min(k, len(even) - 1)
        eigs, vecs = np.zeros(0), np.zeros((nb, 0))
        if count > 0:
            e, vecs = _block_eigh(system, even, 1, count)
            eigs = e[1:count + 1]
            lambda1_even = float(eigs[0])
    else:
        raise ValueError(f"unknown subspace {subspace!r}")

    S, M = system.stiffness, system.mass
    resid = np.linalg.norm(S @ vecs - M @ vecs * eigs[None, :], axis=0)
    resid /= np.maximum(np.linalg.norm(M @ vecs, axis=0), 1e-300)

    ztol = _zero_tol(eigs)
    nonzero = eigs[eigs > ztol]
    lambda1 = float(nonzero[0]) if len(nonzero) else None

    return SpectrumReport(
        eigenvalues=eigs,
        multiplicities=_cluster(eigs),
        lambda1=lambda1,
        lambda1_even=lambda1_even,
        eigenvectors=vecs,
        residuals=resid,
        subspace=subspace,
    )


def spectrum_of_body(body: BodyEvaluator, grid: SphereGrid,
                     degree_max: int | None = None, k: int | None = None,
                     subspace: str = "all") -> SpectrumReport:
    """One-call pipeline: grid evaluation, state, assembly, eigen solve."""
    Lb = grid.band_limit if degree_max is None else degree_max
    bg = evaluate_on_grid(body, grid)
    state = build_state(bg)
    basis = GalerkinBasis(grid, Lb)
    system = assemble(state, basis)
    return solve_spectrum(system, k=k, subspace=subspace)


# ----------------------------------------------------------------------
# identities and gaps


def bochner_residual(state: CentroAffineState, f: ScalarField) -> float:
    """Relative residual of the integrated identity
    int (Lf)^2 dnu = int ||Hess* f||^2 dnu + (n-2) int |grad f|^2 dnu,
    both halves of the pair (f, f o A) at the node weight w."""
    w = 0.5 * state.grid.pair_weights * state.nu_density
    _, df, Hs = _conjugate_derivs(state, f)
    t1 = float(w @ (_hbm_arrays(state, Hs) ** 2).sum(axis=1))
    t2 = float(w @ hess_norm_sq(state, Hs).sum(axis=1))
    t3 = float((state.n - 2) * (w @ grad_norm_sq(state, df).sum(axis=1)))
    scale = max(abs(t1), abs(t2), abs(t3))
    if scale == 0.0:
        return 0.0
    return abs(t1 - t2 - t3) / scale


def hessian_gap_even(system: GalerkinSystem) -> float:
    """Minimum of the Hessian-form Rayleigh quotient over even non-constant
    functions: min v^t H v / v^t S v.  H and S annihilate the constant, so
    dropping its column leaves the quotient's range unchanged.  The Hessian
    form is built on those columns only."""
    cols = system.blocks[0][1:]
    if not len(cols):
        raise ValueError("the even non-constant subspace is empty at degree_max "
                         f"{system.basis.degree_max}")
    ix = np.ix_(cols, cols)
    hess = _hessian_form(system, (cols,))[ix]
    try:
        _, C = _reduce_pencil(hess, system.stiffness[ix])
    except np.linalg.LinAlgError:
        raise ValueError("stiffness is singular on the even non-constant "
                         "subspace") from None
    return float(np.linalg.eigvalsh(C)[0])


def invariance_check(bodyK: BodyEvaluator, T: np.ndarray, grid: SphereGrid,
                     degree_max: int | None = None, count: int = 10) -> dict:
    """Spectra of K and T(K) computed independently and compared (sorted)."""
    repK = spectrum_of_body(bodyK, grid, degree_max, k=count)
    repT = spectrum_of_body(linear_image(bodyK, T), grid, degree_max, k=count)
    a, b = repK.eigenvalues[:count], repT.eigenvalues[:count]
    gaps = np.abs(a - b) / np.maximum(np.abs(a), 1.0)
    return {
        "eigenvalues_K": [float(v) for v in a],
        "eigenvalues_TK": [float(v) for v in b],
        "relative_gaps": [float(v) for v in gaps],
        "max_gap": float(gaps.max()),
    }
