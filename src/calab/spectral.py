"""Galerkin discretization and spectrum of the Hilbert-Brunn-Minkowski operator.

The operator is discretized in the grid's global harmonic basis; stiffness,
mass, and conjugate-Hessian forms are assembled against the primal volume
density h det(D^2 h).  Bodies are origin-symmetric, so the forms split into
an even and an odd diagonal block, each summed over the state's rows at the
pair nodes, in chunks of whole rings at n=2 and n=3 alike (_table_chunks).  The
generalized eigenproblem is dense symmetric definite, solved per block
by a Cholesky reduction to a standard one (numpy only).  The integrated
Bochner identity of a field is checked on the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from calab.bodies import BodyEvaluator, evaluate_on_grid, linear_image
from calab.calculus import (CentroAffineState, build_state, conjugate_hessian_rows,
                             conjugate_hessian_weights)
from calab.sphere import HarmonicBasis, SphereGrid, _parity_rows, packed_positions


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


@dataclass(frozen=True)
class GalerkinSystem:
    """The diagonal blocks of the stiffness and mass matrices, and the state
    whose rows the Hessian form (_hessian_form) is built from on the block
    a caller asks for.

    The forms are block-diagonal by parity, and only the blocks are held:
    the even basis columns, then the odd ones when there are any, each in
    degree order (blocks[i] lists their basis positions); the first even
    column is the constant (degree 0).  Block i reads the grid's parity-i
    rows."""

    basis: GalerkinBasis
    blocks: tuple[np.ndarray, ...]      # basis positions of each diagonal block
    stiffness: tuple[np.ndarray, ...]   # per block: Dirichlet form against nu
    mass: tuple[np.ndarray, ...]        # per block: L^2(nu) Gram matrix
    state: CentroAffineState = field(repr=False)


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


# most pair rows in a chunk of whole rings of the grid (one ring at least);
# chunks of 256 rows peak 4 MB higher on spectral_n3, no faster
CHUNK_ROWS = 128


def _table_chunks(grid: SphereGrid, band: int, parts, blocks, first: int = 0):
    """Yield (rows, views): a slice of the pair rows, in order, and per block
    in `blocks` the (values, gradients, Hessians) of basis_tables(band)[block]
    there from column `first` on, None for the parts not listed: chunks of
    whole rings from grid.ring_rows into reused buffers, and no table."""
    basis = HarmonicBasis(grid.n, band)
    n_ring, n_lon = (len(f[0]) for f in grid.product_factors)
    per = min(max(CHUNK_ROWS // n_lon, 1), n_ring)
    bufs = [[np.empty((per * n_lon, len(basis.parity_columns[b]) - first) + k)
             if i in parts else None for i, k in enumerate(basis.part_shapes)]
            for b in blocks]
    for k0 in range(0, n_ring, per):
        rows = slice(k0 * n_lon, min(k0 + per, n_ring) * n_lon)
        views = [tuple(None if T is None else T[:rows.stop - rows.start] for T in buf)
                 for buf in bufs]
        for b, out in zip(blocks, views):
            grid.ring_rows(basis, b, first, slice(k0, k0 + per), out)
        yield rows, views


def _reuse(buf, shape):
    """`shape` in buf's leading rows (chunks never grow), new if buf is None."""
    return np.empty(shape) if buf is None else buf[:shape[0]]


def _gram_sums(chunks):
    """X^t X per position, summed in order over the tuples of row chunks X
    (rows, ..., k) yielded, later products through one buffer each."""
    sums = work = None
    for Xs in chunks:
        Xs = [X.reshape(-1, X.shape[-1]) for X in Xs]
        if sums is None:
            sums = [X.T @ X for X in Xs]
            continue
        work = work or [np.empty_like(A) for A in sums]
        for A, X, W in zip(sums, Xs, work):
            A += np.matmul(X.T, X, out=W)
    return sums


def assemble(state: CentroAffineState, basis: GalerkinBasis) -> GalerkinSystem:
    """Stiffness and mass blocks of the operator; _hessian_form builds the
    Hessian form from the same rows.

    Each form is a Gram product X^t X over (node, frame component) rows.
    The tables hold the derivatives as components G_a, H_a in the grid's
    frames E, and the state's row roots K, with K^t K = g^{-1} in E, and
    p = K grad log h map them to the rows.  Against the density
    rho = w h det(D^2 h):
      stiffness  sum_i rho_i <K G_a, K G_b>,
      mass       sum_i rho_i a_i b_i,
      Hessian    sum_i rho_i <K Hess*_a K^t, K Hess*_b K^t>,
    where K Hess*_a K^t = K H_a K^t + p (x) t_a + t_a (x) p with
    t_a = K G_a and p = K grad log h, grad log h in E.

    The tables and the state cover the pair nodes.  Bodies are
    origin-symmetric, so every row of a basis function of parity pi at -u is
    pi times its row at u: the even-odd blocks vanish and each diagonal block
    is its sum over the pair nodes at the pair weights 2 w: Gram products
    of its parity's rows summed over _table_chunks.
    """
    if basis.grid is not state.grid:
        raise ValueError("basis and state must share a grid")
    grid, sq, nb = state.grid, state.sqrt_weights, basis.size
    Ksq = state.K * sq[:, None, None]
    blocks = [cols[cols < nb] for cols in grid.basis.parity_columns if cols[0] < nb]

    def rows(block):
        # one block at a time: its two sums stay in cache across the chunks
        X = Y = None
        for r, ((B, G, _),) in _table_chunks(grid, basis.degree_max, (0, 1), (block,)):
            X = np.matmul(Ksq[r], G.transpose(0, 2, 1),
                          out=_reuse(X, (len(G), grid.n - 1, G.shape[1])))
            Y = np.multiply(B, sq[r, None], out=_reuse(Y, B.shape))
            yield X, Y

    S, M = zip(*(_gram_sums(rows(block)) for block in range(len(blocks))))
    return GalerkinSystem(basis=basis, blocks=tuple(blocks), stiffness=S, mass=M,
                          state=state)


def _hessian_form(system: GalerkinSystem, block: int, first: int = 0) -> np.ndarray:
    """Hessian-form Gram product on the block's columns from `first` on,
    summed over _table_chunks: the rows are the packed components of the
    basis functions' conjugate Hessians (calculus.conjugate_hessian_rows,
    whose sqrt 2 weights make the Gram product the full Frobenius inner
    product) at weight 2 w nu."""
    state = system.state
    weights = conjugate_hessian_weights(state, state.sqrt_weights)

    def rows():
        Q = work = None
        for r, ((_, G, H),) in _table_chunks(state.grid, system.basis.degree_max, (1, 2),
                                             (block,), first):
            shape = (len(G), H.shape[-1], G.shape[1])
            Q, work = _reuse(Q, shape), _reuse(work, shape)
            yield (conjugate_hessian_rows([W[r] for W in weights], G, H, (Q, work)),)

    return _gram_sums(rows())[0]


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


def _block_eigh(system: GalerkinSystem, block: int, first: int, last: int):
    """Every eigenvalue (ascending) of the block's pencil (stiffness, mass),
    and the eigenvectors first..last in full basis coordinates with their
    relative residuals |S v - lambda M v| / |M v| on the block."""
    S, M = system.stiffness[block], system.mass[block]
    Li, C = _reduce_pencil(S, M)
    eigs, y = np.linalg.eigh(C)
    v = Li.T @ y[:, first:last + 1]
    Mv = M @ v
    resid = np.linalg.norm(S @ v - Mv * eigs[first:last + 1], axis=0)
    resid /= np.maximum(np.linalg.norm(Mv, axis=0), 1e-300)
    vecs = np.zeros((system.basis.size, v.shape[1]))
    vecs[system.blocks[block]] = v
    return eigs, vecs, resid


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

    lambda1_even = None
    if subspace == "all":
        eigs, vecs, resid = [], [], []
        for block, cols in enumerate(system.blocks):
            count = min(k, len(cols))
            e, v, r = _block_eigh(system, block, 0, count - 1)
            if block == 0 and len(e) > 1:
                lambda1_even = float(e[1])
            eigs.append(e[:count])
            vecs.append(v)
            resid.append(r)
        eigs, vecs = np.concatenate(eigs), np.concatenate(vecs, axis=1)
        order = np.argsort(eigs, kind="stable")[:k]
        eigs, vecs, resid = eigs[order], vecs[:, order], np.concatenate(resid)[order]
    elif subspace == "even-nonconstant":
        count = min(k, len(system.blocks[0]) - 1)
        eigs, vecs, resid = np.zeros(0), np.zeros((nb, 0)), np.zeros(0)
        if count > 0:
            e, vecs, resid = _block_eigh(system, 0, 1, count)
            eigs = e[1:count + 1]
            lambda1_even = float(eigs[0])
    else:
        raise ValueError(f"unknown subspace {subspace!r}")

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


def bochner_residual(state: CentroAffineState, coeffs) -> float:
    """Relative residual of the integrated identity
    int (Lf)^2 dnu = int ||Hess* f||^2 dnu + (n-2) int |grad f|^2 dnu
    for f with the grid-basis coefficients coeffs, whose count is the basis
    size of one band b; the band-b rows are read.

    The rows are those of the Galerkin forms: K grad f and
    conjugate_hessian_rows, whose diagonal sum is Lf.  Each term is a
    quadratic form Q, and the body is origin-symmetric, so
    Q(f) = Q(f_even) + Q(f_odd): the cross terms are odd and vanish against
    the even measure.  Each part is contracted with its parity's rows and
    summed over the pair nodes at the row weights 2 w nu (_table_chunks)."""
    grid, c = state.grid, np.asarray(coeffs, dtype=float)
    degrees, nb = grid.basis.degrees, c.size
    if (c.ndim != 1 or not 1 <= nb <= grid.basis.size
            or (nb < grid.basis.size and degrees[nb] == degrees[nb - 1])):
        raise ValueError(f"{c.shape} coefficients: their count must be the "
                         f"basis size of one band 0..{grid.band_limit}")
    sq = state.sqrt_weights
    weights = conjugate_hessian_weights(state, sq)
    diagonal = packed_positions(state.n - 1).diagonal()
    t1 = t2 = t3 = 0.0
    for r, views in _table_chunks(grid, int(degrees[nb - 1]), (1, 2), (0, 1)):
        grad = _parity_rows(grid, c, 1, views)
        Q = conjugate_hessian_rows([W[r] for W in weights], grad,
                                   _parity_rows(grid, c, 2, views))
        Lf = Q[:, diagonal].sum(axis=1)
        Kgrad = sq[r, None, None] * (grad @ np.swapaxes(state.K[r], -1, -2))
        t1 += float(np.sum(Lf**2))
        t2 += float(np.sum(Q**2))
        t3 += float(np.sum(Kgrad**2))
    t3 *= state.n - 2
    scale = max(abs(t1), abs(t2), abs(t3))
    if scale == 0.0:
        return 0.0
    return abs(t1 - t2 - t3) / scale


def hessian_gap_even(system: GalerkinSystem) -> float:
    """Minimum of the Hessian-form Rayleigh quotient over even non-constant
    functions: min v^t H v / v^t S v.  H and S annihilate the constant, so
    dropping its column leaves the quotient's range unchanged.  The Hessian
    form is built on those columns only."""
    stiffness = system.stiffness[0][1:, 1:]
    if not len(stiffness):
        raise ValueError("the even non-constant subspace is empty at degree_max "
                         f"{system.basis.degree_max}")
    try:
        _, C = _reduce_pencil(_hessian_form(system, 0, first=1), stiffness)
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
