"""Galerkin discretization and spectrum of the Hilbert-Brunn-Minkowski operator.

The operator is discretized in the grid's global harmonic basis; stiffness,
mass, and conjugate-Hessian forms are assembled against the primal volume
density h det(D^2 h).  Bodies are origin-symmetric, so the forms split into
an even and an odd diagonal block, each summed over the state's rows at the
pair nodes, in the grid's chunks of whole rings (SphereGrid.row_chunks).  A
body that states sign_symmetric splits further, into one block per parity
and sign sector, each summed over the flip-orbit representatives alone.
The generalized eigenproblem is dense symmetric definite, solved per block
by a Cholesky reduction to a standard one (numpy only), for its eigenvalues
alone, and the blocks' spectra are merged; a report forms the eigenvectors
of its selected pairs when they are first read.  compute_spectrum is that
whole chain on a body sampled on its grid.  The integrated Bochner identity
of a field is checked on the same rows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from calab.bodies import BodyEvaluator, BodyOnGrid, evaluate_on_grid, linear_image
from calab.calculus import (CentroAffineState, build_state, conjugate_hessian_rows,
                             conjugate_hessian_weights)
from calab.sphere import SphereGrid, _parity_rows, packed_positions


class _Immutable:
    """A record whose fields __init__ puts in the instance __dict__, where
    functools.cached_property also stores; setting or deleting an attribute
    raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GalerkinBasis(_Immutable):
    """The grid basis functions of degree <= degree_max, the trial/test
    space: a prefix of the grid basis, which is in degree order."""

    def __init__(self, grid: SphereGrid, degree_max: int):
        if not 0 <= degree_max <= grid.band_limit:
            raise ValueError(f"degree_max must be in 0..{grid.band_limit}")
        vars(self).update(grid=grid, degree_max=degree_max)

    def __repr__(self) -> str:
        return f"GalerkinBasis(grid={self.grid!r}, degree_max={self.degree_max!r})"

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.grid.basis.degrees <= self.degree_max))

    @property
    def degrees(self) -> np.ndarray:
        return self.grid.basis.degrees[:self.size]


class GalerkinSystem(NamedTuple):
    """The diagonal blocks of the stiffness and mass matrices, and the state
    whose rows the Hessian form (_hessian_form) is built from on the block
    a caller asks for.

    The forms commute with the body's sign group, and only their diagonal
    blocks are held (blocks[i] lists their basis positions, in degree
    order), the even blocks first; the first even column is the constant
    (degree 0).  A body that states sign_symmetric has one block per
    (parity, sign sector) that is not empty, HarmonicBasis.blocks(True),
    read on the grid's flip-orbit rows; any other body one per parity,
    read on every pair row.  ids[i] is block i's index in
    HarmonicBasis.blocks(fold), the block that row_chunks streams, and
    parities[i] its parity (1 or -1)."""

    basis: GalerkinBasis
    blocks: tuple[np.ndarray, ...]      # basis positions of each diagonal block
    parities: tuple[int, ...]           # per block: 1 even, -1 odd
    ids: tuple[int, ...]                # per block: its row_chunks block
    stiffness: tuple[np.ndarray, ...]   # per block: Dirichlet form against nu
    mass: tuple[np.ndarray, ...]        # per block: L^2(nu) Gram matrix
    state: CentroAffineState

    def __repr__(self) -> str:
        # the state, the body's rows on the grid, is left out
        return "GalerkinSystem({})".format(", ".join(
            f"{k}={v!r}" for k, v in zip(self._fields[:-1], self[:-1])))

    @property
    def fold(self) -> bool:
        """The blocks are sign sectors, summed over the flip-orbit rows."""
        return bool(self.state.bg.body.sign_symmetric)


class SpectrumReport(_Immutable):
    """The spectrum solve_spectrum took: the eigenvalues, solved with the
    report; their clusters, formed on first read and kept; and the
    eigenvectors and their residuals, formed from the system's blocks on
    first read (one Cholesky reduction and eigh per block that holds a
    selected pair) and kept."""

    def __init__(self, eigenvalues: np.ndarray, lambda1: float | None,
                 lambda1_even: float | None, subspace: str,
                 _system: GalerkinSystem, _selected: tuple):
        # _selected, per block that holds a selected pair: (block, the pairs'
        # positions in eigenvalues, their indices in the block's ascending
        # spectrum)
        vars(self).update(eigenvalues=eigenvalues, lambda1=lambda1,
                          lambda1_even=lambda1_even, subspace=subspace,
                          _system=_system, _selected=_selected)

    def __repr__(self) -> str:
        return (f"SpectrumReport(eigenvalues={self.eigenvalues!r}, "
                f"lambda1={self.lambda1!r}, lambda1_even={self.lambda1_even!r}, "
                f"subspace={self.subspace!r})")

    @functools.cached_property
    def multiplicities(self) -> list[tuple[float, int]]:
        """(cluster value, count) of each eigenvalue cluster (_cluster)."""
        return _cluster(self.eigenvalues)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        """Columns, basis coefficients: the mass-orthonormal eigenvector of
        each eigenvalue (_block_eigenvectors), zero off its block."""
        system = self._system
        vecs = np.zeros((system.basis.size, len(self.eigenvalues)))
        for block, cols, index in self._selected:
            vecs[np.ix_(system.blocks[block], cols)] = _block_eigenvectors(
                system, block, index)
        return vecs

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """|S v - lambda M v| / |M v| for each eigenvalue lambda and its
        eigenvector v, on v's block."""
        system, vecs = self._system, self.eigenvectors
        out = np.zeros(len(self.eigenvalues))
        for block, cols, _ in self._selected:
            v = vecs[np.ix_(system.blocks[block], cols)]
            Mv = system.mass[block] @ v
            r = np.linalg.norm(system.stiffness[block] @ v - Mv * self.eigenvalues[cols],
                               axis=0)
            out[cols] = r / np.maximum(np.linalg.norm(Mv, axis=0), 1e-300)
        return out

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


def _reuse(buf, shape):
    """`shape` in buf's leading rows (chunks never grow), new if buf is None."""
    return np.empty(shape) if buf is None else buf[:shape[0]]


def _gram_sums(chunks):
    """X^t X per position, summed in order over the tuples of row chunks X
    (rows, ..., k) yielded, each of the same k; later products through one
    buffer that every position shares."""
    sums = work = None
    for Xs in chunks:
        Xs = [X.reshape(-1, X.shape[-1]) for X in Xs]
        if sums is None:
            sums = [X.T @ X for X in Xs]
            continue
        work = np.empty_like(sums[0]) if work is None else work
        for A, X in zip(sums, Xs):
            A += np.matmul(X.T, X, out=work)
    return sums


def _streamed_rows(state: CentroAffineState, fold: bool):
    """The pair rows that row_chunks(fold=fold) streams, every one or the
    flip-orbit representatives, and per pair row the square root of its
    weight 2 w nu, times that of its orbit's size on the representatives."""
    if not fold:
        return slice(None), state.sqrt_weights
    first, sizes = state.grid.flip_orbits()[:2]
    sq = state.sqrt_weights.copy()
    sq[first] *= np.sqrt(sizes)
    return first, sq


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
    pi times its row at u: the even-odd blocks vanish and each parity block
    is its sum over the pair nodes at the pair weights 2 w.  A body that
    states sign_symmetric is invariant under every coordinate flip S too,
    and a basis function of sign sector chi has f(Su) = chi(S) f(u)
    (HarmonicBasis.sectors): the forms vanish between sectors, and within
    one the integrand is flip-invariant, so each (parity, sector) block is
    its sum over the flip-orbit representatives, each weighted by its
    orbit's size (SphereGrid.flip_orbits): at n=3 a quarter of the rows and
    an eighth of the columns per block.  Either way one Gram product of
    the block's rows per chunk of the grid's row_chunks, summed in order;
    a body of the trivial sector group reads every row, bit for bit the
    parity blocks.
    """
    if basis.grid is not state.grid:
        raise ValueError("basis and state must share a grid")
    grid, nb = state.grid, basis.size
    fold = bool(state.bg.body.sign_symmetric)
    at, sq = _streamed_rows(state, fold)
    Ksq, sq = (state.K * sq[:, None, None])[at], sq[at]
    ids = [i for i, cols in enumerate(grid.basis.blocks(fold)) if cols[0] < nb]
    blocks = [cols[cols < nb] for cols in (grid.basis.blocks(fold)[i] for i in ids)]

    def rows(block):
        # one block at a time: its two sums stay in cache across the chunks
        X = Y = None
        for r, ((B, G, _),) in grid.row_chunks(basis.degree_max, (0, 1), (block,),
                                               fold=fold):
            X = np.matmul(Ksq[r], G.transpose(0, 2, 1),
                          out=_reuse(X, (len(G), grid.n - 1, G.shape[1])))
            Y = np.multiply(B, sq[r, None], out=_reuse(Y, B.shape))
            yield X, Y

    S, M = zip(*(_gram_sums(rows(block)) for block in ids))
    return GalerkinSystem(basis=basis, blocks=tuple(blocks),
                          parities=tuple(int(grid.basis.parity[c[0]]) for c in blocks),
                          ids=tuple(ids), stiffness=S, mass=M, state=state)


def _hessian_form(system: GalerkinSystem, block: int, first: int = 0) -> np.ndarray:
    """Hessian-form Gram product on the block's columns from `first` on,
    summed over the grid's row_chunks: the rows are the packed components of
    the basis functions' conjugate Hessians (calculus.conjugate_hessian_rows,
    whose sqrt 2 weights make the Gram product the full Frobenius inner
    product) at weight 2 w nu, on the rows and with the orbit sizes that
    assemble read.

    Each Gram product reads a whole chunk's rows, but they are built from
    gradient and Hessian rows a ring at a time (SphereGrid.chunk_runs), the
    gradient term written over the Hessian rows once they are read, so
    that the stream holds no more than assemble's."""
    state, fold = system.state, system.fold
    at, sq = _streamed_rows(state, fold)
    weights = [W[at] for W in conjugate_hessian_weights(state, sq)]
    q, k = weights[0].shape[-1], len(system.blocks[block]) - first

    def rows():
        Q = None
        for r, runs in state.grid.chunk_runs(system.basis.degree_max, (1, 2),
                                             (system.ids[block],), first, fold):
            Q = _reuse(Q, (r.stop - r.start, q, k))
            for sub, ((_, G, H),) in runs:
                conjugate_hessian_rows([W[sub] for W in weights], G, H,
                                       (Q[sub.start - r.start:sub.stop - r.start],
                                        H.reshape(len(H), q, k)))
            yield (Q,)

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
    """Inverse of a lower-triangular L, whose upper triangle is zero,
    written over L and returned, by 2x2 block recursion on GEMMs:
    [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]].
    np.linalg.inv would take a general LU of the whole matrix.  The
    products are those of an out-of-place recursion, so are the bits; the
    sign is taken after D^{-1} (C A^{-1}), which negates exactly."""
    n = len(L)
    if n <= 32:
        L[...] = np.linalg.inv(L)
        return L
    h = n // 2
    Ai, Di = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    C = L[h:, :h]
    C[...] = Di @ (C @ Ai)
    np.negative(C, out=C)
    return L


def _reduce_pencil(A: np.ndarray, B: np.ndarray):
    """L^{-1} and C = L^{-1} A L^{-t} for B = L L^t: the Cholesky reduction
    of the symmetric-definite pencil (A, B) that LAPACK's sygv drivers use
    (Golub & Van Loan, Matrix Computations, 8.7).  C has the pencil's
    eigenvalues, and an eigenvector y of C maps back to v = L^{-t} y, with
    v^t B v = I.  A B that is not positive definite raises
    np.linalg.LinAlgError from the Cholesky step.  Holds at most three
    matrices of B's size besides A and B: L^{-1}, L^{-1} A and C."""
    Li = _lower_inverse(np.linalg.cholesky(B))
    return Li, Li @ A @ Li.T


def _block_eigvalsh(system: GalerkinSystem, block: int) -> np.ndarray:
    """Every eigenvalue (ascending) of the block's pencil (stiffness, mass);
    L^{-1} is dropped before the eigensolve."""
    C = _reduce_pencil(system.stiffness[block], system.mass[block])[1]
    return np.linalg.eigvalsh(C)


def _block_eigenvectors(system: GalerkinSystem, block: int, index) -> np.ndarray:
    """The eigenvectors of the block's pencil at the given indices of its
    ascending spectrum, in the block's coordinates, mass-orthonormal."""
    Li, C = _reduce_pencil(system.stiffness[block], system.mass[block])
    return Li.T @ np.linalg.eigh(C)[1][:, index]


def _even_nonconstant(system: GalerkinSystem):
    """(block, first) of each even block that holds a non-constant column:
    block 0 from column 1 on, past the constant, the others whole."""
    return [(block, int(block == 0)) for block, parity in enumerate(system.parities)
            if parity > 0 and len(system.blocks[block]) > (block == 0)]


def _merged_eigvalsh(system: GalerkinSystem, blocks, k: int):
    """The k smallest eigenvalues over the given blocks, each a (block,
    first) pair whose spectrum counts from its eigenvalue `first` on, merged
    in ascending order (stably, so by block on ties); the pairs they select,
    as SpectrumReport._selected; and every block's eigenvalues."""
    every = [_block_eigvalsh(system, block) for block, _ in blocks]
    eigs, owner, index = [], [], []
    for (block, first), e in zip(blocks, every):
        count = min(k, len(e) - first)
        eigs.append(e[first:first + count])
        owner.append(np.full(count, block))
        index.append(np.arange(first, first + count))
    order = np.argsort(np.concatenate(eigs), kind="stable")[:k]
    owner, index = np.concatenate(owner)[order], np.concatenate(index)[order]
    selected = []
    for block, _ in blocks:
        cols = np.flatnonzero(owner == block)
        if cols.size:
            selected.append((block, cols, index[cols]))
    return np.concatenate(eigs)[order], tuple(selected), every


def solve_spectrum(system: GalerkinSystem, k: int | None = None,
                   subspace: str = "all") -> SpectrumReport:
    """k smallest generalized eigenvalues of (stiffness, mass), and their
    eigenvectors on first read (SpectrumReport).

    subspace 'all' solves each diagonal block for its eigenvalues only and
    merges the k smallest; 'even-nonconstant' solves the even blocks alike,
    and drops the constant, whose eigenvalue is an exact 0 (the stiffness
    annihilates it, and the other eigenvectors are mass-orthogonal to it),
    from block 0.  lambda1_even is the least even eigenvalue after that 0,
    over every even block: one parity block, or the even sign sectors of a
    sign_symmetric body, which the merge makes one spectrum.
    """
    nb = system.basis.size
    if k is None:
        k = nb
    if not 1 <= k <= nb:
        raise ValueError(f"k must be in 1..{nb}, the basis size")

    even = _even_nonconstant(system)
    lambda1_even = None
    if subspace == "all":
        eigs, selected, every = _merged_eigvalsh(
            system, [(block, 0) for block in range(len(system.blocks))], k)
        if even:
            lambda1_even = float(min(every[block][first] for block, first in even))
    elif subspace == "even-nonconstant":
        eigs, selected = np.zeros(0), ()
        if even:
            eigs, selected, _ = _merged_eigvalsh(system, even, k)
            lambda1_even = float(eigs[0])
    else:
        raise ValueError(f"unknown subspace {subspace!r}")

    ztol = _zero_tol(eigs)
    nonzero = eigs[eigs > ztol]
    lambda1 = float(nonzero[0]) if len(nonzero) else None

    return SpectrumReport(
        eigenvalues=eigs,
        lambda1=lambda1,
        lambda1_even=lambda1_even,
        subspace=subspace,
        _system=system,
        _selected=selected,
    )


def compute_spectrum(bg: BodyOnGrid, band: int | None = None, k: int | None = None,
                     subspace: str = "all") -> tuple[SpectrumReport, GalerkinSystem]:
    """The spectrum pipeline: the state of the body on its grid, the forms
    on the basis of degree <= band (the grid's L by default), and the k
    smallest eigenpairs on the subspace (solve_spectrum).  The system is
    returned too, for the Hessian gap (hessian_gap_even)."""
    grid = bg.grid
    basis = GalerkinBasis(grid, grid.band_limit if band is None else band)
    system = assemble(build_state(bg), basis)
    return solve_spectrum(system, k=k, subspace=subspace), system


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
    summed over the pair nodes at the row weights 2 w nu, in row_chunks."""
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
    for r, views in grid.row_chunks(int(degrees[nb - 1]), (1, 2), (0, 1)):
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
    dropping its column leaves the quotient's range unchanged.  H and S are
    block-diagonal as the system is, so the minimum is taken over the even
    blocks, block 0 without its constant column, each Hessian form built on
    those columns only."""
    gaps = []
    for block, first in _even_nonconstant(system):
        H = _hessian_form(system, block, first)
        try:
            Li = _lower_inverse(np.linalg.cholesky(system.stiffness[block][first:, first:]))
        except np.linalg.LinAlgError:
            raise ValueError("stiffness is singular on the even non-constant "
                             "subspace") from None
        # _reduce_pencil's products, H dropped once L^{-1} H exists and
        # L^{-1} before the eigensolve: three matrices of H's size at most
        C = Li @ H
        del H
        C = C @ Li.T
        del Li
        gaps.append(np.linalg.eigvalsh(C)[0])
    if not gaps:
        raise ValueError("the even non-constant subspace is empty at degree_max "
                         f"{system.basis.degree_max}")
    return float(min(gaps))


def invariance_check(bodyK: BodyEvaluator, T: np.ndarray, grid: SphereGrid,
                     degree_max: int | None = None, count: int = 10) -> dict:
    """Spectra of K and T(K) computed independently and compared (sorted)."""
    repK, _ = compute_spectrum(evaluate_on_grid(bodyK, grid), degree_max, k=count)
    repT, _ = compute_spectrum(evaluate_on_grid(linear_image(bodyK, T), grid),
                               degree_max, k=count)
    a, b = repK.eigenvalues[:count], repT.eigenvalues[:count]
    gaps = np.abs(a - b) / np.maximum(np.abs(a), 1.0)
    return {
        "eigenvalues_K": [float(v) for v in a],
        "eigenvalues_TK": [float(v) for v in b],
        "relative_gaps": [float(v) for v in gaps],
        "max_gap": float(gaps.max()),
    }
