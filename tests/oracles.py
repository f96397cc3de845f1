"""Independent checks and identity residuals that the tests compare the
library against.

None of these feeds a command: they are finite-difference oracles of a
body's jet and on the sphere, closed-form derivatives of the adapted linear
functions, the duality map and its polarity isometry, integral identities of
the conjugate calculus, the operator-level Bochner identity and the
L^p-Minkowski functional that the solver minimizes.

Bodies, states and target measures hold one row per antipodal pair, at the
grid's pair nodes; `unfold` spreads such rows over every node where an
oracle works on the whole grid.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from calab import spectral
from calab.bodies import BodyEvaluator, BodyOnGrid, quantities
from calab.calculus import (CentroAffineState, conjugate_hessian_rows,
                             conjugate_hessian_weights)
from calab.minkowski import TargetMeasure
from calab.spectral import GalerkinSystem, solve_spectrum
from calab.sphere import (
    HarmonicBasis,
    ScalarField,
    SphereGrid,
    _antipodal_rows,
    _unfold,
    analyze,
    gradient_from_coeffs,
    hessian_from_coeffs,
    packed_positions,
    unpack_sym,
)

# |S^{n-1}|, the total round surface measure
SURFACE_MEASURE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


# ----------------------------------------------------------------------
# bodies


def fd_grad(body: BodyEvaluator, X, step: float = 1e-5) -> np.ndarray:
    """Richardson-extrapolated central differences of body.support at the
    points X, with the Euler identity <x, grad h> = h enforced exactly."""
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    n = pts.shape[1]

    def central(h):
        out = np.empty_like(pts)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            out[:, j] = (body.support(pts + e) - body.support(pts - e)) / (2 * h)
        return out

    grad = (4.0 * central(step / 2.0) - central(step)) / 3.0
    r2 = np.einsum("ij,ij->i", pts, pts)
    rad = np.einsum("ij,ij->i", grad, pts)
    corr = (body.support(pts) - rad) / r2
    return grad + corr[:, None] * pts


def fd_hess(body: BodyEvaluator, X, step: float = 1e-4) -> np.ndarray:
    """Central differences of the body's own gradient at the points X,
    symmetrized and projected on the tangent spaces (the Hessian of a
    1-homogeneous function annihilates the position)."""
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    n = pts.shape[1]
    H = np.empty((len(pts), n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        H[:, :, j] = (body.jet(pts + e, 1)[1] - body.jet(pts - e, 1)[1]) / (2 * step)
    H = 0.5 * (H + H.transpose(0, 2, 1))
    U = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    proj = np.eye(n)[None] - U[:, :, None] * U[:, None, :]
    return proj @ H @ proj


def jet_consistency_error(bg: BodyOnGrid, step: float) -> float:
    """Max deviation of bg.D2h_frame from central differences of the body's
    gradient (its boundary point) along the great circles cos(step) u +-
    sin(step) e_a through each pair node u, read on the frame vectors e_b,
    relative to max |D2h_frame|.  O(step^2) when the jet's D^2h is the
    derivative of its gradient."""
    u, E = bg.grid.pair_nodes, bg.grid.tangent_frames()
    steps = np.sin(step) * E.transpose(2, 0, 1)                  # (m, N/2, n)
    c = np.concatenate([np.cos(step) * u + steps, np.cos(step) * u - steps])
    x = bg.body.jet(c.reshape(-1, u.shape[1]), 1)[1].reshape(2, *steps.shape)
    fd = np.einsum("aik,ikb->iba", x[0] - x[1], E) / (2.0 * step)
    return float(np.abs(fd - bg.D2h_frame).max() / np.abs(bg.D2h_frame).max())


class ScaledHessian(BodyEvaluator):
    """A body whose jet reports factor * D^2h: a wrong D^2h for
    jet_consistency_error to see, or (factor > 1) a metric h D^2h scaled
    away from its support."""

    def __init__(self, base: BodyEvaluator, factor: float):
        super().__init__(base.n, "scaled_hessian")
        self.base, self.factor = base, factor

    def jet(self, X, order=2):
        out = self.base.jet(X, order)
        return out if order < 2 else (*out[:2], self.factor * out[2])


# ----------------------------------------------------------------------
# sphere


def unfold(grid: SphereGrid, rows: np.ndarray, parity: int = 1) -> np.ndarray:
    """Full-grid array (N, ...) of a quantity of parity +-1 under u -> -u
    (h and D^2h even, the boundary point x odd) from its rows at the pair
    nodes (N/2, ...)."""
    rows = np.asarray(rows, dtype=float)
    return _unfold(grid, np.stack([rows, parity * rows], axis=1))


def degree_order_tables(grid: SphereGrid, band: int | None = None):
    """The grid's (B, G, H) at `band` with the columns in degree order, the
    basis order: the parity views of SphereGrid.basis_tables put back in
    place (a copy)."""
    views = grid.basis_tables(band)
    nb = sum(view[0].shape[1] for view in views)
    out = [np.empty((len(T), nb) + T.shape[2:]) for T in views[0]]
    for view, cols in zip(views, grid.basis.parity_columns):
        for T, part in zip(out, view):
            T[:, cols[:part.shape[1]]] = part
    return tuple(out)


def laplace_beltrami(field: ScalarField) -> ScalarField:
    """Round-sphere Laplacian (trace of the covariant Hessian)."""
    H = hessian_from_coeffs(field.grid, analyze(field))
    return ScalarField.from_values(
        field.grid, _unfold(field.grid, np.trace(H, axis1=-2, axis2=-1)))


def fd_hbm_terms(body: BodyEvaluator, fn, points):
    """(L f, |grad f|_g^2, ||Hess* f||_g^2, nu) of the body's metric at unit
    points, from the finite-difference gradient and Hessian of fn and the
    body's ambient jet: g = D^2h/h on the tangent space, with
    g^+ = (g + u u^t)^{-1} - u u^t its inverse there,
    Hess* f = Hess f + l (x) df + df (x) l with l = x/h - u the ambient
    grad log h, and nu = h det D^2h."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h, x, D2h = body.jet(pts, 2)
    uu = pts[:, :, None] * pts[:, None, :]
    nu = h * np.linalg.det(D2h + uu)
    ginv = np.linalg.inv(D2h / h[:, None, None] + uu) - uu
    df = fd_gradient_on_sphere(fn, pts)
    l = x / h[:, None] - pts
    cross = l[:, :, None] * df[:, None, :]
    Hs = fd_hessian_on_sphere(fn, pts) + cross + cross.transpose(0, 2, 1)
    M = ginv @ Hs
    return (np.trace(M, axis1=1, axis2=2),
            np.einsum("ik,ikl,il->i", df, ginv, df),
            np.einsum("ikl,ilk->i", M, M), nu)


def fd_gradient_on_sphere(fn, points, step: float = 1e-5) -> np.ndarray:
    """Richardson-extrapolated central differences of fn's 0-homogeneous
    extension, projected tangentially.  fn maps (P, n) arrays to (P,) values."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    P, n = pts.shape

    def hom(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return fn(x / r)

    def grad(h):
        g = np.empty((P, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            g[:, j] = (hom(pts + e) - hom(pts - e)) / (2.0 * h)
        return g

    g = (4.0 * grad(step / 2.0) - grad(step)) / 3.0
    # project out any radial leakage
    rad = np.einsum("ij,ij->i", g, pts)
    return g - rad[:, None] * pts


def fd_hessian_on_sphere(fn, points, step: float = 1e-3) -> np.ndarray:
    """5-point-stencil ambient Hessian of the 0-homogeneous extension,
    restricted to the tangent space.  Oracle only; O(step^4) accurate."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    P, n = pts.shape

    def hom(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return fn(x / r)

    f0 = hom(pts)
    H = np.empty((P, n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = step
            if i == j:
                val = (
                    -hom(pts + 2 * ei)
                    + 16.0 * hom(pts + ei)
                    - 30.0 * f0
                    + 16.0 * hom(pts - ei)
                    - hom(pts - 2 * ei)
                ) / (12.0 * step**2)
            else:

                def cross(h):
                    a = h * ei / step
                    b = h * ej / step
                    return (
                        hom(pts + a + b)
                        - hom(pts + a - b)
                        - hom(pts - a + b)
                        + hom(pts - a - b)
                    ) / (4.0 * h**2)

                val = (4.0 * cross(step / 2.0) - cross(step)) / 3.0
            H[:, i, j] = val
            H[:, j, i] = val
    proj = np.eye(n)[None, :, :] - pts[:, :, None] * pts[:, None, :]
    return proj @ H @ proj


# ----------------------------------------------------------------------
# centro-affine calculus


def conjugate_hessian_packed(state: CentroAffineState, grad, hess, scale=1.0):
    """calculus.conjugate_hessian_rows on every pair row, times scale."""
    return conjugate_hessian_rows(conjugate_hessian_weights(state, scale), grad, hess)


def conjugate_hessian_frames(state: CentroAffineState, grad: np.ndarray,
                             hess: np.ndarray):
    """Hess* f as frame matrices (N/2, k, m, m), and L f (N/2, k), of k
    functions from their frame gradients (N/2, k, m) and frame Hessians
    (N/2, k, m, m): conjugate_hessian_packed's components
    unweighted, unpacked to K Hess* f K^t and mapped back through K^{-1}."""
    iu, ju = np.triu_indices(grad.shape[-1])
    Q = conjugate_hessian_packed(state, grad, hess[..., iu, ju])
    KHK = unpack_sym(np.swapaxes(Q, 1, 2) / np.where(iu == ju, 1.0, np.sqrt(2.0)))
    Kinv = np.linalg.inv(state.K)[:, None]
    return (Kinv @ KHK @ np.swapaxes(Kinv, -1, -2),
            np.trace(KHK, axis1=-2, axis2=-1))


def adapted_linear(state: CentroAffineState, xi: np.ndarray) -> ScalarField:
    """The first-eigenfunction family <theta, xi>/h, at every node."""
    grid = state.grid
    vals = (grid.nodes @ np.asarray(xi, dtype=float)) / unfold(grid, state.bg.h)
    return ScalarField.from_values(grid, vals)


def adapted_linear_derivs(state: CentroAffineState, xi: np.ndarray):
    """Values, frame gradient, and frame covariant Hessian of <theta,xi>/h in
    closed form at the pair nodes (the field is analytic but not
    band-limited, so spectral differentiation would inject representation
    error into identity checks).

    With f = <theta, xi>/h, e = E^t xi / h and l = grad log h:
    grad f = e - f l and Hess f = -(e (x) l + l (x) e) - f R/h + 2 f l (x) l."""
    h = state.bg.h
    f = (state.grid.pair_nodes @ np.asarray(xi, dtype=float)) / h
    e = (np.asarray(xi, dtype=float) @ state.grid.tangent_frames()) / h[:, None]
    glh = state.grad_log_h
    cross = e[:, :, None] * glh[:, None, :]
    fr = f[:, None, None]
    hess = (-(cross + cross.transpose(0, 2, 1))
            - fr * state.bg.D2h_frame / h[:, None, None]
            + 2.0 * fr * (glh[:, :, None] * glh[:, None, :]))
    return f, e - f[:, None] * glh, hess


def duality_map(bg: BodyOnGrid) -> np.ndarray:
    """Per node, the image direction x/|x| on S^{n-1} of the boundary point."""
    return bg.x / np.linalg.norm(bg.x, axis=1, keepdims=True)


def duality_roundtrip_error(bg: BodyOnGrid, polar_body: BodyEvaluator) -> float:
    """Applying the map for K then for the polar returns the start direction."""
    back = polar_body.jet(duality_map(bg), 1)[1]
    back /= np.linalg.norm(back, axis=1, keepdims=True)
    return float(np.abs(back - bg.grid.pair_nodes).max())


def duality_isometry_check(bgK: BodyOnGrid, bgKpolar: BodyOnGrid) -> dict:
    """Pull the polar metric back through the duality map and compare with
    g_K; compare the centro-affine surface-area masses.

    The polar metric is evaluated exactly through its evaluator at the mapped
    directions (band-limited/exact evaluation, not nearest-node lookup).
    """
    if bgK.grid is not bgKpolar.grid:
        raise ValueError("both bodies must live on the same grid")
    grid = bgK.grid
    polar_body = bgKpolar.body

    xs = bgK.x
    r = np.linalg.norm(xs, axis=1)
    dirs = xs / r[:, None]

    hp, _, Hp = polar_body.jet(dirs, 2)
    R = bgK.D2h_frame
    # differential of the map theta -> x/|x| on the frame vectors E: the
    # part of D2h E = E R tangent at x/|x|, over |x|; its radial part is
    # dropped by Hp, which annihilates x/|x|
    dM = grid.tangent_frames() @ R / r[:, None, None]
    gK_f = R / bgK.h[:, None, None]
    gP_f = dM.transpose(0, 2, 1) @ Hp @ dM / hp[:, None, None]
    num = np.linalg.norm(gP_f - gK_f, axis=(1, 2))
    den = np.linalg.norm(gK_f, axis=(1, 2))
    pull_err = float((num / den).max())

    qK = quantities(bgK)
    qP = quantities(bgKpolar)
    omega_gap = abs(qK.omega_n - qP.omega_n) / qK.omega_n
    return {"metric_pullback_error": pull_err, "omega_mass_gap": float(omega_gap)}


def integrated_divergence_residual(state: CentroAffineState, f: ScalarField) -> float:
    """Divergence-theorem consistency for the field grad_g f: the integral of
    g(grad f, grad(Lf)) + (n-2)|grad f|^2 + ||Hess* f||^2 against nu vanishes.
    Returns the residual relative to the largest term.  The terms are rows
    of the pair (f, f o A) at the pair nodes, both at the node weight w."""
    grid = state.grid
    w = 0.5 * grid.pair_weights * state.nu_density
    c = analyze(f)
    df = gradient_from_coeffs(grid, c)
    Q = conjugate_hessian_packed(state, df, _antipodal_rows(grid, c, 2))
    Lf = Q[:, packed_positions(state.n - 1).diagonal()].sum(axis=1)
    dLf = gradient_from_coeffs(grid, analyze(
        ScalarField.from_values(grid, _unfold(grid, Lf))))
    # g(a, b) = <K a, K b>, K^t K = g^{-1}
    Kt = np.swapaxes(state.K, -1, -2)
    t1 = float(w @ np.einsum("ijk,ijk->i", df @ Kt, dLf @ Kt))
    t2 = float((state.n - 2) * (w @ np.einsum("ijk,ijk->i", df @ Kt, df @ Kt)))
    t3 = float(w @ np.einsum("iqj,iqj->i", Q, Q))
    scale = max(abs(t1), abs(t2), abs(t3))
    if scale == 0.0:
        return 0.0
    return abs(t1 + t2 + t3) / scale


def pushforward_invariance_error(bgK: BodyOnGrid, bgTK: BodyOnGrid,
                                 T: np.ndarray, test_fn) -> float:
    """Unimodular invariance of the primal volume measure: integrating a test
    function against nu_{T(K)} equals integrating its pullback through
    theta -> T^{-t} theta / |T^{-t} theta| against nu_K.  The densities are
    even and the test function need not be: the integrals read it at both
    nodes of each pair."""
    Tinv_t = np.linalg.inv(np.asarray(T, dtype=float)).T
    grid = bgK.grid
    u = grid.pair_nodes
    lhs = 0.5 * grid.pair_weights @ ((test_fn(u) + test_fn(-u))
                                      * bgTK.h * bgTK.sk_density)
    mapped = u @ Tinv_t.T
    mapped /= np.linalg.norm(mapped, axis=1, keepdims=True)
    rhs = 0.5 * grid.pair_weights @ ((test_fn(mapped) + test_fn(-mapped))
                                      * bgK.h * bgK.sk_density)
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def state_diagnostics(state: CentroAffineState) -> list[dict]:
    """Machine-readable invariant report: {name, max error, node of max}."""
    n = state.n
    out = []
    # nu* = h^{-n}, the dual volume density
    detg = state.nu_density * state.bg.h ** (-float(n))
    detg_direct = state.bg.sk_density / state.bg.h ** (n - 1)
    err = np.abs(detg - detg_direct) / np.abs(detg_direct)
    i = int(np.argmax(err))
    out.append({"name": "measure_conjugacy", "max_error": float(err[i]), "node": i})

    g = state.bg.D2h_frame / state.bg.h[:, None, None]
    errs = []
    for k in range(n):
        xi = np.zeros(n)
        xi[k] = 1.0
        fv, grad, hess = adapted_linear_derivs(state, xi)
        Hs = conjugate_hessian_frames(state, grad[:, None], hess[:, None])[0][:, 0]
        errs.append(np.linalg.norm(Hs + fv[:, None, None] * g, axis=(1, 2)))
    e = np.max(errs, axis=0) / np.maximum(np.linalg.norm(g, axis=(1, 2)), 1e-300)
    i = int(np.argmax(e))
    out.append({"name": "adapted_linear_hessian", "max_error": float(e[i]), "node": i})
    return out


# ----------------------------------------------------------------------
# spectrum


def hessform(system: GalerkinSystem) -> tuple[np.ndarray, ...]:
    """Conjugate-Hessian form against nu on each of the system's diagonal
    blocks (spectral._hessian_form, read through the module so that a test
    can count its builds)."""
    return tuple(spectral._hessian_form(system, block)
                 for block in range(len(system.blocks)))


def lower_inverse_reference(L: np.ndarray) -> np.ndarray:
    """The out-of-place block recursion that spectral._lower_inverse runs in
    place: inverse of a lower-triangular L, leaves of at most 32 rows by
    np.linalg.inv, [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1},
    D^{-1}]] above them."""
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    Ai, Di = lower_inverse_reference(L[:h, :h]), lower_inverse_reference(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = Ai
    out[h:, h:] = Di
    out[h:, :h] = -Di @ (L[h:, :h] @ Ai)
    return out


def transient_peak(fn):
    """(fn(), the peak of tracemalloc's traced memory during the call above
    its value at the call's start, in bytes), tracing for the call if
    nothing traces yet."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def full_matrix(system: GalerkinSystem, blocks) -> np.ndarray:
    """The nb x nb matrix in basis order whose diagonal blocks are `blocks`
    (one per system block, as system.stiffness holds them), zero outside."""
    nb = system.basis.size
    A = np.zeros((nb, nb))
    for cols, block in zip(system.blocks, blocks):
        A[np.ix_(cols, cols)] = block
    return A


def take_gram_assembly(state: CentroAffineState, degree_max: int):
    """Reference stiffness and mass (nb x nb, basis order) from degree-order
    tables: at n=2 a direct HarmonicBasis(n, degree_max).frame_derivs at the
    pair nodes, at n=3 the product-grid tables (degree_order_tables), which
    are no pointwise evaluation.  Per parity block, the block's columns are
    copied out of the row matrix with np.take and Gram-multiplied, chunk by
    chunk of the grid's chunk_runs, the products summed in order; zero
    outside the blocks."""
    grid = state.grid
    basis = HarmonicBasis(grid.n, degree_max)
    B, G, _ = (degree_order_tables(grid, degree_max) if grid.n == 3
               else basis.frame_derivs(grid.pair_nodes, order=2))
    blocks = [cols for cols in basis.parity_columns if len(cols)]
    chunks = [rows for rows, _ in grid.chunk_runs(degree_max, (), 0)]

    def gram(X):
        nb = X.shape[-1]
        A = np.zeros((nb, nb))
        for rows in chunks:
            Xr = X[rows].reshape(-1, nb)
            for cols in blocks:
                Xc = np.take(Xr, cols, axis=1)
                A[np.ix_(cols, cols)] += Xc.T @ Xc
        return A

    sq = state.sqrt_weights
    return (gram((state.K * sq[:, None, None]) @ G.transpose(0, 2, 1)),
            gram(B * sq[:, None]))


def discrete_bochner_residual(system: GalerkinSystem, k: int = 10,
                              subspace: str = "even-nonconstant") -> float:
    """Operator-level identity on the eigen-solve subspace: for eigenvectors v,
    v^t (S M^{-1} S) v - v^t H v matches (n-2) v^t S v up to quadrature error."""
    if subspace == "even-nonconstant" and len(system.blocks[0]) < 2:
        raise ValueError("the even non-constant subspace is empty at degree_max "
                         f"{system.basis.degree_max}")
    n = system.basis.grid.n
    rep = solve_spectrum(system, k=min(k, system.basis.size - 1),
                         subspace=subspace)
    V = rep.eigenvectors
    S, M, H = (full_matrix(system, blocks) for blocks in
               (system.stiffness, system.mass, hessform(system)))
    SV = S @ V
    quad1 = np.einsum("ak,ak->k", SV, np.linalg.solve(M, SV))
    quad2 = np.einsum("ak,ak->k", V, H @ V)
    quad3 = np.einsum("ak,ak->k", V, SV)
    resid = np.abs(quad1 - quad2 - (n - 2) * quad3)
    scale = np.maximum(np.abs(quad1), 1e-300)
    return float((resid / scale).max())


def first_eigenspace_deficiency(state: CentroAffineState,
                                system: GalerkinSystem) -> float:
    """How far the computed lambda_1 eigenvectors are from the span of the
    adapted linear functions <theta, xi>/h (subspace angle)."""
    rep = solve_spectrum(system, subspace="all")
    lam1 = rep.lambda1
    tol = max(1e-6, 1e-3 * lam1)
    idx = np.flatnonzero(np.abs(rep.eigenvalues - lam1) <= tol)
    E = rep.eigenvectors[:, idx]

    n = state.n
    nb = system.basis.size
    lin = []
    for kk in range(n):
        xi = np.zeros(n)
        xi[kk] = 1.0
        lin.append(analyze(adapted_linear(state, xi))[:nb])
    Lmat = np.array(lin).T

    M = full_matrix(system, system.mass)
    # M-orthonormalize both subspaces, then compare by principal angles
    def morth(A):
        G = A.T @ M @ A
        w, V = np.linalg.eigh(G)
        return A @ V / np.sqrt(np.maximum(w, 1e-300))[None, :]

    Eo, Lo = morth(E), morth(Lmat)
    sv = np.linalg.svd(Eo.T @ M @ Lo, compute_uv=False)
    return float(abs(1.0 - sv.min()))


# ----------------------------------------------------------------------
# L^p-Minkowski


def functional(bg: BodyOnGrid, mu: TargetMeasure, p: float) -> float:
    """Scale-invariant target: (1/p) int h^p dmu / V^{p/n} for p != 0 and
    exp(int log h dmu~)/V^{1/n} at p = 0 (mu~ the normalized measure)."""
    if not (-bg.grid.n < p < 1):
        raise ValueError("p must lie in (-n, 1)")
    if bg.grid is not mu.grid:
        raise ValueError("body and measure must share a grid")
    w = bg.grid.pair_weights
    n = bg.grid.n
    V = float(w @ bg.vk_density)
    if p == 0:
        avg = float(w @ (mu.density * np.log(bg.h))) / float(w @ mu.density)
        return float(np.exp(avg) / V ** (1.0 / n))
    E = float(w @ (mu.density * bg.h**p)) / p
    return E / V ** (p / n)
