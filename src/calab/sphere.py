"""Quadrature grids, parity-aware spectral bases, and tangential calculus on S^{n-1}.

Supports n = 2 (Fourier modes on the circle) and n = 3 (real spherical
harmonics on Gauss-Legendre x uniform-longitude product grids).  All grids are
antipodally symmetric so that even/odd splitting is exact.  Differentiation is
spectral; the tests check it against finite differences of the homogeneous
extension (tests/oracles.py).

Every even quantity lives on the pair nodes, one node of each antipodal pair.
With A(u) = -u, a full-grid field f is read there as the pair (f, f o A) with
coefficients c and pi c (pi the basis parities): (N/2, 2, n-1) gradients and
(N/2, 2, n-1, n-1) Hessians, components in grid.tangent_frames().  Ambient
n-vectors and n x n matrices come only from to_ambient, in the ambient outputs
(HarmonicBasis.eval_derivs, tangential_gradient, tangential_hessian), which no
command reads: they are kept for the benchmark tracer, which wraps them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# spectral tail fraction above which derivative fields carry tail_warning
TAIL_WARNING = 1e-8


def _legendre(ct: np.ndarray, st: np.ndarray, L: int) -> np.ndarray:
    """N P_l^m(cos theta) = Y_l^m(theta, 0), Condon-Shortley phase included,
    for 0 <= m <= l <= L as an (L+1, L+1, T) table that is zero for m > l.

    Column recurrence in l from the sectoral seed (Holmes & Featherstone,
    J. Geodesy 76, 2002); it never divides by sin theta.
    """
    P = np.zeros((L + 1, L + 1, len(ct)))
    P[0, 0] = 0.5 / np.sqrt(np.pi)
    for l in range(1, L + 1):
        m = np.arange(l)[:, None]
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
        P[l, :l] = a * ct * P[l - 1, :l]
        if l >= 2:
            b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            P[l, :l] -= a * b * P[l - 2, :l]
        P[l, l] = -np.sqrt((2 * l + 1) / (2 * l)) * st * P[l - 1, l - 1]
    return P


def _gauss_legendre(m: int):
    """Gauss-Legendre rule with m nodes on [-1, 1]: nodes ascending, and
    weights that sum to 2 and are exactly equal at x and -x.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the Legendre recurrence, polished by one Newton step
    on P_m; the weights are 2 / ((1 - x^2) P_m'(x)^2).  Exact to rounding
    for polynomials of degree <= 2m - 1."""
    k = np.arange(1.0, m)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))

    def legendre_and_derivative(x):
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, m * (p0 - x * p1) / (1.0 - x * x)

    p, dp = legendre_and_derivative(x)
    x = x - p / dp
    dp = legendre_and_derivative(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


def _ladder(P: np.ndarray):
    """(l, m) grids and the m-neighbours P^{m+1}, P^{m-1} of an (l, m, T)
    table; P^{-1} = -P^1, and columns past the table are zero."""
    l = np.arange(P.shape[0])[:, None, None]
    m = np.arange(P.shape[1])[None, :, None]
    up = np.zeros_like(P)
    up[:, :-1] = P[:, 1:]
    down = np.empty_like(P)
    down[:, 1:] = P[:, :-1]
    down[:, 0] = -P[:, 1]
    return l, m, up, down


def _dtheta(P: np.ndarray) -> np.ndarray:
    """theta-derivative of a Legendre table:
    2 d_theta P_l^m = sqrt((l-m)(l+m+1)) P_l^{m+1} - sqrt((l+m)(l-m+1)) P_l^{m-1}."""
    l, m, up, down = _ladder(P)
    a = np.sqrt(np.maximum((l - m) * (l + m + 1), 0))
    b = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))
    return 0.5 * (a * up - b * down)


def _over_sin(P: np.ndarray) -> np.ndarray:
    """m P_l^m / sin theta for bands 0..rows-2, from band l+1 of the table:
    -(1/2) sqrt((2l+1)/(2l+3)) [sqrt((l+m+1)(l+m+2)) P_{l+1}^{m+1}
                                + sqrt((l-m+1)(l-m+2)) P_{l+1}^{m-1}].
    Linear in the table, so it maps d_theta P to d_theta(m P / sin theta)."""
    l, m, up, down = _ladder(P[1:])
    a = np.sqrt((l + m + 1) * (l + m + 2))
    b = np.sqrt((l - m + 1) * (l - m + 2))
    return -0.5 * np.sqrt((2 * l + 1) / (2 * l + 3)) * (a * up + b * down)


class HarmonicBasis:
    """Real orthonormal basis of degree <= L on S^{n-1}.

    n=2: 1/sqrt(2 pi), cos(k t)/sqrt(pi), sin(k t)/sqrt(pi) for k = 1..L.
    n=3: real spherical harmonics Y_lm for l = 0..L.

    Basis functions are orthonormal under the round surface measure; the
    parity of a function is (-1)^degree under the antipodal map.
    """

    def __init__(self, n: int, L: int):
        if n not in (2, 3):
            raise ValueError(f"unsupported dimension n={n}")
        if L < 0:
            raise ValueError("band limit must be nonnegative")
        self.n = n
        self.L = L
        # value of the constant basis function, 1/sqrt(|S^{n-1}|)
        self.constant_value = (1.0 / np.sqrt(2.0 * np.pi) if n == 2
                               else 0.5 / np.sqrt(np.pi))
        if n == 2:
            degs = [0] + [k for k in range(1, L + 1) for _ in (0, 1)]
            self.degrees = np.array(degs, dtype=int)
        else:
            degs, modes = [], []
            for l in range(L + 1):
                degs.append(l)
                modes.append((l, 0, 0))
                for m in range(1, l + 1):
                    degs.extend([l, l])
                    modes.append((l, m, 0))  # cos-type: sqrt(2) Re Y_l^m
                    modes.append((l, m, 1))  # sin-type: sqrt(2) Im Y_l^m
            self.degrees = np.array(degs, dtype=int)
            self._modes = modes
        self.parity = np.where(self.degrees % 2 == 0, 1, -1)
        self.size = len(self.degrees)

    # ------------------------------------------------------------------
    def eval_derivs(self, points: np.ndarray, order: int = 2):
        """Basis values and tangential derivatives at unit vectors.

        Returns (values (P, nb), grads (P, nb, n), hessians (P, nb, n, n));
        grads are the gradients of the 0-homogeneous extensions (tangential),
        hessians are the covariant Hessians on the sphere expressed as ambient
        symmetric matrices annihilating the radial direction.  They are the
        frame components of frame_derivs mapped to ambient coordinates.
        """
        vals, grads, hess = self.frame_derivs(points, order)
        if grads is None:
            return vals, None, None
        frames = tangent_frames(points)
        grads = to_ambient(frames, grads, 1)
        if hess is not None:
            hess = to_ambient(frames, unpack_sym(hess), 2)
        return vals, grads, hess

    def frame_derivs(self, points: np.ndarray, order: int = 2):
        """Basis values and tangential derivatives as components in the
        per-point orthonormal tangent frames E = tangent_frames(points)
        (columns e_1..e_{n-1}).

        Returns (values (P, nb), grads (P, nb, n-1), hessians
        (P, nb, n(n-1)/2)).  grads holds <grad, e_r>; hessians holds the
        covariant-Hessian components e_r1^t Hess e_r2 for r1 <= r2, which is
        (tt, tp, pp) at n=3 with e_t, e_p the colatitude and longitude
        directions and the single tt component at n=2 with e_t the
        counterclockwise tangent.  Derivatives above `order` are None.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.n == 2:
            return self._eval_circle(pts, order)
        return self._eval_sphere(pts, order)

    # ------------------------------------------------------------------
    def _eval_circle(self, pts, order):
        t = np.arctan2(pts[:, 1], pts[:, 0])
        P = len(t)
        k = np.arange(1, self.L + 1)
        c, s = np.cos(k * t[:, None]), np.sin(k * t[:, None])
        inv_sqrtpi = 1.0 / np.sqrt(np.pi)

        def columns(const, cos_part, sin_part):
            # basis order: constant, then cos(k t), sin(k t) for k = 1..L
            pairs = np.stack([cos_part, sin_part], axis=2).reshape(P, -1)
            return np.concatenate([np.full((P, 1), const), pairs], axis=1)

        vals = columns(self.constant_value, inv_sqrtpi * c, inv_sqrtpi * s)
        if order == 0:
            return vals, None, None
        grads = columns(0.0, inv_sqrtpi * (-k * s), inv_sqrtpi * (k * c))[:, :, None]
        if order == 1:
            return vals, grads, None
        kk = -(k * k) * inv_sqrtpi
        hess = columns(0.0, kk * c, kk * s)[:, :, None]
        return vals, grads, hess

    def _eval_sphere(self, pts, order):
        """Separable evaluation: Y = N P_lm(cos theta) x {1, cos m phi, sin m phi}.

        cos theta = z and sin theta = |(x, y)| come straight from the point and
        no expression divides by sin theta, so the derivatives stay exact at
        the poles.  The colatitude factors are evaluated once per distinct z
        (L+2 of them on a product grid) and scattered back to the points.
        """
        L = self.L
        l, m, kind = np.array(self._modes).T
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))
        x, y, z = pts.T
        st = np.hypot(x, y)
        z_u, first, inv = np.unique(z, return_index=True, return_inverse=True)

        def columns(table):
            """(l, m, distinct z) table -> (points, basis) colatitude factors,
            made C-contiguous per distinct z before the row gather."""
            return np.ascontiguousarray((table[l, m] * scale[:, None]).T)[inv]

        # band L+1 feeds the ladder that yields m P_l^m / sin theta
        P = _legendre(z_u, st[first], L + (order > 0))

        # longitude factors: cos/sin m phi, formed once per m, and (1/m) d/dphi
        phi = np.arctan2(y, x)
        mphi = np.multiply.outer(phi, np.arange(L + 1))
        c, s = np.cos(mphi), np.sin(mphi)
        col = m + kind * (L + 1)
        lon = np.concatenate([c, s], axis=1)[:, col]

        vals = columns(P) * lon
        if order == 0:
            return vals, None, None
        lon_m = np.concatenate([-s, c], axis=1)[:, col]
        dP = _dtheta(P)
        # components d_theta Y and d_phi Y / sin theta in the frame
        grads = np.stack([columns(dP) * lon, columns(_over_sin(P)) * lon_m],
                         axis=-1)
        if order == 1:
            return vals, grads, None

        # covariant Hessian components (tt, tp, pp): tp is
        # d_theta(d_phi Y / sin theta) and pp follows from Delta Y = -l(l+1) Y
        hess = np.empty(vals.shape + (3,))
        hess[..., 0] = columns(_dtheta(dP)) * lon
        hess[..., 1] = columns(_over_sin(dP)) * lon_m
        hess[..., 2] = -(l * (l + 1)) * vals - hess[..., 0]
        return vals, grads, hess


@functools.cache
def packed_positions(q: int) -> np.ndarray:
    """(q, q) position of each entry of a symmetric matrix in its packed
    upper triangle (np.triu_indices(q) order), so packed[..., pos] unpacks.
    Read-only."""
    r, c = np.triu_indices(q)
    pos = np.empty((q, q), dtype=int)
    pos[r, c] = pos[c, r] = np.arange(len(r))
    pos.setflags(write=False)
    return pos


def unpack_sym(packed: np.ndarray) -> np.ndarray:
    """Symmetric matrices (..., q, q) from their packed upper triangles
    (..., q(q+1)/2) in np.triu_indices(q) order."""
    q = int(np.sqrt(2 * packed.shape[-1]))
    return packed[..., packed_positions(q)]


def to_ambient(E: np.ndarray, comps: np.ndarray, rank: int) -> np.ndarray:
    """Ambient form of components in the frames E (P, n, q): tangent vectors
    E v from comps (P, ..., q) at rank 1, symmetric matrices E M E^t from
    comps (P, ..., q, q) at rank 2.  The one place where frame components
    become ambient coordinates; only the public ambient outputs call it."""
    E = E.reshape(E.shape[:1] + (1,) * (comps.ndim - rank - 1) + E.shape[1:])
    if rank == 1:
        return (E @ comps[..., None])[..., 0]
    return E @ comps @ np.swapaxes(E, -1, -2)


def frame_eigvalsh(R: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., q) of symmetric frame matrices (..., q, q),
    read from the lower triangle as np.linalg.eigvalsh does.

    Closed form for q <= 2.  At q = 2 the eigenvalue of larger modulus is
    m + sign(m) hypot((a - c)/2, b) with m = (a + c)/2, and the other is
    (ac - b^2) divided by it, so neither cancels: both agree with eigvalsh to
    ~1e-16 of the larger modulus, for indefinite, negative-definite and
    near-singular matrices alike.  np.linalg.eigvalsh for q >= 3."""
    q = R.shape[-1]
    if q == 1:
        return R[..., 0].copy()
    if q > 2:
        return np.linalg.eigvalsh(R)
    a, b, c = R[..., 0, 0], R[..., 1, 0], R[..., 1, 1]
    m = 0.5 * (a + c)
    big = m + np.copysign(np.hypot(0.5 * (a - c), b), m)
    small = np.divide(a * c - b * b, big, out=np.zeros_like(big), where=big != 0)
    return np.stack([np.minimum(big, small), np.maximum(big, small)], axis=-1)


def frame_det(R: np.ndarray) -> np.ndarray:
    """Determinants (...) of symmetric frame matrices (..., q, q), read from
    the lower triangle as frame_eigvalsh does: closed form ac - b^2 for
    q <= 2, np.linalg.det for q >= 3."""
    q = R.shape[-1]
    if q == 1:
        return R[..., 0, 0].copy()
    if q > 2:
        return np.linalg.det(R)
    a, b, c = R[..., 0, 0], R[..., 1, 0], R[..., 1, 1]
    return a * c - b * b


def tangent_frames(points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames E (P, n, n-1) at unit points, the frames of
    HarmonicBasis.frame_derivs: the counterclockwise tangent (-y, x) at n=2,
    and at n=3 the colatitude and longitude directions (e_theta, e_phi),
    built from cos theta = z and sin theta = |(x, y)| so that they are
    defined at the exact poles too (with phi = 0 there)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n == 2:
        return np.stack([-pts[:, 1], pts[:, 0]], axis=-1)[:, :, None]
    if n != 3:
        raise ValueError(f"tangent frames are built for n=2 and n=3, not n={n}")
    x, y, z = pts.T
    phi = np.arctan2(y, x)
    cp, sp = np.cos(phi), np.sin(phi)
    e_th = np.stack([z * cp, z * sp, -np.hypot(x, y)], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return np.stack([e_th, e_ph], axis=-1)


# ----------------------------------------------------------------------
# grids

class SphereGrid:
    """Antipodally symmetric quadrature grid with attached spectral basis.

    The first half of the nodes, the pair nodes, holds exactly one node of
    each antipodal pair, and antipodal nodes carry equal weights.  The pair
    view (pair_nodes, pair_weights = 2 w, tangent_frames()) holds the rows
    of every even quantity."""

    def __init__(self, n, band_limit, nodes, weights, antipodal_index):
        half = len(weights) // 2
        if not (antipodal_index[:half] >= half).all():
            raise ValueError("the first half of the nodes must hold one node of "
                             "each antipodal pair")
        if not np.array_equal(weights[:half], weights[antipodal_index[:half]]):
            raise ValueError("antipodal nodes must carry equal weights")
        self.n = n
        self.band_limit = band_limit
        self.nodes = nodes
        self.weights = weights
        self.antipodal_index = antipodal_index
        self.basis = HarmonicBasis(n, band_limit)
        self.pair_weights = 2.0 * weights[:half]
        for arr in (self.nodes, self.weights, self.antipodal_index,
                    self.pair_weights):
            arr.setflags(write=False)
        self.pair_nodes = self.nodes[:half]
        self._tables = None
        self._frames = None

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def basis_tables(self, band: int | None = None):
        """(values, gradients, hessians) of the basis of degree <= band
        (default the grid's) at the pair nodes: (N/2, nb),
        (N/2, nb, n-1) and (N/2, nb, n(n-1)/2), the derivatives as components
        in tangent_frames() (see HarmonicBasis.frame_derivs).  The basis is
        in degree order and its column recurrences do not depend on the band,
        so these are views of the first nb columns of the cached tables,
        which are rebuilt at `band` only when they have fewer columns.

        At the antipode, in the same frame: B(-u) = pi B(u),
        G(-u) = -pi G(u), H(-u) = pi H(u)."""
        band = self.band_limit if band is None else band
        if not 0 <= band <= self.band_limit:
            raise ValueError(f"band {band} must be in 0..{self.band_limit}")
        nb = int(np.count_nonzero(self.basis.degrees <= band))
        if self._tables is None or self._tables[0].shape[1] < nb:
            self._tables = HarmonicBasis(self.n, band).frame_derivs(
                self.pair_nodes, order=2)
        return tuple(T[:, :nb] for T in self._tables)

    def tangent_frames(self) -> np.ndarray:
        """Orthonormal tangent frames E (N/2, n, n-1) at the pair nodes, the
        frames of the basis tables.  Cached, read-only."""
        if self._frames is None:
            self._frames = tangent_frames(self.pair_nodes)
            self._frames.setflags(write=False)
        return self._frames

    def pair_rows(self, values) -> np.ndarray:
        """The pair-node rows of a full-grid array that is even to 1e-12 of
        its largest entry (ValueError otherwise)."""
        v, half = np.asarray(values, dtype=float), len(self.pair_weights)
        anti = v[self.antipodal_index[:half]]
        if np.abs(v[:half] - anti).max() > 1e-12 * np.abs(v).max():
            raise ValueError("values must be even (antipodally symmetric)")
        return v[:half]


def build_grid(n: int, L: int, n_nodes: int | None = None) -> SphereGrid:
    """Construct a quadrature grid on S^{n-1}.

    n=2: uniform angular grid with N = max(4L+4, 64) nodes (n_nodes overrides
    the count, for callers that pin a specific resolution).
    n=3: Gauss-Legendre colatitudes (L+2) x uniform longitudes (2L+4).
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if L < 4 or L % 2 != 0:
        raise ValueError("band limit L must be even and >= 4")

    if n == 2:
        N = n_nodes if n_nodes is not None else max(4 * L + 4, 64)
        if N % 2 != 0 or N < 4 * L + 4:
            raise ValueError("node count must be even and >= 4L+4")
        t = 2.0 * np.pi * np.arange(N) / N
        nodes = np.stack([np.cos(t), np.sin(t)], axis=-1)
        weights = np.full(N, 2.0 * np.pi / N)
        anti = (np.arange(N) + N // 2) % N
        return SphereGrid(2, L, nodes, weights, anti)

    if n_nodes is not None:
        raise ValueError("n_nodes override is only supported for n=2")
    n_th = L + 2
    n_ph = 2 * L + 4
    u, wu = _gauss_legendre(n_th)  # ascending in u = cos(theta)
    phi = 2.0 * np.pi * np.arange(n_ph) / n_ph
    wphi = 2.0 * np.pi / n_ph
    st = np.sqrt(1.0 - u**2)
    # node index = k * n_ph + j
    x = (st[:, None] * np.cos(phi)[None, :]).ravel()
    y = (st[:, None] * np.sin(phi)[None, :]).ravel()
    z = np.repeat(u, n_ph)
    nodes = np.stack([x, y, z], axis=-1)
    weights = np.repeat(wu * wphi, n_ph)
    k = np.repeat(np.arange(n_th), n_ph)
    j = np.tile(np.arange(n_ph), n_th)
    anti = (n_th - 1 - k) * n_ph + (j + n_ph // 2) % n_ph
    return SphereGrid(3, L, nodes, weights, anti)


# ----------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class ScalarField:
    grid: SphereGrid
    values: np.ndarray

    @classmethod
    def from_values(cls, grid: SphereGrid, values) -> "ScalarField":
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.node_count,):
            raise ValueError("value array does not match grid")
        return cls(grid, v)


@dataclass(frozen=True)
class TangentField:
    grid: SphereGrid
    vectors: np.ndarray  # (N, n), orthogonal to the node directions
    tail_warning: bool = False


@dataclass(frozen=True)
class TangentTensorField:
    grid: SphereGrid
    tensors: np.ndarray  # (N, n, n), symmetric, annihilate the node directions
    tail_warning: bool = False


# ----------------------------------------------------------------------
# operations


def quad_values(grid: SphereGrid, values: np.ndarray) -> float:
    return float(grid.weights @ np.asarray(values))


def _antipodal_columns(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """(nb, 2): the coefficients c of f and pi c of f o A."""
    c = np.asarray(coeffs, dtype=float)
    return np.stack([c, grid.basis.parity * c], axis=1)


def _unfold(grid: SphereGrid, pairs: np.ndarray) -> np.ndarray:
    """Full-grid array from (N/2, 2, ...) rows: [:, 0] at the pair nodes,
    [:, 1] at their antipodes."""
    half = grid.node_count // 2
    out = np.empty((grid.node_count,) + pairs.shape[2:])
    out[:half] = pairs[:, 0]
    out[grid.antipodal_index[:half]] = pairs[:, 1]
    return out


def analyze(field: ScalarField) -> np.ndarray:
    """Spectral coefficients of the field in the grid basis (by quadrature).

    The quadrature runs on f - f(u_0) and the constant f(u_0) enters through
    its exact coefficient, so a constant field has no other coefficient and
    exactly zero derivatives (quadrature alone leaves ~1e-15 in every mode).
    Antipodal weights are equal, so even coefficients integrate the sum of f
    over each antipodal pair and odd ones its difference, on the half grid."""
    grid = field.grid
    B, _, _ = grid.basis_tables()
    v0, half = field.values[0], len(grid.pair_weights)
    f1 = field.values[:half] - v0
    f2 = field.values[grid.antipodal_index[:half]] - v0
    w = 0.5 * grid.pair_weights
    sums = B.T @ np.stack([w * (f1 + f2), w * (f1 - f2)], axis=1)
    c = np.where(grid.basis.parity > 0, sums[:, 0], sums[:, 1])
    c[0] += v0 / grid.basis.constant_value
    return c


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> ScalarField:
    B, _, _ = grid.basis_tables()
    return ScalarField.from_values(
        grid, _unfold(grid, B @ _antipodal_columns(grid, coeffs)))


def spectral_tail(field: ScalarField, coeffs: np.ndarray) -> float:
    """Fraction of quadratic energy not captured by the band-limited model;
    coeffs are the field's coefficients, analyze(field)."""
    resid = field.values - synthesize(field.grid, coeffs).values
    total = quad_values(field.grid, field.values**2)
    if total <= 0.0:
        return 0.0
    return max(quad_values(field.grid, resid**2) / total, 0.0)


def gradient_from_coeffs(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Frame gradients (N/2, 2, n-1) of f and f o A at the pair nodes, f
    with these coefficients.  grad f(-u) = -grad(f o A)(u)."""
    _, G, _ = grid.basis_tables()
    return _antipodal_columns(grid, coeffs).T @ G


def hessian_from_coeffs(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Frame covariant Hessians (N/2, 2, n-1, n-1) of f and f o A at the pair
    nodes.  Hess f(-u) = Hess(f o A)(u)."""
    _, _, H = grid.basis_tables()
    return unpack_sym(_antipodal_columns(grid, coeffs).T @ H)


def tangential_gradient(field: ScalarField) -> TangentField:
    """Gradient of the 0-homogeneous extension at the nodes (tangential)."""
    c = analyze(field)
    grid = field.grid
    grad = to_ambient(grid.tangent_frames(), gradient_from_coeffs(grid, c), 1)
    return TangentField(grid, _unfold(grid, grad * [[1.0], [-1.0]]),
                        tail_warning=spectral_tail(field, c) > TAIL_WARNING)


def tangential_hessian(field: ScalarField) -> TangentTensorField:
    """Covariant Hessian on the sphere (= tangential part of the ambient
    Hessian of the 0-homogeneous extension), as ambient matrices."""
    c = analyze(field)
    grid = field.grid
    hess = to_ambient(grid.tangent_frames(), hessian_from_coeffs(grid, c), 2)
    return TangentTensorField(grid, _unfold(grid, hess),
                              tail_warning=spectral_tail(field, c) > TAIL_WARNING)
