"""Quadrature grids, parity-aware spectral bases, and tangential calculus on S^{n-1}.

Supports n = 2 (Fourier modes on the circle) and n = 3 (real spherical
harmonics).  Every grid is a product grid, its basis rows ring factors times
longitude factors: uniform angles, each a ring of one longitude, at n=2, and
Gauss-Legendre colatitudes x uniform longitudes at n=3.  All grids are
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
    """(d_theta P, m P / sin theta) of an (l, m, T) Legendre table from its
    m-neighbours P^{m+1}, P^{m-1} (P^{-1} = -P^1, zero past the table):
    2 d_theta P_l^m = a P_l^{m+1} - b P_l^{m-1} and, for bands 0..rows-2,
    m P_l^m / sin theta = -(1/2) sqrt((2l+1)/(2l+3)) (c P_{l+1}^{m+1} + d P_{l+1}^{m-1}).
    Linear: on d_theta P they give d_theta of each."""
    l = np.arange(P.shape[0])[:, None, None]
    m = np.arange(P.shape[1])[None, :, None]
    up = np.zeros_like(P)
    up[:, :-1] = P[:, 1:]
    down = np.empty_like(P)
    down[:, 1:] = P[:, :-1]
    down[:, 0] = -P[:, 1]
    a = np.sqrt(np.maximum((l - m) * (l + m + 1), 0))
    b = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))
    l = l[:-1]
    c = np.sqrt((l + m + 1) * (l + m + 2))
    d = np.sqrt((l - m + 1) * (l - m + 2))
    return (0.5 * (a * up - b * down),
            -0.5 * np.sqrt((2 * l + 1) / (2 * l + 3)) * (c * up[1:] + d * down[1:]))


@functools.cache
def _basis_columns(n: int, L: int):
    """The per-column data of HarmonicBasis(n, L), built once per (n, L) and
    shared by its instances: the constant function's value, each column's
    degree and parity, the even and odd positions, scale, col and m (all
    read-only), and the dict of expand's per-selection data at n=2."""
    # value of the constant basis function, 1/sqrt(|S^{n-1}|)
    constant_value = 1.0 / np.sqrt(2.0 * np.pi) if n == 2 else 0.5 / np.sqrt(np.pi)
    # each column's (degree l, order m, kind 0 cos / 1 sin); l = m at n=2
    if n == 2:
        modes = [(0, 0, 0)] + [(k, k, kind) for k in range(1, L + 1)
                               for kind in (0, 1)]
    else:
        modes = []
        for l in range(L + 1):
            modes.append((l, 0, 0))
            for m in range(1, l + 1):
                modes.append((l, m, 0))  # cos-type: sqrt(2) Re Y_l^m
                modes.append((l, m, 1))  # sin-type: sqrt(2) Im Y_l^m
    l, m, kind = np.ascontiguousarray(np.array(modes, dtype=int).T)
    parity = np.where(l % 2 == 0, 1, -1)
    # basis positions of the even and of the odd functions
    parity_columns = (np.flatnonzero(parity > 0), np.flatnonzero(parity < 0))
    # per column: normalization, and position of its longitude factor in
    # [1, cos kt, sin kt] (n=2) or [cos m phi, sin m phi] (n=3)
    if n == 2:
        scale = np.where(l == 0, constant_value, 1.0 / np.sqrt(np.pi))
        col = l + kind * L
    else:
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))
        col = m + kind * (L + 1)
    for arr in (l, parity, *parity_columns, scale, col, m):
        arr.setflags(write=False)
    return constant_value, l, parity, parity_columns, scale, col, m, {}


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
        (self.constant_value, self.degrees, self.parity, self.parity_columns,
         self._scale, self._col, self._m, self._circle_plans) = _basis_columns(n, L)
        self.size = len(self.degrees)
        # trailing shapes of the values, frame gradients and packed Hessians
        self.part_shapes = ((), (n - 1,), (n * (n - 1) // 2,))

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

    def frame_derivs(self, points: np.ndarray, order: int = 2, columns=None):
        """Basis values and tangential derivatives as components in the
        per-point orthonormal tangent frames E = tangent_frames(points)
        (columns e_1..e_{n-1}).

        Returns (values (P, nb), grads (P, nb, n-1), hessians
        (P, nb, n(n-1)/2)).  grads holds <grad, e_r>; hessians holds the
        covariant-Hessian components e_r1^t Hess e_r2 for r1 <= r2, which is
        (tt, tp, pp) at n=3 with e_t, e_p the colatitude and longitude
        directions and the single tt component at n=2 with e_t the
        counterclockwise tangent.  Derivatives above `order` are None.
        `columns` (basis positions, default all) selects and orders the nb
        axis; each column keeps its bits.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        sel = slice(None) if columns is None else np.asarray(columns)
        if self.n == 2:   # each point a ring of the one longitude 0
            inv, ct, st, phi = slice(None), pts[:, 0], pts[:, 1], np.zeros(1)
        else:
            x, y, z = pts.T
            ct, first, inv = np.unique(z, return_index=True, return_inverse=True)
            st, phi = np.hypot(x[first], y[first]), np.arctan2(y, x)
        rings, lons = self._factors(ct, st, phi, order, sel)
        out = [np.empty((len(pts), rings[0].shape[1]) + k)
               for k in self.part_shapes[:order + 1]] + [None] * (2 - order)
        _combine([f[inv] for f in rings], lons, self.degrees[sel], out)
        return tuple(out)

    def expand(self, points: np.ndarray, coeffs: np.ndarray, order: int = 2,
               columns=None):
        """The expansion sum_j coeffs_j phi_j over the `columns` (default all)
        and its frame derivatives: coeffs contracted with frame_derivs(points,
        order, columns), shapes (P,), (P, n-1) and (P, n(n-1)/2), None above
        `order`.

        At n=2 no per-point table of the basis is formed: cos kt and sin kt
        are taken once per selected degree k and multiplied by the
        coefficients on those columns, their t-derivative and their second
        t-derivative, one product for every order.  At n=3 it contracts the
        frame_derivs tables."""
        c = np.asarray(coeffs, dtype=float)
        if self.n == 3:
            B, G, H = self.frame_derivs(points, order, columns)
            return (B @ c, None if G is None else c @ G,
                    None if H is None else c @ H)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        sel = slice(None) if columns is None else np.asarray(columns)
        key = None if columns is None else (sel.dtype.str, sel.tobytes())
        if key not in self._circle_plans:
            self._circle_plans[key] = self._circle_plan(sel)
        ks, slot, scale, gather, mult = self._circle_plans[key]
        v = np.bincount(slot, weights=scale * c, minlength=2 * len(ks))
        t = np.arctan2(pts[:, 1], pts[:, 0])
        kt = np.multiply.outer(t, ks)
        out = np.concatenate([np.cos(kt), np.sin(kt)], axis=1) @ (v[gather] * mult)
        return (out[:, 0], out[:, 1:2] if order > 0 else None,
                out[:, 2:] if order > 1 else None)

    def _circle_plan(self, sel):
        """The selected degrees ks, each coefficient's column of
        [cos ks t, sin ks t] and scale, and the map from the coefficients v on
        those columns to (v, d/dt v, d^2/dt^2 v): v[gather] * mult."""
        deg = self.degrees[sel]
        present = np.zeros(self.L + 1, dtype=bool)
        present[deg] = True
        ks = np.flatnonzero(present)
        K = len(ks)
        slot = np.searchsorted(ks, deg) + K * (self._col[sel] > self.L)
        col = np.arange(2 * K)
        k = ks[col % K]
        # d/dt takes k v_sin to the cosines and -k v_cos to the sines
        gather = np.stack([col, (col + K) % (2 * K), col], axis=1)
        mult = np.stack([np.ones(2 * K), np.where(col < K, k, -k), -(k * k)], axis=1)
        return ks, slot, self._scale[sel], gather, mult

    # ------------------------------------------------------------------
    def _factors(self, ct, st, phi, order, sel):
        """Separable factors of the columns sel up to `order`, per ring
        (cos, sin) theta = (ct, st) and per longitude phi (see _combine).
        n=2, each angle theta a ring of the one longitude phi = 0: per ring,
        {1, cos k theta, sin k theta} and its theta-derivative; per column,
        the scale and -k^2 times it (both orders always).  n=3: per ring,
        N P_lm, then d_theta and m/sin theta of it, then d_theta of those two;
        per phi, {1, cos m phi, sin m phi} and its phi-derivative over m."""
        l, m, scale, col = self.degrees[sel], self._m[sel], self._scale[sel], self._col[sel]
        if self.n == 2:
            kt = np.arange(1, self.L + 1) * np.arctan2(st, ct)[:, None]
            c, s, one = np.cos(kt), np.sin(kt), np.ones((len(kt), 1))
            return ([np.concatenate([one, c, s], axis=1)[:, col],
                     l * np.concatenate([np.zeros_like(one), -s, c], axis=1)[:, col]],
                    [scale[None], (-(l * l) * scale)[None]])
        # band L+1 feeds the ladder that yields m P_l^m / sin theta
        P = _legendre(ct, st, self.L + (order > 0))
        mphi = np.multiply.outer(phi, np.arange(self.L + 1))
        c, s = np.cos(mphi), np.sin(mphi)
        lons = [np.concatenate([c, s], axis=1)[:, col]]
        if order > 0:
            lons.append(np.concatenate([-s, c], axis=1)[:, col])
        tables = [P]
        for _ in range(order):
            P, Ps = _ladder(P)
            tables += [P, Ps]
        return [np.ascontiguousarray((T[l, m] * scale[:, None]).T) for T in tables], lons


def _combine(rings, lons, degrees, out):
    """The basis rows into out = (values, gradients, Hessians), skipping
    None: ring factors times longitude factors (HarmonicBasis._factors).
    n=2: the second longitude factor is -k^2 times the first.  n=3: pp from
    Delta Y = -l(l+1) Y, and nothing divides by sin theta."""
    B, G, H = out
    if B is not None:
        np.multiply(rings[0], lons[0], out=B)
    if G is not None:
        for a in range(G.shape[-1]):
            np.multiply(rings[1 + a], lons[a], out=G[..., a])
    if H is not None and H.shape[-1] == 1:
        np.multiply(rings[0], lons[1], out=H[..., 0])
    elif H is not None:
        np.multiply(rings[3], lons[0], out=H[..., 0])
        np.multiply(rings[4], lons[1], out=H[..., 1])
        pp = H[..., 2]
        if B is None:
            B = np.multiply(rings[0], lons[0], out=pp)
        np.multiply(-(degrees * (degrees + 1)), B, out=pp)
        pp -= H[..., 0]


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


def frame_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solutions X (..., q, k) of A X = B for symmetric frame matrices
    A (..., q, q) and right-hand sides B (..., q, k).

    Closed form for q <= 2, reading A from the lower triangle as frame_det
    does: at q = 2, Gaussian elimination with the larger of |a|, |b| in the
    first column as pivot, which keeps the residual at rounding relative to
    |A| |X| for near-singular and indefinite matrices alike.
    np.linalg.solve for q >= 3.  A singular A gives inf or NaN rows (q <= 2)
    or raises (q >= 3); callers screen it with frame_det."""
    q = A.shape[-1]
    if q > 2:
        return np.linalg.solve(A, B)
    if q == 1:
        return B / A[..., :1, :1]
    a, b, c = (v[..., None] for v in (A[..., 0, 0], A[..., 1, 0], A[..., 1, 1]))
    y1, y2 = B[..., 0, :], B[..., 1, :]
    # pivot row (p, r) with y_p, the other row (s, t) with y_s: eliminate s
    swap = np.abs(b) > np.abs(a)
    p, r, s, t = (np.where(swap, b, a), np.where(swap, c, b),
                  np.where(swap, a, b), np.where(swap, b, c))
    yp, ys = np.where(swap, y2, y1), np.where(swap, y1, y2)
    l = s / p
    x2 = (ys - l * yp) / (t - l * r)
    x1 = (yp - r * x2) / p
    return np.stack([x1, x2], axis=-2)


def antipodal_fold(X: np.ndarray):
    """Rows of X equal up to sign, folded onto the first occurrence of each.

    Returns (first, inverse, sign): the indices of the representative rows,
    in ascending order, and for every row i the position of its
    representative in `first` and the sign with
    X[i] == sign[i] * X[first[inverse[i]]] (compared as by ==, so 0.0 and
    -0.0 match).  One stable lexsort of the rows made canonical by the sign
    of their first nonzero entry; X must be finite, and zero rows fold with
    each other."""
    X = np.asarray(X)
    lead = (X != 0).argmax(axis=1)
    sign = np.copysign(1.0, X[np.arange(len(X)), lead])
    C = X * sign[:, None]
    order = np.lexsort(C.T[::-1])
    Cs = C[order]
    new = np.ones(len(X), dtype=bool)
    new[1:] = (Cs[1:] != Cs[:-1]).any(axis=1)
    # the sort is stable, so a group's first sorted row is its first occurrence
    heads = order[new]
    first = np.sort(heads)
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.searchsorted(first, heads)[np.cumsum(new) - 1]
    return first, inverse, sign * sign[first][inverse]


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
    each antipodal pair, and antipodal nodes carry equal weights; build_grid
    makes each antipode the exact negation of its node.  The pair
    view (pair_nodes, pair_weights = 2 w, tangent_frames()) holds the rows
    of every even quantity.  The pair nodes are the ring-major product of
    product_factors: ((cos, sin) theta of the rings, (cos, sin) phi of the
    longitudes); at n=2 each angle theta is a ring of the one longitude 0."""

    def __init__(self, n, band_limit, nodes, weights, antipodal_index,
                 product_factors):
        half = len(weights) // 2
        if not (antipodal_index[:half] >= half).all():
            raise ValueError("the first half of the nodes must hold one node of "
                             "each antipodal pair")
        if not np.array_equal(weights[:half], weights[antipodal_index[:half]]):
            raise ValueError("antipodal nodes must carry equal weights")
        if len(product_factors[0][0]) * len(product_factors[1][0]) != half:
            raise ValueError("product factors: rings x longitudes must count the pair nodes")
        self.n = n
        self.band_limit = band_limit
        self.nodes = nodes
        self.weights = weights
        self.antipodal_index = antipodal_index
        self.basis = HarmonicBasis(n, band_limit)
        self.pair_weights = 2.0 * weights[:half]
        self.product_factors = product_factors
        for arr in (self.nodes, self.weights, self.antipodal_index,
                    self.pair_weights, *sum(product_factors, ())):
            arr.setflags(write=False)
        self.pair_nodes = self.nodes[:half]
        self._tables = None       # (B, G, H), even columns first
        self._even_count = 0
        self._factors = None      # see ring_rows
        self._frames = None

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def basis_tables(self, band: int | None = None):
        """(even, odd): (values, gradients, hessians) of the even and of the
        odd basis functions of degree <= band (default the grid's) at the
        pair nodes, in degree order: (N/2, nb), (N/2, nb, n-1) and
        (N/2, nb, n(n-1)/2), the derivatives as components in
        tangent_frames() (see HarmonicBasis.frame_derivs).

        Read-only views of one cached set of tables, even columns first:
        ring_rows of all rings.  The column recurrences do not depend on the
        band, so a band-b view is a column prefix of any larger band's; the
        cache is rebuilt at `band` only when it is smaller.

        At the antipode, in the same frame: B(-u) = pi B(u),
        G(-u) = -pi G(u), H(-u) = pi H(u)."""
        band = self.band_limit if band is None else band
        if not 0 <= band <= self.band_limit:
            raise ValueError(f"band {band} must be in 0..{self.band_limit}")
        basis = HarmonicBasis(self.n, band)
        n_even = len(basis.parity_columns[0])
        if self._tables is None or self._tables[0].shape[1] < basis.size:
            self._tables = tuple(np.empty((len(self.pair_weights), basis.size) + k)
                                 for k in basis.part_shapes)
            self.ring_rows(basis, None, 0, slice(None), self._tables)
            self._even_count = n_even
            for T in self._tables:
                T.setflags(write=False)
        e = self._even_count
        return (tuple(T[:, :n_even] for T in self._tables),
                tuple(T[:, e:e + basis.size - n_even] for T in self._tables))

    def ring_rows(self, basis: HarmonicBasis, block, first: int, rings: slice, out):
        """Write the rows of basis_tables(basis.L)[block] from column `first`
        (both blocks, even first, if block is None) on the grid's `rings`
        into out = (values, gradients, Hessians), skipping None, bit for bit:
        from the factors (HarmonicBasis._factors) of the even, then the odd
        columns, cached at the largest band asked."""
        if self._factors is None or len(self._factors[2]) < basis.size:
            cols = np.concatenate(basis.parity_columns)
            (ct, st), (cp, sp) = self.product_factors
            self._factors = (*basis._factors(ct, st, np.arctan2(sp, cp), 2, cols),
                             basis.degrees[cols], len(basis.parity_columns[0]))
        F, lons, degrees, e = self._factors
        counts = [len(c) for c in basis.parity_columns]
        s = (np.r_[:counts[0], e:e + counts[1]] if block is None
             else slice(block * e + first, block * e + counts[block]))
        n_lon = len(lons[0])
        _combine([f[rings, None, s] for f in F], [f[:, s] for f in lons], degrees[s],
                 [T if T is None else T.reshape((len(T) // n_lon, n_lon) + T.shape[1:])
                  for T in out])

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
    the count, for callers that pin a specific resolution), each pair-node
    angle a ring of one longitude in the grid's product_factors.
    n=3: Gauss-Legendre colatitudes (L+2) x uniform longitudes (2L+4), kept
    as the grid's product_factors.

    Antipodes are exact negations, nodes[antipodal_index] == -nodes bit for
    bit: the second half of the angles at n=2, and of the longitudes at n=3,
    take the negated cos and sin of the first half, and the Gauss-Legendre
    colatitudes are exactly symmetric.
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if L < 4 or L % 2 != 0:
        raise ValueError("band limit L must be even and >= 4")

    if n == 2:
        N = n_nodes if n_nodes is not None else max(4 * L + 4, 64)
        if N % 2 != 0 or N < 4 * L + 4:
            raise ValueError("node count must be even and >= 4L+4")
        t = 2.0 * np.pi * np.arange(N // 2) / N
        rings = (np.cos(t), np.sin(t))
        half = np.stack(rings, axis=-1)
        nodes = np.concatenate([half, -half])
        weights = np.full(N, 2.0 * np.pi / N)
        anti = (np.arange(N) + N // 2) % N
        return SphereGrid(2, L, nodes, weights, anti, (rings, (np.ones(1), np.zeros(1))))

    if n_nodes is not None:
        raise ValueError("n_nodes override is only supported for n=2")
    n_th = L + 2
    n_ph = 2 * L + 4
    u, wu = _gauss_legendre(n_th)  # ascending in u = cos(theta)
    phi = 2.0 * np.pi * np.arange(n_ph // 2) / n_ph
    cp = np.concatenate([np.cos(phi), -np.cos(phi)])
    sp = np.concatenate([np.sin(phi), -np.sin(phi)])
    wphi = 2.0 * np.pi / n_ph
    st = np.sqrt(1.0 - u**2)
    # node index = k * n_ph + j
    x = (st[:, None] * cp[None, :]).ravel()
    y = (st[:, None] * sp[None, :]).ravel()
    z = np.repeat(u, n_ph)
    nodes = np.stack([x, y, z], axis=-1)
    weights = np.repeat(wu * wphi, n_ph)
    k = np.repeat(np.arange(n_th), n_ph)
    j = np.tile(np.arange(n_ph), n_th)
    anti = (n_th - 1 - k) * n_ph + (j + n_ph // 2) % n_ph
    # the pair nodes: the first n_th/2 rings times every longitude
    return SphereGrid(3, L, nodes, weights, anti,
                      ((u[:n_th // 2], st[:n_th // 2]), (cp, sp)))


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


def _parity_rows(grid: SphereGrid, coeffs: np.ndarray, table: int, views=None) -> np.ndarray:
    """(N/2, 2, ...) rows at the pair nodes of the even and the odd part of
    f, f with the coefficients of one band b, each part from its band-b
    table (0 values, 1 gradients, 2 packed Hessians), or from the rows of
    those tables in `views`."""
    c = np.asarray(coeffs, dtype=float)
    views = views or grid.basis_tables(int(grid.basis.degrees[len(c) - 1]))
    return np.stack([np.moveaxis(T[table], 1, -1) @ c[cols[:T[table].shape[1]]]
                     for T, cols in zip(views, grid.basis.parity_columns)], axis=1)


def _antipodal_rows(grid: SphereGrid, coeffs: np.ndarray, table: int) -> np.ndarray:
    """(N/2, 2, ...) rows of f and f o A, whose coefficients are pi c, at the
    pair nodes (see _parity_rows)."""
    even, odd = np.moveaxis(_parity_rows(grid, coeffs, table), 1, 0)
    return np.stack([even + odd, even - odd], axis=1)


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
    v0, half = field.values[0], len(grid.pair_weights)
    f1 = field.values[:half] - v0
    f2 = field.values[grid.antipodal_index[:half]] - v0
    w = 0.5 * grid.pair_weights
    c = np.empty(grid.basis.size)
    for (B, _, _), cols, f in zip(grid.basis_tables(), grid.basis.parity_columns,
                                  (w * (f1 + f2), w * (f1 - f2))):
        c[cols] = B.T @ f
    c[0] += v0 / grid.basis.constant_value
    return c


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> ScalarField:
    return ScalarField.from_values(grid, _unfold(grid, _antipodal_rows(grid, coeffs, 0)))


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
    return _antipodal_rows(grid, coeffs, 1)


def hessian_from_coeffs(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Frame covariant Hessians (N/2, 2, n-1, n-1) of f and f o A at the pair
    nodes.  Hess f(-u) = Hess(f o A)(u)."""
    return unpack_sym(_antipodal_rows(grid, coeffs, 2))


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
