"""Quadrature grids, parity-aware spectral bases, and tangential calculus on S^{n-1}.

Supports n = 2 (Fourier modes on the circle) and n = 3 (real spherical
harmonics).  Every grid is a product grid, its basis rows ring factors times
longitude factors: uniform angles, each a ring of one longitude, at n=2, and
Gauss-Legendre colatitudes x uniform longitudes at n=3.  All grids are
antipodally symmetric so that even/odd splitting is exact, and closed under
each coordinate flip bit for bit, so that sign_fold finds the orbits of
either sign group among their nodes.  Differentiation is
spectral; the tests check it against finite differences of the homogeneous
extension (tests/oracles.py).  Off the grid, a coefficient vector is expanded
by one plan/apply pair at both n: HarmonicBasis.synthesis folds the
coefficients into a matrix, and synthesis_jet applies it at any unit points.

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
from typing import NamedTuple

import numpy as np

# spectral tail fraction above which derivative fields carry tail_warning
TAIL_WARNING = 1e-8

# n=3: most entries of an identity chunk in HarmonicBasis.synthesis and of
# a per-block temporary in synthesis_jet: below 128 KB, malloc's default
# mmap threshold, so that repeated calls reuse heap memory instead of
# faulting in fresh pages
_SYNTHESIS_BLOCK = 1 << 14


@functools.cache
def _legendre_coefficients(L: int):
    """The coefficients of _legendre's recurrences: per band l = 1..L the
    column recurrence's a (l, 1) and a b (l, 1) (None at l = 1), and the
    (L, 1) sectoral factors.  Built once per L, read-only."""
    columns = []
    for l in range(1, L + 1):
        m = np.arange(l)[:, None]
        a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
        a.setflags(write=False)
        ab = None
        if l >= 2:
            ab = a * np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            ab.setflags(write=False)
        columns.append((a, ab))
    l = np.arange(1, L + 1)[:, None]
    sectoral = -np.sqrt((2 * l + 1) / (2 * l))
    sectoral.setflags(write=False)
    return tuple(columns), sectoral


def _legendre(ct: np.ndarray, st: np.ndarray, L: int) -> np.ndarray:
    """N P_l^m(cos theta) = Y_l^m(theta, 0), Condon-Shortley phase included,
    for 0 <= m <= l <= L as an (L+1, L+1, T) table that is zero for m > l.

    The sectoral diagonal P_l^l is one running product of its factors times
    sin theta; each column then follows the recurrence in l from it (Holmes
    & Featherstone, J. Geodesy 76, 2002), its coefficients cached per L
    (_legendre_coefficients), written in place.  It never divides by
    sin theta.
    """
    columns, sectoral = _legendre_coefficients(L)
    P = np.zeros((L + 1, L + 1, len(ct)))
    diagonal = np.empty((L + 1, len(ct)))
    diagonal[0] = 0.5 / np.sqrt(np.pi)
    np.multiply(sectoral, st, out=diagonal[1:])
    band = np.arange(L + 1)
    P[band, band] = np.cumprod(diagonal, axis=0)
    for l, (a, ab) in enumerate(columns, start=1):
        row = P[l, :l]
        np.multiply(a, ct, out=row)
        row *= P[l - 1, :l]
        if ab is not None:
            row -= ab * P[l - 2, :l]
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
    degree, parity and sign sector, the even and odd positions, the
    flip-invariant mask, the diagonal blocks of both groups (see
    HarmonicBasis.blocks), scale, col, m and kind (all read-only), and the
    dict of synthesis's coefficient-independent data per column selection
    (_circle_plan), filled at n=2 only."""
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
    # sign sector: bit i set when the flip x_i -> -x_i, i < n-1, negates the
    # column.  The x flip takes the longitude phi to pi - phi, so cos m phi
    # to (-1)^m cos m phi and sin m phi to (-1)^(m+1) sin m phi; the y flip
    # (n=3) takes phi to -phi, negating the sines.  The last flip's sign is
    # the parity times the others'.
    sectors = (m + kind) % 2 + (2 * kind if n == 3 else 0)
    # invariant under every coordinate flip: the even columns of sector 0
    flip_invariant = (parity > 0) & (sectors == 0)
    # the diagonal blocks of a form commuting with {I, -I}, then with every
    # coordinate flip: per parity (even first), each sign sector in order
    blocks = (parity_columns,
              tuple(np.flatnonzero((parity == p) & (sectors == s))
                    for p in (1, -1) for s in range(2 ** (n - 1))))
    # per column: normalization, and position of its longitude factor in
    # [1, cos kt, sin kt] (n=2) or [cos m phi, sin m phi] (n=3)
    if n == 2:
        scale = np.where(l == 0, constant_value, 1.0 / np.sqrt(np.pi))
        col = l + kind * L
    else:
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))
        col = m + kind * (L + 1)
    for arr in (l, parity, sectors, *parity_columns, *blocks[1], flip_invariant,
                scale, col, m, kind):
        arr.setflags(write=False)
    return (constant_value, l, parity, sectors, parity_columns, flip_invariant,
            blocks, scale, col, m, kind, {})


class HarmonicBasis:
    """Real orthonormal basis of degree <= L on S^{n-1}.

    n=2: 1/sqrt(2 pi), cos(k t)/sqrt(pi), sin(k t)/sqrt(pi) for k = 1..L.
    n=3: real spherical harmonics Y_lm for l = 0..L.

    Basis functions are orthonormal under the round surface measure; the
    parity of a function is (-1)^degree under the antipodal map.  Each
    function is even or odd under every coordinate flip x_i -> -x_i too:
    sectors labels it with its signs under the first n-1 flips (bit i set
    when flipping x_i negates it), which with the parity fix the last one.
    At n=3, N P_lm cos m phi has signs ((-1)^m, +) under the x and y flips
    and N P_lm sin m phi ((-1)^(m+1), -); at n=2 cos kt and sin kt follow
    the same rule with m = k.  flip_invariant marks the functions invariant
    under every flip: the even ones of sector 0.
    """

    def __init__(self, n: int, L: int):
        if n not in (2, 3):
            raise ValueError(f"unsupported dimension n={n}")
        if L < 0:
            raise ValueError("band limit must be nonnegative")
        self.n = n
        self.L = L
        (self.constant_value, self.degrees, self.parity, self.sectors,
         self.parity_columns, self.flip_invariant, self._blocks, self._scale,
         self._col, self._m, self._kind, self._circle_plans) = _basis_columns(n, L)
        self.size = len(self.degrees)
        # trailing shapes of the values, frame gradients and packed Hessians
        self.part_shapes = ((), (n - 1,), (n * (n - 1) // 2,))

    def column(self, degree: int, m: int, kind: int) -> int:
        """The basis position, in _basis_columns' mode order, of the function
        of `degree`, order m >= 0 and kind 0 (cos) or 1 (sin), 0 at m = 0:
        N P_lm cos m phi or N P_lm sin m phi at n=3, and cos kt or sin kt
        with m = k at n=2.  KeyError for a function outside the basis."""
        at = np.flatnonzero((self.degrees == degree) & (self._m == m) & (self._kind == kind))
        if len(at) != 1:
            raise KeyError(f"no basis function of degree {degree}, m={m}, kind {kind}")
        return int(at[0])

    def blocks(self, fold: bool):
        """The basis positions, in degree order, of each diagonal block of a
        quadratic form that commutes with a sign group: without fold the
        group {I, -I} and its two parity blocks (even, odd), the
        parity_columns; with fold every coordinate flip, and its 2^(n-1)
        even (parity, sector) blocks, then the 2^(n-1) odd ones, each in
        sector order.  Either way block 0 starts with the constant.  Read-
        only; a block of a band-b basis is a prefix of the same block at any
        larger band, and may be empty."""
        return self._blocks[bool(fold)]

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
        if self.n == 3:
            lons = _longitudes(lons, self._m[sel], self._kind[sel], order)
        out = [np.empty((len(pts), rings[0].shape[1]) + k)
               for k in self.part_shapes[:order + 1]] + [None] * (2 - order)
        _combine([f[inv] for f in rings], lons, self.degrees[sel], out)
        return tuple(out)

    def _circle_plan(self, sel):
        """n=2, per column selection: the selected degrees ks, each
        coefficient's column of [cos ks t, sin ks t] and scale, and the map
        from the coefficients v on those columns to (v, d/dt v, d^2/dt^2 v):
        v[gather] * mult."""
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

    def synthesis(self, coeffs: np.ndarray, columns=None):
        """The synthesis plan of sum_j coeffs_j phi_j over the `columns`
        (default all), for synthesis_jet: (keep, Mt), a matrix Mt on the rows
        keep of a table that synthesis_jet takes at the points.

        n=2: keep is the selected degrees ks and Mt the (2 len(ks), 3) map
        from [cos ks t, sin ks t] to the value, the t-derivative and the
        second t-derivative.  Its coefficient-independent part (_circle_plan)
        is cached per (basis, columns); Mt folds the coefficients into it.

        n=3: the map from the (l, m) table of _legendre at band L+1 to the
        sums over l, per colatitude, against each longitude factor 1,
        cos m phi, sin m phi (m = 1..L), of the value, the frame gradient
        (d_theta, m/sin theta) and the packed Hessian (tt, tp, pp =
        -l(l+1) value - tt).  It is built from _ladder applied to identity
        tables, a chunk of the table entries at a time, so the derivative
        formulas are _ladder's.  keep is the table entries (flat (l, m)
        positions) some row reads, and Mt the (len(keep), 6 (2L+1))
        transposed matrix on them, part-major.  Storage O((L+1) (L+2)^2);
        nothing is cached."""
        c = np.asarray(coeffs, dtype=float)
        sel = slice(None) if columns is None else np.asarray(columns)
        if self.n == 2:
            key = None if columns is None else (sel.dtype.str, sel.tobytes())
            if key not in self._circle_plans:
                self._circle_plans[key] = self._circle_plan(sel)
            ks, slot, scale, gather, mult = self._circle_plans[key]
            v = np.bincount(slot, weights=scale * c, minlength=2 * len(ks))
            return ks, v[gather] * mult
        L, S = self.L, self.L + 2
        l = self.degrees[sel]
        # C[kind, l, m]: the scaled coefficients of the cos- and sin-type columns
        C = np.zeros((2, L + 1, L + 1))
        np.add.at(C, (self._col[sel] // (L + 1), l, self._m[sel]), self._scale[sel] * c)
        band = np.arange(L + 1)[:, None, None]
        # the table's nonzero entries, m <= l, as flat (l, m) positions
        tri = np.flatnonzero(np.tri(S, dtype=bool))
        K = len(tri)
        step = max(1, _SYNTHESIS_BLOCK // (S * S))
        # per part, the rows against cos m phi, m = 0..L, then sin m phi, m = 1..L
        M = np.empty((6, 2 * L + 1, K))
        for k0 in range(0, K, step):
            k = slice(k0, min(k0 + step, K))
            eye = np.zeros((S * S, k.stop - k0))
            eye[tri[k], np.arange(k.stop - k0)] = 1.0
            P = eye.reshape(S, S, -1)
            dP, Ps = _ladder(P)
            ddP, dPs = _ladder(dP)
            P, dP, ddP = (T[:L + 1, :L + 1] for T in (P, dP, ddP))
            parts = np.stack([P, dP, Ps[:, :L + 1], ddP, dPs[:, :L + 1],
                              -band * (band + 1) * P - ddP])
            # per part and m, the sums over l of either kind's coefficients
            R = np.matmul(C.transpose(2, 0, 1), parts.transpose(0, 2, 1, 3))
            # the m/sin theta parts take the phi-derivative's factors
            R[[2, 4]] = np.stack([R[[2, 4], :, 1], -R[[2, 4], :, 0]], axis=2)
            M[:, :L + 1, k] = R[:, :, 0]
            M[:, L + 1:, k] = R[:, 1:, 1]
        M = M.reshape(-1, K)
        read = M.any(axis=0)
        return tri[read], np.ascontiguousarray(M[:, read].T)

    def synthesis_jet(self, points: np.ndarray, plan, order: int = 2):
        """The expansion of a synthesis plan at unit points: its frame parts,
        shapes (P,), (P, n-1) and (P, n(n-1)/2) (value, frame gradient,
        packed Hessian as in frame_derivs), None above `order`, and at n=3
        the points' (cos phi, sin phi), phi = arctan2(y, x) as in
        frame_derivs (None at n=2).  Every part is computed at every order,
        so each is bit-identical across orders.

        n=2: one product of [cos ks t, sin ks t], t the points' angles, with
        the plan's matrix.  n=3: one _legendre table at the distinct
        colatitudes; then, per block of points in colatitude order, one
        product of the block's table columns with the plan's matrix, a gather
        to the points and the sums against the longitude factors,
        cos m phi + i sin m phi the m-th power of cos phi + i sin phi.  The
        blocks keep each temporary below _SYNTHESIS_BLOCK entries."""
        keep, Mt = plan
        L = self.L
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.n == 2:
            out = circle_synthesis(np.arctan2(pts[:, 1], pts[:, 0]), plan)
            return (out[:, 0], out[:, 1:2] if order > 0 else None,
                    out[:, 2:] if order > 1 else None), None
        x, y, z = pts.T
        ct, first, inv = np.unique(z, return_index=True, return_inverse=True)
        P = _legendre(ct, np.hypot(x[first], y[first]), L + 1).reshape(-1, len(ct))
        phi = np.arctan2(y, x)
        cp, sp = np.cos(phi), np.sin(phi)
        lons = np.empty((len(pts), 2 * L + 1))
        lons[:, 0] = 1.0
        w = np.cumprod(np.repeat((cp + 1j * sp)[:, None], L, axis=1), axis=1)
        lons[:, 1:L + 1], lons[:, L + 1:] = w.real, w.imag
        out = np.empty((len(pts), 6))
        by_ring = np.argsort(inv, kind="stable")
        step = max(1, _SYNTHESIS_BLOCK // Mt.shape[1])
        for a in range(0, len(pts), step):
            idx = by_ring[a:a + step]
            t0 = inv[idx[0]]
            rows = (P[keep, t0:inv[idx[-1]] + 1].T @ Mt)[inv[idx] - t0]
            out[idx] = np.einsum("pqj,pj->pq", rows.reshape(len(idx), 6, -1), lons[idx])
        return (out[:, 0], out[:, 1:3] if order > 0 else None,
                out[:, 3:] if order > 1 else None), (cp, sp)

    # ------------------------------------------------------------------
    def _factors(self, ct, st, phi, order, sel):
        """Separable factors of the columns sel up to `order`, per ring
        (cos, sin) theta = (ct, st) and per longitude phi (see _combine).
        n=2, each angle theta a ring of the one longitude phi = 0: per ring,
        {1, cos k theta, sin k theta} and its theta-derivative; per column,
        the scale and -k^2 times it (both orders always).  n=3: per ring,
        N P_lm, then d_theta and m/sin theta of it, then d_theta of those two;
        per phi, one table [cos m phi, sin m phi], m = 0..L, whatever the
        selection, from which _longitudes gathers the columns' factors."""
        l, m, scale, col = self.degrees[sel], self._m[sel], self._scale[sel], self._col[sel]
        if self.n == 2:
            kt = np.arange(1, self.L + 1) * np.arctan2(st, ct)[:, None]
            c, s, one = np.cos(kt), np.sin(kt), np.ones((len(kt), 1))
            return ([np.concatenate([one, c, s], axis=1)[:, col],
                     l * np.concatenate([np.zeros_like(one), -s, c], axis=1)[:, col]],
                    [scale[None], (-(l * l) * scale)[None]])
        # band L+1 feeds the ladder that yields m P_l^m / sin theta
        P = _legendre(ct, st, self.L + (order > 0))
        tables = [P]
        for _ in range(order):
            P, Ps = _ladder(P)
            tables += [P, Ps]
        mphi = np.multiply.outer(phi, np.arange(self.L + 1))
        return ([np.ascontiguousarray((T[l, m] * scale[:, None]).T) for T in tables],
                np.concatenate([np.cos(mphi), np.sin(mphi)], axis=1))


def _longitudes(cs, m, kind, order: int = 1):
    """n=3: the longitude factors of columns of order m and kind (0 cos,
    1 sin) up to `order`, per longitude: cos m phi or sin m phi, then its
    phi-derivative over m, -sin m phi or cos m phi, gathered from the table
    cs = [cos m phi, sin m phi] of HarmonicBasis._factors (the signs are
    exact, so each factor keeps its bits)."""
    half = cs.shape[1] // 2
    col = m + kind * half
    lons = [cs[:, col]]
    if order > 0:
        lons.append(cs[:, col + (1 - 2 * kind) * half])
        lons[1] *= 2.0 * kind - 1.0
    return lons


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


def circle_synthesis(t: np.ndarray, plan) -> np.ndarray:
    """n=2: the (P, 3) value, t-derivative and second t-derivative of a
    synthesis plan's expansion at the angles t: one product of
    [cos ks t, sin ks t] with the plan's matrix."""
    keep, Mt = plan
    kt = np.multiply.outer(t, keep)
    return np.concatenate([np.cos(kt), np.sin(kt)], axis=1) @ Mt


@functools.cache
def packed_indices(q: int) -> tuple:
    """np.triu_indices(q), the packed upper triangle's (rows, columns);
    cached, read-only."""
    rc = np.triu_indices(q)
    for a in rc:
        a.setflags(write=False)
    return rc


@functools.cache
def packed_positions(q: int) -> np.ndarray:
    """(q, q) position of each entry of a symmetric matrix in its packed
    upper triangle (np.triu_indices(q) order), so packed[..., pos] unpacks.
    Read-only."""
    r, c = packed_indices(q)
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


def sign_fold(X: np.ndarray, flips: bool = False):
    """Rows of X equal up to a sign group, folded onto one representative
    row per orbit: the group {I, -I} (flips False) or every coordinate flip
    diag(+-1, ..., +-1) (flips True).

    Returns (first, inverse, D): the index of the first row of each orbit,
    in ascending order; for every row i the position of its orbit in
    `first`; and per-row coordinate signs D (N, n) with
    X[i] == D[i] * R[inverse[i]] for the representatives
    R = D[first] * X[first] (compared as by ==, so 0.0 and -0.0 match).
    Under +-I the representative is the first row itself (D[first] == 1)
    and D[i] is the sign of row i against it, the same in every column;
    under the flips it is |X[first]| and D = sign(X), -0.0 reading -1.
    A function f invariant under the group, solved at R, unfolds as
    f[inverse], D grad f[inverse] and D Hess f[inverse] D, with D_i D_j = 1
    under +-I.  One stable lexsort of the rows made canonical (signed by
    their first nonzero entry under +-I, |X| under the flips); X must be
    finite, and zero rows fold with each other."""
    X = np.asarray(X)
    if flips:
        C = np.abs(X)
    else:
        lead = (X != 0).argmax(axis=1)
        sign = np.copysign(1.0, X[np.arange(len(X)), lead])
        C = X * sign[:, None]
    order = np.lexsort(C.T[::-1])
    Cs = C[order]
    new = np.ones(len(X), dtype=bool)
    new[1:] = (Cs[1:] != Cs[:-1]).any(axis=1)
    # the sort is stable, so an orbit's first sorted row is its first occurrence
    heads = order[new]
    first = np.sort(heads)
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.searchsorted(first, heads)[np.cumsum(new) - 1]
    if flips:
        return first, inverse, np.copysign(1.0, X)
    D = np.broadcast_to((sign * sign[first][inverse])[:, None], X.shape)
    return first, inverse, D


def turn(X: np.ndarray) -> np.ndarray:
    """(-y, x) for each row (x, y): the counterclockwise tangent, the frame
    at n=2."""
    return X[:, ::-1] * _TURN


_TURN = np.array([-1.0, 1.0])


def frame_vectors(u: np.ndarray, cp: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """(e_theta, e_phi), (2, 3, P) coordinate-major, at unit points u (n=3) of
    (cos, sin) phi = (cp, sp), from cos theta = z and sin theta = |(x, y)|:
    defined at the exact poles too."""
    x, y, z = u.T
    return np.array([[z * cp, z * sp, -np.hypot(x, y)], [-sp, cp, np.zeros_like(cp)]])


def tangent_frames(points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames E (P, n, n-1) at unit points, the frames of
    HarmonicBasis.frame_derivs: turn(points) at n=2, and at n=3
    frame_vectors at the longitude phi = arctan2(y, x), 0 at the poles."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    if n == 2:
        return turn(pts)[:, :, None]
    if n != 3:
        raise ValueError(f"tangent frames are built for n=2 and n=3, not n={n}")
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return np.ascontiguousarray(frame_vectors(pts, np.cos(phi), np.sin(phi)).T)


# ----------------------------------------------------------------------
# grids

# most pair rows in a chunk of SphereGrid.row_chunks (one ring at least);
# chunks of 256 rows peak 4 MB higher on spectral_n3, no faster
CHUNK_ROWS = 128


class SphereGrid:
    """Antipodally symmetric quadrature grid with attached spectral basis.

    The first half of the nodes, the pair nodes, holds exactly one node of
    each antipodal pair, and antipodal nodes carry equal weights; build_grid
    makes each antipode the exact negation of its node, and each coordinate
    flip of a node a node.  The pair
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
        self._tables = None       # per parity block (B, G, H), see basis_tables
        self._factors = None      # see ring_rows
        self._orbits = None       # see flip_orbits
        self._folds = {}          # see sign_fold
        self._frames = None

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def basis_tables(self, band: int | None = None, blocks=(0, 1)):
        """Per parity block in `blocks` (0 even, 1 odd; default both, as
        (even, odd)): (values, gradients, hessians) of that block's basis
        functions of degree <= band (default the grid's) at the pair nodes,
        in degree order: (N/2, nb), (N/2, nb, n-1) and (N/2, nb, n(n-1)/2),
        the derivatives as components in tangent_frames() (see
        HarmonicBasis.frame_derivs).

        Read-only views of one cached table set per parity block, each
        ring_rows of all rings and stored once filled; only the blocks
        asked for are built.  The column recurrences do not depend on the
        band, so a band-b view is a column prefix of any larger band's; a
        block's tables are rebuilt at `band` only when they hold fewer
        columns.

        At the antipode, in the same frame: B(-u) = pi B(u),
        G(-u) = -pi G(u), H(-u) = pi H(u)."""
        band = self.band_limit if band is None else band
        if not 0 <= band <= self.band_limit:
            raise ValueError(f"band {band} must be in 0..{self.band_limit}")
        basis = HarmonicBasis(self.n, band)
        tables = list(self._tables or (None, None))
        for block in blocks:
            cols = basis.parity_columns[block]
            if tables[block] is None or tables[block][0].shape[1] < len(cols):
                out = tuple(np.empty((len(self.pair_weights), len(cols)) + k)
                            for k in basis.part_shapes)
                self.ring_rows(basis, block, 0, slice(None), out)
                for T in out:
                    T.setflags(write=False)
                tables[block] = out
                self._tables = tuple(tables)
        return tuple(tuple(T[:, :len(basis.parity_columns[b])] for T in self._tables[b])
                     for b in blocks)

    def ring_rows(self, basis: HarmonicBasis, block: int, first: int, rings: slice,
                  out, fold: bool = False):
        """Write the rows of basis.blocks(fold)[block] from column `first` on
        the grid's `rings` into out = (values, gradients, Hessians),
        skipping None, bit for bit: from the factors (HarmonicBasis._factors)
        of the even, then the odd columns, cached at the largest band asked.
        Without fold these are the rows of basis_tables(basis.L)[block];
        with fold only the rings' flip-orbit representatives (flip_orbits)."""
        self._ring_rows(rings, out, *self._block_factors(basis, block, first, fold))

    def _block_factors(self, basis: HarmonicBasis, block: int, first: int, fold: bool):
        """ring_rows' factors of one block's columns: the cached ring factors,
        the block's positions among their columns, its degrees, and its
        longitude factors on the longitudes ring_rows writes, gathered once
        per call.  The cache keeps the ring factors per column and, at n=3,
        one table of cos m phi and sin m phi per longitude (_longitudes)."""
        if self._factors is None or len(self._factors[2]) < basis.size:
            cols = np.concatenate(basis.parity_columns)
            (ct, st), (cp, sp) = self.product_factors
            where = np.empty(len(cols), dtype=np.intp)
            where[cols] = np.arange(len(cols))
            self._factors = (*basis._factors(ct, st, np.arctan2(sp, cp), 2, cols),
                             basis.degrees[cols], len(basis.parity_columns[0]), where)
        F, lons, degrees, e, where = self._factors
        pos = (basis.blocks(True)[block] if fold else basis.parity_columns[block])[first:]
        # a sector's columns are scattered through its parity's
        s = where[pos] if fold else slice(block * e + first, block * e + first + len(pos))
        n_lon = self.flip_orbits()[3] if fold else None
        if self.n == 2:
            lons = [f[:n_lon, s] for f in lons]
        else:
            lons = _longitudes(lons[:n_lon], basis._m[pos], basis._kind[pos])
        return F, s, degrees[s], lons

    def _ring_rows(self, rings: slice, out, F, s, degrees, lons):
        """ring_rows from _block_factors' factors."""
        n_lon = len(lons[0])
        _combine([f[rings, None, s] for f in F], lons, degrees,
                 [T if T is None else T.reshape((len(T) // n_lon, n_lon) + T.shape[1:])
                  for T in out])

    def row_chunks(self, band: int, parts, blocks, first: int = 0, fold: bool = False):
        """Yield (rows, views): a slice of the pair rows, in order, and per
        block in `blocks` (indices into HarmonicBasis(n, band).blocks(fold))
        the (values, gradients, Hessians) of that block's columns there from
        column `first` on, None for the parts not listed: chunks of whole
        rings, at most CHUNK_ROWS rows (one ring at least), that ring_rows
        writes into buffers reused from chunk to chunk, and no table.

        Without fold the rows are every pair row, and a block's views are
        those of basis_tables(band)[block].  With fold they are only the
        flip-orbit representatives, and `rows` slices flip_orbits()'s
        `first`: a form summed there, each row weighted by its orbit's
        size, is the whole sum on a block of one sign sector when the
        integrand is flip-invariant."""
        for _, runs in self._chunks(band, parts, blocks, first, fold, False):
            yield from runs

    def chunk_runs(self, band: int, parts, blocks, first: int = 0, fold: bool = False):
        """row_chunks' chunks as (rows, runs): runs yields the chunk's
        (rows, views) as row_chunks yields its chunks, but a ring at a time
        at n=3, from buffers of one ring (at n=2, where a ring is one node,
        the whole chunk at once).  For a stream that reads a chunk's rows in
        one product after building each row from wider ones."""
        return self._chunks(band, parts, blocks, first, fold, True)

    def _chunks(self, band, parts, blocks, first, fold, by_ring):
        """chunk_runs, in runs of one ring when by_ring, else of the whole
        chunk (row_chunks); each block's factors are gathered once."""
        basis = HarmonicBasis(self.n, band)
        if fold:
            n_ring, n_lon = self.flip_orbits()[2:]
        else:
            n_ring, n_lon = (len(f[0]) for f in self.product_factors)
        per = min(max(CHUNK_ROWS // n_lon, 1), n_ring)
        run = 1 if by_ring and n_lon > 1 else per
        factors = [self._block_factors(basis, b, first, fold) for b in blocks]
        bufs = [[np.empty((run * n_lon, len(basis.blocks(fold)[b]) - first) + k)
                 if i in parts else None for i, k in enumerate(basis.part_shapes)]
                for b in blocks]

        def runs(k0, k1):
            for j0 in range(k0, k1, run):
                rings = slice(j0, min(j0 + run, k1))
                rows = slice(j0 * n_lon, rings.stop * n_lon)
                views = [tuple(None if T is None else T[:rows.stop - rows.start]
                               for T in buf) for buf in bufs]
                for f, out in zip(factors, views):
                    self._ring_rows(rings, out, *f)
                yield rows, views

        for k0 in range(0, n_ring, per):
            k1 = min(k0 + per, n_ring)
            yield slice(k0 * n_lon, k1 * n_lon), runs(k0, k1)

    def flip_orbits(self):
        """(first, sizes, rings, longitudes): the pair nodes' orbits under
        every coordinate flip x_i -> -x_i, a pair node and its antipode
        being one.  first holds each orbit's first pair node, ascending, and
        sizes its node count: 4, or 2 on a coordinate plane, at n=3; 2, or 1
        on an axis, at n=2; both read from sign_fold(pair_nodes, True), as
        every orbit holds a pair node.  They are the product of the first
        `rings` rings and the first `longitudes` longitudes, the first
        quadrant that _half_circle puts first: of the longitudes at n=3, of
        the rings (angles) at n=2.  Cached, read-only."""
        if self._orbits is None:
            first, inverse, _ = sign_fold(self.pair_nodes, True)
            sizes = np.bincount(inverse)
            for arr in (first, sizes):
                arr.setflags(write=False)
            rings = len(self.product_factors[0][0]) if self.n == 3 else len(first)
            self._orbits = (first, sizes, rings, len(first) // rings)
        return self._orbits

    def sign_fold(self, flips: bool = False):
        """sign_fold(nodes, flips), cached per sign group, read-only.  Each
        orbit holds a pair node, so the pair nodes fold onto the same rows,
        as the prefix (first, inverse[:N/2], D[:N/2])."""
        if flips not in self._folds:
            fold = sign_fold(self.nodes, flips)
            for arr in fold:
                arr.setflags(write=False)
            self._folds[flips] = fold
        return self._folds[flips]

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


def _half_circle(N: int):
    """cos and sin of the angles 2 pi j / N, j = 0..N/2-1 (N even): taken on
    the first quadrant, j <= N/4, with cos(pi/2) exactly 0, and reflected
    exactly across the y-axis, j -> N/2 - j, for the rest."""
    q = N // 4
    t = 2.0 * np.pi * np.arange(q + 1) / N
    c, s = np.cos(t), np.sin(t)
    if 4 * q == N:
        c[q] = 0.0
    r = N // 2 - np.arange(q + 1, N // 2)
    return np.concatenate([c, -c[r]]), np.concatenate([s, s[r]])


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
    colatitudes are exactly symmetric.  Coordinate flips x_i -> -x_i are
    exact too: every flip of a node is a node, bit for bit (compared as by
    ==, so 0.0 and -0.0 match), since the first half of the angles (or
    longitudes) is the first quadrant reflected exactly (_half_circle).
    """
    if n not in (2, 3):
        raise ValueError(f"unsupported dimension n={n}")
    if L < 4 or L % 2 != 0:
        raise ValueError("band limit L must be even and >= 4")

    if n == 2:
        N = n_nodes if n_nodes is not None else max(4 * L + 4, 64)
        if N % 2 != 0 or N < 4 * L + 4:
            raise ValueError("node count must be even and >= 4L+4")
        rings = _half_circle(N)
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
    cp, sp = _half_circle(n_ph)
    cp, sp = np.concatenate([cp, -cp]), np.concatenate([sp, -sp])
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


class ScalarField(NamedTuple):
    grid: SphereGrid
    values: np.ndarray

    @classmethod
    def from_values(cls, grid: SphereGrid, values) -> "ScalarField":
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.node_count,):
            raise ValueError("value array does not match grid")
        return cls(grid, v)


class TangentField(NamedTuple):
    grid: SphereGrid
    vectors: np.ndarray  # (N, n), orthogonal to the node directions
    tail_warning: bool = False


class TangentTensorField(NamedTuple):
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
