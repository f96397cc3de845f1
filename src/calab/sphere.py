"""Quadrature grids, parity-aware spectral bases, and tangential calculus on S^{n-1}.

Supports n = 2 (Fourier modes on the circle) and n = 3 (real spherical
harmonics on Gauss-Legendre x uniform-longitude product grids).  All grids are
antipodally symmetric so that even/odd splitting is exact.  Differentiation is
spectral; a finite-difference fallback on the homogeneous extension is kept as
an independent oracle (see fd_gradient_on_sphere / fd_hessian_on_sphere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre, sph_harm_y, sph_legendre_p_all

SURFACE_MEASURE = {2: 2.0 * np.pi, 3: 4.0 * np.pi}

# nodes with |cos(colatitude)| above this are flagged (coordinate-frame
# singularity for n=3 spherical frames; the geometry itself is fine there)
POLE_COS_CUTOFF = 0.999

# sin(colatitude) floor when converting spherical-frame derivatives of basis
# functions to ambient coordinates at arbitrary (non-grid) points
_SIN_FLOOR = 1e-9


def _angles_from_points(points: np.ndarray, n: int):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if n == 2:
        return (np.arctan2(pts[:, 1], pts[:, 0]),)
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return theta, phi


def _sph_frames(theta: np.ndarray, phi: np.ndarray):
    """Orthonormal tangent frame (e_theta, e_phi) at given spherical angles."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return e_th, e_ph


class _PolyHarmonics3:
    """Fast exact backend for low-band real spherical harmonics (n = 3).

    The degree-l solid harmonic r^l Y_lm is a homogeneous polynomial; its
    monomial coefficients are recovered once by least squares against the
    reference evaluator, after which values and ambient derivatives are
    batched matrix products.  Exact up to the ~1e-13 fit residual.
    """

    MAX_L = 12

    def __init__(self, L: int, reference):
        self.L = L
        rng = np.random.default_rng(20240901)
        self._expo = {}      # degree -> (m_l, 3) exponent table
        self._index = {}     # degree -> exponent tuple -> column
        self._coeff = {}     # degree -> (n_funcs_l, m_l) monomial coefficients
        self._gmaps = {}     # degree -> list of 3 (m_{l-1}, m_l) matrices
        self._hmaps = {}     # degree -> 3x3 nested list of (m_{l-2}, m_l)
        for l in range(L + 1):
            expo = np.array(
                [(i, j, l - i - j) for i in range(l + 1) for j in range(l + 1 - i)],
                dtype=int,
            )
            self._expo[l] = expo
            self._index[l] = {tuple(e): k for k, e in enumerate(expo)}
        for l in range(L + 1):
            m_l = len(self._expo[l])
            pts = rng.normal(size=(max(4 * m_l, 40), 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            M = self._monomials(pts, l)
            Y = reference(pts, l)  # (P, 2l+1) values of the degree-l functions
            coeff, *_ = np.linalg.lstsq(M, Y, rcond=None)
            self._coeff[l] = coeff.T  # (2l+1, m_l)
            if l >= 1:
                self._gmaps[l] = [self._deriv_map(l, ax) for ax in range(3)]
        for l in range(2, L + 1):
            self._hmaps[l] = [
                [self._gmaps[l - 1][a] @ self._gmaps[l][b] for b in range(3)]
                for a in range(3)
            ]

    def _power_table(self, pts):
        """(3, P, L+1) table of coordinate powers x^0..x^L."""
        P = len(pts)
        tab = np.empty((3, P, self.L + 1))
        tab[:, :, 0] = 1.0
        for k in range(1, self.L + 1):
            tab[:, :, k] = tab[:, :, k - 1] * pts.T
        return tab

    def _monomials(self, pts, l, ptab=None):
        expo = self._expo[l]
        if ptab is None:
            ptab = self._power_table(pts)
        return ptab[0][:, expo[:, 0]] * ptab[1][:, expo[:, 1]] * ptab[2][:, expo[:, 2]]

    def _deriv_map(self, l, axis):
        src, dst = self._expo[l], self._index[l - 1]
        D = np.zeros((len(dst), len(src)))
        for k, e in enumerate(src):
            if e[axis] == 0:
                continue
            e2 = list(e)
            e2[axis] -= 1
            D[dst[tuple(e2)], k] = e[axis]
        return D

    def eval_derivs(self, pts, order):
        """Same contract as HarmonicBasis._eval_sphere (unit points assumed)."""
        P = len(pts)
        ptab = self._power_table(pts)
        nb = (self.L + 1) ** 2
        vals = np.empty((P, nb))
        grads = np.empty((P, nb, 3)) if order >= 1 else None
        hess = np.empty((P, nb, 3, 3)) if order >= 2 else None
        if order >= 2:
            proj = np.eye(3)[None] - pts[:, :, None] * pts[:, None, :]
        a = 0
        for l in range(self.L + 1):
            C = self._coeff[l]
            nl = C.shape[0]
            M = self._monomials(pts, l, ptab)
            Y = M @ C.T
            sl = slice(a, a + nl)
            vals[:, sl] = Y
            if order >= 1:
                if l == 0:
                    grads[:, sl] = 0.0
                    if order >= 2:
                        hess[:, sl] = 0.0
                    a += nl
                    continue
                Ml1 = self._monomials(pts, l - 1, ptab)
                Du = np.stack(
                    [Ml1 @ (self._gmaps[l][ax] @ C.T) for ax in range(3)], axis=-1
                )
                # tangential gradient of Y: P Du = Du - l Y theta
                grads[:, sl] = Du - l * Y[:, :, None] * pts[:, None, :]
                if order >= 2:
                    if l == 1:
                        hess[:, sl] = -Y[:, :, None, None] * proj[:, None, :, :]
                    else:
                        Ml2 = self._monomials(pts, l - 2, ptab)
                        D2u = np.empty((P, nl, 3, 3))
                        for i in range(3):
                            for j in range(i, 3):
                                block = Ml2 @ (self._hmaps[l][i][j] @ C.T)
                                D2u[:, :, i, j] = block
                                D2u[:, :, j, i] = block
                        cross = pts[:, None, :, None] * Du[:, :, None, :]
                        PD2P = (
                            D2u
                            - (l - 1) * (cross + cross.transpose(0, 1, 3, 2))
                            + (l * (l - 1)) * Y[:, :, None, None]
                            * (pts[:, :, None] * pts[:, None, :])[:, None]
                        )
                        hess[:, sl] = PD2P - l * Y[:, :, None, None] * proj[:, None]
            a += nl
        return vals, grads, hess


_poly_backends: dict[int, _PolyHarmonics3] = {}


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
        if n == 2:
            degs = [0] + [k for k in range(1, L + 1) for _ in (0, 1)]
            self.degrees = np.array(degs, dtype=int)
            # (k, kind): kind 0 = cos, 1 = sin
            self._modes = [(0, 0)] + [(k, s) for k in range(1, L + 1) for s in (0, 1)]
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
    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values of all basis functions at the given unit vectors, (P, size)."""
        return self.eval_derivs(points, order=0)[0]

    def eval_derivs(self, points: np.ndarray, order: int = 2):
        """Basis values and tangential derivatives at unit vectors.

        Returns (values (P, nb), grads (P, nb, n), hessians (P, nb, n, n));
        grads are the gradients of the 0-homogeneous extensions (tangential),
        hessians are the covariant Hessians on the sphere expressed as ambient
        symmetric matrices annihilating the radial direction.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.n == 2:
            return self._eval_circle(pts, order)
        if self.L <= _PolyHarmonics3.MAX_L:
            backend = _poly_backends.get(self.L)
            if backend is None:
                backend = _PolyHarmonics3(self.L, self._reference_values)
                _poly_backends[self.L] = backend
            u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            return backend.eval_derivs(u, order)
        return self._eval_sphere(pts, order)

    def _reference_values(self, pts, l):
        """Degree-l real harmonic values via the scipy evaluator (fit target)."""
        theta, phi = _angles_from_points(pts, 3)
        ms = np.arange(l + 1)
        y = sph_harm_y(l, ms[:, None], theta[None, :], phi[None, :])
        cols = [y[0].real]
        for m in range(1, l + 1):
            cols.append(np.sqrt(2.0) * y[m].real)
            cols.append(np.sqrt(2.0) * y[m].imag)
        return np.stack(cols, axis=-1)

    # ------------------------------------------------------------------
    def _eval_circle(self, pts, order):
        (t,) = _angles_from_points(pts, 2)
        P, nb = len(t), self.size
        vals = np.empty((P, nb))
        dvals = np.empty((P, nb)) if order >= 1 else None
        d2vals = np.empty((P, nb)) if order >= 2 else None
        inv_sqrt2pi = 1.0 / np.sqrt(2.0 * np.pi)
        inv_sqrtpi = 1.0 / np.sqrt(np.pi)
        for a, (k, kind) in enumerate(self._modes):
            if k == 0:
                vals[:, a] = inv_sqrt2pi
                if order >= 1:
                    dvals[:, a] = 0.0
                if order >= 2:
                    d2vals[:, a] = 0.0
                continue
            c, s = np.cos(k * t), np.sin(k * t)
            f = c if kind == 0 else s
            df = -k * s if kind == 0 else k * c
            vals[:, a] = inv_sqrtpi * f
            if order >= 1:
                dvals[:, a] = inv_sqrtpi * df
            if order >= 2:
                d2vals[:, a] = -(k * k) * inv_sqrtpi * f
        if order == 0:
            return vals, None, None
        tau = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        grads = dvals[:, :, None] * tau[:, None, :]
        if order == 1:
            return vals, grads, None
        hess = d2vals[:, :, None, None] * (tau[:, None, :, None] * tau[:, None, None, :])
        return vals, grads, hess

    def _eval_sphere(self, pts, order):
        """Separable evaluation: Y = N P_lm(cos theta) x {1, cos m phi, sin m phi}.

        The colatitude factor is evaluated once per distinct colatitude (L+2
        of them on a product grid) and scattered back to the points; the
        longitude factor and its derivatives are closed form.
        """
        theta, phi = _angles_from_points(pts, 3)
        modes = np.array(self._modes)
        l, m, kind = modes[:, 0], modes[:, 1], modes[:, 2]
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))

        # colatitude factors N P_lm(cos theta) = Y_lm(theta, 0) and their
        # theta-derivatives on the distinct colatitudes, as (d, T, nb); row
        # inv[i] belongs to point i
        theta_u, inv = np.unique(theta, return_inverse=True)
        lat = sph_legendre_p_all(self.L, self.L, theta_u, diff_n=min(order, 2))
        lat = (lat[:, l, m] * scale[:, None]).transpose(0, 2, 1)

        # longitude factors: cos(m phi) / sin(m phi) and their phi-derivatives
        mphi = np.multiply.outer(phi, m)
        lon, dlon = np.cos(mphi), np.sin(mphi)
        sin_type = kind == 1
        lon[:, sin_type], dlon[:, sin_type] = dlon[:, sin_type], -lon[:, sin_type]
        dlon *= -m

        vals = lat[0][inv] * lon
        if order == 0:
            return vals, None, None
        f_t = lat[1][inv] * lon
        f_p = lat[0][inv] * dlon

        st = np.maximum(np.sin(theta), _SIN_FLOOR)[:, None]
        e_th, e_ph = _sph_frames(theta, phi)
        frame = np.stack([e_th, e_ph], axis=1)  # (P, 2, 3)
        grads = np.stack([f_t, f_p / st], axis=-1) @ frame
        if order == 1:
            return vals, grads, None

        # covariant Hessian: components (tt, tp, pp) in the orthonormal frame
        # times e_t e_t^t, e_t e_p^t + e_p e_t^t and e_p e_p^t
        cot = np.cos(theta)[:, None] / st
        comps = np.empty(vals.shape + (3,))
        comps[..., 0] = lat[2][inv] * lon
        comps[..., 1] = (lat[1][inv] * dlon - cot * f_p) / st
        comps[..., 2] = -(m * m) * vals / st**2 + cot * f_t
        oth = e_th[:, :, None] * e_th[:, None, :]
        oph = e_ph[:, :, None] * e_ph[:, None, :]
        oxm = e_th[:, :, None] * e_ph[:, None, :]
        outer = np.stack([oth, oxm + oxm.transpose(0, 2, 1), oph], axis=1)
        hess = comps @ outer.reshape(len(theta), 3, 9)
        return vals, grads, hess.reshape(vals.shape + (3, 3))


# ----------------------------------------------------------------------
# grids


class SphereGrid:
    """Antipodally symmetric quadrature grid with attached spectral basis."""

    def __init__(self, n, band_limit, nodes, weights, antipodal_index, pole_mask):
        self.n = n
        self.band_limit = band_limit
        self.nodes = nodes
        self.weights = weights
        self.antipodal_index = antipodal_index
        self.pole_mask = pole_mask
        self.basis = HarmonicBasis(n, band_limit)
        for arr in (self.nodes, self.weights, self.antipodal_index, self.pole_mask):
            arr.setflags(write=False)
        self._tables = None
        self._frames = None

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def basis_tables(self):
        """(values, gradients, hessians) of the grid basis at the grid nodes."""
        if self._tables is None:
            self._tables = self.basis.eval_derivs(self.nodes, order=2)
        return self._tables

    def tangent_frames(self) -> np.ndarray:
        """Per-node orthonormal tangent frames, shape (N, n, n-1).

        Built by Householder completion of the node direction; valid at every
        node (including pole-masked ones) but not globally smooth.
        """
        if self._frames is None:
            n = self.n
            # Householder vector mapping e_1 to the node direction; the
            # remaining columns of the reflection span the tangent space
            v = self.nodes.copy()
            v[:, 0] += np.where(self.nodes[:, 0] < 0.99, -1.0, 1.0)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            frames = np.eye(n)[None, :, 1:] - 2.0 * v[:, :, None] * v[:, None, 1:]
            frames.setflags(write=False)
            self._frames = frames
        return self._frames

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimension": self.n,
                "band_limit": int(self.band_limit),
                "node_count": int(self.node_count),
            },
            sort_keys=True,
        )


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
        mask = np.zeros(N, dtype=bool)
        return SphereGrid(2, L, nodes, weights, anti, mask)

    if n_nodes is not None:
        raise ValueError("n_nodes override is only supported for n=2")
    n_th = L + 2
    n_ph = 2 * L + 4
    u, wu = roots_legendre(n_th)  # ascending in u = cos(theta)
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
    mask = np.abs(z) > POLE_COS_CUTOFF
    return SphereGrid(3, L, nodes, weights, anti, mask)


# ----------------------------------------------------------------------
# fields


def _detect_parity(grid: SphereGrid, values: np.ndarray) -> str:
    va = values[grid.antipodal_index]
    scale = max(np.abs(values).max(), 1.0)
    if np.abs(values - va).max() <= 1e-12 * scale:
        return "even"
    if np.abs(values + va).max() <= 1e-12 * scale:
        return "odd"
    return "mixed"


@dataclass(frozen=True)
class ScalarField:
    grid: SphereGrid
    values: np.ndarray
    parity: str

    @classmethod
    def from_values(cls, grid: SphereGrid, values) -> "ScalarField":
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.node_count,):
            raise ValueError("value array does not match grid")
        return cls(grid, v, _detect_parity(grid, v))

    @classmethod
    def from_function(cls, grid: SphereGrid, fn) -> "ScalarField":
        return cls.from_values(grid, fn(grid.nodes))


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


def quadrature(field: ScalarField) -> float:
    """Integral of the field against the round surface measure."""
    return float(field.grid.weights @ field.values)


def quad_values(grid: SphereGrid, values: np.ndarray) -> float:
    return float(grid.weights @ np.asarray(values))


def analyze(field: ScalarField) -> np.ndarray:
    """Spectral coefficients of the field in the grid basis (by quadrature)."""
    B, _, _ = field.grid.basis_tables()
    return B.T @ (field.grid.weights * field.values)


def synthesize(grid: SphereGrid, coeffs: np.ndarray) -> ScalarField:
    B, _, _ = grid.basis_tables()
    return ScalarField.from_values(grid, B @ np.asarray(coeffs))


def spectral_tail(field: ScalarField) -> float:
    """Fraction of quadratic energy not captured by the band-limited model."""
    c = analyze(field)
    B, _, _ = field.grid.basis_tables()
    resid = field.values - B @ c
    total = quad_values(field.grid, field.values**2)
    if total <= 0.0:
        return 0.0
    return max(quad_values(field.grid, resid**2) / total, 0.0)


def tangential_gradient(field: ScalarField) -> TangentField:
    """Gradient of the 0-homogeneous extension at the nodes (tangential)."""
    c = analyze(field)
    _, G, _ = field.grid.basis_tables()
    vecs = np.einsum("a,iak->ik", c, G)
    return TangentField(field.grid, vecs, tail_warning=spectral_tail(field) > 1e-8)


def tangential_hessian(field: ScalarField) -> TangentTensorField:
    """Covariant Hessian on the sphere (= tangential part of the ambient
    Hessian of the 0-homogeneous extension), as ambient matrices."""
    c = analyze(field)
    _, _, H = field.grid.basis_tables()
    tens = np.einsum("a,iakl->ikl", c, H)
    return TangentTensorField(field.grid, tens, tail_warning=spectral_tail(field) > 1e-8)


def parity_split(field: ScalarField):
    """Exact even/odd decomposition via antipodal node pairing."""
    va = field.values[field.grid.antipodal_index]
    even = ScalarField(field.grid, 0.5 * (field.values + va), "even")
    odd = ScalarField(field.grid, 0.5 * (field.values - va), "odd")
    return even, odd


def laplace_beltrami(field: ScalarField) -> ScalarField:
    """Round-sphere Laplacian (trace of the covariant Hessian)."""
    H = tangential_hessian(field)
    return ScalarField.from_values(field.grid, np.trace(H.tensors, axis1=1, axis2=2))


# ----------------------------------------------------------------------
# finite-difference oracle on the homogeneous extension


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
    return np.einsum("iab,ibc,icd->iad", proj, H, proj)


def tangential_eigenvalues(grid: SphereGrid, tensors: np.ndarray) -> np.ndarray:
    """Eigenvalues of tangential symmetric tensors in per-node frames, (N, n-1)."""
    frames = grid.tangent_frames()
    restricted = np.einsum("ika,ikl,ilb->iab", frames, tensors, frames)
    return np.linalg.eigvalsh(restricted)


# ----------------------------------------------------------------------
# export


def field_to_csv(field: ScalarField, path) -> None:
    cols = ["index"] + ["x", "y", "z"][: field.grid.n] + ["value"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, (p, v) in enumerate(zip(field.grid.nodes, field.values)):
            coords = ",".join(repr(float(c)) for c in p)
            fh.write(f"{i},{coords},{float(v)!r}\n")
