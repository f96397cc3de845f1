"""Origin-symmetric strongly convex bodies represented by support functions.

A body is an evaluator for the jet (h, grad h, Hess h) of its 1-homogeneous
support function in ambient coordinates: closed-form, but for polars (a
maximization) and for D^2h of the l_q norms with 1 < q < 2 (a difference of
their closed-form gradient).  Grid sampling is a view: linear images,
Firey sums and polars compose evaluators exactly, without resampling.

Every body is origin-symmetric by construction, h(-x) = h(x): each family
is, SpectralBody rejects odd-degree coefficients, and linear images, Firey
sums and polars of symmetric bodies are symmetric, so evaluate_on_grid samples
one node of each antipodal pair.  A body that is also invariant under every
coordinate flip x_i -> -x_i says so in sign_symmetric, from how it was built
(never from samples); PolarBody folds its queries over that group.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from calab.sphere import (HarmonicBasis, SphereGrid, build_grid, circle_synthesis,
                          frame_det, frame_eigvalsh, frame_solve, frame_vectors,
                          sign_fold, turn)


# a body is strongly convex on a grid (BodyOnGrid.valid) when the smallest
# tangential eigenvalue of D^2 h over the nodes exceeds this
VALID_MIN_EIG = 1e-12
# the draws random_even_body makes before it raises
_RANDOM_DRAWS = 32


def _as_points(X, n):
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    if pts.shape[1] != n:
        raise ValueError(f"expected points in R^{n}")
    return pts


class BodyEvaluator:
    """Base class: positive 1-homogeneous support function with derivatives.

    Subclasses implement jet(), which returns the support function and its
    ambient derivatives up to the order asked in one pass through the layers
    below; support() reads its first entry.

    sign_symmetric is True when h(S x) = h(x) for every coordinate flip
    S = diag(+-1, ..., +-1) by construction; False (the default) claims
    nothing.
    """

    sign_symmetric = False

    def __init__(self, n: int, label: str = ""):
        self.n = n
        self.label = label

    def jet(self, X, order: int = 2) -> tuple:
        """(h,), (h, grad) or (h, grad, hess) at the points X for order 0, 1
        or 2; each entry is bit-identical across orders."""
        raise NotImplementedError

    def support(self, X) -> np.ndarray:
        return self.jet(X, 0)[0]

    def circle_jet(self, t) -> tuple:
        """n=2: (h, h', h'') of h(cos t, sin t) in the angles t, read from
        jet(): h' = <e, grad h> and h + h'' = e^t D^2h e, e = (-sin t, cos t)."""
        X = np.stack([np.cos(t), np.sin(t)], axis=1)
        h, dh, Hh = self.jet(X, 2)
        e = turn(X)
        return h, np.einsum("ij,ij->i", e, dh), np.einsum("ij,ijk,ik->i", e, Hh, e) - h

    def gauge_body(self) -> "BodyEvaluator | None":
        """Closed-form evaluator for the Minkowski gauge ||.||_K, if known."""
        return None


def _grid_jet(body: BodyEvaluator, nodes: np.ndarray) -> tuple:
    """body.jet(nodes, 2) at a grid's node set, read-only and kept on the
    body for the last set asked, which is known by its contents: grids built
    apart with equal nodes share it.  evaluate_on_grid (random_even_body's
    check among its callers) and PolarBody's reference jet read the body's
    jet at the pair nodes through it, so a body's is computed once."""
    key = (nodes.shape, nodes.tobytes())
    kept = getattr(body, "_kept_grid_jet", None)
    if kept is None or kept[0] != key:
        jet = body.jet(nodes, 2)
        for a in jet:
            a.setflags(write=False)
        kept = body._kept_grid_jet = (key, jet)
    return kept[1]


def _outer(a, b):
    return a[:, :, None] * b[:, None, :]


def _is_diagonal(M):
    return not np.any(M - np.diag(np.diag(M)))


def _osculating_adjugate(h, dh, Hh):
    """adj Q for Q = grad h grad h^t + h D^2h = Hess(h^2)/2 at each row, NaN
    where Q is not positive-definite by Sylvester's minors (n = 3).
    sqrt(x^t Q x) is the ellipsoid that matches h, grad h and D^2h there, so
    adj Q u points to its polar's maximizer at u."""
    Q = _outer(dh, dh) + h[:, None, None] * Hh
    a, b, d = Q[:, 0, 0], Q[:, 1, 0], Q[:, 1, 1]
    # row i of adj Q is c_{i+1} x c_{i+2} for Q's columns c (indices mod 3)
    r, s = [1, 2, 0], [2, 0, 1]
    Qr, Qs = Q[:, r], Q[:, s]
    adj = (Qr[:, :, r] * Qs[:, :, s] - Qs[:, :, r] * Qr[:, :, s]).transpose(0, 2, 1)
    pd = (a > 0) & (a * d - b * b > 0) & (np.einsum("ij,ij->i", Q[:, :, 0], adj[:, 0]) > 0)
    adj[~pd] = np.nan
    return adj


# ----------------------------------------------------------------------
# concrete families


class EllipsoidBody(BodyEvaluator):
    """K = A(B_2^n) for symmetric positive-definite A; h(x) = |A x|."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        if np.abs(A - A.T).max() > 1e-12 * max(np.abs(A).max(), 1.0):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("A must be positive-definite")
        super().__init__(A.shape[0], label="ellipsoid")
        self.A = A
        self.sign_symmetric = _is_diagonal(A)
        self._A2 = A @ A

    def jet(self, X, order=2):
        pts = _as_points(X, self.n)
        h = np.linalg.norm(pts @ self.A.T, axis=1)
        if order == 0:
            return (h,)
        w = pts @ self._A2.T
        grad = w / h[:, None]
        if order == 1:
            return h, grad
        return h, grad, (self._A2[None, :, :] / h[:, None, None]
                         - _outer(w, w) / h[:, None, None] ** 3)

    def gauge_body(self):
        return EllipsoidBody(np.linalg.inv(self.A))


class SpectralBody(BodyEvaluator):
    """h restricted to the sphere is a band-limited harmonic expansion of
    even degrees (odd-degree coefficients raise ValueError).  Sign-symmetric
    when every nonzero coefficient sits on a flip-invariant column
    (HarmonicBasis.flip_invariant)."""

    def __init__(self, n: int, coeffs: np.ndarray, basis: HarmonicBasis,
                 label: str = "spectral"):
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != basis.size:
            raise ValueError("coefficient length does not match basis")
        if np.any(coeffs[basis.parity < 0] != 0.0):
            raise ValueError("odd-degree coefficients must be zero: the body "
                             "must be origin-symmetric")
        super().__init__(n, label=label)
        self.basis = basis
        self.coeffs = coeffs
        self.sign_symmetric = not np.any(coeffs[~basis.flip_invariant])
        self._plan = None   # basis.synthesis of the even columns, on first use

    def jet(self, X, order=2):
        """(h, grad h, Hess h) up to `order` from the frame parts f, g, H of
        the even columns' expansion: grad h = E g + f u and
        Hess h = E R E^t / r, R = H + f I, in the frames E = tangent_frames(u).
        One synthesis_jet of the body's synthesis plan (HarmonicBasis.synthesis,
        built on first use) gives the parts.  At n=2 E is the single tangent
        e, written with scalars bit for bit the frame products.  At n=3
        E = (e_theta, e_phi) is built from the cos phi and sin phi that
        synthesis_jet returns (sphere.frame_vectors); Hess h is summed as
        sum_ab R_ab e_a e_b^t, exactly symmetric."""
        pts = _as_points(X, self.n)
        r = np.linalg.norm(pts, axis=1)
        u = pts / r[:, None]
        (f, g, H), lon = self.basis.synthesis_jet(u, self._synthesis_plan(), order)
        h = r * f
        if order == 0:
            return (h,)
        if self.n == 2:
            # the frame is the single tangent e: the same products as scalars,
            # + 0.0 turning -0.0 into +0.0 as the frame products' sums do
            e = turn(u)
            grad = (e * g + 0.0) + f[:, None] * u
            if order == 1:
                return h, grad
            R = e * (H + f[:, None]) + 0.0
            return h, grad, (_outer(R, e) + 0.0) / r[:, None, None]
        e_t, e_p = frame_vectors(u, *lon).transpose(0, 2, 1).copy()
        grad = g[:, :1] * e_t + g[:, 1:] * e_p + f[:, None] * u
        if order == 1:
            return h, grad
        cross = _outer(e_t, e_p)
        cross += cross.transpose(0, 2, 1)
        R = np.stack([H[:, 0] + f, H[:, 1], H[:, 2] + f], axis=1) / r[:, None]
        R = R[:, :, None, None]
        return h, grad, (R[:, 0] * _outer(e_t, e_t) + R[:, 1] * cross
                         + R[:, 2] * _outer(e_p, e_p))

    def circle_jet(self, t):
        """n=2: the plan's expansion at the angles t, no ambient jet formed."""
        return tuple(circle_synthesis(np.asarray(t, dtype=float), self._synthesis_plan()).T)

    def _synthesis_plan(self):
        if self._plan is None:
            # the odd coefficients are zero, so only the even columns are expanded
            even = self.basis.parity_columns[0]
            self._plan = self.basis.synthesis(self.coeffs[even], even)
        return self._plan


class LinearImageBody(BodyEvaluator):
    """T(K) for invertible T; h'(u) = h(T^t u), exact composition.
    Sign-symmetric when T is diagonal and the base is."""

    def __init__(self, base: BodyEvaluator, T: np.ndarray):
        T = np.asarray(T, dtype=float)
        if T.shape != (base.n, base.n):
            raise ValueError("shape mismatch")
        if not np.isfinite(T).all():
            raise ValueError("T must be finite")
        # |det T| against Hadamard's bound, the product of the column norms:
        # a scale-invariant test, unlike |det T| alone
        if abs(np.linalg.det(T)) <= 1e-14 * np.prod(np.linalg.norm(T, axis=0)):
            raise ValueError("singular linear map")
        super().__init__(base.n, label=f"{base.label}@T")
        self.base = base
        self.T = T
        self.sign_symmetric = base.sign_symmetric and _is_diagonal(T)
        # vec(T H T^t) = kron(T, T) vec(H) for row-major vec; the kron as
        # one broadcast product (np.kron costs ~10x more per image)
        n2 = base.n**2
        self._TT = (T[:, None, :, None] * T[None, :, None, :]).reshape(n2, n2).T

    def jet(self, X, order=2):
        j = self.base.jet(_as_points(X, self.n) @ self.T, order)
        if order == 0:
            return j
        grad = j[1] @ self.T.T
        if order == 1:
            return j[0], grad
        H = j[2].reshape(len(grad), -1) @ self._TT
        return j[0], grad, H.reshape(j[2].shape)

    def gauge_body(self):
        gb = self.base.gauge_body()
        if gb is None:
            return None
        return LinearImageBody(gb, np.linalg.inv(self.T).T)


class FireySumBody(BodyEvaluator):
    """Candidate support function (a h_K^p + b h_L^p)^(1/p); h_K^a h_L^b at p=0.

    Derivatives go through log F: with weights s_K = a h_K^p / F^p and
    s_L = b h_L^p / F^p (a and b at p = 0) and w_i = grad log h_i,
    w = sum s_i w_i, grad F = F w and

        Hess log F = sum s_i (H_i/h_i - w_i w_i^t) + p (sum s_i w_i w_i^t - w w^t),
        Hess F = F (Hess log F + w w^t) = F (sum s_i H_i/h_i + (p-1) s_K s_L d d^t),

    d = w_K - w_L, as s_K + s_L = 1 (to 1e-12 at p = 0).

    For p < 1 the result may fail convexity; validity is reported by
    evaluate_on_grid, not repaired here.  Sign-symmetric when both terms are.
    """

    def __init__(self, a: float, K: BodyEvaluator, b: float, L: BodyEvaluator,
                 p: float):
        if K.n != L.n:
            raise ValueError("dimension mismatch")
        for name, value in (("a", a), ("b", b), ("p", p)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if a < 0 or b < 0:
            raise ValueError("weights must be nonnegative")
        if p == 0 and abs(a + b - 1.0) > 1e-12:
            raise ValueError("p=0 requires a + b = 1")
        super().__init__(K.n, label=f"firey(p={p})")
        self.a, self.b, self.p = float(a), float(b), float(p)
        self.K, self.L = K, L
        self.sign_symmetric = K.sign_symmetric and L.sign_symmetric

    def jet(self, X, order=2):
        jK, jL = self.K.jet(X, order), self.L.jet(X, order)
        u, v = jK[0], jL[0]
        a, b, p = self.a, self.b, self.p
        if p == 0:
            F = u**a * v**b
            sK, sL = np.full_like(u, a), np.full_like(v, b)
        else:
            tK, tL = a * u**p, b * v**p
            Fp = tK + tL
            F = Fp ** (1.0 / p)
            sK, sL = tK / Fp, tL / Fp
        if order == 0:
            return (F,)
        wK, wL = jK[1] / u[:, None], jL[1] / v[:, None]
        w = sK[:, None] * wK + sL[:, None] * wL
        grad = F[:, None] * w
        if order == 1:
            return F, grad
        d = wK - wL
        hess = (F * sK / u)[:, None, None] * jK[2] + (F * sL / v)[:, None, None] * jL[2]
        hess += ((p - 1.0) * F * sK * sL)[:, None, None] * _outer(d, d)
        return F, grad, hess


class LqNormBody(BodyEvaluator):
    """h(x) = ||x||_q for real q > 1, the support function of the unit l_{q'}
    ball, q' = q/(q-1); smooth away from the origin.  h and grad h are
    closed-form through powers of |x|, and so is D^2h for q >= 2.  For
    1 < q < 2, D^2h ~ |x_i|^(q-2) is infinite on the coordinate hyperplanes
    (where flip-exact grids have nodes), so D^2h is a central difference of
    the closed-form gradient instead, symmetrized and projected on the tangent
    space."""

    sign_symmetric = True

    def __init__(self, q: float, n: int):
        if not q > 1:
            raise ValueError(f"q must be > 1, got {q}")
        super().__init__(n, label=f"l{q}-norm")
        self.q = q

    def jet(self, X, order=2):
        pts = _as_points(X, self.n)
        q = self.q
        a = np.abs(pts)
        h = (a**q).sum(axis=1) ** (1.0 / q)
        if order == 0:
            return (h,)
        w = np.copysign(a ** (q - 1), pts)
        grad = w / h[:, None] ** (q - 1)
        if order == 1:
            return h, grad
        if q < 2:
            return h, grad, self._gradient_difference(pts)
        hess = np.zeros((len(pts), self.n, self.n))
        idx = np.arange(self.n)
        hess[:, idx, idx] = (q - 1) * a ** (q - 2) / h[:, None] ** (q - 1)
        hess -= (q - 1) * _outer(w, w) / h[:, None, None] ** (2 * q - 1)
        return h, grad, hess

    def _gradient_difference(self, pts):
        """D^2h as central differences of the closed-form gradient,
        symmetrized and projected on the tangent spaces (the Hessian of a
        1-homogeneous function annihilates the position)."""
        step = 1e-4
        H = np.empty((len(pts), self.n, self.n))
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = step
            H[:, :, j] = (self.jet(pts + e, 1)[1] - self.jet(pts - e, 1)[1]) / (2 * step)
        H = 0.5 * (H + H.transpose(0, 2, 1))
        U = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        proj = np.eye(self.n)[None] - _outer(U, U)
        return proj @ H @ proj


class PolarBody(BodyEvaluator):
    """Numeric polar: h_{K deg}(u) = max over unit theta of psi = <u, theta>/h(theta).

    The polar has its base's symmetries (origin, and every coordinate flip
    when the base is sign-symmetric).  jet() folds the query rows over that
    sign group (sphere.sign_fold), solves at one row of each orbit and
    unfolds with the per-row signs D as h[inverse], D grad h[inverse] and
    D D^2h[inverse] D; a point of zero or non-finite norm raises ValueError.
    Construction takes the base's grid jet (_grid_jet) at the grid's orbit
    representatives R (under +-I the pair nodes) and raises ValueError
    naming a pair node where the base is not positive and finite.  Grid rows
    (bit for bit the nodes or pair nodes) take the grid's cached fold and
    one maximizer, solved on the first such query and kept (_grid_solution).

    Polytope seed (_seed_index): the vertex theta/h(theta) of largest psi
    over the grid's +-pair nodes, searched among R's vertices and unfolded
    per row as D R.  At n=3 the ascent (_newton, in the tangent frames F)
    starts there or, better, at the maximizer Q^-1 u / |Q^-1 u| of the
    seed's osculating ellipsoid, Q = grad h grad h^t + h D^2h (_frame_start).

    n=2 is the one-tangent case, F = e = turn(theta), and the ascent
    (_circle_newton) runs on the angle: psi(t) = cos(t - a)/h(t) for
    u = (cos a, sin a), with (h, h', h'') from base.circle_jet.  The
    maximizer is beta^-1(a) for the boundary-angle map
    beta(t) = t + atan2(h', h), whose derivative h R/(h^2 + h'^2),
    R = h + h'', is positive on a strongly convex base.  Where R > 0 at
    every pair node, the ascent starts at the cubic Hermite interpolant of
    beta^-1 at the nodes, with no seed search; otherwise at the polytope
    seed (_circle_start).

    Both dimensions run one guarded ascent (_ascend): Newton steps inside a
    trust radius, on a state whose leading entries are [x, psi, |grad psi|,
    top eigenvalue of A, h] (x = theta at n=3, the angle t at n=2), with
    A = F^T Hess(psi) F.  A point is certified when |grad psi| <= 1e-13 psi
    and that eigenvalue is < 0, which proves the maximum global when h is
    convex; the ascent stops there or after _NEWTON_CAP steps.  Points left
    uncertified (bases not C^2, such as the l_q balls) are solved again from
    the polytope seed with _PG_STEPS projected-gradient steps before the
    ascent, and keep the larger psi.  The state at the maximizer is kept, so
    certificate and the Hessian read it without forming it again.

    The gradient theta/h(theta) at the maximizer is envelope-exact; the
    Hessian is the implicit-function form -M^T F A^{-1} F^T M there, with
    M = I/h - grad h theta^T / h^2 (at n=2 the 1x1 A = psi'').
    """

    _NEWTON_CAP = 8
    _PG_STEPS = 10
    _GRAD_TOL = 1e-13
    # near the optimum psi changes by ~|grad psi|^2, below its rounding, so a
    # strict ascent test would reject the last Newton steps; steps whose
    # first-order gain is below _UNRESOLVED psi (psi of a harmonic base
    # rounds by up to ~1e-15) are judged by the gradient instead
    _ACCEPT = 1.0 - 4e-16
    _UNRESOLVED = 1e-14
    _SEED_BLOCK = 128

    def __init__(self, base: BodyEvaluator, grid: SphereGrid):
        super().__init__(base.n, label=f"polar({base.label})")
        self.base = base
        self.sign_symmetric = base.sign_symmetric
        self._grid, self._solution = grid, None   # see _grid_solution
        # the seeds' sign group
        self._flips = base.sign_symmetric
        first, inverse, D = grid.sign_fold(self._flips)
        inverse, D = inverse[:len(grid.pair_nodes)], D[:len(grid.pair_nodes)]
        self._reps = D[first] * grid.nodes[first]
        jet = _grid_jet(base, self._reps)
        h = jet[0]
        bad = np.flatnonzero(~(np.isfinite(h) & (h > 0))[inverse])
        if bad.size:
            raise ValueError(f"support function must be positive and finite on the "
                             f"grid: pair node {bad[0]} {grid.pair_nodes[bad[0]]} "
                             f"reads {h[inverse[bad[0]]]}")
        self._vertices_t = np.ascontiguousarray((self._reps / h[:, None]).T)
        if self.n == 3:
            self._ref_jet, self._ref_adj = jet, _osculating_adjugate(*jet)
            return
        # the circle jet at R, unfolded to the pair nodes' angles mod pi
        # (h' is odd under a flip)
        e = turn(self._reps)
        d1 = np.einsum("ij,ij->i", e, jet[1])
        R = np.einsum("ij,ijk,ik->i", e, jet[2], e)
        self._inverse_map = None
        if not (R > 0).all():
            return
        t = np.arctan2(grid.pair_nodes[:, 1], grid.pair_nodes[:, 0]) % np.pi
        h, d1, R = h[inverse], D[:, 0] * D[:, 1] * d1[inverse], R[inverse]
        order = np.argsort(t)
        t, h, d1, R = t[order], h[order], d1[order], R[order]
        beta = t + np.arctan2(d1, h)
        m = (h * h + d1 * d1) / (h * R)
        # one period of beta(t + pi) = beta(t) + pi
        beta, t, m = (np.concatenate([x, x[:1] + p])
                      for x, p in ((beta, np.pi), (t, np.pi), (m, 0.0)))
        if np.isfinite(m).all() and (beta[1:] > beta[:-1]).all():
            self._inverse_map = (beta, t, m)

    def _seed_index(self, U):
        """(index, D) of the polytope seed D R of each unit U: the vertex
        r = R/h(R) of largest |<V, r>|, one block of rows at a time, with
        V = U and D = sign <U, r> under +-I; under the flips r >= 0, V = |U|
        and D = sign(U), since <U, D r> = <|U|, r> is r's orbit's best."""
        V = np.abs(U) if self._flips else U
        idx = np.empty(len(U), dtype=np.intp)
        buf = np.empty((min(self._SEED_BLOCK, len(U)), self._vertices_t.shape[1]))
        for i in range(0, len(U), self._SEED_BLOCK):
            block = V[i:i + self._SEED_BLOCK]
            dots = np.matmul(block, self._vertices_t, out=buf[:len(block)])
            np.abs(dots, out=dots).argmax(axis=1, out=idx[i:i + len(block)])
        if self._flips:
            return idx, np.copysign(1.0, U)
        sign = np.copysign(1.0, np.einsum("ij,ji->i", U, self._vertices_t[:, idx]))
        return idx, np.broadcast_to(sign[:, None], U.shape)

    # -- maximizer of psi = <u, theta>/h(theta) over unit theta ----------
    def _psi(self, U, TH):
        return np.einsum("ij,ij->i", U, TH) / self.base.support(TH)

    @staticmethod
    def _psi_grad(U, TH, h, dh):
        """Tangential gradient of psi at TH, from the base's h and grad h there."""
        g = U / h[:, None] - (np.einsum("ij,ij->i", U, TH) / h**2)[:, None] * dh
        g -= np.einsum("ij,ij->i", g, TH)[:, None] * TH
        return g

    @staticmethod
    def _frame_terms(U, TH, h, dh, Hh):
        """(F, F^T grad psi, F^T Hess(psi) F) at TH, n=3: with a = F^T u,
        b = F^T grad h and t = <u, theta>, a/h - (t/h^2) b and
        -(a b^T + b a^T)/h^2 - (t/h^2) F^T D^2h F + 2 (t/h^3) b b^T.  F is
        sphere.tangent_frames(TH) to rounding, its rows E (2, 3, N) the
        coordinate-major frame_vectors at the longitude's cos and sin x/rho,
        y/rho, (1, 0) at the poles, where one product gives a, b and
        F^T D^2h.  Both sums over the three coordinates are added in
        coordinate order, whatever E's memory layout."""
        rho = np.hypot(TH[:, 0], TH[:, 1])
        c, s = np.divide(TH.T[:2], rho, where=rho > 0,
                         out=np.array([[1.0], [0.0]]).repeat(len(TH), axis=1))
        E = frame_vectors(TH, c, s)
        W = np.concatenate([U.T[:, None], dh.T[:, None], Hh.transpose(1, 2, 0)], axis=1)
        P = E[:, 0, None] * W[0]
        P += E[:, 1, None] * W[1]
        P += E[:, 2, None] * W[2]
        a, b = P[:, 0], P[:, 1]
        t = np.einsum("ij,ij->i", U, TH) / h**2
        cross = a[:, None] * b
        FHF = P[:, None, 2] * E[:, 0]
        FHF += P[:, None, 3] * E[:, 1]
        FHF += P[:, None, 4] * E[:, 2]
        A = (-(cross + cross.transpose(1, 0, 2)) / h**2 - t * FHF
             + 2.0 * (t / h) * (b[:, None] * b))
        return E.transpose(2, 1, 0), (a / h - t * b).T, A.transpose(2, 0, 1)

    def _maximize(self, U):
        """The ascent state at the maximizer of each unit U, then the
        fallback for the uncertified: _frame_state's at n=3 and
        _circle_state's at n=2."""
        if self.n == 2:
            a = np.arctan2(U[:, 1], U[:, 0])
            best, certified = self._circle_newton(a, self._circle_start(U, a))
        else:
            best, certified = self._newton(U, *self._frame_start(U))
        idx = np.flatnonzero(~certified)
        if idx.size:
            k, D = self._seed_index(U[idx])
            th = self._projected_gradient(U[idx], D * self._reps[k])
            alt = (self._circle_newton(a[idx], np.arctan2(th[:, 1], th[:, 0]))
                   if self.n == 2 else self._newton(U[idx], th))[0]
            better = alt[1] > best[1][idx]
            for x, y in zip(best, alt):
                x[idx[better]] = y[better]
        return best

    def _frame_start(self, U):
        """n=3: (start, base jet there): the polytope seed, or the osculating
        maximizer where Q is positive-definite and psi there is not lower.
        The jet at D R is (h, D grad h, D D^2h D), and adj(DQD) = D adj(Q) D."""
        idx, D = self._seed_index(U)
        h, dh, Hh = self._ref_jet
        seed = D * self._reps[idx]
        DD = D[:, :, None] * D[:, None, :]
        jet = (h[idx], D * dh[idx], DD * Hh[idx])
        # _ref_adj is NaN where Q is not positive-definite
        v = np.einsum("ijk,ik->ij", DD * self._ref_adj[idx], U)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        osc = np.flatnonzero(np.isfinite(v).all(axis=1))
        start = seed.copy()
        if osc.size:
            jo = self.base.jet(v[osc], 2)
            up = (np.einsum("ij,ij->i", U[osc], v[osc]) / jo[0]
                  >= np.einsum("ij,ij->i", U[osc], seed[osc]) / jet[0][osc])
            start[osc[up]] = v[osc[up]]
            for a, b in zip(jet, jo):
                a[osc[up]] = b[up]
        return start, jet

    def _circle_start(self, U, a):
        """n=2: the start angles for the units U at the angles a: the cubic
        Hermite interpolant of beta^-1 at a, clipped to the interval's node
        angles, which bracket beta^-1 as beta increases (the cubic overshoots
        on eccentric bases); the polytope seed's on a base with no map."""
        if self._inverse_map is None:
            idx, D = self._seed_index(U)
            seed = D * self._reps[idx]
            return np.arctan2(seed[:, 1], seed[:, 0])
        beta, t, m = self._inverse_map
        k = np.floor((a - beta[0]) / np.pi)
        b = a - k * np.pi
        j = np.searchsorted(beta[1:-1], b, side="right")
        d = beta[j + 1] - beta[j]
        s = (b - beta[j]) / d
        t0, t1 = t[j], t[j + 1]
        x = t0 + s * s * (3.0 - 2.0 * s) * (t1 - t0) + d * s * (1.0 - s) * (
            (1.0 - s) * m[j] - s * m[j + 1])
        return np.minimum(np.maximum(x, t0), t1) + k * np.pi

    def _projected_gradient(self, U, th):
        """_PG_STEPS projected-gradient ascent steps from th (one first-order
        base jet each)."""
        val = self._psi(U, th)
        step = np.full(len(U), 0.2)
        for _ in range(self._PG_STEPS):
            g = self._psi_grad(U, th, *self.base.jet(th, 1))
            cand = th + step[:, None] * g
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cval = self._psi(U, cand)
            ok = cval >= val
            th = np.where(ok[:, None], cand, th)
            val = np.where(ok, cval, val)
            step = np.where(ok, step * 1.5, step * 0.4)
        return th

    @staticmethod
    def _certified(state):
        """|grad psi| <= _GRAD_TOL psi and a negative top eigenvalue of A,
        read from an ascent state."""
        return (state[2] <= PolarBody._GRAD_TOL * state[1]) & (state[3] < 0)

    def _ascend(self, cur, propose):
        """Guarded ascent from the state cur = [x, psi, |grad psi|, top
        eigenvalue of A, h, ...] of each point until it is certified or
        _NEWTON_CAP steps have been taken.  propose(rows, cur, radius) takes
        the state of the rows still stepping and their trust radii, and
        returns the candidates' state, the steps' first-order gains and their
        lengths before the radius clip.  A candidate's state serves its
        acceptance test and, once it is accepted, the next step; only the
        points still stepping take part, gathered when some point stops.
        Returns (state, certified)."""
        N = len(cur[0])
        # a point whose base jet is not finite (so psi, |grad psi| or the top
        # eigenvalue is not) takes no step, and a candidate whose base jet is
        # not finite is a rejected step: such points stay uncertified, for the
        # fallback
        live = np.isfinite(cur[1] + cur[2] + cur[3])
        # the rows `act` of the result still stepping, their state cur
        out, certified = list(cur), np.zeros(N, dtype=bool)
        act, radius = np.arange(N), np.full(N, 0.2)
        for it in range(self._NEWTON_CAP + 1):
            # a certified point takes no more steps, so it stays certified
            cert = self._certified(cur)
            step = ~cert & live & (it < self._NEWTON_CAP)
            k = np.count_nonzero(step)
            if k < len(act) or not k:
                certified[act] = cert
                for a, b in zip(out, cur):
                    a[act] = b
                if not k:
                    break
                act, radius, live = act[step], radius[step], True
                cur = [a[step] for a in cur]
            new, gain, norm = propose(act, cur, radius)
            # a step whose first-order gain is below psi's rounding is judged
            # by the gradient, which still resolves it
            ok = np.where(gain <= self._UNRESOLVED * cur[1], new[2] < cur[2],
                          new[1] >= cur[1] * self._ACCEPT)
            ok &= np.isfinite(new[1] + new[2] + new[3])
            if ok.all():
                cur = new
                continue
            for a, b in zip(cur, new):
                a[ok] = b[ok]
            # the trust radius shrinks on each rejected step
            radius = np.where(ok, radius, 0.25 * np.minimum(radius, norm))
        return tuple(out), certified

    def _frame_state(self, U, TH, jet):
        """n=3 ascent state at TH from the second-order base jet there:
        [theta, psi, |g|, top eigenvalue of A, h, grad h, Hess h, F, A, g],
        with F, g = F^T grad psi and A of _frame_terms."""
        F, g, A = self._frame_terms(U, TH, *jet)
        return [TH, np.einsum("ij,ij->i", U, TH) / jet[0],
                np.sqrt(np.einsum("ij,ij->i", g, g)), frame_eigvalsh(A)[:, -1], *jet, F, A, g]

    def _newton(self, U, th, jet=None):
        """n=3: _ascend from th in the tangent frames, with one base jet and
        one _frame_terms per step at the candidate; jet is the second-order
        base jet at th when the caller holds it."""
        def propose(rows, cur, radius):
            ta, lam, F, A, g = cur[0], cur[3], *cur[7:]
            # Newton step, shifted to stay an ascent step (A - shift I is
            # negative-definite; Cramer's rule)
            shift = np.maximum(lam + 1e-9, 0.0) + 1e-12
            a, b, c = A[:, 0, 0] - shift, A[:, 1, 0], A[:, 1, 1] - shift
            s = np.stack([b * g[:, 1] - c * g[:, 0], b * g[:, 0] - a * g[:, 1]],
                         axis=1) / (a * c - b * b)[:, None]
            norm = np.sqrt(np.einsum("ij,ij->i", s, s))
            s *= (np.minimum(norm, radius) / np.maximum(norm, 1e-300))[:, None]
            cand = ta + np.einsum("ijk,ik->ij", F, s)
            cand /= np.sqrt(np.einsum("ij,ij->i", cand, cand))[:, None]
            return (self._frame_state(U[rows], cand, self.base.jet(cand, 2)),
                    np.einsum("ij,ij->i", g, s), norm)

        jet = self.base.jet(th, 2) if jet is None else jet
        return self._ascend(self._frame_state(U, th.copy(), jet), propose)

    @staticmethod
    def _circle_terms(a, t, h, d1, d2):
        """(psi, psi', psi'') of psi(t) = cos(t - a)/h(t) from the circle jet
        (h, h', h'') at t."""
        d = a - t
        c = np.cos(d)
        psi = c / h
        g = (np.sin(d) - psi * d1) / h
        return psi, g, -(2.0 * d1 * g + c + psi * d2) / h

    def _circle_state(self, a, t, jet):
        """n=2 ascent state at the angles t from the circle jet there, for
        the query angles a: [t, psi, |psi'|, psi'', h, h', psi']."""
        psi, g, A = self._circle_terms(a, t, *jet)
        return [t, psi, np.abs(g), A, jet[0], jet[1], g]

    def _circle_newton(self, a, t):
        """n=2: _ascend on the angle from t, for the query angles a, with
        (N,) scalars and one base circle jet at t and at each step's
        candidates."""
        def propose(rows, cur, radius):
            t, A, g = cur[0], cur[3], cur[6]
            # _newton's shifted step: A - shift = min(A, -1e-9) - 1e-12
            s = g / (1e-12 - np.minimum(A, -1e-9))
            norm = np.abs(s)
            s = np.maximum(np.minimum(s, radius), -radius)
            cand = t + s
            return self._circle_state(a[rows], cand, self.base.circle_jet(cand)), g * s, norm

        t = np.array(t, dtype=float)
        return self._ascend(self._circle_state(a, t, self.base.circle_jet(t)), propose)

    # -- evaluator interface ----------------------------------------------
    def jet(self, X, order=2):
        pts = _as_points(X, self.n)
        r = np.linalg.norm(pts, axis=1)
        bad = np.flatnonzero(~(np.isfinite(r) & (r > 0)))
        if bad.size:
            raise ValueError(f"polar support needs points of nonzero finite "
                             f"norm: row {bad[0]} is {pts[bad[0]]}")
        grid = self._grid
        if any(pts.shape == Y.shape and pts.tobytes() == Y.tobytes()
               for Y in (grid.nodes, grid.pair_nodes)):
            U, r, sol = self._grid_solution()
            _, inverse, D = grid.sign_fold(self.sign_symmetric)
            inverse, D = inverse[:len(pts)], D[:len(pts)]
        else:
            first, inverse, D = sign_fold(pts, self.sign_symmetric)
            r, U = r[first], D[first] * pts[first] / r[first, None]
            sol = self._maximize(U)
        j = self._folded_jet(U, r, sol, order)
        # unfold: h is invariant, grad h and D^2 h transform with the signs
        out = [j[0][inverse]]
        if order > 0:
            out.append(D * j[1][inverse])
        if order > 1:
            out.append(D[:, :, None] * j[2][inverse] * D[:, None, :])
        return tuple(out)

    def _grid_solution(self):
        """(U, r, _maximize(U)) at the reference grid's orbit representatives
        R = r U: solved on the first grid query, kept read-only."""
        if self._solution is None:
            r = np.linalg.norm(self._reps, axis=1)
            U = self._reps / r[:, None]
            sol = (U, r, self._maximize(U))
            for a in (U, r, *sol[2]):
                a.setflags(write=False)
            self._solution = sol
        return self._solution

    @property
    def certificate(self) -> tuple[int, float]:
        """(points left uncertified, largest |F^T grad psi|/psi) at the grid
        solution's maximizers, read off the ascent state kept after both
        passes; deterministic."""
        _, _, sol = self._grid_solution()
        return int((~self._certified(sol)).sum()), float(np.max(sol[2] / sol[1]))

    def _folded_jet(self, U, r, sol, order):
        """The jet at the points r U, no two of which share an orbit of the
        fold, from the ascent state sol = _maximize(U) at the maximizers."""
        h = r * sol[1]
        if order == 0:
            return (h,)
        hb = sol[4]
        if self.n == 2:
            # the one-tangent frame F = e, b = h' and the 1x1 A = psi''
            th = np.stack([np.cos(sol[0]), np.sin(sol[0])], axis=1)
            Ft, b, A = turn(th)[:, None], sol[5][:, None, None], sol[3][:, None, None]
        else:
            th, Ft, A = sol[0], sol[7].transpose(0, 2, 1), sol[8]
            b = Ft @ sol[5][:, :, None]
        grad = th / hb[:, None]
        if order == 1:
            return h, grad
        # implicit-function Hessian: grad_theta psi = 0 at the maximizer, so
        # the frame's derivative drops out, and M U = grad_theta psi = 0;
        # F^T M = (F^T - b theta^T / h) / h with b = F^T grad h
        hb = hb[:, None, None]
        FtM = (Ft - b * th[:, None, :] / hb) / hb
        # projected on the tangent space at U (M U = 0 to rounding), so that
        # -FtM^T A^-1 FtM, symmetrized, is the projected Hessian; a base
        # Hessian exactly degenerate at the maximizer makes A singular: those
        # points get a NaN Hessian, which evaluate_on_grid reports
        FtM -= (FtM @ U[:, :, None]) * U[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            S = frame_solve(A, FtM)
        S[frame_det(A) == 0.0] = np.nan
        H = -FtM.transpose(0, 2, 1) @ S
        return h, grad, 0.5 * (H + H.transpose(0, 2, 1)) / r[:, None, None]


# ----------------------------------------------------------------------
# constructors


def ball(r: float, n: int) -> BodyEvaluator:
    """The ball of radius r: the ellipsoid r I."""
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"radius r must be positive and finite, got {r}")
    body = EllipsoidBody(r * np.eye(n))
    body.label = f"ball({r})"
    return body


def ellipsoid(A) -> BodyEvaluator:
    return EllipsoidBody(np.asarray(A, dtype=float))


def _coeff_vector(n: int, entries, basis: HarmonicBasis) -> np.ndarray:
    """Coefficient vector from (degree, order, value) triples at basis.column.

    n=2: order 0 = cos(k t), 1 = sin(k t).  n=3: order m in [-l, l], with
    m > 0 the cos-type and m < 0 the sin-type real harmonic.
    """
    c = np.zeros(basis.size)
    for deg, order, val in entries:
        if deg < 0:
            raise ValueError(f"harmonic degree must be nonnegative, got {deg}")
        if n == 2 and (order not in (0, 1) or (deg == 0 and order != 0)):
            raise ValueError("order must be 0 (cos) or 1 (sin), and 0 at degree 0")
        if n == 3 and abs(order) > deg:
            raise ValueError("order exceeds degree")
        m, kind = (deg, order) if n == 2 else (abs(order), int(order < 0))
        c[basis.column(deg, m, kind)] += val
    return c


# canonical mix: curvature pinching of perturbed_ball(n, 0.1) stays well
# inside strong convexity (min eig D^2 h ~ 0.4-0.6), so polars stay resolvable
_DEFAULT_PERTURBATION = {
    2: [(2, 0, 1.0), (4, 0, 0.35), (6, 1, 0.12)],
    3: [(2, 0, 1.0), (2, 2, 0.5), (4, 1, 0.25), (6, -3, 0.1)],
}


def perturbed_ball(n: int, eps: float, coeffs=None) -> BodyEvaluator:
    """h = 1 + eps * (even-harmonic combination); eps = 0 gives the unit ball."""
    if coeffs is None:
        coeffs = _DEFAULT_PERTURBATION[n]
    degs = [c[0] for c in coeffs]
    if any(d % 2 != 0 for d in degs):
        raise ValueError("perturbation must use even degrees")
    band = max(degs) if degs else 2
    basis = HarmonicBasis(n, band)
    c = eps * _coeff_vector(n, coeffs, basis)
    c[0] += 1.0 / basis.constant_value  # constant term = 1
    return SpectralBody(n, c, basis, label=f"perturbed_ball(eps={eps})")


@functools.cache
def _check_grid(n: int, L: int) -> SphereGrid:
    """random_even_body's rejection grid, built once per (n, L).  Its nodes
    are bit for bit build_grid(n, L)'s, so the accepted body's grid jet
    (_grid_jet) serves its evaluation on any such grid."""
    return build_grid(n, L)


def random_even_body(n: int, seed: int, band: int = 8,
                     strength: float = 0.3) -> BodyEvaluator:
    """Random valid origin-symmetric body; rejection-samples until D^2 h > 0."""
    rng = np.random.default_rng(seed)
    basis = HarmonicBasis(n, band)
    check_grid = _check_grid(n, max(2 * band, 8))
    even_pert = (basis.parity > 0) & (basis.degrees > 0)
    for trial in range(_RANDOM_DRAWS):
        c = np.zeros(basis.size)
        amp = rng.normal(size=int(even_pert.sum()))
        decay = np.exp(-0.5 * basis.degrees[even_pert])
        c[even_pert] = strength * amp * decay / np.sqrt(even_pert.sum())
        c[0] = 1.0 / basis.constant_value
        body = SpectralBody(n, c, basis, label=f"random(seed={seed},try={trial})")
        try:
            bg = evaluate_on_grid(body, check_grid)
        except ValueError:  # h <= 0 somewhere: reject the draw
            continue
        if bg.valid:
            return body
    raise RuntimeError(f"rejection budget exhausted after {_RANDOM_DRAWS} draws")


class _LqBall(LqNormBody):
    """The unit l_q ball (lq_gauge_body): LqNormBody at the dual exponent,
    with the exact gauge ||.||_q."""

    def __init__(self, q: int, n: int):
        super().__init__(q / (q - 1), n)
        self.label = f"l{q}-ball"
        self._q = q

    def gauge_body(self):
        return LqNormBody(self._q, self.n)


def lq_gauge_body(q: int, n: int) -> BodyEvaluator:
    """The unit l_q ball (gauge ||.||_q) for q >= 2; its support function is
    the dual norm ||.||_{q/(q-1)}, LqNormBody at that exponent, and its gauge
    LqNormBody(q) at the caller's q (the dual of the dual exponent need not
    round back to q).

    Not strongly convex as given (curvature degenerates on the axes); used as
    a rough input for the smoothing construction, which only needs its gauge.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return _LqBall(q, n)


def linear_image(body: BodyEvaluator, T) -> BodyEvaluator:
    return LinearImageBody(body, np.asarray(T, dtype=float))


def firey_sum(a: float, bodyK: BodyEvaluator, b: float, bodyL: BodyEvaluator,
              p: float) -> BodyEvaluator:
    return FireySumBody(a, bodyK, b, bodyL, p)


def polar(body: BodyEvaluator, grid: SphereGrid) -> BodyEvaluator:
    return PolarBody(body, grid)


# ----------------------------------------------------------------------
# grid evaluation


class BodyOnGrid(NamedTuple):
    """A body sampled at the grid's pair nodes (the antipode -u reads h(u),
    -x(u) and D2h_frame(u)).  The tangential Hessian is held as
    D2h_frame = F^t D^2h F in the grid's tangent frames F
    (grid.tangent_frames()); the metric in those frames is D2h_frame / h."""

    body: BodyEvaluator
    grid: SphereGrid
    h: np.ndarray            # support values, (N/2,)
    x: np.ndarray            # boundary points (ambient gradient of h), (N/2, n)
    D2h_frame: np.ndarray    # tangential Hessian in the frames, (N/2, n-1, n-1)
    sk_density: np.ndarray   # det of D2h on the tangent space
    vk_density: np.ndarray   # cone-volume density h * sk / n
    eig_D2h: np.ndarray      # per-node tangential eigenvalues, (N/2, n-1)
    min_eig_D2h: float
    valid: bool              # min_eig_D2h > VALID_MIN_EIG

    @property
    def n(self) -> int:
        return self.grid.n


def evaluate_on_grid(body: BodyEvaluator, grid: SphereGrid) -> BodyOnGrid:
    """Sample a body at the grid's pair nodes and derive its geometry; h and
    x are the read-only arrays of the body's grid jet (_grid_jet)."""
    if body.n != grid.n:
        raise ValueError("body/grid dimension mismatch")
    h, x, H = _grid_jet(body, grid.pair_nodes)
    if not np.all(np.isfinite(h)) or np.any(h <= 0):
        raise ValueError("support function must be positive and finite on the grid")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(H))):
        raise ValueError("non-finite derivative on the grid")
    F = grid.tangent_frames()
    R = F.transpose(0, 2, 1) @ H @ F
    R = 0.5 * (R + R.transpose(0, 2, 1))
    sk = frame_det(R)
    vk = h * sk / grid.n
    eig = frame_eigvalsh(R)
    mn = float(eig.min())
    return BodyOnGrid(
        body=body, grid=grid, h=h, x=x, D2h_frame=R,
        sk_density=sk, vk_density=vk, eig_D2h=eig,
        min_eig_D2h=mn, valid=bool(mn > VALID_MIN_EIG),
    )


# ----------------------------------------------------------------------
# scalar quantities


class Quantities(NamedTuple):
    volume: float
    omega_n: float
    r_in: float
    R_out: float
    polar_volume: float


def quantities(bg: BodyOnGrid) -> Quantities:
    """Volume, centro-affine surface area, polar volume, and the
    origin-symmetric sandwich radii r_in <= h <= R_out."""
    if not bg.valid:
        raise ValueError("body is not strongly convex on the grid")
    w = bg.grid.pair_weights
    n = bg.grid.n
    volume = float(w @ bg.vk_density)
    omega = float(w @ np.sqrt(bg.sk_density / bg.h ** (n - 1))) / n
    polar_volume = float(w @ bg.h ** (-n)) / n
    return Quantities(
        volume=volume,
        omega_n=omega,
        r_in=float(bg.h.min()),
        R_out=float(bg.h.max()),
        polar_volume=polar_volume,
    )
