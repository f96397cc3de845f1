"""Smoothing construction for the isomorphic uniqueness bounds.

Given a body sandwiched between B and D B, builds the smooth strongly convex
body obtained by rounding the squared gauge with a multiple of the Euclidean
one and adding a small ball:

    gauge_L(x)^2 = gauge_K(x)^2 + (alpha/D)^2 |x|^2,   K~ = L + beta B.

Closed-form predictions for the sandwich radii, the pinching constants of
h D^2 h, and the Banach-Mazur distance to K are paired with end-to-end
numerical verification of each bound.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from calab.bodies import (
    BodyEvaluator,
    BodyOnGrid,
    EllipsoidBody,
    ball,
    check_support,
    firey_sum,
    linear_image,
    polar,
)
from calab.pinching import measure_pinching
from calab.sphere import SphereGrid


class IsoParams(NamedTuple):
    n: int
    alpha: float
    beta: float
    D: float
    r: float          # guaranteed inradius of the smoothed body
    R: float          # guaranteed circumradius
    A: float          # guaranteed lower bound on h D^2 h
    B: float          # guaranteed upper bound on h D^2 h
    dbm_bound: float  # Banach-Mazur distance bound to the input body

    def to_dict(self) -> dict:
        return self._asdict()


def predicted_params(n: int, alpha: float, beta: float, D: float) -> IsoParams:
    """Closed-form sandwich and pinching constants of the smoothed body."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if D < 1.0:
        raise ValueError("the sandwich ratio D must be >= 1")
    s = np.sqrt(1.0 + alpha**2 / D**2)
    r = beta + 1.0 / s
    R = D / np.sqrt(1.0 + alpha**2) + beta
    A = beta * r
    B = D**2 / alpha**2 * (1.0 + beta * s) + beta * R
    if not (0 < r <= R and 0 < A <= B):
        raise ValueError("degenerate parameter combination")
    return IsoParams(
        n=n, alpha=float(alpha), beta=float(beta), D=float(D),
        r=float(r), R=float(R), A=float(A), B=float(B),
        dbm_bound=float((1.0 + beta) * np.sqrt(1.0 + alpha**2)),
    )


def _sandwich(bodyK: BodyEvaluator, grid: SphereGrid, alpha: float, beta: float,
              certificate: tuple[float, float] | None) -> tuple[float, float]:
    """(r_in, D = R_out/r_in) of the certificate (r_in, R_out), read off the
    support values at the pair nodes when not given, after checking that
    alpha and beta are positive, the support is positive and finite there
    (check_support) and 0 < r_in <= R_out."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    h = bodyK.support(grid.pair_nodes)
    check_support(grid, h)
    if certificate is None:
        certificate = (float(h.min()), float(h.max()))
    r_in, R_out = certificate
    if r_in <= 0 or R_out < r_in:
        raise ValueError("invalid sandwich certificate")
    return r_in, R_out / r_in


def construct(bodyK: BodyEvaluator, grid: SphereGrid, alpha: float, beta: float,
              gauge: str = "auto",
              certificate: tuple[float, float] | None = None,
              ) -> tuple[BodyEvaluator, IsoParams]:
    """Build the smoothed body and its predicted parameter record.

    certificate = (r_in, R_out) with r_in B subset K subset R_out B; when the
    caller knows the exact constants (analytic families) they should pass
    them, otherwise they are read off the support values on the grid.  The
    input is rescaled by r_in so that B subset K subset D B with
    D = R_out/r_in.  The gauge of K enters through the polar operation:
    gauge='numeric' always goes through the polar of the support function,
    'auto' takes the family's closed-form gauge evaluator when it has one.
    """
    if gauge not in ("auto", "numeric"):
        raise ValueError(f"gauge must be 'auto' or 'numeric', got {gauge!r}")
    r_in, D = _sandwich(bodyK, grid, alpha, beta, certificate)
    scaled = linear_image(bodyK, np.eye(grid.n) / r_in)

    gauge_body = scaled.gauge_body() if gauge == "auto" else None
    if gauge_body is None:
        gauge_body = polar(scaled, grid)

    rounded_gauge = firey_sum(1.0, gauge_body, 1.0, ball(alpha / D, grid.n), 2.0)
    hL = polar(rounded_gauge, grid)
    ktilde = firey_sum(1.0, hL, 1.0, ball(beta, grid.n), 1.0)
    ktilde.label = f"smoothed({bodyK.label},a={alpha},b={beta})"
    params = predicted_params(grid.n, alpha, beta, D)
    return ktilde, params


class _RoundedGaugeBody(BodyEvaluator):
    """sqrt(gauge(x)^2 + c^2 |x|^2) with hand-written derivatives.

    Independent of the Firey-sum composition; used as the 'direct gauge
    formula' side of the dual-route consistency check.  Sign-symmetric when
    its gauge is."""

    def __init__(self, gauge_body: BodyEvaluator, c: float):
        super().__init__(gauge_body.n, label=f"rounded({gauge_body.label})")
        self.gb = gauge_body
        self.c = float(c)
        self.sign_symmetric = gauge_body.sign_symmetric

    def jet(self, X, order=2):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        j = self.gb.jet(X, order)
        u = j[0]
        G = np.sqrt(u**2 + self.c**2 * (X**2).sum(axis=1))
        if order == 0:
            return (G,)
        du = j[1]
        dG = (u[:, None] * du + self.c**2 * X) / G[:, None]
        if order == 1:
            return G, dG
        num = (
            du[:, :, None] * du[:, None, :]
            + u[:, None, None] * j[2]
            + self.c**2 * np.eye(self.n)[None]
            - dG[:, :, None] * dG[:, None, :]
        )
        return G, dG, num / G[:, None, None]


def direct_route_support(bodyK: BodyEvaluator, grid: SphereGrid, alpha: float,
                         beta: float,
                         certificate: tuple[float, float] | None = None,
                         ) -> np.ndarray:
    """h of the smoothed body on the grid by the direct gauge formula.

    Ellipsoids are fully closed-form (the rounded gauge is again a quadratic
    gauge, so no polar solve at all); other gauge families go through a
    hand-written rounded-gauge evaluator and a single polar solve.  Inputs
    are checked as in construct."""
    r_in, D = _sandwich(bodyK, grid, alpha, beta, certificate)
    c = alpha / D
    if isinstance(bodyK, EllipsoidBody):
        A = bodyK.A / r_in
        M2 = np.linalg.inv(A @ A) + c**2 * np.eye(grid.n)
        w, V = np.linalg.eigh(M2)
        Minv = (V / np.sqrt(w)[None, :]) @ V.T
        hL = np.linalg.norm(grid.nodes @ Minv.T, axis=1)
        return hL + beta
    scaled = linear_image(bodyK, np.eye(grid.n) / r_in)
    gb = scaled.gauge_body()
    if gb is None:
        raise ValueError("direct route needs a closed-form gauge")
    hL = polar(_RoundedGaugeBody(gb, c), grid).support(grid.nodes)
    return hL + beta


def verify(bg_ktilde: BodyOnGrid, params: IsoParams, slack: float = 0.02) -> dict:
    """Measured pinching of the smoothed body against the predicted bounds.

    The predictions are guaranteed bounds, so the measured values must be at
    least as good, up to the stated quadrature slack."""
    rep = measure_pinching(bg_ktilde)
    checks = [
        {
            "name": "inradius",
            "measured": rep.r_in,
            "bound": params.r,
            "pass": bool(rep.r_in >= params.r * (1.0 - slack)),
        },
        {
            "name": "circumradius",
            "measured": rep.R_out,
            "bound": params.R,
            "pass": bool(rep.R_out <= params.R * (1.0 + slack)),
        },
        {
            "name": "metric_lower",
            "measured": rep.A,
            "bound": params.A,
            "pass": bool(rep.A >= params.A * (1.0 - slack)),
        },
        {
            "name": "metric_upper",
            "measured": rep.B,
            "bound": params.B,
            "pass": bool(rep.B <= params.B * (1.0 + slack)),
        },
    ]
    return {
        "slack": slack,
        "checks": checks,
        "pass": bool(all(c["pass"] for c in checks)),
        "pinching": rep.to_dict(),
    }


def p_gamma_D(n: int, gamma: float, D: float) -> float:
    """Threshold exponent 7/3 - (n-1) gamma^2 / (24 D^2)."""
    if gamma <= 0 or D <= 0:
        raise ValueError("gamma and D must be positive")
    return 7.0 / 3.0 - (n - 1) / 24.0 * (gamma / D) ** 2


def isometric_gamma(n: int, D: float, C: float = 1.0) -> float:
    """Distance budget 1 + C sqrt(D) / n^(1/4) of the isometric regime.

    The constant C is not pinned down by the theory; callers supply it
    (default 1.0)."""
    if D <= 0 or C <= 0 or n < 2:
        raise ValueError("need D > 0, C > 0 and n >= 2")
    return 1.0 + C * np.sqrt(D) / n**0.25


def geometric_distance(bodyA: BodyEvaluator, bodyB: BodyEvaluator,
                       grid: SphereGrid) -> float:
    """d_G(A, B) = (max h_A/h_B) * (max h_B/h_A) sampled at the pair nodes."""
    ha = bodyA.support(grid.pair_nodes)
    hb = bodyB.support(grid.pair_nodes)
    return float((ha / hb).max() * (hb / ha).max())
