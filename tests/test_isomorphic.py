"""Tests for the smoothing construction and its closed-form parameter bounds."""

import numpy as np
import pytest

from calab.bodies import (
    EllipsoidBody,
    PolarBody,
    ball,
    ellipsoid,
    evaluate_on_grid,
    lq_gauge_body,
)
from calab.isomorphic import (
    construct,
    direct_route_support,
    geometric_distance,
    isometric_gamma,
    p_gamma_D,
    predicted_params,
    verify,
)
from calab.sphere import build_grid


# ---------------------------------------------------------------------------
# closed-form parameters
# ---------------------------------------------------------------------------


def test_predicted_params_hand_values():
    # alpha = beta = 1, D = 2, re-derived by hand from the defining formulas
    p = predicted_params(3, 1.0, 1.0, 2.0)
    assert abs(p.r - (1.0 + 1.0 / np.sqrt(1.25))) < 1e-12
    assert abs(p.r - 1.8944271909999159) < 1e-12
    assert abs(p.R - (np.sqrt(2.0) + 1.0)) < 1e-12
    assert abs(p.A - p.beta * p.r) < 1e-15
    assert abs(p.B - (4.0 * (1.0 + np.sqrt(1.25)) + np.sqrt(2.0) + 1.0)) < 1e-12
    assert abs(p.B - 10.886349517372675) < 1e-10
    assert abs(p.dbm_bound - 2.0 * np.sqrt(2.0)) < 1e-12


def test_predicted_params_degenerate_limit():
    # alpha, beta -> 0: the construction degenerates to the body itself
    p = predicted_params(3, 1e-9, 1e-9, 1.7)
    assert abs(p.r - 1.0) < 1e-8
    assert abs(p.R - 1.7) < 1e-8
    assert abs(p.dbm_bound - 1.0) < 1e-8


def test_predicted_params_lattice_ordering():
    for alpha in np.linspace(0.2, 3.0, 10):
        for beta in np.linspace(0.1, 2.0, 10):
            for D in np.linspace(1.0, 4.0, 10):
                p = predicted_params(3, alpha, beta, D)
                assert p.A <= p.B
                assert p.r <= p.R or abs(p.r - p.R) < 1e-12


def test_predicted_params_domain():
    with pytest.raises(ValueError):
        predicted_params(3, -1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        predicted_params(3, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_construct_ball_closed_form():
    # for the unit ball (D = 1) everything is radial:
    # K~ = ball(1/sqrt(1+alpha^2) + beta)
    g = build_grid(2, 16)
    alpha, beta = 0.8, 0.4
    kt, params = construct(ball(1.0, 2), g, alpha, beta)
    expected = 1.0 / np.sqrt(1.0 + alpha**2) + beta
    h = kt.support(g.nodes)
    assert np.abs(h - expected).max() < 1e-9
    assert abs(params.D - 1.0) < 1e-12


def test_construct_dual_route_agreement():
    # closed-form gauge (auto, for an ellipsoid) vs polar-of-Firey-sum
    # numeric gauge
    g = build_grid(2, 24)
    A = np.array([[1.6, 0.3], [0.3, 1.0]])
    for a, b in [(1.0, 1.0), (0.5, 0.3)]:
        kt1, _ = construct(ellipsoid(A), g, a, b, gauge="auto")
        kt2, _ = construct(ellipsoid(A), g, a, b, gauge="numeric")
        h1 = kt1.support(g.nodes)
        h2 = kt2.support(g.nodes)
        assert np.abs(h1 - h2).max() < 1e-6


def test_direct_route_of_odd_lq_ball():
    # every l_q ball has the closed-form gauge LqNormBody, odd q included:
    # the direct gauge formula agrees with the polar-of-Firey-sum chain
    g = build_grid(3, 16)
    body = lq_gauge_body(3, 3)
    cert = (1.0, 3.0 ** (1.0 / 6.0))
    kt, _ = construct(body, g, 0.5, 0.3, certificate=cert)
    h_direct = direct_route_support(body, g, 0.5, 0.3, certificate=cert)
    assert np.abs(kt.support(g.nodes) - h_direct).max() < 1e-6


@pytest.mark.parametrize("n", [2, 3])
def test_direct_route_of_a_ball_is_closed_form(n, monkeypatch):
    # a ball is the ellipsoid r I, so the direct route takes the quadratic
    # gauge formula and solves no polar; it still meets the dual-route gate
    g = build_grid(n, 16)
    body = ball(1.3, n)
    kt, _ = construct(body, g, 0.5, 0.3)
    built = []
    init = PolarBody.__init__
    monkeypatch.setattr(PolarBody, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    h_direct = direct_route_support(body, g, 0.5, 0.3)
    assert built == []
    assert np.abs(kt.support(g.nodes) - h_direct).max() < 1e-6


@pytest.mark.parametrize("gauge", ["closed", "foo"])
def test_construct_rejects_unknown_gauge(gauge):
    with pytest.raises(ValueError, match="gauge"):
        construct(ellipsoid(np.diag([2.0, 1.0])), build_grid(2, 8), 0.5, 0.3,
                  gauge=gauge)


def test_construct_requires_positive_support():
    g = build_grid(2, 16)

    class Bad(EllipsoidBody):
        def support(self, X):
            return np.zeros(len(np.atleast_2d(X)))

    bad = Bad(np.eye(2))
    with pytest.raises(ValueError):
        construct(bad, g, 1.0, 1.0)


@pytest.mark.parametrize("route", [construct, direct_route_support])
@pytest.mark.parametrize("alpha,beta,certificate", [
    pytest.param(0.0, 0.3, None, id="alpha_zero"),
    pytest.param(-0.5, 0.3, None, id="alpha_negative"),
    pytest.param(0.5, 0.0, None, id="beta_zero"),
    pytest.param(0.5, -0.3, None, id="beta_negative"),
    pytest.param(0.5, 0.3, (1.5, 1.0), id="R_out_below_r_in"),
    pytest.param(0.5, 0.3, (0.0, 1.0), id="r_in_zero"),
])
def test_both_routes_reject_bad_inputs(route, alpha, beta, certificate):
    # the construction and the direct gauge formula check their inputs alike
    g = build_grid(3, 8)
    with pytest.raises(ValueError):
        route(ellipsoid(np.diag([1.5, 1.0, 0.8])), g, alpha, beta,
              certificate=certificate)


def test_construct_output_valid_and_verified():
    g = build_grid(2, 20)
    body = ellipsoid(np.diag([1.8, 1.0]))
    kt, params = construct(body, g, 1.0, 1.0)
    bg = evaluate_on_grid(kt, g)
    assert bg.valid
    res = verify(bg, params)
    assert res["pass"], res


def test_construct_lq_body_n3():
    # exact certificate: axes touch B, the diagonal touches 3^(1/4) B
    g = build_grid(3, 16)
    body = lq_gauge_body(4, 3)
    kt, params = construct(body, g, 0.5, 0.3, certificate=(1.0, 3.0**0.25))
    assert abs(params.D - 3.0**0.25) < 1e-12
    bg = evaluate_on_grid(kt, g)
    assert bg.valid
    res = verify(bg, params)
    assert res["pass"], res


def test_verify_negative_control():
    # deliberately wrong parameter record (alpha and beta swapped) must fail
    g = build_grid(2, 20)
    body = ellipsoid(np.diag([1.8, 1.0]))
    kt, _ = construct(body, g, 1.0, 0.25)
    bg = evaluate_on_grid(kt, g)
    h = body.support(g.nodes)
    wrong = predicted_params(2, 0.25, 1.0, h.max() / h.min())
    assert not verify(bg, wrong)["pass"]


def test_geometric_distance_bound():
    # d_G(K, K~) is controlled by (1+beta) sqrt(1+alpha^2)
    g = build_grid(2, 20)
    body = ellipsoid(np.diag([1.5, 1.0]))
    for a, b in [(0.5, 0.3), (1.0, 1.0)]:
        kt, params = construct(body, g, a, b)
        scaled_h = body.support(g.nodes)
        scale = scaled_h.min()
        import calab.bodies as bodies

        scaled = bodies.linear_image(body, np.eye(2) / scale)
        d = geometric_distance(scaled, kt, g)
        assert d <= params.dbm_bound * (1.0 + 1e-3)


# ---------------------------------------------------------------------------
# section-level exponent formulas
# ---------------------------------------------------------------------------


def test_p_gamma_D_dimension_65():
    val = p_gamma_D(65, 8.0, np.sqrt(65.0))
    assert abs(val - (7.0 / 3.0 - (64.0 / 24.0) * (64.0 / 65.0))) < 1e-14
    assert abs(val - (-0.29231)) < 1e-4
    assert val < 0.0


def test_p_gamma_D_gamma_equals_D():
    for n in (10, 65):
        assert abs(p_gamma_D(n, 3.0, 3.0) - (7.0 / 3.0 - (n - 1) / 24.0)) < 1e-14


def test_isometric_gamma_value():
    assert isometric_gamma(16, 4.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        isometric_gamma(16, -1.0)
    # C <= 0 would put the distance budget at or below 1
    for C in (0.0, -1.0):
        with pytest.raises(ValueError):
            isometric_gamma(16, 4.0, C)
