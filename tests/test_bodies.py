"""Tests for support-function evaluators and Brunn-Minkowski quantities."""

import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calab import bodies
from calab.bodies import (
    BodyEvaluator,
    EllipsoidBody,
    LqNormBody,
    PolarBody,
    SpectralBody,
    ball,
    ellipsoid,
    perturbed_ball,
    random_even_body,
    lq_gauge_body,
    evaluate_on_grid,
    polar,
    linear_image,
    firey_sum,
    quantities,
)
from calab.isomorphic import _RoundedGaugeBody, construct
from calab.sphere import (HarmonicBasis, build_grid, frame_eigvalsh, tangent_frames,
                          to_ambient, turn, unpack_sym)
from oracles import fd_grad, fd_hess


def unit_vectors(rng, count, n):
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_ball_support_values():
    B = ball(2.0, 3)
    e = np.array([[0.0, 0.0, 1.0]])
    assert abs(B.support(e)[0] - 2.0) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_ball_is_the_ellipsoid_rI(n, r):
    # ball(r, n) is the ellipsoid r I: its jet is r|x|, r x/|x| and
    # (r/|x|)(I - u u^t) to 1e-15 relative at points of any norm; it is
    # sign-symmetric and its gauge is the ball of radius 1/r
    B = ball(r, n)
    assert isinstance(B, EllipsoidBody) and np.array_equal(B.A, r * np.eye(n))
    assert B.label == f"ball({r})" and B.sign_symmetric
    rng = np.random.default_rng(31)
    X = rng.normal(size=(200, n)) * np.exp(rng.uniform(-3.0, 3.0, size=(200, 1)))
    norm = np.linalg.norm(X, axis=1)
    u = X / norm[:, None]
    h, grad, hess = B.jet(X, 2)
    assert np.abs(h / (r * norm) - 1.0).max() < 1e-15
    assert np.abs(grad - r * u).max() < 1e-15 * r
    proj = np.eye(n)[None] - u[:, :, None] * u[:, None, :]
    scale = (r / norm)[:, None, None]
    assert (np.abs(hess - scale * proj) / scale).max() < 1e-15
    G = B.gauge_body()
    assert G.sign_symmetric
    assert np.abs(G.support(X) / (norm / r) - 1.0).max() < 1e-15


def test_ellipsoid_axis_values():
    E = ellipsoid(np.diag([2.0, 1.0]))
    assert abs(E.support([[1.0, 0.0]])[0] - 2.0) < 1e-14
    assert abs(E.support([[0.0, 1.0]])[0] - 1.0) < 1e-14


def test_perturbed_ball_eps_zero_is_unit_ball():
    for n in (2, 3):
        P = perturbed_ball(n, 0.0)
        rng = np.random.default_rng(0)
        u = unit_vectors(rng, 50, n)
        assert np.abs(P.support(u) - 1.0).max() < 1e-12


def test_homogeneity_and_evenness():
    rng = np.random.default_rng(1)
    for body in [ball(1.5, 3), ellipsoid(np.diag([2.0, 1.0, 0.7])),
                 perturbed_ball(3, 0.1)]:
        u = unit_vectors(rng, 40, 3)
        t = rng.uniform(0.5, 3.0, size=40)
        h1 = body.support(u)
        ht = body.support(t[:, None] * u)
        assert np.abs(ht - t * h1).max() < 1e-12 * np.abs(ht).max()
        assert np.abs(body.support(-u) - h1).max() < 1e-12


def test_random_even_body_is_valid_and_deterministic():
    b1 = random_even_body(2, seed=5)
    b2 = random_even_body(2, seed=5)
    g = build_grid(2, 16)
    assert np.allclose(b1.support(g.nodes), b2.support(g.nodes))
    assert evaluate_on_grid(b1, g).valid


@pytest.mark.parametrize("coeffs", [[(2, 3, 0.5)], [(2, -1, 0.5)], [(0, 1, 0.5)]])
def test_perturbed_ball_rejects_bad_circle_order(coeffs):
    # at n=2 an order is 0 (cos) or 1 (sin), and 0 at degree 0; (2, 3) used
    # to land on sin 3t, a body that is not origin-symmetric
    with pytest.raises(ValueError, match="order"):
        perturbed_ball(2, 0.1, coeffs)


def test_spectral_body_frames_are_the_tangent_frames(monkeypatch):
    # at n=3 SpectralBody.jet builds its frames with sphere.frame_vectors at
    # the longitude synthesis_jet returns: bit for bit tangent_frames, at
    # random points of any norm, the poles and points on the coordinate planes
    from calab import bodies
    seen = []
    vectors = bodies.frame_vectors
    monkeypatch.setattr(bodies, "frame_vectors",
                        lambda u, cp, sp: seen.append((u, vectors(u, cp, sp))) or seen[-1][1])
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(500, 3))
    pts = np.concatenate([pts, np.eye(3), -np.eye(3), pts * [1, 1, 0], pts * [0, 1, 1]])
    perturbed_ball(3, 0.1).jet(pts, 2)
    (u, frames), = seen
    assert np.array_equal(frames.T, tangent_frames(u))


@pytest.mark.parametrize("n", [2, 3])
def test_perturbed_ball_rejects_negative_degree(n):
    # degree -2 is even and below the band, so only the degree check stops it
    # from landing on a wrong coefficient
    with pytest.raises(ValueError, match="degree must be nonnegative, got -2"):
        perturbed_ball(n, 0.1, [(2, 0, 1.0), (-2, 0, 5.0)])


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_body_rejects_odd_coefficient(n):
    basis = HarmonicBasis(n, 4)
    c = np.zeros(basis.size)
    c[0] = 3.0
    c[np.flatnonzero(basis.degrees == 3)[0]] = 0.02
    with pytest.raises(ValueError, match="origin-symmetric"):
        SpectralBody(n, c, basis)


def test_random_even_body_budget_exhaustion():
    with pytest.raises(RuntimeError):
        random_even_body(2, seed=0, strength=500.0)


# ---------------------------------------------------------------------------
# evaluate_on_grid
# ---------------------------------------------------------------------------


def _ambient_D2h(bg):
    """The ambient tangential Hessian F R F^t from the frame matrices R."""
    F = bg.grid.tangent_frames()
    return F @ bg.D2h_frame @ F.transpose(0, 2, 1)


def test_ball_on_grid_closed_forms():
    r = 1.7
    for n in (2, 3):
        g = build_grid(n, 8)
        bg = evaluate_on_grid(ball(r, n), g)
        u = g.pair_nodes
        proj = np.eye(n)[None] - u[:, :, None] * u[:, None, :]
        D2h = _ambient_D2h(bg)
        assert np.abs(D2h - r * proj).max() < 1e-12
        assert np.abs(D2h / bg.h[:, None, None] - proj).max() < 1e-12
        assert np.abs(bg.sk_density - r ** (n - 1)).max() < 1e-10
        assert np.abs(bg.vk_density - r**n / n).max() < 1e-10
        assert bg.valid


@pytest.mark.parametrize("name", ["ellipsoid", "perturbed", "polar", "firey"])
@pytest.mark.parametrize("n", [2, 3])
def test_frame_hessian_matches_ambient(n, name):
    # evaluate_on_grid reads det and eigenvalues off the frame matrix
    # R = F^t D^2h F; the ambient F R F^t must give the same numbers by the
    # padded determinant and the frame restriction, and the Minkowski
    # model's frame matrices the same for a spectral body
    g = build_grid(n, 16)
    E = ellipsoid(np.diag([2.0, 1.0, 0.7][:n]))
    pb = perturbed_ball(n, 0.1)
    body = {"ellipsoid": E, "perturbed": pb, "polar": polar(E, g),
            "firey": firey_sum(0.4, E, 0.6, pb, 0.0)}[name]
    bg = evaluate_on_grid(body, g)
    assert bg.D2h_frame.shape == (g.node_count // 2, n - 1, n - 1)
    F = g.tangent_frames()
    D2h = _ambient_D2h(bg)
    pad = g.pair_nodes[:, :, None] * g.pair_nodes[:, None, :]
    sk = np.linalg.det(D2h + pad)
    eig = np.linalg.eigvalsh(F.transpose(0, 2, 1) @ D2h @ F)
    assert np.abs(bg.sk_density - sk).max() <= 1e-13 * np.abs(sk).max()
    assert np.abs(bg.eig_D2h - eig).max() <= 1e-13 * np.abs(eig).max()
    if isinstance(body, SpectralBody):
        from calab.minkowski import _EvenModel

        # the model reads the even columns at the pair nodes, as the body does
        model = _EvenModel(g, body.basis.L)
        h, det, mn = model.geometry(body.coeffs[model.even_mask])
        assert np.abs(h - bg.h).max() <= 1e-13 * bg.h.max()
        assert np.abs(det - bg.sk_density).max() <= 1e-13 * np.abs(det).max()
        assert abs(mn - bg.eig_D2h.min()) <= 1e-13 * bg.eig_D2h.max()


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_jet_matches_ambient_tables(n):
    # the jet contracts the frame components with the coefficients before
    # expanding; oracle: the ambient eval_derivs tables contracted with the
    # coefficients, with grad h = grad f + f u and
    # Hess h = (Hess f + f (I - u u^t)) / r, at points off the unit sphere
    basis = HarmonicBasis(n, 12)
    rng = np.random.default_rng(n + 20)
    c = 0.05 * rng.normal(size=basis.size) * np.exp(-0.2 * basis.degrees)
    c[0] = 3.0
    c[basis.parity < 0] = 0.0   # a spectral body is origin-symmetric
    body = SpectralBody(n, c, basis)
    X = np.concatenate([rng.normal(size=(60, n)), 2.5 * np.eye(n), -0.4 * np.eye(n)])
    r = np.linalg.norm(X, axis=1)
    u = X / r[:, None]
    B, G, H = basis.eval_derivs(u, order=2)
    f = B @ c
    proj = np.eye(n)[None] - u[:, :, None] * u[:, None, :]
    ref = (r * f, np.einsum("iak,a->ik", G, c) + f[:, None] * u,
           (np.einsum("iakl,a->ikl", H, c) + f[:, None, None] * proj)
           / r[:, None, None])
    for order in range(3):
        jet = body.jet(X, order)
        assert len(jet) == order + 1
        for got, want in zip(jet, ref):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_spectral_bodies_on_one_basis_keep_their_own_synthesis():
    # n=3: each body builds its synthesis matrix on first use and keeps it;
    # two bodies on one basis, their jets interleaved, each match their own
    # tables (the basis holds no matrix); the jet's parts are bit-identical
    # across orders and its Hessian exactly symmetric
    basis = HarmonicBasis(3, 8)
    rng = np.random.default_rng(3)
    X = np.concatenate([rng.normal(size=(50, 3)), build_grid(3, 8).pair_nodes])
    r = np.linalg.norm(X, axis=1)
    u = X / r[:, None]
    bodies = []
    for scale in (0.05, 0.1):
        c = scale * rng.normal(size=basis.size) * np.exp(-0.3 * basis.degrees)
        c[0] = 3.0
        c[basis.parity < 0] = 0.0
        bodies.append(SpectralBody(3, c, basis))
    for _ in range(2):
        for body in bodies:
            h, grad, H = body.jet(X, 2)
            B, G, _ = basis.eval_derivs(u, order=1)
            f = B @ body.coeffs
            assert np.abs(h - r * f).max() <= 1e-13 * np.abs(r * f).max()
            ref = np.einsum("iak,a->ik", G, body.coeffs) + f[:, None] * u
            assert np.abs(grad - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(H, H.transpose(0, 2, 1))
            for order in (0, 1):
                for a, b in zip(body.jet(X, order), (h, grad)):
                    assert np.array_equal(a, b)
    assert bodies[0]._plan is not bodies[1]._plan


def test_euler_identity_on_grid():
    g = build_grid(3, 12)
    for body in [ellipsoid(np.diag([2.0, 1.0, 0.5])), perturbed_ball(3, 0.15)]:
        bg = evaluate_on_grid(body, g)
        err = np.abs(np.einsum("ij,ij->i", g.pair_nodes, bg.x) - bg.h) / bg.h
        assert err.max() < 1e-10


def test_hessian_annihilates_radial_direction():
    # evaluate_on_grid keeps only the frame part F^t D^2h F, which loses
    # nothing because the ambient Hessian annihilates the radial direction
    g = build_grid(3, 12)
    _, _, D2h = ellipsoid(np.diag([2.0, 1.0, 0.5])).jet(g.nodes, 2)
    rad = np.einsum("ikl,il->ik", D2h, g.nodes)
    assert np.abs(rad).max() < 1e-8 * np.abs(D2h).max()


def test_ellipse_cone_mass_is_area():
    g = build_grid(2, 16)
    bg = evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0])), g)
    q = quantities(bg)
    assert abs(q.volume - 2.0 * np.pi) < 1e-10  # pi * a * b


def test_large_perturbation_reported_invalid():
    g = build_grid(2, 16)
    bg = evaluate_on_grid(perturbed_ball(2, 1.5), g)
    assert not bg.valid


# ---------------------------------------------------------------------------
# polar
# ---------------------------------------------------------------------------


def test_polar_of_ball():
    g = build_grid(3, 8)
    P = polar(ball(2.0, 3), g)
    rng = np.random.default_rng(2)
    u = unit_vectors(rng, 30, 3)
    assert np.abs(P.support(u) - 0.5).max() < 1e-10


def test_polar_of_ellipsoid_is_inverse_ellipsoid():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = build_grid(2, 16)
    P = polar(ellipsoid(A), g)
    E = ellipsoid(np.linalg.inv(A))
    rng = np.random.default_rng(3)
    u = unit_vectors(rng, 60, 2)
    rel = np.abs(P.support(u) - E.support(u)) / E.support(u)
    assert rel.max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_polar_jet_matches_inverse_ellipsoid_tight(n):
    # the polar of ellipsoid(A) is ellipsoid(inv(A)); its closed-form jet is
    # the oracle for the certified maximizer, the envelope gradient and the
    # implicit-function Hessian (measured <= 6.7e-14 relative at n=2 and
    # 7.7e-15 at n=3)
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag([2.0, 1.0, 0.7][:n]) @ Q.T
    g = build_grid(n, 16 if n == 2 else 8)
    u = unit_vectors(rng, 40, n)
    jet = polar(ellipsoid(A), g).jet(u, 2)
    for a, b in zip(jet, ellipsoid(np.linalg.inv(A)).jet(u, 2)):
        assert np.abs(a - b).max() < 1e-13 * np.abs(b).max()


def test_polar_of_l4_norm_is_l43_norm():
    # polar(||.||_4) has support ||.||_{4/3}; away from the axes, where the
    # base's curvature vanishes, h and its gradient are exact to roundoff
    # (measured <= 5.2e-14 relative), at n=2 and n=3
    rng = np.random.default_rng(14)
    p = 4.0 / 3.0
    for n, L in ((2, 16), (3, 8)):
        u = unit_vectors(rng, 400, n)
        u = u[(np.abs(u) >= 0.2).all(axis=1)][:60]
        h = (np.abs(u) ** p).sum(axis=1) ** (1.0 / p)
        grad = np.sign(u) * (np.abs(u) / h[:, None]) ** (p - 1.0)
        hp, gp = polar(LqNormBody(4, n), build_grid(n, L)).jet(u, 1)
        assert np.abs(hp - h).max() < 1e-12 * h.max()
        assert np.abs(gp - grad).max() < 1e-12 * np.abs(grad).max()


def _seed(P, U):
    """The polytope seed D R of each unit U, R a representative."""
    idx, D = P._seed_index(U)
    return D * P._reps[idx]


def _fallback_psi(P, U):
    """psi after the fallback pass run on every point: projected-gradient
    steps from the polytope seed, then Newton (on the angle at n=2)."""
    th = P._projected_gradient(U, _seed(P, U))
    if P.n == 3:
        return P._newton(U, th)[0][1]
    return P._circle_newton(np.arctan2(U[:, 1], U[:, 0]), np.arctan2(th[:, 1], th[:, 0]))[0][1]


def _planar_bases(g):
    """The n=2 bases of the polar maximizer tests, by name."""
    bases = {f"random{s}": lambda s=s: random_even_body(2, s, band=8, strength=0.3)
             for s in (0, 1, 2, 17, 42)}
    bases.update({
        "diag(2,1)": lambda: ellipsoid(np.diag([2.0, 1.0])),
        "diag(6,1)": lambda: ellipsoid(np.diag([6.0, 1.0])),
        "non_convex": lambda: perturbed_ball(2, 1.5),
        "polar_smoothed_l43": lambda: polar(
            firey_sum(0.01, ball(1.0, 2), 1.0, LqNormBody(4, 2), 1.0), g),
        "l4_ball": lambda: lq_gauge_body(4, 2),
        "l4_norm": lambda: LqNormBody(4, 2),
    })
    return bases


# the _planar_bases that are strongly convex, and so is their polar
_STRONGLY_CONVEX_PLANAR = [k for k in _planar_bases(None)
                           if k not in ("non_convex", "l4_ball", "l4_norm")]


@pytest.mark.parametrize("L", [8, 24])
@pytest.mark.parametrize("name", ["ellipsoid", "perturbed", "random", "l4_norm",
                                  "l4_ball", *(f"n2_{k}" for k in _planar_bases(None))])
def test_polar_maximizer_never_below_fallback(name, L):
    # the polytope seed with the certificate and the fallback must never
    # find a lower h than the fallback path (projected-gradient steps from
    # the same seed, Newton) run on every point; measured
    # h/h_fallback - 1 >= -8.9e-16.  The n2_ names are the planar bases
    n = 2 if name.startswith("n2_") else 3
    g = build_grid(n, L)
    body = _planar_bases(g)[name[3:]]() if n == 2 else {
        "ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7])),
        "perturbed": lambda: perturbed_ball(3, 0.12),
        "random": lambda: random_even_body(3, 7000),
        "l4_norm": lambda: LqNormBody(4, 3),
        "l4_ball": lambda: lq_gauge_body(4, 3),
    }[name]()
    P = polar(body, g)
    U = np.vstack([unit_vectors(np.random.default_rng(15), 200, n), g.nodes])
    h = P._maximize(U)[1]
    assert np.all(h >= _fallback_psi(P, U) * (1.0 - 1e-14))


@pytest.mark.parametrize("name", ["ellipsoid", "random"])
def test_polar_seed_is_the_best_polytope_vertex(name):
    # brute force over the vertices +-theta/h(theta) of the pair nodes: the
    # blocked |dot-product| argmax picks the vertex of largest
    # psi = <u, theta/h(theta)>, except at near-ties (within 4 ulps).  The
    # sign-symmetric ellipsoid's seed search runs over its 182 flip-orbit
    # representatives, each seed D R a +-pair node
    body = {"ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7])),
            "random": lambda: random_even_body(3, 7000)}[name]()
    g = build_grid(3, 24)
    P = polar(body, g)
    assert P._vertices_t.shape[1] == (182 if name == "ellipsoid" else 676)
    V = g.pair_nodes / body.support(g.pair_nodes)[:, None]
    U = np.vstack([unit_vectors(np.random.default_rng(16), 3000, 3), g.nodes])
    W = np.concatenate([g.pair_nodes, -g.pair_nodes])
    psi = U @ np.concatenate([V, -V]).T
    # the brute force's column of each seed (0.0 and -0.0 match)
    column = {tuple(w + 0.0): k for k, w in enumerate(W)}
    seed = _seed(P, U) + 0.0
    got = psi[np.arange(len(U)), [column[tuple(x)] for x in seed]]
    best = psi.max(axis=1)
    differ = got != best
    assert np.all(best - got <= 4 * np.spacing(best))
    assert differ.mean() < 0.01


def test_polar_of_a_non_convex_base_finds_the_global_maximum():
    # perturbed_ball(2, 1.5) is not convex (D^2 h < 0 at 38% of the L=16 pair
    # nodes), so psi has local maxima that are not global and the
    # certificate proves only a local one; the polytope seed starts each
    # point in the global maximum's basin.  Oracle: a 400k-point brute force
    # over the circle, refined 1000-fold around its argmax
    g = build_grid(2, 16)
    base = perturbed_ball(2, 1.5)
    h = polar(base, g).support(g.pair_nodes)

    def vertices(t):
        TH = np.stack([np.cos(t), np.sin(t)], axis=1)
        return TH / base.support(TH)[:, None]

    t = np.linspace(0.0, 2 * np.pi, 400_000, endpoint=False)
    V, step = vertices(t), t[1]
    ref = np.array([(vertices(t[(V @ u).argmax()] + np.linspace(-step, step, 2001))
                     @ u).max() for u in g.pair_nodes])
    assert np.all(np.abs(h - ref) <= 1e-9 * ref)


def test_polar_hessian_nan_only_where_base_hessian_degenerates():
    # the l4 norm's D^2 h vanishes on the axes, so A is singular at the axis
    # maximizers: those points get a NaN Hessian, the rest of the batch is
    # untouched, and evaluate_on_grid reports the non-finite derivative
    g = build_grid(2, 16)
    P = polar(LqNormBody(4, 2), g)
    h, x, H = P.jet(g.nodes, 2)
    bad = ~np.isfinite(H).all(axis=(1, 2))
    assert 0 < bad.sum() < len(bad)
    for a, b in zip(P.jet(g.nodes, 1), (h, x)):
        assert np.array_equal(a, b)
    for a, b in zip(P.jet(g.nodes[~bad], 2), (h, x, H)):
        assert np.array_equal(a, b[~bad])
    with pytest.raises(ValueError, match="non-finite derivative"):
        evaluate_on_grid(P, g)


def test_polar_of_a_base_with_nan_hessians_takes_no_nan_step():
    # the inner polar's Hessian is NaN at its axis maximizers, so the outer
    # polar's base jet is not finite at some starts and candidates: those take
    # no Newton step (Newton stepped to NaN points, and the inner polar raised
    # "polar support needs points of nonzero finite norm"); h and grad h stay
    # finite, and a NaN Hessian left over is evaluate_on_grid's to report
    g = build_grid(2, 16)
    K = polar(firey_sum(0.01, ball(1, 2), 1, polar(LqNormBody(4, 2), g), 1), g)
    h, x, H = K.jet(g.pair_nodes, 2)
    assert np.all(np.isfinite(h) & (h > 0)) and np.isfinite(x).all()
    try:
        bg = evaluate_on_grid(K, g)
    except ValueError as exc:
        assert str(exc) == "non-finite derivative on the grid"
    else:
        assert np.isfinite(bg.D2h_frame).all()


@pytest.mark.parametrize("n,L", [(2, 16), (3, 24)])
@pytest.mark.parametrize("name", ["ellipsoid", "perturbed", "bipolar"])
def test_polar_jet_folds_antipodes(n, L, name):
    # the grid's antipodes and coordinate flips are exact, so jet(grid.nodes)
    # solves once per orbit of the base's sign group and unfolds: at the N/2
    # pair nodes for the perturbed ball and its polar (not sign-symmetric),
    # at the orbits of every coordinate flip (18 at n=2, L=16; 182 at n=3,
    # L=24) for the diagonal ellipsoid.  h and D^2 h are bitwise even,
    # grad h bitwise odd, and the pair rows bit for bit those of
    # jet(pair_nodes)
    g = build_grid(n, L)
    base = {"ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7][:n])),
            "perturbed": lambda: perturbed_ball(n, 0.1),
            "bipolar": lambda: polar(perturbed_ball(n, 0.1), g)}[name]()
    assert base.sign_symmetric == (name == "ellipsoid")
    P = polar(base, g)
    seen = []
    maximize = P._maximize
    P._maximize = lambda U: seen.append(len(U)) or maximize(U)
    h, x, H = P.jet(g.nodes, 2)
    orbits = {(2, 16): 18, (3, 24): 182}[(n, L)]
    assert seen == [orbits if base.sign_symmetric else g.node_count // 2]
    anti = g.antipodal_index
    assert np.array_equal(h[anti], h)
    assert np.array_equal(x[anti], -x)
    assert np.array_equal(H[anti], H)
    half = g.node_count // 2
    for a, b in zip(P.jet(g.pair_nodes, 2), (h, x, H)):
        assert np.array_equal(a, b[:half])
    # points with no antipode in the batch are all solved
    seen.clear()
    P.jet(unit_vectors(np.random.default_rng(21), 57, n), 2)
    assert seen == [57]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["ellipsoid", "perturbed"])
def test_polar_grid_solution_is_solved_once_and_reused(n, name):
    # support(nodes), jet(pair_nodes, 2), jet(nodes, 1) and a copy of the
    # nodes on one polar: one _maximize, at the orbit representatives (the
    # flip orbits for the sign-symmetric ellipsoid, the pair nodes for the
    # perturbed ball), and every output bit for bit that of a fresh polar
    # making that call alone.  Off-grid points are solved per query, the
    # same as on a fresh polar
    g = build_grid(n, 24 if n == 3 else 16)
    base = {"ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7][:n])),
            "perturbed": lambda: perturbed_ball(n, 0.1)}[name]()
    P = polar(base, g)
    seen = []
    maximize = P._maximize
    P._maximize = lambda U: seen.append(len(U)) or maximize(U)
    off = unit_vectors(np.random.default_rng(41), 200, n)
    for X, order in ((g.nodes, 0), (g.pair_nodes, 2), (g.nodes, 1), (g.nodes.copy(), 2),
                     (off, 2)):
        for a, b in zip(P.jet(X, order), polar(base, g).jet(X, order)):
            assert np.array_equal(a, b)
    orbits = len(g.sign_fold(base.sign_symmetric)[0])
    assert seen == [orbits, len(off)]
    assert orbits == (len(g.pair_nodes) if name == "perturbed" else
                      {2: 18, 3: 182}[n])


def test_polars_in_threads_share_a_fresh_grid():
    # more threads than cores fill one fresh grid's fold cache and solve
    # their polars on it at once, switching every microsecond: each reads
    # what a serial run on its own grid reads, bit for bit
    bases = [ellipsoid(np.diag([2.0, 1.0, 0.7])), perturbed_ball(3, 0.1)] * 4
    ref = [polar(b, build_grid(3, 8)).jet(build_grid(3, 8).nodes, 2) for b in bases]
    g = build_grid(3, 8)
    got = [None] * len(bases)

    def run(i):
        got[i] = polar(bases[i], g).jet(g.nodes, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(bases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(got, ref):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_polars_on_one_grid_keep_their_own_solutions():
    # three polars share a grid and its cached folds, their grid queries
    # interleaved; so do the two polars of the numeric-gauge smoothing, the
    # outer one's base holding the inner one.  Each reads what a fresh one
    # does, bit for bit
    g = build_grid(3, 16)
    bases = [ellipsoid(np.diag([2.0, 1.0, 0.7])), lq_gauge_body(4, 3),
             perturbed_ball(3, 0.1)]
    polars = [polar(b, g) for b in bases]
    for X, order in ((g.nodes, 0), (g.pair_nodes, 2), (g.nodes, 1)):
        for base, P in zip(bases, polars):
            for a, b in zip(P.jet(X, order), polar(base, g).jet(X, order)):
                assert np.array_equal(a, b, equal_nan=True)
    E = ellipsoid(np.diag([2.0, 1.0, 1.0]))

    def smoothed():
        return construct(E, g, 1.0, 1.0, gauge="numeric")[0]

    kt = smoothed()
    assert np.array_equal(kt.support(g.nodes), smoothed().support(g.nodes))
    bg, ref = evaluate_on_grid(kt, g), evaluate_on_grid(smoothed(), g)
    assert np.array_equal(bg.h, ref.h) and np.array_equal(bg.D2h_frame, ref.D2h_frame)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_reference_jet_unfolds_exactly(n):
    # on a sign-symmetric base construction takes the base jet at the flip
    # orbit representatives only, the reference set of the seeds; unfolded
    # with the signs it is the base's jet at every pair node exactly, and so
    # are the vertices and, at n=3, adj Q; at n=2 the inverse boundary-map
    # table is built from the base's circle jet at every pair node exactly
    from calab.bodies import _osculating_adjugate
    g = build_grid(n, 24 if n == 3 else 16)
    E = ellipsoid(np.diag([2.0, 1.0, 0.7][:n]))
    for base in (ball(1.3, n), E, ellipsoid(np.diag([1.0, 3.0, 1.5][:n])),
                 LqNormBody(4, n), LqNormBody(3, n), lq_gauge_body(4, n),
                 firey_sum(1.0, E, 1.0, LqNormBody(4, n), 2.0),
                 firey_sum(0.1, ball(1.0, n), 1.0, lq_gauge_body(4, n), 1.0)):
        assert base.sign_symmetric
        calls = []
        jet = base.jet
        base.jet = lambda X, order=2: calls.append(len(X)) or jet(X, order)
        P = polar(base, g)
        del base.jet
        # (the l_q bodies with 1 < q < 2 call their own jet for D^2h)
        assert calls[0] == len(g.sign_fold(True)[0]) and len(g.pair_nodes) not in calls
        first, inverse, D = g.sign_fold(True)
        inverse, D = inverse[:len(g.pair_nodes)], D[:len(g.pair_nodes)]
        assert np.array_equal(P._reps, D[first] * g.nodes[first])
        ref = base.jet(g.pair_nodes, 2)
        assert np.array_equal(D * P._vertices_t.T[inverse], g.pair_nodes / ref[0][:, None])
        if n == 3:
            DD = D[:, :, None] * D[:, None, :]
            assert np.array_equal(DD * P._ref_adj[inverse], _osculating_adjugate(*ref),
                                  equal_nan=True)
            for a, s, b in zip(P._ref_jet, (1.0, D, DD), ref):
                assert np.array_equal(s * a[inverse], b)
            continue
        # the boundary-angle map's table at the pair nodes' angles mod pi,
        # where R > 0 at every one, from the circle jet there
        e = turn(g.pair_nodes)
        h, d1 = ref[0], np.einsum("ij,ij->i", e, ref[1])
        R = np.einsum("ij,ijk,ik->i", e, ref[2], e)
        if not (R > 0).all():
            assert P._inverse_map is None
            continue
        t = np.arctan2(g.pair_nodes[:, 1], g.pair_nodes[:, 0]) % np.pi
        o = np.argsort(t)
        h, d1, R, t = h[o], d1[o], R[o], t[o]
        table = (t + np.arctan2(d1, h), t, (h * h + d1 * d1) / (h * R))
        for a, b in zip(P._inverse_map, table):
            assert np.array_equal(a[:-1], b)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_of_a_sign_symmetric_base_not_positive_names_the_pair_node(n):
    # the check reads the unfolded support, so it names the first pair node
    # where the base is not positive, as a jet at every pair node would
    g = build_grid(n, 16)
    base = perturbed_ball(n, -5.0, coeffs=[(2, 0, 1.0)])
    assert base.sign_symmetric
    bad = np.flatnonzero(base.support(g.pair_nodes) <= 0)[0]
    with pytest.raises(ValueError, match=re.escape(f"pair node {bad} {g.pair_nodes[bad]} ")):
        polar(base, g)


def _assert_certificate_reads_the_kept_state(P, count):
    # the certificate reads the |grad psi| and top eigenvalue of A kept with
    # the grid solution: bit for bit those a fresh _frame_terms (n=3) or
    # _circle_terms (n=2) forms on a fresh base jet at the kept maximizers
    U, _, sol = P._grid_solution()
    x, psi = sol[:2]
    if P.n == 3:
        _, d, A = P._frame_terms(U, x, *P.base.jet(x, 2))
        gnorm, lam = np.sqrt(np.einsum("ij,ij->i", d, d)), frame_eigvalsh(A)[:, -1]
    else:
        _, d, lam = P._circle_terms(np.arctan2(U[:, 1], U[:, 0]), x, *P.base.circle_jet(x))
        gnorm = np.abs(d)
    assert np.array_equal(sol[2], gnorm) and np.array_equal(sol[3], lam)
    certified = (gnorm <= P._GRAD_TOL * psi) & (lam < 0)
    assert P.certificate == ((~certified).sum(), (gnorm / psi).max())
    assert P.certificate[0] == count
    if not count:
        assert P.certificate[1] <= P._GRAD_TOL


def test_polar_certificate_counts_the_uncertified_orbit_points():
    # the ball and diagonal ellipsoids certify every orbit point; the l4
    # ball is not C^2 on the axes, and leaves 39 of 182 uncertified at L=24
    cases = [(L, base, 0) for L in (16, 24)
             for base in (ball(1.0, 3), ellipsoid(np.diag([2.0, 1.0, 0.7])),
                          ellipsoid(np.diag([2.0, 1.0, 1.0])))]
    cases.append((24, lq_gauge_body(4, 3), 39))
    for L, base, count in cases:
        g = build_grid(3, L)
        P = polar(base, g)
        _assert_certificate_reads_the_kept_state(P, count)
        assert polar(base, g).certificate == P.certificate


@pytest.mark.parametrize("name", ["random0", "diag(6,1)", "non_convex",
                                  "polar_smoothed_l43", "l4_ball", "l4_norm"])
def test_planar_polar_certificate_is_a_recount(name):
    # at n=2 the certificate reads the psi' and psi'' kept with the grid
    # solution.  The smooth bases certify every orbit point; the l4 ball
    # leaves its axis point (0, 1), where the angle pi/2 rounds to
    # cos t = 6.1e-17 and its gradient, ~|x|^(1/3), reads 3.9e-6; the l4
    # norm, flat on the axes, its axis point (1, 0), where psi'' is exactly
    # 0 (at (0, 1) the same rounding of pi/2 leaves psi'' just below 0)
    g = build_grid(2, 16)
    base = _planar_bases(g)[name]()
    P = polar(base, g)
    _assert_certificate_reads_the_kept_state(P, int(name in ("l4_ball", "l4_norm")))
    assert polar(base, g).certificate == P.certificate


@pytest.mark.parametrize("n,L", [(2, 16), (3, 24)])
@pytest.mark.parametrize("name", ["ellipsoid", "smoothed_l4", "bipolar_l43"])
def test_polar_jet_folded_over_flips_matches_the_unfolded_solve(n, L, name):
    # on a sign-symmetric base the polar solves once per coordinate-flip
    # orbit, at |u|, and unfolds with the signs of u; solved at every row
    # (the fold over +-I only) the jets agree to 1e-11 of each output's
    # largest entry (measured at n=3, L=24: <= 1.5e-12 on the polar of
    # 0.1B + B_{4/3}, <= 8.6e-16 on the others; bit for bit at n=2), on the
    # grid and at random points
    g = build_grid(n, L)
    base = {"ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7][:n])),
            "smoothed_l4": lambda: construct(lq_gauge_body(4, n), g, 1.0, 1.0)[0],
            "bipolar_l43": lambda: polar(
                firey_sum(0.1, ball(1.0, n), 1.0, LqNormBody(4, n), 1.0), g)}[name]()
    assert base.sign_symmetric
    folded, unfolded = polar(base, g), polar(base, g)
    unfolded.sign_symmetric = False
    U = np.vstack([g.nodes, unit_vectors(np.random.default_rng(32), 64, n)])
    for a, b in zip(folded.jet(U, 2), unfolded.jet(U, 2)):
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()


@pytest.mark.parametrize("name", _STRONGLY_CONVEX_PLANAR)
def test_planar_bipolar_jet_is_the_base_jet(name):
    # polar(polar(K)) = K: at n=2 the bipolar's jet, whose D^2h is the
    # implicit-function Hessian of a polar whose base jet holds another
    # polar's, reproduces K's at the L=16 pair nodes and at random points, to
    # 1e-12 of each output's largest entry (measured <= 5.5e-16 for h,
    # 1.0e-13 for grad h and 1.1e-13 for D^2h)
    g = build_grid(2, 16)
    base = _planar_bases(g)[name]()
    U = np.vstack([g.pair_nodes, unit_vectors(np.random.default_rng(33), 40, 2)])
    for a, b in zip(polar(polar(base, g), g).jet(U, 2), base.jet(U, 2)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_polar_nan_hessian_reaches_only_its_antipode():
    # the singular-A points of the l4 norm's polar: folded with their
    # antipodes, and with nothing else
    g = build_grid(2, 16)
    P = polar(LqNormBody(4, 2), g)
    U = np.vstack([g.nodes, unit_vectors(np.random.default_rng(22), 40, 2)])
    H = P.jet(U, 2)[2]
    bad = ~np.isfinite(H).all(axis=(1, 2))
    N = g.node_count
    assert 0 < bad[:N].sum() < N
    assert np.array_equal(bad[:N][g.antipodal_index], bad[:N])
    assert not bad[N:].any()


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0],
                                 [np.inf, 0.0, 0.0], [1.0, -np.inf, np.nan]])
def test_polar_rejects_zero_and_non_finite_points(row):
    P = polar(ellipsoid(np.diag([2.0, 1.0, 1.0])), build_grid(3, 8))
    for order in (0, 1, 2):
        with pytest.raises(ValueError, match="row 1 "):
            P.jet([[1.0, 0.0, 0.0], row], order)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_jet_at_no_points(n):
    # an empty query takes no Newton step and returns empty arrays
    g = build_grid(n, 8)
    for base in (ellipsoid(np.diag([2.0, 1.0, 0.7][:n])), perturbed_ball(n, 0.1)):
        out = polar(base, g).jet(np.empty((0, n)), 2)
        assert [a.shape for a in out] == [(0,), (0, n), (0, n, n)]


class _CountingBody(BodyEvaluator):
    """A body whose jet() records (order, points) of each call."""

    def __init__(self, base):
        super().__init__(base.n, label=base.label)
        self.base = base
        self.calls = []

    def jet(self, X, order=2):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.calls.append((order, X.copy()))
        return self.base.jet(X, order)


def test_polar_base_jets():
    # construction takes one second-order base jet at the N/2 pair nodes.
    # _maximize takes one at the osculating starts (the seeds whose Q is
    # positive-definite), then Newton one per step at the candidate, and each
    # step forms the frame terms once, at the candidate whose base jet it
    # took: the frame-term rows are the starts (an osculating start or the
    # polytope seed, whose jet construction took) and then the rows of
    # Newton's base jets, in order, rejected steps (which the l4 norm takes)
    # forming none at the unchanged theta.  On an ellipsoid the start is the
    # maximizer, so that first jet is the only one.  A Newton run from any
    # other point, such as the projected-gradient fallback's, takes its own
    # jet there
    g = build_grid(3, 16)
    U = np.vstack([unit_vectors(np.random.default_rng(23), 300, 3), g.pair_nodes])
    for base in (ellipsoid(np.diag([2.0, 1.0, 0.7])), LqNormBody(4, 3)):
        body = _CountingBody(base)
        P = polar(body, g)
        assert [(o, len(X)) for o, X in body.calls] == [(2, g.node_count // 2)]
        assert np.array_equal(body.calls[0][1], g.pair_nodes)
        body.calls.clear()
        frame_rows = []
        terms = P._frame_terms
        P._frame_terms = lambda *a: frame_rows.append(a[1].copy()) or terms(*a)
        P._maximize(U)
        jets = [X for o, X in body.calls if o == 2]
        assert len(frame_rows) == len(jets)
        assert all(np.array_equal(a, b) for a, b in zip(frame_rows[1:], jets[1:]))
        seed, start = _seed(P, U), frame_rows[0]
        at_seed = (start == seed).all(axis=1)
        osc = np.isfinite(P._ref_adj[P._seed_index(U)[0]]).all(axis=(1, 2))
        assert np.array_equal(jets[0][~at_seed[osc]], start[osc & ~at_seed])
        assert len(jets[0]) == osc.sum() and not (~osc & ~at_seed).any()
        if base.label == "ellipsoid":
            assert len(jets) == 1 and not at_seed.any()
        else:  # axis nodes (Q singular) and a lower psi keep the seed
            assert 0 < osc.sum() < len(U) and 0 < at_seed[osc].sum()
        th = P._projected_gradient(U, _seed(P, U))
        body.calls.clear()
        P._newton(U, th)
        assert body.calls[0][0] == 2 and np.array_equal(body.calls[0][1], th)


@pytest.fixture
def maximize_jets(monkeypatch):
    """(label, second-order base jets taken) of each PolarBody._maximize
    call, nested polars included: circle jets at n=2."""
    seen = []
    run = PolarBody._maximize

    def spy(self, U):
        jets, base_jet, circle_jet = [], self.base.jet, self.base.circle_jet
        self.base.jet = lambda X, order=2: jets.append(order) or base_jet(X, order)
        self.base.circle_jet = lambda t: jets.append("circle") or circle_jet(t)
        try:
            return run(self, U)
        finally:
            del self.base.jet, self.base.circle_jet
            seen.append((self.label, jets.count("circle" if self.n == 2 else 2)))

    monkeypatch.setattr(PolarBody, "_maximize", spy)
    return seen


@pytest.mark.parametrize("name", ["ellipsoid", "image", "firey2", "bipolar"])
def test_polar_of_a_quadratic_gauge_takes_one_base_jet(name, maximize_jets):
    # where h^2 is a quadratic form, Q = Hess(h^2)/2 is the same at every
    # node and the osculating start is the maximizer to rounding, so each
    # point certifies after the one base jet at the starts: ellipsoids, their
    # images under a non-symmetric T, the p=2 Firey sum with a ball, and
    # polar(polar(E)) (both levels)
    g = build_grid(3, 16)
    E = ellipsoid(np.diag([2.0, 1.0, 0.7]))
    T = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.1], [0.0, -0.4, 1.2]])
    base = {"ellipsoid": lambda: E, "image": lambda: linear_image(E, T),
            "firey2": lambda: firey_sum(1.0, E, 1.0, ball(1.0, 3), 2.0),
            "bipolar": lambda: polar(E, g)}[name]()
    maximize_jets.clear()
    polar(base, g).jet(np.vstack([unit_vectors(np.random.default_rng(30), 100, 3),
                                  g.nodes]), 2)
    assert len(maximize_jets) == (3 if name == "bipolar" else 1)
    assert all(count == 1 for _, count in maximize_jets)


def test_numeric_gauge_smoothing_takes_one_base_jet_per_level(maximize_jets):
    # construct(E, gauge="numeric") nests polar(E') inside the polar of the
    # rounded gauge firey(polar(E'), ball, 2): both are quadratic gauges
    g = build_grid(3, 16)
    kt, _ = construct(ellipsoid(np.diag([2.0, 1.0, 1.0])), g, 1.0, 1.0, gauge="numeric")
    kt.support(g.nodes)
    assert {label for label, _ in maximize_jets} == {"polar(ellipsoid@T)",
                                                     "polar(firey(p=2.0))"}
    assert all(count == 1 for _, count in maximize_jets)


@pytest.mark.parametrize("name,most", [("perturbed", 4), ("random", 4),
                                       ("n2_random0", 4), ("n2_random42", 4),
                                       ("smoothed_l4", 4)])
def test_polar_osculating_start_takes_no_more_base_jets(name, most, maximize_jets):
    # where h^2 is not quadratic the start is second order, like Newton's
    # first step from the node: no _maximize takes more base jets than the
    # node-seeded Newton did (`most`, measured on that seeding)
    n, L = (2, 16) if name.startswith("n2_") else (3, 24 if name == "smoothed_l4" else 16)
    g = build_grid(n, L)
    if name == "smoothed_l4":
        construct(lq_gauge_body(4, 3), g, 1.0, 1.0)[0].support(g.nodes)
    else:
        base = {"perturbed": lambda: perturbed_ball(3, 0.1),
                "random": lambda: random_even_body(3, 7007),
                "n2_random0": lambda: random_even_body(2, 0),
                "n2_random42": lambda: random_even_body(2, 42)}[name]()
        polar(base, g).jet(g.pair_nodes, 2)
    assert maximize_jets and max(count for _, count in maximize_jets) <= most


def test_strongly_convex_planar_polar_takes_no_seed_search(monkeypatch):
    # on a base strongly convex at every pair node the n=2 start is the
    # inverse of the boundary-angle map, so the polytope seed search, whose
    # cost grows as N^2, never runs: the planar flagged body's base
    # 0.01B + B_{4/3} (sign-symmetric) and a random body at 4096 nodes, on
    # the grid and off it, every point certified
    calls = []
    run = PolarBody._seed_index
    monkeypatch.setattr(PolarBody, "_seed_index",
                        lambda self, U: calls.append(len(U)) or run(self, U))
    g = build_grid(2, 62, n_nodes=4096)
    for base in (firey_sum(0.01, ball(1.0, 2), 1.0, LqNormBody(4, 2), 1.0),
                 random_even_body(2, 5, band=8)):
        P = polar(base, g)
        assert evaluate_on_grid(P, g).valid and P.certificate[0] == 0
        P.jet(unit_vectors(np.random.default_rng(35), 100, 2), 2)
    assert calls == []


@pytest.mark.parametrize("seed", [0, 7, 1280, 1319])
def test_planar_polar_takes_at_most_three_circle_jets(seed, monkeypatch):
    # the n=2 start lies within ~1e-4 rad of the maximizer (median 2.3e-6
    # at L=16), so _maximize takes the circle jets of the start and of two
    # Newton candidates at most; a spectral base reads them from its
    # synthesis plan and forms no ambient jet
    calls = []
    circle, jet = SpectralBody.circle_jet, SpectralBody.jet
    monkeypatch.setattr(SpectralBody, "circle_jet",
                        lambda self, t: calls.append("circle") or circle(self, t))
    monkeypatch.setattr(SpectralBody, "jet",
                        lambda self, X, order=2: calls.append(order) or jet(self, X, order))
    g = build_grid(2, 16)
    P = polar(random_even_body(2, seed, band=8), g)
    for X in (g.pair_nodes, unit_vectors(np.random.default_rng(36), 100, 2)):
        calls.clear()
        P.jet(X, 2)
        assert 1 < len(calls) <= 3 and set(calls) == {"circle"}


@pytest.mark.parametrize("name", list(_planar_bases(None)))
def test_planar_polar_matches_a_dense_brute_force(name):
    # the n=2 polar's h against the largest psi over 20000 angles, refined
    # three times 1000-fold around it: within 1e-14 relative (measured
    # <= 1.0e-15) at the pair nodes and at random points.  The bases not
    # strongly convex at every pair node (the non-convex perturbed ball, and
    # the l4 norm, whose R is 0 on the axes) take the polytope seed start;
    # every other base here the boundary-map start
    g = build_grid(2, 16)
    base = _planar_bases(g)[name]()
    P = polar(base, g)
    assert (P._inverse_map is None) == (name in ("non_convex", "l4_norm"))
    U = np.vstack([g.pair_nodes, unit_vectors(np.random.default_rng(40), 20, 2)])

    def psi(t, u):
        TH = np.stack([np.cos(t), np.sin(t)], axis=1)
        return TH @ u / base.support(TH)

    t = np.linspace(0.0, 2 * np.pi, 20_000, endpoint=False)
    TH = np.stack([np.cos(t), np.sin(t)], axis=1)
    ref = []
    for u, k in zip(U, (U @ (TH / base.support(TH)[:, None]).T).argmax(axis=1)):
        c, w = t[k], t[1]
        for _ in range(3):
            s = c + np.linspace(-w, w, 2001)
            c, w = s[psi(s, u).argmax()], w / 1000
        ref.append(psi(np.array([c]), u)[0])
    assert np.all(np.abs(P.support(U) / ref - 1.0) <= 1e-14)


def test_polar_start_is_never_below_the_seed(monkeypatch):
    # psi at the start the n=3 ascent runs from is at least psi at the
    # polytope seed, on convex and non-convex bases alike; the start moves off
    # the node wherever Q is positive-definite and psi there is not lower
    starts = []
    run = PolarBody._newton
    monkeypatch.setattr(PolarBody, "_newton",
                        lambda self, U, th, jet=None: starts.append(th) or run(self, U, th, jet))
    for base in (random_even_body(3, 7000), LqNormBody(4, 3)):
        g = build_grid(3, 16)
        P = polar(base, g)
        U = np.vstack([unit_vectors(np.random.default_rng(31), 200, 3), g.pair_nodes])
        starts.clear()
        P._maximize(U)
        start, seed = starts[0], _seed(P, U)
        assert np.all(P._psi(U, start) >= P._psi(U, seed))
        assert (start != seed).any()


def test_osculating_adjugate():
    # Q adj Q = det(Q) I for Q = grad h grad h^t + h D^2h where Q is
    # positive-definite, and adj Q is NaN where it is not: at the l4 norm's
    # nodes in a coordinate plane D^2h loses rank and Q with it (Sylvester's
    # minors may read such a Q as definite by a rounding error, and keep it)
    from calab.bodies import _osculating_adjugate
    g = build_grid(3, 16)
    for base in (random_even_body(3, 3), LqNormBody(4, 3)):
        h, dh, Hh = base.jet(g.pair_nodes, 2)
        Q = dh[:, :, None] * dh[:, None, :] + h[:, None, None] * Hh
        adj = _osculating_adjugate(h, dh, Hh)
        ok = np.isfinite(adj).all(axis=(1, 2))
        lam = np.linalg.eigvalsh(Q)
        assert ok[lam[:, 0] > 1e-12 * lam[:, -1]].all()
        assert not ok[lam[:, 0] < -1e-12 * lam[:, -1]].any()
        assert ok.all() == (base.label != "l4-norm")
        res = Q[ok] @ adj[ok] - np.linalg.det(Q[ok])[:, None, None] * np.eye(3)
        assert np.abs(res).max() < 1e-14 * np.abs(Q).max() * np.abs(adj[ok]).max()


def test_polar_of_l4_norm_osculating_start_is_harmless():
    # the l4 norm's D^2h vanishes at its axis nodes, where the start keeps
    # the node; elsewhere the start is second order.  No warning is raised
    # (a singular Q takes no solve) and h is ||u||_{4/3} to 1e-9 on the grid,
    # axis maximizers included (measured 3.7e-10)
    g = build_grid(3, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = polar(LqNormBody(4, 3), g).jet(g.nodes, 1)[0]
    p = 4.0 / 3.0
    assert np.abs(h - (np.abs(g.nodes) ** p).sum(axis=1) ** (1.0 / p)).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_polar_rejects_a_base_not_positive_at_the_nodes(n):
    # a base whose support reaches 0 or below does not hold the origin
    # inside, its polar is unbounded, and h * D^2h no longer gives the
    # osculating ellipsoid: construction raises, naming the first bad node
    g = build_grid(n, 16)
    base = perturbed_ball(n, 3.0)
    assert base.support(g.pair_nodes).min() < 0
    with pytest.raises(ValueError, match="positive and finite on the grid: pair node "):
        polar(base, g)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_newton_takes_no_separate_gradient(n):
    # Newton's acceptance test reads the candidate's gradient from the terms
    # it forms there, so _psi_grad serves the projected-gradient steps only
    g = build_grid(n, 8)
    P = polar(ellipsoid(np.diag([2.0, 1.0, 0.7][:n])), g)
    calls = []
    grad = P._psi_grad
    P._psi_grad = lambda *a: calls.append(len(a[0])) or grad(*a)
    U = unit_vectors(np.random.default_rng(29), 50, n)
    if n == 2:
        seed = _seed(P, U)
        P._circle_newton(np.arctan2(U[:, 1], U[:, 0]), np.arctan2(seed[:, 1], seed[:, 0]))
    else:
        P._newton(U, _seed(P, U))
    assert calls == []
    P._projected_gradient(U, _seed(P, U))
    assert calls == [len(U)] * P._PG_STEPS


@pytest.mark.parametrize("name", ["ellipsoid", "l4_ball"])
def test_polar_hessian_reuses_newton_frame_terms(name):
    # the implicit-function Hessian reads the frames and A that Newton (or
    # the fallback's Newton) formed at the returned theta: jet() makes no
    # _frame_terms call of its own, and the kept terms are bit for bit
    # those formed again there
    body = {"ellipsoid": lambda: ellipsoid(np.diag([2.0, 1.0, 0.7])),
            "l4_ball": lambda: lq_gauge_body(4, 3)}[name]()
    P = polar(body, build_grid(3, 8))
    U = unit_vectors(np.random.default_rng(25), 50, 3)
    calls = []
    terms = P._frame_terms
    P._frame_terms = lambda *a: calls.append(len(a[0])) or terms(*a)
    th, _, _, _, h, dh, Hh, F, A, _ = P._maximize(U)
    count = len(calls)
    P.jet(U, 2)
    assert len(calls) == 2 * count
    F2, _, A2 = terms(U, th, h, dh, Hh)
    assert np.array_equal(F, F2) and np.array_equal(A, A2)


def test_polar_frame_terms_do_not_follow_the_frames_layout(monkeypatch):
    # the same frame values as a non-contiguous view (a transposed copy of
    # stacked (P, 3) rows) give the same bits: the sums over the three
    # coordinates run in coordinate order either way
    P = polar(ellipsoid(np.diag([2.0, 1.0, 0.7])), build_grid(3, 8))
    U = unit_vectors(np.random.default_rng(31), 40, 3)
    th = P._maximize(U)[0]
    th[:2] = [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]   # a pole and the x-z plane
    jet = P.base.jet(th, 2)
    ref = P._frame_terms(U, th, *jet)
    frames = bodies.frame_vectors
    seen = []

    def strided(*a):
        E = frames(*a)
        E = np.ascontiguousarray(E.transpose(0, 2, 1)).transpose(0, 2, 1)
        seen.append(E.flags.c_contiguous)
        return E

    monkeypatch.setattr(bodies, "frame_vectors", strided)
    got = P._frame_terms(U, th, *jet)
    assert seen == [False]
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_polar_fallback_takes_its_own_jets():
    # the l4 ball is not C^2 on the axes, so some points stay uncertified (6
    # of these 20 after Newton): the fallback's projected-gradient steps from
    # the seed take first-order jets of their own
    g = build_grid(3, 8)
    body = _CountingBody(lq_gauge_body(4, 3))
    P = polar(body, g)
    body.calls.clear()
    P.jet(unit_vectors(np.random.default_rng(24), 20, 3), 0)
    orders = [o for o, _ in body.calls]
    assert orders.count(1) == P._PG_STEPS


def test_polar_runs_one_newton_loop_at_every_dimension(monkeypatch):
    # both dimensions run the one guarded ascent (PolarBody._ascend), on the
    # angle at n=2 and in the tangent frames at n=3, once from the starts and
    # once more for the fallback pass (the l4 balls, not C^2 on the axes,
    # leave points uncertified)
    calls = []
    run = PolarBody._ascend
    monkeypatch.setattr(PolarBody, "_ascend",
                        lambda self, cur, propose: calls.append(self.n) or run(self, cur, propose))
    for n in (2, 3):
        g = build_grid(n, 8)
        for body in (ellipsoid(np.diag([2.0, 1.0, 0.7][:n])), lq_gauge_body(4, n)):
            calls.clear()
            polar(body, g).jet(unit_vectors(np.random.default_rng(27), 20, n), 2)
            assert calls == [n] * (1 if body.label == "ellipsoid" else 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planar_spectral_jet_is_the_frame_formula_bit_for_bit(seed):
    # the n=2 branch of SpectralBody.jet writes E g + f u and
    # E (H + f I) E^t / r with the single tangent e as scalar products: bit
    # for bit the frame -> ambient formula on the synthesis_jet parts, sign
    # bits included, at every order
    body = random_even_body(2, seed, band=8, strength=0.3)
    rng = np.random.default_rng(28)
    X = np.vstack([rng.normal(size=(60, 2)) * rng.uniform(0.1, 5.0, size=(60, 1)),
                   build_grid(2, 16).nodes])
    r = np.linalg.norm(X, axis=1)
    u = X / r[:, None]
    even = body.basis.parity_columns[0]
    plan = body.basis.synthesis(body.coeffs[even], even)
    for order in (0, 1, 2):
        f, g, H = body.basis.synthesis_jet(u, plan, order)[0]
        ref = [r * f]
        E = tangent_frames(u)
        if order > 0:
            ref.append(to_ambient(E, g, 1) + f[:, None] * u)
        if order > 1:
            ref.append(to_ambient(E, unpack_sym(H) + f[:, None, None] * np.eye(1), 2)
                       / r[:, None, None])
        got = body.jet(X, order)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_body_builds_its_synthesis_plan_once(monkeypatch, n):
    # the plan is built on the first jet and reused by every later one, of
    # any order, at both dimensions
    drawn = random_even_body(n, 0, band=6, strength=0.3)
    calls = []
    build = HarmonicBasis.synthesis
    monkeypatch.setattr(HarmonicBasis, "synthesis",
                        lambda self, *a: calls.append(self.n) or build(self, *a))
    body = SpectralBody(n, drawn.coeffs, drawn.basis)
    X = unit_vectors(np.random.default_rng(29), 20, n)
    for order in (0, 1, 2, 0):
        body.jet(X, order)
    assert calls == [n]


def test_random_even_body_builds_its_check_grid_once(monkeypatch):
    # the rejection grid is built once per (n, L), not per draw, and the
    # draws are those made on a fresh grid
    from calab import bodies
    bodies._check_grid.cache_clear()
    built = []
    build = bodies.build_grid
    monkeypatch.setattr(bodies, "build_grid", lambda *a: built.append(a) or build(*a))
    first = [random_even_body(2, s, band=5).coeffs for s in range(6)]
    assert built == [(2, 10)]
    bodies._check_grid.cache_clear()
    again = [random_even_body(2, s, band=5).coeffs for s in range(6)]
    assert built == [(2, 10), (2, 10)]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_a_sweep_row_takes_one_pair_node_jet_of_its_body(seed, monkeypatch):
    # a sweep row's body is checked on random_even_body's own grid, then
    # sampled, and its polar built and sampled on the row's grid: the body's
    # second-order jet at the pair nodes, whose bytes the three share, is
    # taken once (the drawn bodies rejected before it are not counted)
    grid = build_grid(2, 16)
    calls = []
    jet = SpectralBody.jet

    def spy(self, X, order=2):
        X = np.asarray(X, dtype=float)
        if (order == 2 and X.shape == grid.pair_nodes.shape
                and X.tobytes() == grid.pair_nodes.tobytes()):
            calls.append(self)
        return jet(self, X, order)

    monkeypatch.setattr(SpectralBody, "jet", spy)
    body = random_even_body(2, seed, band=8)
    evaluate_on_grid(body, grid)
    evaluate_on_grid(polar(body, grid), grid)
    assert sum(b is body for b in calls) == 1


def test_the_shared_grid_jet_is_read_only():
    body, grid = random_even_body(2, 3, band=8), build_grid(2, 16)
    bg = evaluate_on_grid(body, grid)
    # a grid built apart with the same nodes reads the same arrays
    again = evaluate_on_grid(body, build_grid(2, 16))
    assert again.h is bg.h and again.x is bg.x
    for a in (bg.h, bg.x):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # another node set takes its own jet
    other = evaluate_on_grid(body, build_grid(2, 16, n_nodes=96))
    assert other.h is not bg.h and len(other.h) == 48


def test_threads_sampling_one_body_on_two_grids_read_their_own_jets():
    # more threads than cores sample one body on two grids at once, each
    # replacing the body's kept jet, switching every microsecond: each reads
    # its own grid's jet, bit for bit a serial run's
    body = perturbed_ball(3, 0.1)
    grids = [build_grid(3, 8), build_grid(3, 12)] * 4
    ref = [body.jet(g.pair_nodes, 2) for g in grids]
    got = [None] * len(grids)

    def run(i):
        for _ in range(20):
            bg = evaluate_on_grid(body, grids[i])
            got[i] = (bg.h, bg.x)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (h, x), (rh, rx, _) in zip(got, ref):
        assert np.array_equal(h, rh) and np.array_equal(x, rx)


def test_bipolar_roundtrip():
    g = build_grid(3, 24)
    body = perturbed_ball(3, 0.12)
    back = polar(polar(body, g), g)
    h0, _, H0 = body.jet(g.nodes, 2)
    h2, _, H2 = back.jet(g.nodes, 2)
    assert np.abs(h2 - h0).max() < 1e-4
    # nested implicit-function Hessians (measured 5.7e-14 against max |D^2 h| 1.42)
    assert np.abs(H2 - H0).max() < 1e-6


def test_polar_envelope_gradient_euler():
    g = build_grid(2, 16)
    P = polar(perturbed_ball(2, 0.1), g)
    rng = np.random.default_rng(4)
    u = unit_vectors(rng, 40, 2)
    grad = P.jet(u, 1)[1]
    rel = np.abs(np.einsum("ij,ij->i", u, grad) - P.support(u)) / P.support(u)
    assert rel.max() < 1e-9


# ---------------------------------------------------------------------------
# linear images and Firey sums
# ---------------------------------------------------------------------------


def test_linear_image_cases():
    rng = np.random.default_rng(5)
    u = unit_vectors(rng, 30, 2)
    B = ball(1.0, 2)
    assert np.allclose(linear_image(B, np.eye(2)).support(u), B.support(u))
    assert np.allclose(linear_image(B, 2.0 * np.eye(2)).support(u), 2.0)
    img = linear_image(B, np.diag([2.0, 1.0]))
    E = ellipsoid(np.diag([2.0, 1.0]))
    assert np.abs(img.support(u) - E.support(u)).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_linear_image_hessian_is_congruence(n):
    # the jet forms T H T^t as one product with kron(T, T); the per-point
    # congruence is the reference
    rng = np.random.default_rng(21)
    T = np.eye(n) + 0.4 * rng.normal(size=(n, n))
    body = perturbed_ball(n, 0.1)
    X = unit_vectors(rng, 30, n)
    H = body.jet(X @ T)[2]
    ref = np.einsum("ik,pkl,jl->pij", T, H, T)
    out = linear_image(body, T).jet(X)[2]
    assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_linear_image_rejects_singular():
    with pytest.raises(ValueError):
        linear_image(ball(1.0, 2), np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("s", [1e-5, 1e5])
def test_linear_image_singularity_test_is_scale_invariant(s):
    # s I is as far from singular as I, however small or large |det| = s^3
    u = unit_vectors(np.random.default_rng(1), 10, 3)
    h = linear_image(ball(1.0, 3), s * np.eye(3)).support(u)
    assert np.abs(h - s).max() <= 1e-15 * s
    with pytest.raises(ValueError):
        linear_image(ball(1.0, 3), s * np.array([[1.0, 2.0, 0.0],
                                                 [0.5, 1.0, 0.0],
                                                 [0.0, 0.0, 1.0]]))


def test_firey_sum_of_balls():
    rng = np.random.default_rng(6)
    u = unit_vectors(rng, 30, 3)
    S = firey_sum(1.0, ball(1.5, 3), 1.0, ball(2.0, 3), 2.0)
    assert np.abs(S.support(u) - np.sqrt(1.5**2 + 2.0**2)).max() < 1e-12


def test_firey_log_idempotence():
    K = ellipsoid(np.diag([2.0, 1.0]))
    S = firey_sum(0.5, K, 0.5, K, 0.0)
    rng = np.random.default_rng(7)
    u = unit_vectors(rng, 30, 2)
    assert np.abs(S.support(u) - K.support(u)).max() < 1e-12


def test_firey_p1_is_minkowski_sum():
    K = ellipsoid(np.diag([2.0, 1.0]))
    L = ball(0.5, 2)
    S = firey_sum(1.0, K, 1.0, L, 1.0)
    rng = np.random.default_rng(8)
    u = unit_vectors(rng, 30, 2)
    assert np.abs(S.support(u) - (K.support(u) + L.support(u))).max() < 1e-12


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build,name", [
    (lambda: ball(_NAN, 2), "radius r"),
    (lambda: ball(_INF, 2), "radius r"),
    (lambda: ellipsoid(np.diag([2.0, _NAN])), "A"),
    (lambda: ellipsoid(np.full((2, 2), _NAN)), "A"),
    (lambda: ellipsoid(np.diag([_INF, 1.0])), "A"),
    (lambda: firey_sum(1.0, ball(1.0, 2), 1.0, ball(2.0, 2), _NAN), "p"),
    (lambda: firey_sum(_NAN, ball(1.0, 2), 1.0, ball(2.0, 2), 1.0), "a"),
    (lambda: firey_sum(1.0, ball(1.0, 2), _INF, ball(2.0, 2), 1.0), "b"),
    (lambda: linear_image(ball(1.0, 2), [[1.0, _NAN], [0.0, 1.0]]), "T"),
    (lambda: linear_image(ball(1.0, 2), [[_INF, 0.0], [0.0, 1.0]]), "T"),
])
def test_bodies_reject_non_finite_parameters(build, name):
    # a NaN passes the sign, symmetry and Hadamard tests, and an inf the
    # sign test; each family rejects both at construction, naming the
    # parameter, instead of returning non-finite support values
    with pytest.raises(ValueError, match=f"^{name} must be .*finite"):
        build()


def test_firey_sum_contract_errors():
    K, L = ball(1.0, 2), ball(2.0, 2)
    with pytest.raises(ValueError):
        firey_sum(-1.0, K, 1.0, L, 2.0)
    with pytest.raises(ValueError):
        firey_sum(0.4, K, 0.4, L, 0.0)


def test_firey_derivative_consistency():
    # chain-rule Hessians against the finite-difference oracle
    K = ellipsoid(np.array([[2.0, 0.4], [0.4, 1.0]]))
    L = ball(0.7, 2)
    rng = np.random.default_rng(9)
    u = unit_vectors(rng, 20, 2)
    for a, b, p in ((1.0, 0.8, 2.0), (1.0, 0.8, 1.0), (1.0, 0.8, 0.5),
                    (0.4, 0.6, 0.0)):
        S = firey_sum(a, K, b, L, p)
        H = S.jet(u)[2]
        Hfd = fd_hess(S, u)
        assert np.abs(H - Hfd).max() < 1e-6


def _jet_families():
    n = 3
    g = build_grid(n, 8)
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    E = ellipsoid(Q @ np.diag([1.6, 1.1, 0.7]) @ Q.T)
    pb = perturbed_ball(n, 0.1)
    closed = {
        "ball": ball(1.3, n),
        "ellipsoid": E,
        "spectral": pb,
        "linear_image": linear_image(pb, np.eye(n) + 0.3 * rng.normal(size=(n, n))),
        "firey_p2": firey_sum(1.0, E, 0.8, pb, 2.0),
        "firey_p0": firey_sum(0.4, E, 0.6, pb, 0.0),
        "lq_norm": LqNormBody(4, n),
        "lq3_norm": LqNormBody(3, n),
        "lq2.5_norm": LqNormBody(2.5, n),
        "rounded_gauge": _RoundedGaugeBody(LqNormBody(4, n), 0.5),
    }
    numeric = {
        "polar": polar(E, g),
        "lq_ball": lq_gauge_body(4, n),
        "lq4/3_norm": LqNormBody(4.0 / 3.0, n),
    }
    return [pytest.param(body, True, id=k) for k, body in closed.items()] + [
        pytest.param(body, False, id=k) for k, body in numeric.items()]


@pytest.mark.parametrize("body,closed_form", _jet_families())
def test_jet_orders_agree(body, closed_form):
    rng = np.random.default_rng(12)
    X = unit_vectors(rng, 16, body.n) * rng.uniform(0.5, 2.0, size=(16, 1))
    full = body.jet(X, 2)
    assert len(full) == 3
    for order in (0, 1):
        part = body.jet(X, order)
        assert len(part) == order + 1
        for a, b in zip(part, full):
            assert np.array_equal(a, b)
    if closed_form:
        assert np.abs(full[1] - fd_grad(body, X)).max() < 1e-6
        assert np.abs(full[2] - fd_hess(body, X)).max() < 1e-6


def _points(n):
    """A point of R^n with norm at least 0.25, coordinates in [-2, 2]."""
    return st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(
        np.array).filter(lambda x: np.linalg.norm(x) >= 0.25)


@pytest.mark.parametrize("body,closed_form", _jet_families())
def test_jet_homogeneity_euler_radial(body, closed_form):
    # h(tX) = t h(X), <X, grad h> = h and D^2h X = 0 at hypothesis-chosen
    # points, relative to h and to the scale h/|X| of D^2h X; measured
    # <= 2.6e-15 over 1000 examples per family
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_points(body.n), st.floats(0.25, 4.0))
    def check(x, t):
        h, grad, hess = (a[0] for a in body.jet(x[None], 2))
        assert abs(body.jet(t * x[None], 0)[0][0] - t * h) <= 1e-13 * t * h
        assert abs(x @ grad - h) <= 1e-13 * h
        assert np.linalg.norm(hess @ x) <= 1e-13 * h / np.linalg.norm(x)

    check()


def test_minkowski_superadditivity_of_volume():
    # Brunn-Minkowski: V(K+L)^(1/n) >= V(K)^(1/n) + V(L)^(1/n)
    g = build_grid(2, 16)
    rng = np.random.default_rng(10)
    for seed in range(3):
        K = random_even_body(2, seed=seed)
        L = ellipsoid(np.diag(rng.uniform(0.5, 2.0, size=2)))
        S = firey_sum(1.0, K, 1.0, L, 1.0)
        vs = quantities(evaluate_on_grid(S, g)).volume
        vk = quantities(evaluate_on_grid(K, g)).volume
        vl = quantities(evaluate_on_grid(L, g)).volume
        assert np.sqrt(vs) >= np.sqrt(vk) + np.sqrt(vl) - 1e-9


# ---------------------------------------------------------------------------
# quantities
# ---------------------------------------------------------------------------


def test_ball_quantities():
    g = build_grid(3, 12)
    q = quantities(evaluate_on_grid(ball(1.0, 3), g))
    assert abs(q.volume - 4.0 * np.pi / 3.0) < 1e-10
    assert abs(q.omega_n - 4.0 * np.pi / 3.0) < 1e-10
    assert abs(q.r_in - 1.0) < 1e-12 and abs(q.R_out - 1.0) < 1e-12
    # exact volume-product equality for the ball
    assert abs(q.omega_n**2 - q.volume * q.polar_volume) < 1e-9


def test_ellipsoid_sandwich_radii():
    g = build_grid(2, 16)
    q = quantities(evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0])), g))
    assert abs(q.r_in - 1.0) < 1e-12
    assert abs(q.R_out - 2.0) < 1e-12


def test_volume_scaling_under_linear_maps():
    g = build_grid(3, 24)
    K = perturbed_ball(3, 0.1)
    v0 = quantities(evaluate_on_grid(K, g)).volume
    T = np.array([[1.3, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.1]])
    v1 = quantities(evaluate_on_grid(linear_image(K, T), g)).volume
    assert abs(v1 - abs(np.linalg.det(T)) * v0) / v1 < 1e-4


def test_omega_self_duality_and_volume_product_bound():
    g2 = build_grid(2, 40)
    g3 = build_grid(3, 16)
    cases = [
        (ellipsoid(np.diag([2.0, 1.0])), g2, 1e-6),
        (perturbed_ball(2, 0.1), g2, 1e-6),
        (ellipsoid(np.diag([2.0, 1.0, 1.0])), g3, 1e-3),
        (perturbed_ball(3, 0.08), g3, 1e-3),
    ]
    for body, g, tol in cases:
        q = quantities(evaluate_on_grid(body, g))
        qp = quantities(evaluate_on_grid(polar(body, g), g))
        assert abs(q.omega_n - qp.omega_n) / q.omega_n < tol
        assert q.omega_n**2 <= q.volume * q.polar_volume * (1.0 + 1e-6)


def test_quantities_requires_valid_body():
    g = build_grid(2, 16)
    bg = evaluate_on_grid(perturbed_ball(2, 1.5), g)
    with pytest.raises(ValueError):
        quantities(bg)


def test_lq_gauge_body_sandwich():
    g = build_grid(3, 12)
    K = lq_gauge_body(4, 3)
    h = K.support(g.nodes)
    assert h.min() >= 1.0 - 1e-12          # B subset K
    assert h.max() <= 3.0**0.25 + 1e-12    # K subset n^(1/4) B


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [1.25, 4.0 / 3.0, 1.5, 1.75])
def test_lq_norm_below_2_differences_only_its_hessian(q, n):
    # for 1 < q < 2, h and grad h are the written-out closed form (measured:
    # h bit for bit, grad h to 2.2e-16) at random points and at the grid's
    # nodes, the coordinate hyperplanes included, where D^2h ~ |x_i|^(q-2) is
    # infinite and the differenced D^2h stays finite; the jet orders are
    # bit-identical; and D^2h is the finite-difference oracle's, within 1e-6
    # of the closed form off the hyperplanes (|x_i| >= 0.2 |x|; measured
    # <= 1.4e-7 relative)
    rng = np.random.default_rng(40)
    X = np.vstack([unit_vectors(rng, 200, n) * rng.uniform(0.5, 2.0, size=(200, 1)),
                   build_grid(n, 8).nodes])
    body = LqNormBody(q, n)
    full = body.jet(X, 2)
    for order in (0, 1):
        for a, b in zip(body.jet(X, order), full):
            assert np.array_equal(a, b)
    h, grad, H = full
    a = np.abs(X)
    h0 = (a**q).sum(axis=1) ** (1.0 / q)
    g0 = np.sign(X) * (a / h0[:, None]) ** (q - 1)
    assert np.abs(h - h0).max() <= 1e-15 * h0.max()
    assert np.abs(grad - g0).max() <= 1e-15
    assert np.isfinite(H).all()
    assert np.abs(H - fd_hess(body, X)).max() <= 1e-12 * np.abs(H).max()
    off = (a >= 0.2 * np.linalg.norm(X, axis=1, keepdims=True)).all(axis=1)
    assert 0 < off.sum() < len(X)
    ho, go = h0[off], g0[off]
    H0 = (q - 1) / ho[:, None, None] * (
        np.eye(n) * ((a[off] / ho[:, None]) ** (q - 2))[:, None, :]
        - go[:, :, None] * go[:, None, :])
    assert np.abs(H[off] - H0).max() <= 1e-6 * np.abs(H0).max()


@pytest.mark.parametrize("q", [1, 0.5, np.nan])
def test_lq_norm_rejects_q_not_above_1(q):
    with pytest.raises(ValueError, match="q must be > 1"):
        LqNormBody(q, 3)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 6, 7, 8, 10])
def test_lq_ball_is_the_lq_norm_at_the_dual_exponent(q, n):
    # lq_gauge_body(q) is LqNormBody at q' = q/(q-1): its support is
    # ||.||_{q'} bit for bit as written out, and its gauge is LqNormBody at
    # the caller's q itself, because q'/(q'-1) rounds away from q for
    # q = 4, 6, 7, 8, 10
    X = 1.7 * unit_vectors(np.random.default_rng(41), 64, n)
    K = lq_gauge_body(q, n)
    qd = q / (q - 1)
    assert isinstance(K, LqNormBody) and K.label == f"l{q}-ball"
    assert np.array_equal(K.support(X), (np.abs(X) ** qd).sum(axis=1) ** (1.0 / qd))
    gauge = K.gauge_body()
    assert type(gauge) is LqNormBody and gauge.q == q


def test_polar_of_the_l4_ball_is_the_l4_norm():
    # polar(B_4) has support ||.||_4.  At n=2, L=16, on the pair nodes and 300
    # random points, h is within 1e-12 relative where every |u_i| >= 0.03
    # (measured <= 4.0e-16 over 20000 random points).  Nearer an axis the
    # maximizer lies within the ball's gradient-difference step of the axis,
    # where D^2h ~ |theta_i|^(-2/3) is not resolved and Newton does not
    # certify; there h is within 1e-10 (measured <= 2.8e-11)
    g = build_grid(2, 16)
    U = np.vstack([g.pair_nodes, unit_vectors(np.random.default_rng(42), 300, 2)])
    h = polar(lq_gauge_body(4, 2), g).support(U)
    h0 = LqNormBody(4, 2).support(U)
    err = np.abs(h - h0) / h0
    off_axis = np.abs(U).min(axis=1) >= 0.03
    assert err[off_axis].max() <= 1e-12
    assert err.max() <= 1e-10


def test_body_evaluator_is_an_interface():
    # BodyEvaluator carries no numerics: each family differentiates itself,
    # the l_q ball through LqNormBody's jet, the finite-difference oracles
    # the tests read live in tests/oracles.py, and support and circle_jet
    # read jet
    import ast
    import inspect
    from calab import bodies
    (cls,) = ast.parse(inspect.getsource(BodyEvaluator)).body
    methods = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
    assert methods == {"__init__", "jet", "support", "circle_jet", "gauge_body"}
    assert "jet" not in vars(bodies._LqBall)


# ---------------------------------------------------------------------------
# origin symmetry, the contract the Galerkin assembly sums over
# ---------------------------------------------------------------------------

# Bodies agree at antipodal nodes to ~1e-15 relative.  The l_q balls agree
# exactly: the grid's antipodes are exact negations, their gradient is exactly
# odd, and their D^2h is a central difference of that gradient.
_SYMMETRY_TOL = 1e-13


def _symmetric_bodies(n, g):
    """Every body type the CLI builds, and the compositions its commands
    build."""
    rng = np.random.default_rng(n + 30)
    A = rng.normal(size=(n, n))
    pb = perturbed_ball(n, 0.1)
    E = ellipsoid(np.diag([1.5, 1.0, 0.8][:n]))
    return {
        "ball": ball(1.0, n),
        "ellipsoid_diag": E,
        "ellipsoid_matrix": ellipsoid(A @ A.T + n * np.eye(n)),
        "perturbed_ball": pb,
        "random": random_even_body(n, seed=1),
        "lq4": lq_gauge_body(4, n),
        "lq3": lq_gauge_body(3, n),
        "polar": polar(pb, g),
        "linear_image": linear_image(pb, np.eye(n) + 0.3 * A),
        "firey": firey_sum(1.0, E, 0.8, pb, 2.0),
        "smoothed_ellipsoid": construct(E, g, 0.5, 0.3)[0],
        "smoothed_lq4": construct(lq_gauge_body(4, n), g, 0.5, 0.3)[0],
        "smoothed_lq3": construct(lq_gauge_body(3, n), g, 0.5, 0.3)[0],
    }


def _sign_symmetric_bodies(n, g):
    """A body of each family that states sign symmetry, built to have it."""
    E = ellipsoid(np.diag([1.5, 1.0, 0.8][:n]))
    even = {2: [(2, 0, 1.0), (4, 0, 0.3)], 3: [(2, 0, 1.0), (2, 2, 0.5), (4, 4, 0.2)]}[n]
    return {
        "ball": ball(1.3, n),
        "ellipsoid_diag": E,
        "spectral_cosines": perturbed_ball(n, 0.1, coeffs=even),
        "lq_norm": LqNormBody(3, n),
        "lq_ball": lq_gauge_body(4, n),
        "linear_image_diag": linear_image(E, np.diag([1.0, 0.5, 2.0][:n])),
        "firey": firey_sum(1.0, E, 0.8, LqNormBody(4, n), 2.0),
        "polar": polar(E, g),
        "rounded_gauge": _RoundedGaugeBody(LqNormBody(4, n), 0.5),
        "smoothed_lq4": construct(lq_gauge_body(4, n), g, 0.5, 0.3)[0],
    }


@pytest.mark.parametrize("n", [2, 3])
def test_sign_symmetry_is_stated_by_construction(n):
    # each family that states sign symmetry has it: h(S_i x) = h(x) for
    # every coordinate flip S_i, to 1e-14 of max h at 64 random points; and
    # bodies built without it say False
    g = build_grid(n, 16)
    X = 1.7 * unit_vectors(np.random.default_rng(34), 64, n)
    for name, body in _sign_symmetric_bodies(n, g).items():
        assert body.sign_symmetric, name
        h = body.support(X)
        for i in range(n):
            S = np.ones(n)
            S[i] = -1.0
            assert np.abs(body.support(X * S) - h).max() <= 1e-14 * h.max(), (name, i)
    rng = np.random.default_rng(n + 35)
    R = np.linalg.qr(rng.normal(size=(n, n)))[0]
    E = ellipsoid(np.diag([1.5, 1.0, 0.8][:n]))
    for body in (random_even_body(n, 3), perturbed_ball(n, 0.1),
                 ellipsoid(R @ np.diag([1.5, 1.0, 0.8][:n]) @ R.T),
                 linear_image(E, np.eye(n) + 0.2 * np.eye(n, k=1)),
                 firey_sum(1.0, E, 1.0, perturbed_ball(n, 0.1), 1.0),
                 polar(perturbed_ball(n, 0.1), g),
                 _RoundedGaugeBody(perturbed_ball(n, 0.1), 0.5)):
        assert not body.sign_symmetric, body.label


@pytest.mark.parametrize("n,L,nodes", [(2, 62, 256), (3, 16, None)])
def test_bodies_are_origin_symmetric_on_grid(n, L, nodes):
    # h(-u) = h(u), D2h_frame(-u) = D2h_frame(u) (in the pair node's frame)
    # and x(-u) = -x(u), relative to the largest entry of each: the jets at
    # the antipodal nodes against the rows evaluate_on_grid keeps
    g = build_grid(n, L, n_nodes=nodes)
    half = g.node_count // 2
    anti = g.antipodal_index[:half]
    F = g.tangent_frames()
    for name, body in _symmetric_bodies(n, g).items():
        bg = evaluate_on_grid(body, g)
        h, x, H = body.jet(g.nodes[anti], 2)
        for label, a, b in (("h", h, bg.h),
                            ("x", x, -bg.x),
                            ("D2h", F.transpose(0, 2, 1) @ H @ F, bg.D2h_frame)):
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err <= _SYMMETRY_TOL, (name, label, err)
