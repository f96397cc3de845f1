"""Tests for curvature-pinching extraction and the p-threshold formulas."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from calab import cli, pinching

from calab.bodies import (
    PolarBody,
    ball,
    ellipsoid,
    evaluate_on_grid,
    linear_image,
    perturbed_ball,
    polar,
    random_even_body,
)
from calab.pinching import (
    _image_samples,
    _isotropic_centre,
    _nelder_mead,
    _spd_exp,
    _p_strong_objective,
    measure_pinching,
    optimize_image,
    threshold_main,
    threshold_strong,
)
from calab.spectral import compute_spectrum
from calab.sphere import build_grid, tangent_frames, unpack_sym


# ---------------------------------------------------------------------------
# threshold formulas (exact arithmetic)
# ---------------------------------------------------------------------------


def test_threshold_main_values():
    assert threshold_main(1.0, 1.0, 7) == 0.0          # 3 - 3
    assert threshold_main(1.0, 2.0, 25) == 0.0         # 3 - 12/4
    # boundary of the log case: R^2/r^2 = (n-1)/6 gives p = 0
    n = 25
    assert abs(threshold_main(1.0, np.sqrt((n - 1) / 6.0), n)) < 1e-15


def test_threshold_strong_values():
    assert threshold_strong(1.0, 1.0, 1.0, 3) == 2.0
    # ball of radius 1 in R^n: A = B = R = 1 gives 3 - (n-1)/2
    for n in (2, 3, 10):
        assert threshold_strong(1.0, 1.0, 1.0, n) == 3.0 - (n - 1) / 2.0


def test_threshold_domain_errors():
    with pytest.raises(ValueError):
        threshold_main(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        threshold_main(2.0, 1.0, 3)
    with pytest.raises(ValueError):
        threshold_strong(1.0, 0.5, 1.0, 3)
    with pytest.raises(ValueError):
        threshold_strong(1.0, 2.0, -1.0, 3)


# ---------------------------------------------------------------------------
# measured pinching
# ---------------------------------------------------------------------------


def test_ball_pinching_report():
    for n in (2, 3):
        g = build_grid(n, 12)
        rep = measure_pinching(evaluate_on_grid(ball(1.0, n), g))
        for v in (rep.r_curv, rep.R_curv, rep.A, rep.B, rep.r_in, rep.R_out):
            assert abs(v - 1.0) < 1e-10
        assert abs(rep.p_strong - (3.0 - (n - 1) / 2.0)) < 1e-9
        if n == 3:
            assert abs(rep.p_strong - 2.0) < 1e-9
            assert not rep.admissible


def test_pinching_ordering_invariants():
    g = build_grid(3, 16)
    for body in [ellipsoid(np.diag([1.8, 1.0, 0.7])), perturbed_ball(3, 0.1)]:
        rep = measure_pinching(evaluate_on_grid(body, g))
        assert rep.r_curv <= rep.R_curv
        assert rep.A <= rep.B
        assert rep.r_in <= rep.R_out
        # Blaschke rolling: r_curv B subset K subset R_curv B
        assert rep.r_curv <= rep.r_in + 1e-8
        assert rep.R_out <= rep.R_curv + 1e-8


def test_pinching_reads_every_node_pole_rings_included():
    # diag(2, 1, 0.7) has its largest radius of curvature, 2^2/0.7, at the
    # poles; at L=64 the outermost Gauss-Legendre rings have |cos theta| > 0.999
    g = build_grid(3, 64)
    bg = evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 0.7])), g)
    assert np.abs(g.nodes[:, 2]).max() > 0.999
    rep = measure_pinching(bg)
    assert rep.R_curv == bg.eig_D2h.max() and rep.r_curv == bg.eig_D2h.min()
    heig = bg.h[:, None] * bg.eig_D2h
    assert rep.A == heig.min() and rep.B == heig.max()
    assert 0.0 < 4.0 / 0.7 - rep.R_curv < 5e-3


def test_pinching_requires_valid_body():
    g = build_grid(2, 16)
    bg = evaluate_on_grid(perturbed_ball(2, 1.5), g)
    with pytest.raises(ValueError):
        measure_pinching(bg)


def test_orthogonal_image_of_ball_matches_ball():
    g = build_grid(3, 12)
    th = 0.9
    Q = np.array([
        [np.cos(th), -np.sin(th), 0.0],
        [np.sin(th), np.cos(th), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rep0 = measure_pinching(evaluate_on_grid(ball(1.0, 3), g))
    rep1 = measure_pinching(evaluate_on_grid(linear_image(ball(1.0, 3), Q), g))
    for f in ("r_curv", "R_curv", "A", "B", "r_in", "R_out", "p_strong"):
        assert abs(getattr(rep0, f) - getattr(rep1, f)) < 1e-10


# ---------------------------------------------------------------------------
# optimization over images
# ---------------------------------------------------------------------------


def _counted(f):
    calls = []

    def g(x):
        calls.append(1)
        return f(x)
    return g, calls


def _assert_matches_scipy_nelder_mead(f, x0, maxiter, xatol, fatol):
    # scipy stays installed as the oracle: same point, iterations and
    # evaluations, to the bit; and a search that stops before the cap stops
    # by the tolerance test, as scipy's succeeds
    ours, ours_calls = _counted(f)
    x, nit, converged = _nelder_mead(ours, x0, maxiter, xatol=xatol, fatol=fatol)
    ref_f, ref_calls = _counted(f)
    ref = minimize(ref_f, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol})
    assert np.array_equal(x, ref.x)
    assert nit == ref.nit
    assert len(ours_calls) == len(ref_calls) == ref.nfev
    if nit < maxiter:
        assert converged and ref.success


@pytest.mark.parametrize("x0,maxiter", [
    ([-1.2, 1.0], 400),                          # converges (117 iterations)
    ([-1.2, 1.0, 0.5, -0.3, 0.8, 1.1], 2000),    # converges (796 iterations)
    ([-1.2, 1.0, 0.5, -0.3, 0.8, 1.1], 150),     # stops at maxiter
])
def test_nelder_mead_matches_scipy_on_rosenbrock(x0, maxiter):
    _assert_matches_scipy_nelder_mead(rosen, np.array(x0), maxiter, 1e-8, 1e-10)


def test_nelder_mead_matches_scipy_on_the_pinch_config():
    path = Path(__file__).resolve().parents[1] / "configs" / "pinch_ellipsoid.json"
    v = cli.validate("pinch", json.loads(path.read_text()), seed=0)
    bg = v["body"]
    objective = _p_strong_objective(bg, _isotropic_centre(bg))
    _assert_matches_scipy_nelder_mead(objective, np.zeros(6), v["optimize"]["iters"],
                                      1e-6, 1e-9)


def test_nelder_mead_matches_scipy_on_an_n2_pinch_objective():
    # n=2 takes _image_samples' one-eigenvalue branch
    bg = evaluate_on_grid(random_even_body(2, 7007), build_grid(2, 16))
    objective = _p_strong_objective(bg, _isotropic_centre(bg))
    _assert_matches_scipy_nelder_mead(objective, np.zeros(3), 200, 1e-6, 1e-9)


def test_optimize_image_reaches_the_ball_of_the_pinch_config():
    # Nelder-Mead starts at the isotropic position, where the ellipsoid is a
    # ball (p_strong 2 at n=3), and stops by its tolerances before the cap;
    # from the identity it stopped at the cap at 2.2679
    path = Path(__file__).resolve().parents[1] / "configs" / "pinch_ellipsoid.json"
    v = cli.validate("pinch", json.loads(path.read_text()), seed=0)
    iters = v["optimize"]["iters"]
    res = optimize_image(v["body"], iters=iters)
    assert res["iterations"] < iters
    assert abs(res["report"].p_strong - 2.0) < 1e-6


def test_optimize_image_reaches_the_ball_of_a_rotated_ellipsoid():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    body = ellipsoid(Q @ np.diag([1.5, 1.0, 0.7]) @ Q.T)
    res = optimize_image(evaluate_on_grid(body, build_grid(3, 16)), iters=200)
    assert res["iterations"] < 200
    assert abs(res["report"].p_strong - 2.0) < 1e-6


_IMAGE_BODIES = {
    "ellipsoid": lambda n, g: ellipsoid(np.diag([1.6, 1.0, 0.7][:n])),
    "perturbed": lambda n, g: perturbed_ball(n, 0.1),
    "random": lambda n, g: random_even_body(n, 7007),
    "polar": lambda n, g: polar(perturbed_ball(n, 0.1), g),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(_IMAGE_BODIES))
def test_image_samples_match_the_image_body(n, name):
    # the search's samples of T(K) at u = T^-1 v / |T^-1 v|, from K's jet at
    # the pair nodes v, against linear_image(K, T) evaluated at u: h and the
    # tangent eigenvalues of h D^2h (measured <= 2.5e-15)
    g = build_grid(n, 16)
    body = _IMAGE_BODIES[name](n, g)
    samples = _image_samples(evaluate_on_grid(body, g))
    rng = np.random.default_rng(11)
    for _ in range(5):
        S = unpack_sym(0.3 * rng.normal(size=n * (n + 1) // 2))
        T = _spd_exp(S)
        u = np.linalg.solve(T, g.pair_nodes.T).T
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        h, _, H = linear_image(body, T).jet(u, 2)
        E = tangent_frames(u)
        eig = h[:, None] * np.linalg.eigvalsh(E.transpose(0, 2, 1) @ H @ E)
        h_s, eig_s = samples(S)
        assert np.abs(h_s - h).max() <= 1e-12
        assert np.abs(eig_s - eig).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(_IMAGE_BODIES))
def test_objective_is_p_strong_of_the_image_samples(n, name):
    # the objective reduces the extremes of _image_samples, here given the
    # traceless chart matrix formed apart from it
    g = build_grid(n, 16)
    bg = evaluate_on_grid(_IMAGE_BODIES[name](n, g), g)
    centre = _isotropic_centre(bg)
    objective, samples = _p_strong_objective(bg, centre), _image_samples(bg)
    rng = np.random.default_rng(13)
    for _ in range(5):
        z = 0.3 * rng.normal(size=n * (n + 1) // 2)
        S = unpack_sym(centre + z)
        h, eig = samples(S - np.trace(S) / n * np.eye(n))
        p = threshold_strong(eig.min(), eig.max(), h.max(), n)
        assert abs(objective(z) - p) <= 1e-13 * abs(p)


def test_optimize_image_rejects_a_body_not_strongly_convex():
    bg = evaluate_on_grid(perturbed_ball(2, 1.5), build_grid(2, 16))
    with pytest.raises(ValueError, match="strongly convex"):
        optimize_image(bg, iters=20)


@pytest.mark.parametrize("name", ["ellipsoid", "polar"])
def test_optimize_image_evaluates_the_grid_once(name, monkeypatch):
    # the search reads K's jet on the grid; only the final comparison
    # evaluates images, the search result's and its start's, and a polar body
    # is solved there only, once for each
    g = build_grid(3, 16)
    body = _IMAGE_BODIES[name](3, g)
    bg = evaluate_on_grid(body, g)
    evaluations, polar_jets = [], []
    real_evaluate, real_jet = pinching.evaluate_on_grid, PolarBody.jet

    def counting_evaluate(*args):
        evaluations.append(1)
        return real_evaluate(*args)

    def counting_jet(self, *args):
        polar_jets.append(1)
        return real_jet(self, *args)
    monkeypatch.setattr(pinching, "evaluate_on_grid", counting_evaluate)
    monkeypatch.setattr(PolarBody, "jet", counting_jet)
    res = optimize_image(bg, iters=30)
    assert res["iterations"] > 1
    assert len(evaluations) == 2
    assert len(polar_jets) == 2 * (name == "polar")


def test_optimize_image_never_returns_worse_than_its_start():
    # on this ellipsoid the samples rate the search result better than its
    # isotropic start, but the grid measures it worse (2.7126 against
    # 2.6948): the start is returned, with the report that the grid measures
    g = build_grid(3, 16)
    bg = evaluate_on_grid(ellipsoid(np.diag([10.0, 1.0, 0.1])), g)
    start_T = _spd_exp(unpack_sym(_isotropic_centre(bg)))
    start = measure_pinching(evaluate_on_grid(linear_image(bg.body, start_T), g))
    res = optimize_image(bg, iters=200)
    assert res["report"].p_strong <= start.p_strong
    assert res["report"] == measure_pinching(
        evaluate_on_grid(linear_image(bg.body, res["T"]), g))


def test_optimize_image_ball_stays_identity():
    g = build_grid(2, 16)
    res = optimize_image(evaluate_on_grid(ball(1.0, 2), g), iters=60)
    assert np.abs(res["T"] - np.eye(2)).max() < 1e-3
    assert abs(res["report"].p_strong - 2.5) < 1e-6


def test_optimize_image_ellipse_recovers_ball():
    g = build_grid(2, 16)
    res = optimize_image(evaluate_on_grid(ellipsoid(np.diag([1.6, 1.0])), g), iters=250)
    rep = res["report"]
    # the optimal image is a ball: pinch ratio near 1, p_strong near 5/2
    assert rep.R_curv / rep.r_curv < 1.01
    assert abs(rep.p_strong - 2.5) < 5e-3


def test_optimize_image_improves_perturbed_ball():
    g = build_grid(2, 16)
    body = perturbed_ball(2, 0.05)
    bg = evaluate_on_grid(body, g)
    base = measure_pinching(bg).p_strong
    res = optimize_image(bg, iters=120)
    assert res["report"].p_strong <= base + 1e-12


# ---------------------------------------------------------------------------
# pinching vs spectrum
# ---------------------------------------------------------------------------


def lambda1_even(body, g):
    rep, _ = compute_spectrum(evaluate_on_grid(body, g), k=2,
                              subspace="even-nonconstant")
    return rep.lambda1_even


def test_spectral_consistency_ball():
    g = build_grid(3, 12)
    body = ball(1.0, 3)
    lam = lambda1_even(body, g)
    p_strong = measure_pinching(evaluate_on_grid(body, g)).p_strong
    assert abs(lam - 6.0) < 1e-6
    assert abs(p_strong - 2.0) < 1e-9
    assert lam >= 3 - p_strong - 3e-3


def test_spectral_consistency_random_bodies():
    # the curvature-pinching theorem guarantees the bound for every valid body
    for seed in range(4):
        body = random_even_body(2, seed=seed)
        g = build_grid(2, 16)
        p_strong = measure_pinching(evaluate_on_grid(body, g)).p_strong
        assert lambda1_even(body, g) >= 2 - p_strong - 2e-3


def test_spectral_consistency_under_images():
    rng = np.random.default_rng(5)
    g = build_grid(2, 16)
    body = perturbed_ball(2, 0.08)
    for _ in range(3):
        Z = rng.normal(size=(2, 2)) * 0.3
        S = 0.5 * (Z + Z.T)
        S -= np.trace(S) / 2.0 * np.eye(2)
        w, V = np.linalg.eigh(S)
        T = (V * np.exp(w)[None, :]) @ V.T
        img = linear_image(body, T)
        pin = measure_pinching(evaluate_on_grid(img, g))
        assert lambda1_even(body, g) >= 2.0 - pin.p_strong - 1e-2
