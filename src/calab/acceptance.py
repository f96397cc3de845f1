"""The acceptance suite: every gate the artifact must pass, as library code.

Each criterion returns a list of named checks with values, expectations and
tolerances; the CLI's verify-all command and the pytest acceptance module
both drive these functions.  Grid resolutions and tolerances are pinned here.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from calab.bodies import (
    ball,
    ellipsoid,
    evaluate_on_grid,
    linear_image,
    lq_gauge_body,
    perturbed_ball,
    polar,
    quantities,
    random_even_body,
)
from calab.calculus import build_state, ricci_star_check
from calab.isomorphic import (
    construct,
    direct_route_support,
    p_gamma_D,
    verify,
)
from calab.minkowski import (
    TargetMeasure,
    minimize,
    minkowski_inequality_gap,
    uniqueness_probe,
)
from calab.pinching import _spd_exp, measure_pinching, threshold_main, threshold_strong
from calab.spectral import (
    GalerkinBasis,
    bochner_residual,
    compute_spectrum,
    hessian_gap_even,
    invariance_check,
)
from calab.sphere import build_grid


class Check(NamedTuple):
    name: str
    value: float
    expected: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return self._asdict()


def _le(name, value, bound, tol=0.0) -> Check:
    return Check(name, float(value), float(bound), float(tol),
                 bool(value <= bound + tol))


def _close(name, value, expected, tol) -> Check:
    return Check(name, float(value), float(expected), float(tol),
                 bool(abs(value - expected) <= tol))


def _ge(name, value, bound, tol=0.0) -> Check:
    return Check(name, float(value), float(bound), float(tol),
                 bool(value >= bound - tol))


def _grid2():
    return build_grid(2, 62, n_nodes=256)


def _BODIES_3():
    return [
        ("ball", ball(1.0, 3)),
        ("ellipsoid", ellipsoid(np.diag([2.0, 1.0, 1.0]))),
        ("perturbed_ball", perturbed_ball(3, 0.1)),
    ]


def _BODIES_2():
    return [
        ("ball", ball(1.0, 2)),
        ("ellipsoid", ellipsoid(np.diag([2.0, 1.0]))),
        ("perturbed_ball", perturbed_ball(2, 0.1)),
    ]


def criterion_hilbert_eigenvalue(seed: int = 0) -> list[Check]:
    """lambda_1 = n-1 with an eigenvalue cluster of multiplicity exactly n."""
    out = []
    g3 = build_grid(3, 20)
    for label, body in _BODIES_3():
        rep, _ = compute_spectrum(evaluate_on_grid(body, g3), k=6)
        out.append(_close(f"n3/{label}/lambda1", rep.lambda1, 2.0, 1e-3))
        mult = [m for v, m in rep.multiplicities if abs(v - rep.lambda1) < 1e-2]
        out.append(_close(f"n3/{label}/multiplicity", mult[0], 3, 0))
    g2 = _grid2()
    for label, body in _BODIES_2():
        rep, _ = compute_spectrum(evaluate_on_grid(body, g2), k=5)
        out.append(_close(f"n2/{label}/lambda1", rep.lambda1, 1.0, 1e-6))
        mult = [m for v, m in rep.multiplicities if abs(v - rep.lambda1) < 1e-3]
        out.append(_close(f"n2/{label}/multiplicity", mult[0], 2, 0))
    return out


def criterion_even_gap(seed: int = 0) -> list[Check]:
    """lambda_1_even of balls and ellipsoids equals 2n."""
    g2 = _grid2()
    rep, _ = compute_spectrum(evaluate_on_grid(ball(1.0, 2), g2), k=2)
    out = [_close("n2/ball/lambda1_even", rep.lambda1_even, 4.0, 1e-6)]
    g3 = build_grid(3, 20)
    rep, _ = compute_spectrum(evaluate_on_grid(ball(1.0, 3), g3), k=2)
    out.append(_close("n3/ball/lambda1_even", rep.lambda1_even, 6.0, 1e-3))
    ell = evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 1.0])), g3)
    rep, _ = compute_spectrum(ell, k=2)
    out.append(_close("n3/ellipsoid/lambda1_even", rep.lambda1_even, 6.0, 1e-3))
    return out


def criterion_gl_invariance(seed: int = 0) -> list[Check]:
    """First 10 eigenvalues agree between K and T(K)."""
    out = []
    th = 0.6
    R3 = np.array([
        [np.cos(th), -np.sin(th), 0.0],
        [np.sin(th), np.cos(th), 0.0],
        [0.0, 0.0, 1.0],
    ])
    g3 = build_grid(3, 24)
    body3 = perturbed_ball(3, 0.1)
    out.append(_le("n3/rotation/max_gap",
                   invariance_check(body3, R3, g3), 1e-8))
    out.append(_le("n3/stretch/max_gap",
                   invariance_check(body3, np.diag([2.0, 1.0, 1.0]), g3),
                   1e-3))
    g2 = _grid2()
    body2 = perturbed_ball(2, 0.1)
    R2 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    out.append(_le("n2/rotation/max_gap",
                   invariance_check(body2, R2, g2), 1e-8))
    out.append(_le("n2/stretch/max_gap",
                   invariance_check(body2, np.diag([2.0, 1.0]), g2),
                   1e-3))
    return out


def criterion_bochner(seed: int = 0) -> list[Check]:
    """Integrated Bochner identity for random fields on random bodies."""
    out = []
    for n, L, tol in ((2, 62, 1e-6), (3, 16, 1e-3)):
        g = build_grid(n, L, n_nodes=256 if n == 2 else None)
        rng = np.random.default_rng(seed + n)
        nb = GalerkinBasis(g, max(L // 3, 6)).size
        worst = 0.0
        for b in range(5):
            body = random_even_body(n, seed=seed * 100 + b)
            st = build_state(evaluate_on_grid(body, g))
            for _ in range(20):
                c = rng.normal(size=g.basis.size)[:nb]
                worst = max(worst, bochner_residual(st, c))
        out.append(_le(f"n{n}/max_residual", worst, tol))
    return out


def criterion_gap_identity(seed: int = 0) -> list[Check]:
    """hessian gap = lambda_1_even - (n - 2), and the ball value n + 2."""
    out = []
    cases = [(2, _grid2(), _BODIES_2()), (3, build_grid(3, 20), _BODIES_3())]
    for n, g, bodies in cases:
        for label, body in bodies:
            rep, system = compute_spectrum(evaluate_on_grid(body, g), k=2,
                                           subspace="even-nonconstant")
            gap, lam = hessian_gap_even(system), rep.lambda1_even
            rel = abs(gap - (lam - n + 2)) / lam
            out.append(_le(f"n{n}/{label}/gap_identity", rel, 1e-3))
            if label == "ball":
                tol = 1e-6 if n == 2 else 1e-3
                out.append(_close(f"n{n}/ball/gap_value", gap, n + 2, tol))
    return out


def criterion_planar_log_bm(seed: int = 0, count: int = 200) -> list[Check]:
    """The planar even log-Brunn-Minkowski bound lambda_1_even >= 2."""
    g = build_grid(2, 16)
    worst = np.inf
    for k in range(count):
        body = random_even_body(2, seed=seed * 1000 + k)
        rep, _ = compute_spectrum(evaluate_on_grid(body, g), k=2,
                                  subspace="even-nonconstant")
        worst = min(worst, rep.lambda1_even)
    return [_ge("n2/min_lambda1_even", worst, 2.0, 1e-6)]


def criterion_ricci(seed: int = 0) -> list[Check]:
    """Constancy of the conjugate Ricci curvature at n - 2."""
    g = build_grid(3, 24)
    dev_ball = ricci_star_check(
        build_state(evaluate_on_grid(ball(1.0, 3), g)))["max_relative_deviation"]
    dev_ell = ricci_star_check(
        build_state(evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 1.0])), g))
    )["max_relative_deviation"]
    return [
        _le("n3/ball/ricci_deviation", dev_ball, 1e-6),
        _le("n3/ellipsoid/ricci_deviation", dev_ell, 1e-2),
    ]


def criterion_self_duality(seed: int = 0) -> list[Check]:
    """Omega_n(K) = Omega_n(polar K) and Omega_n^2 <= V(K) V(polar K)."""
    out = []
    cases = [
        ("n2/ellipsoid", ellipsoid(np.diag([2.0, 1.0])), _grid2(), 1e-6),
        ("n2/perturbed", perturbed_ball(2, 0.1), _grid2(), 1e-6),
        ("n3/ellipsoid", ellipsoid(np.diag([2.0, 1.0, 1.0])),
         build_grid(3, 16), 1e-3),
        ("n3/perturbed", perturbed_ball(3, 0.1), build_grid(3, 16), 1e-3),
    ]
    for label, body, g, tol in cases:
        q = quantities(evaluate_on_grid(body, g))
        qp = quantities(evaluate_on_grid(polar(body, g), g))
        gap = abs(q.omega_n - qp.omega_n) / q.omega_n
        out.append(_le(f"{label}/omega_gap", gap, tol))
        ratio = q.omega_n**2 / (q.volume * q.polar_volume)
        out.append(_le(f"{label}/volume_product", ratio, 1.0, 1e-6))
    g3 = build_grid(3, 12)
    q = quantities(evaluate_on_grid(ball(1.0, 3), g3))
    out.append(_close("n3/ball/volume_product_equality",
                      q.omega_n**2, q.volume * q.polar_volume, 1e-9))
    return out


def criterion_thresholds(seed: int = 0) -> list[Check]:
    """Exact threshold arithmetic."""
    out = []
    for n in (2, 3, 7):
        out.append(_close(f"ball_p_strong_n{n}",
                          threshold_strong(1.0, 1.0, 1.0, n),
                          3.0 - (n - 1) / 2.0, 0.0))
    out.append(_close("p_main_n25_ratio2", threshold_main(1.0, 2.0, 25), 0.0, 0.0))
    val = p_gamma_D(65, 8.0, np.sqrt(65.0))
    out.append(_close("p_gamma_D_65", val, -0.29231, 1e-4))
    out.append(_le("p_gamma_D_65_sign", val, 0.0))
    return out


def criterion_pinching_spectral(seed: int = 0) -> list[Check]:
    """lambda_1_even(K) >= n - p_strong(T(K)) for random unit-det images."""
    rng = np.random.default_rng(seed + 17)
    worst = np.inf
    cases = [(2, build_grid(2, 16), 12), (3, build_grid(3, 16), 8)]
    for n, g, count in cases:
        for k in range(count):
            body = random_even_body(n, seed=seed * 500 + 7 * k)
            rep, _ = compute_spectrum(evaluate_on_grid(body, g), k=2,
                                      subspace="even-nonconstant")
            lam = rep.lambda1_even
            for _ in range(3):
                Z = rng.normal(size=(n, n)) * 0.25
                T = _spd_exp(0.5 * (Z + Z.T))
                pin = measure_pinching(evaluate_on_grid(linear_image(body, T), g))
                worst = min(worst, lam - (n - pin.p_strong))
    return [_ge("min_slack_over_images", worst, 0.0, 1e-2)]


def criterion_smoothing_construction(seed: int = 0) -> list[Check]:
    """End-to-end smoothing construction at n = 3, L = 24."""
    g = build_grid(3, 24)
    out = []
    cases = [
        ("ellipsoid", ellipsoid(np.diag([2.0, 1.0, 1.0])), (1.0, 2.0)),
        ("l4_gauge", lq_gauge_body(4, 3), (1.0, 3.0**0.25)),
    ]
    for label, body, cert in cases:
        for alpha, beta in ((1.0, 1.0), (0.5, 0.3)):
            kt, params = construct(body, g, alpha, beta, certificate=cert)
            bg = evaluate_on_grid(kt, g)
            res = verify(bg, params, slack=0.02)
            for c in res["checks"]:
                out.append(Check(
                    f"{label}/a{alpha}b{beta}/{c['name']}",
                    c["measured"], c["bound"], 0.02, c["pass"],
                ))
            # dual route: direct gauge formula (even at every node) vs the
            # polar-of-Firey-sum chain
            h_direct = direct_route_support(body, g, alpha, beta,
                                            certificate=cert)
            dual = float(np.abs(bg.h - g.pair_rows(h_direct)).max())
            out.append(_le(f"{label}/a{alpha}b{beta}/dual_route", dual, 1e-6))
            if label == "ellipsoid":
                # fully numeric gauge (polar of the support function): the
                # 1e-6 agreement holds on analytic families
                kt2, _ = construct(body, g, alpha, beta, gauge="numeric",
                                   certificate=cert)
                dual2 = float(np.abs(bg.h - kt2.support(g.pair_nodes)).max())
                out.append(_le(f"{label}/a{alpha}b{beta}/numeric_gauge",
                               dual2, 1e-6))
    return out


def _round_trip(label: str, E, g, p: float) -> list[Check]:
    """Solve for the L^p surface-area measure of E on g: the solution is E
    up to scale, with a small EL residual."""
    res = minimize(TargetMeasure.from_body(evaluate_on_grid(E, g), p), p)
    h, hE = res.body.support(g.nodes), E.support(g.nodes)
    scale = np.mean(h) / np.mean(hE)
    return [_le(f"{label}/recovery_error",
                float(np.abs(h / (hE * scale) - 1.0).max()), 1e-3),
            _le(f"{label}/el_residual", res.el_residual, 1e-4)]


def criterion_solver_round_trips(seed: int = 0) -> list[Check]:
    """Lebesgue target returns the disc; S_p round trips return the ellipse
    (p = 0.5) and, at n=3, the ellipsoid diag(1.2, 1, 0.9) (p = 0 and 0.5)."""
    g = _grid2()
    out = []
    mu = TargetMeasure.from_density(g, np.ones(g.node_count))
    start = random_even_body(2, seed=seed + 5, band=16, strength=0.07)
    res = minimize(mu, 0.0, init=start.coeffs)
    h = res.body.support(g.nodes)
    out.append(_le("lebesgue/shape_error",
                   float(np.abs(h / np.mean(h) - 1.0).max()), 1e-4))
    out.append(_le("lebesgue/el_residual", res.el_residual, 1e-4))

    E = ellipsoid(np.diag([1.5, 1.0]))
    out += _round_trip("ellipse", E, g, 0.5)
    g3, E3 = build_grid(3, 16), ellipsoid(np.diag([1.2, 1.0, 0.9]))
    for p in (0.0, 0.5):
        out += _round_trip(f"ellipsoid_n3/p{p}", E3, g3, p)

    probe1 = uniqueness_probe(ball(1.0, 2), 0.0, n_starts=5, seed=seed + 1, grid=g)
    out.append(_close("ball/clusters", probe1["clusters"], 1, 0))
    probe2 = uniqueness_probe(E, 0.5, n_starts=5, seed=seed + 2, grid=g)
    out.append(_close("ellipse/clusters", probe2["clusters"], 1, 0))
    return out


def criterion_minkowski_inequality(seed: int = 0) -> list[Check]:
    """Sampled even L^p-Minkowski inequality at unit volume."""
    g = _grid2()
    Ks = [("ball", ball(1.0, 2)), ("ellipse", ellipsoid(np.diag([1.5, 1.0])))]
    worst = np.inf
    for _, K in Ks:
        bgK = evaluate_on_grid(K, g)
        VK = quantities(bgK).volume
        bgK = evaluate_on_grid(linear_image(K, np.eye(2) / np.sqrt(VK)), g)
        for k in range(25):
            L = random_even_body(2, seed=seed * 300 + k)
            bgL = evaluate_on_grid(L, g)
            VL = quantities(bgL).volume
            bgL = evaluate_on_grid(linear_image(L, np.eye(2) / np.sqrt(VL)), g)
            for p in (0.0, 0.5):
                worst = min(worst, minkowski_inequality_gap(bgK, bgL, p))
    return [_ge("min_gap_normalized", worst, 0.0, 1e-8)]


def criterion_determinism(seed: int = 0) -> list[Check]:
    """Byte-identical JSON reports for identical config and seed."""
    from calab import cli

    cfg = {
        "grid": {"n": 2, "L": 16},
        "body": {"type": "random", "seed": 3},
        "k": 6,
    }
    blobs = []
    for _ in range(2):
        raw = json.loads(json.dumps(cfg))
        report, _ = cli.run_command("spectrum", raw,
                                    cli.validate("spectrum", raw, seed))
        blobs.append(cli.report_bytes(report))
    return [Check("report_bytes_identical", float(blobs[0] == blobs[1]),
                  1.0, 0.0, blobs[0] == blobs[1])]


CRITERIA = {
    "hilbert_eigenvalue": criterion_hilbert_eigenvalue,
    "even_gap": criterion_even_gap,
    "gl_invariance": criterion_gl_invariance,
    "bochner": criterion_bochner,
    "gap_identity": criterion_gap_identity,
    "planar_log_bm": criterion_planar_log_bm,
    "ricci": criterion_ricci,
    "self_duality": criterion_self_duality,
    "thresholds": criterion_thresholds,
    "pinching_spectral": criterion_pinching_spectral,
    "smoothing_construction": criterion_smoothing_construction,
    "solver_round_trips": criterion_solver_round_trips,
    "minkowski_inequality": criterion_minkowski_inequality,
    "determinism": criterion_determinism,
}


def run_criteria(names=None, seed: int = 0):
    """Run the selected criteria; returns (records, all_passed)."""
    selected = list(CRITERIA) if names is None else list(names)
    records = []
    ok = True
    for name in selected:
        if name not in CRITERIA:
            raise KeyError(f"unknown criterion {name!r}")
        checks = CRITERIA[name](seed=seed)
        passed = all(c.passed for c in checks)
        ok &= passed
        records.append({
            "criterion": name,
            "passed": passed,
            "checks": [c.to_dict() for c in checks],
        })
    return records, ok
