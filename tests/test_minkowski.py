"""Tests for the variational even L^p-Minkowski solver."""

import numpy as np
import pytest

from calab.bodies import (
    ball,
    ellipsoid,
    evaluate_on_grid,
    quantities,
    random_even_body,
)
from calab.minkowski import (
    TargetMeasure,
    minimize,
    minkowski_inequality_gap,
    uniqueness_probe,
)
from calab.sphere import build_grid

from oracles import functional


@pytest.fixture(scope="module")
def grid():
    return build_grid(2, 62, n_nodes=256)


@pytest.fixture(scope="module")
def lebesgue(grid):
    return TargetMeasure.from_density(grid, np.ones(grid.node_count))


# ---------------------------------------------------------------------------
# target measures
# ---------------------------------------------------------------------------


def test_target_measure_validation(grid):
    with pytest.raises(ValueError):
        TargetMeasure.from_density(grid, -np.ones(grid.node_count))
    odd = 1.0 + 0.5 * grid.nodes[:, 0]
    with pytest.raises(ValueError):
        TargetMeasure.from_density(grid, odd)
    # NaN fails every comparison, so only an explicit finiteness check
    # rejects it; here at a node and its antipode, so the density is even
    nan = np.ones(grid.node_count)
    nan[[3, grid.antipodal_index[3]]] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TargetMeasure.from_density(grid, nan)


def test_target_measure_from_body(grid):
    bg = evaluate_on_grid(ball(2.0, 2), grid)
    mu = TargetMeasure.from_body(bg, 0.5)
    # h^{1-p} det D2h = 2^{0.5} * 2 for the radius-2 disc
    assert np.abs(mu.density - 2.0**1.5).max() < 1e-10


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------


def test_functional_ball_log_case(grid, lebesgue):
    bg = evaluate_on_grid(ball(1.0, 2), grid)
    assert abs(functional(bg, lebesgue, 0.0) - 1.0 / np.sqrt(np.pi)) < 1e-12


def test_functional_scale_invariance(grid, lebesgue):
    body = random_even_body(2, seed=4)
    f1 = functional(evaluate_on_grid(body, grid), lebesgue, 0.5)
    import calab.bodies as bodies

    f2 = functional(
        evaluate_on_grid(bodies.linear_image(body, 2.0 * np.eye(2)), grid),
        lebesgue, 0.5,
    )
    assert abs(f1 - f2) < 1e-10 * abs(f1)


def test_functional_ball_minimizes_lebesgue_target(grid, lebesgue):
    fball = functional(evaluate_on_grid(ball(1.0, 2), grid), lebesgue, 0.0)
    for seed in range(3):
        body = random_even_body(2, seed=seed)
        fb = functional(evaluate_on_grid(body, grid), lebesgue, 0.0)
        assert fb >= fball - 1e-12


def test_functional_range_check(grid, lebesgue):
    bg = evaluate_on_grid(ball(1.0, 2), grid)
    with pytest.raises(ValueError):
        functional(bg, lebesgue, 1.5)
    with pytest.raises(ValueError):
        functional(bg, lebesgue, -2.0)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_minimize_recovers_ball_from_random_start(grid, lebesgue):
    # the Lebesgue target at p = 0 has the centered disc as unique solution
    rng = np.random.default_rng(9)
    from calab.minkowski import _EvenModel

    model = _EvenModel(grid, 16)
    c = model.ball_coeffs()
    pert = rng.normal(size=model.basis.size) * np.exp(-model.basis.degrees)
    pert[~model.even_mask] = 0.0
    c = c + 0.05 * pert
    res = minimize(lebesgue, 0.0, init=c)
    assert res.converged
    h = res.body.support(grid.nodes)
    assert np.abs(h / np.mean(h) - 1.0).max() < 1e-4
    assert res.el_residual < 1e-4


def test_minimize_round_trip_ellipse(grid):
    E = ellipsoid(np.diag([1.5, 1.0]))
    bgE = evaluate_on_grid(E, grid)
    mu = TargetMeasure.from_body(bgE, 0.5)
    res = minimize(mu, 0.5)
    assert res.converged
    h = res.body.support(grid.nodes)
    hE = E.support(grid.nodes)
    scale = np.mean(h) / np.mean(hE)
    assert np.abs(h / (hE * scale) - 1.0).max() < 1e-3
    assert res.el_residual < 1e-4


@pytest.mark.parametrize("target,p", [
    (lambda: ellipsoid(np.diag([1.5, 1.0])), 0.5),
    (lambda: ellipsoid(np.diag([1.5, 1.0])), 0.0),
    (lambda: random_even_body(2, seed=5001), 0.0),
], ids=["ellipse_p0.5", "ellipse_p0", "random5001_p0"])
def test_minimize_reports_the_functional_it_minimizes(grid, target, p):
    # the solver's value is the functional of its own body on the grid
    mu = TargetMeasure.from_body(evaluate_on_grid(target(), grid), p)
    res = minimize(mu, p)
    ref = functional(evaluate_on_grid(res.body, grid), mu, p)
    assert abs(res.value - ref) <= 1e-12 * abs(ref)


def test_minimize_monotone_and_feasible(grid):
    body = random_even_body(2, seed=1)
    bg = evaluate_on_grid(body, grid)
    mu = TargetMeasure.from_body(bg, 0.0)
    res = minimize(mu, 0.0, max_iter=200)
    assert res.converged
    # the functional decreases monotonically along accepted iterations
    hist = np.array(res.history)
    assert np.all(np.diff(hist) <= 1e-14)
    # converged results are strongly convex (minimizer certificate)
    out = evaluate_on_grid(res.body, grid)
    assert out.valid


def test_minimize_converges_past_roundoff_stalls(grid):
    # steps whose decrease F cannot resolve: the steepest descent that
    # preceded Newton stalled its line search (5006) or accepted steps that
    # left F unchanged (5223) at p=0; Newton's last step on 5097 and 5292 at
    # p=0.5 is judged by the gradient (_UNRESOLVED).  All converge
    for seed, p in ((5006, 0.0), (5223, 0.0), (5097, 0.5), (5292, 0.5)):
        body = random_even_body(2, seed=seed)
        mu = TargetMeasure.from_body(evaluate_on_grid(body, grid), p)
        res = minimize(mu, p)
        assert res.converged, (seed, res.message)
        assert res.iterations < 200
        assert res.el_residual < 1e-4


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_newton_converges_in_few_iterations(grid, p):
    # second-order convergence on the scan targets: each takes at most 6
    # iterations at band 16, as do all 800 targets s = 5000..5399
    for seed in range(5000, 5010):
        body = random_even_body(2, seed=seed)
        mu = TargetMeasure.from_body(evaluate_on_grid(body, grid), p)
        res = minimize(mu, p)
        assert res.converged, (seed, res.message)
        assert res.iterations <= 20, (seed, res.iterations)
        assert res.el_residual < 1e-4


def test_hessian_is_formed_once_per_newton_step(grid, monkeypatch):
    # the Hessian (one volume_hessian each) is formed for each Newton step
    # taken, and not at the final iterate, where the gradient tolerance
    # stops the iteration
    from calab.minkowski import _EvenModel

    calls = []
    volume_hessian = _EvenModel.volume_hessian
    monkeypatch.setattr(_EvenModel, "volume_hessian",
                        lambda self, c: calls.append(1) or volume_hessian(self, c))
    for seed, p in ((5003, 0.5), (5000, 0.0)):
        calls.clear()
        mu = TargetMeasure.from_body(evaluate_on_grid(random_even_body(2, seed=seed), grid), p)
        res = minimize(mu, p)
        assert res.converged and res.message == "gradient tolerance reached"
        assert len(calls) == len(res.history) - 1 == res.iterations - 1 > 0


def test_objective_is_evaluated_once_per_accepted_step(grid, monkeypatch):
    # the line search evaluates F at each feasible candidate after its
    # unit-volume rescale, and an accepted step keeps that evaluation: one
    # call at the start and one per step on targets where nothing backtracks
    import calab.minkowski as minkowski

    calls = []
    objective = minkowski._objective
    monkeypatch.setattr(minkowski, "_objective",
                        lambda *a: calls.append(1) or objective(*a))
    for p in (0.0, 0.5):
        for seed in range(5000, 5010):
            calls.clear()
            mu = TargetMeasure.from_body(
                evaluate_on_grid(random_even_body(2, seed=seed), grid), p)
            res = minimize(mu, p)
            assert res.converged, (seed, p, res.message)
            assert len(calls) == len(res.history), (seed, p)


def test_minimize_judges_convergence_on_the_returned_iterate(grid):
    # random 5000 at p = 0 converges in 6 iterations, the last only testing
    # the gradient; stopped by max_iter after the 5th step, the run returns
    # the same iterate and reports it converged
    mu = TargetMeasure.from_body(
        evaluate_on_grid(random_even_body(2, seed=5000), grid), 0.0)
    full = minimize(mu, 0.0)
    assert full.converged and full.iterations == 6
    cut = minimize(mu, 0.0, max_iter=5)
    assert np.array_equal(cut.coeffs, full.coeffs)
    assert cut.history == full.history
    assert cut.converged and cut.message == "gradient tolerance reached"
    assert cut.iterations == 5
    # one step short, the gradient rule fails and max_iter is the reason
    short = minimize(mu, 0.0, max_iter=4)
    assert not short.converged and short.message == "max iterations reached"


def _hessian_case(n, p):
    """A solver model, a target density and feasible even coefficients off
    the minimizer and off unit volume."""
    from calab.minkowski import _EvenModel

    if n == 2:
        g, band, K = build_grid(2, 62, n_nodes=256), 16, random_even_body(2, seed=3)
    else:
        g, band, K = build_grid(3, 12), 6, ellipsoid(np.diag([1.3, 1.0, 0.9]))
    model = _EvenModel(g, band)
    f = TargetMeasure.from_body(evaluate_on_grid(K, g), p).density
    rng = np.random.default_rng(n)
    c = 1.2 * model.ball_coeffs()[model.even_mask]
    degs = model.basis.degrees[model.even_mask]
    c[1:] += 0.1 * np.exp(-degs[1:]) * rng.normal(size=len(c) - 1)
    return model, f, c


def _central_differences(fn, c, eps):
    cols = []
    for j in range(len(c)):
        e = np.zeros_like(c)
        e[j] = eps
        cols.append((fn(c + e) - fn(c - e)) / (2 * eps))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [0.0, 0.5])
def test_newton_hessian_matches_gradient_differences(n, p):
    # the exact Hessian of F (and its volume part d^2V) against central
    # differences of _objective's gradient (and of dV = B^t (w det))
    from calab.minkowski import _objective

    model, f, c = _hessian_case(n, p)

    def grad(c):
        h, det, _ = model.geometry(c)
        return _objective(model, f, p, c, h, det)[1]

    def volume_grad(c):
        _, det, _ = model.geometry(c)
        return model.B.T @ (model.weights * det)

    h, det, mn = model.geometry(c)
    assert mn > 0
    V = float(model.weights @ (h * det)) / n
    assert abs(V - 1.0) > 0.1
    F, g, hessian = _objective(model, f, p, c, h, det)
    hess = hessian()
    assert np.array_equal(g, grad(c))
    d2V = model.volume_hessian(c)
    assert np.array_equal(d2V, d2V.T)
    for analytic, fn in [(hess, grad), (d2V, volume_grad)]:
        scale = np.abs(analytic).max()
        fd = _central_differences(fn, c, 1e-5)
        assert np.abs(analytic - fd).max() <= 1e-6 * scale
        assert np.abs(analytic - analytic.T).max() <= 1e-14 * scale


def test_minimize_on_half_grid_tables_returns_unit_volume():
    # the model reads the grid's tables at the solver band on N/2 nodes, at
    # weights 2 w: the solution has unit volume on the whole grid
    g = build_grid(2, 62, n_nodes=256)
    mu = TargetMeasure.from_body(evaluate_on_grid(ellipsoid(np.diag([1.5, 1.0])), g),
                                 0.5)
    assert g._tables is None
    res = minimize(mu, 0.5, band=16)
    assert res.converged
    # band 16 at n=2: the 17 even columns, one table set, and no odd table
    for T in g._tables[0]:
        assert T.shape[:2] == (g.node_count // 2, 17)
    assert g._tables[1] is None
    assert abs(quantities(evaluate_on_grid(res.body, g)).volume - 1.0) <= 1e-13


@pytest.mark.parametrize("n,L,band", [(2, 16, 8), (3, 24, 16)])
def test_even_model_builds_only_the_even_tables(n, L, band):
    # a model on a fresh grid fills the even block of the grid's table cache
    # and leaves the odd block unbuilt; a second model reuses the even block,
    # and the odd block, asked for later, is bit for bit a fresh grid's
    from calab.minkowski import _EvenModel
    g = build_grid(n, L)
    model = _EvenModel(g, band)
    assert g._tables[1] is None
    even = g._tables[0]
    assert even[0].shape[1] == len(model.basis.parity_columns[0])
    _EvenModel(g, band)
    assert g._tables[0] is even and g._tables[1] is None
    odd = g.basis_tables(band)[1]
    assert g._tables[0] is even
    for T, R in zip(odd, build_grid(n, L).basis_tables(band)[1]):
        assert np.array_equal(T, R)


def test_minimize_rejects_infeasible_init(grid, lebesgue):
    from calab.minkowski import _EvenModel

    model = _EvenModel(grid, 16)
    c = model.ball_coeffs()
    c[4] = 5.0  # wildly non-convex
    with pytest.raises(ValueError):
        minimize(lebesgue, 0.0, init=c)


def test_solver_preserves_evenness(grid, lebesgue):
    res = minimize(lebesgue, 0.5)
    basis_parity = res.body.basis.parity
    assert np.all(res.coeffs[basis_parity < 0] == 0.0)


# ---------------------------------------------------------------------------
# uniqueness probing
# ---------------------------------------------------------------------------


def test_uniqueness_probe_ball(grid):
    res = uniqueness_probe(ball(1.0, 2), 0.5, n_starts=5, seed=11, grid=grid)
    assert res["clusters"] == 1
    assert all(r.converged for r in res["results"])


def test_uniqueness_probe_ellipse_log_case(grid):
    res = uniqueness_probe(ellipsoid(np.diag([1.5, 1.0])), 0.0, n_starts=5,
                           seed=3, grid=grid)
    assert res["clusters"] == 1


def test_uniqueness_probe_negative_p_recorded(grid):
    # exploratory: below p = 0 multiple basins may exist; only record.
    # p stays inside the functional's domain (-n, 1) = (-2, 1) here.
    res = uniqueness_probe(ellipsoid(np.diag([1.8, 1.0])), -1.5, n_starts=4,
                           seed=5, grid=grid)
    assert res["clusters"] >= 1
    assert res["pairwise_sup_distances"].shape == (4, 4)
    # the probe compares the unit-volume minimizers on the half grid: the
    # sup distances of their support functions over the whole grid
    hs = [r.body.support(grid.nodes) for r in res["results"]]
    for i, j in zip(*np.triu_indices(4, 1)):
        ref = np.abs(hs[i] - hs[j]).max() / np.mean(hs[i])
        assert abs(res["pairwise_sup_distances"][i, j] - ref) <= 1e-13


def test_uniqueness_probe_single_linkage_is_transitive(grid, monkeypatch):
    # prescribed minimizers: balls scaled by 1, 1.008, 1.016 (a chain whose
    # neighbours lie under 1e-2 apart while its ends do not) and 1.5
    import calab.minkowski as minkowski

    model = minkowski._EvenModel(grid, 16)
    radii = iter([1.0, 1.008, 1.016, 1.5])
    monkeypatch.setattr(
        minkowski, "minimize",
        lambda mu, p, **kw: minkowski.SolveResult(
            coeffs=next(radii) * model.ball_coeffs(), band=16, n=2, value=0.0,
            el_residual=0.0, iterations=0, converged=True, normalization=1.0))
    res = uniqueness_probe(ball(1.0, 2), 0.5, n_starts=4, seed=0, grid=grid)
    assert res["clusters"] == 2
    assert res["labels"] == [0, 0, 0, 1]
    dist = res["pairwise_sup_distances"]
    hs = [r.body.support(grid.nodes) for r in res["results"]]
    for i, j in zip(*np.triu_indices(4, 1)):
        ref = np.abs(hs[i] - hs[j]).max() / np.mean(hs[i])
        assert abs(dist[i, j] - ref) <= 1e-13
        assert dist[j, i] == dist[i, j]
    assert dist[0, 1] <= 1e-2 and dist[1, 2] <= 1e-2 and dist[0, 2] > 1e-2
    assert np.all(np.diag(dist) == 0.0)


def test_uniqueness_probe_starts_are_random_even_bodies(grid, monkeypatch):
    import calab.minkowski as minkowski

    model = minkowski._EvenModel(grid, 16)
    inits = []

    def spy(mu, p, init=None, **kw):
        inits.append(init)
        return minkowski.SolveResult(
            coeffs=model.ball_coeffs(), band=16, n=2, value=0.0, el_residual=0.0,
            iterations=0, converged=True, normalization=1.0)

    monkeypatch.setattr(minkowski, "minimize", spy)
    uniqueness_probe(ball(1.0, 2), 0.5, n_starts=3, seed=4, grid=grid)
    assert len(inits) == 3
    for i, init in enumerate(inits):
        ref = random_even_body(2, seed=4 * 3 + i, band=16, strength=0.8).coeffs
        assert np.array_equal(init, ref)


def test_probe_starts_are_distinct_and_feasible_on_the_model_grid(grid):
    # the starts criterion_solver_round_trips draws (probe seeds seed + 1 and
    # seed + 2, five starts each) at verify-all seeds 0..9: minimize accepts
    # each, and no two coincide
    import calab.minkowski as minkowski

    model = minkowski._EvenModel(grid, 16)
    starts = [random_even_body(2, seed=s * 5 + i, band=16, strength=0.8).coeffs
              for s in range(1, 12) for i in range(5)]
    assert len({c.tobytes() for c in starts}) == len(starts)
    for c in starts:
        _, det, min_eig = model.geometry(c[model.even_mask])
        assert det is not None and min_eig > 0


def test_uniqueness_probe_needs_a_start(grid):
    with pytest.raises(ValueError, match="n_starts"):
        uniqueness_probe(ball(1.0, 2), 0.5, n_starts=0, seed=0, grid=grid)


def test_probe_determinism(grid):
    r1 = uniqueness_probe(ball(1.0, 2), 0.5, n_starts=3, seed=7, grid=grid)
    r2 = uniqueness_probe(ball(1.0, 2), 0.5, n_starts=3, seed=7, grid=grid)
    assert np.array_equal(r1["pairwise_sup_distances"],
                          r2["pairwise_sup_distances"])


# ---------------------------------------------------------------------------
# the L^p-Minkowski inequality
# ---------------------------------------------------------------------------


def test_minkowski_inequality_sampling(grid):
    bodies_K = [ball(1.0, 2), ellipsoid(np.diag([1.5, 1.0]))]
    for K in bodies_K:
        bgK = evaluate_on_grid(K, grid)
        for seed in range(8):
            L = random_even_body(2, seed=seed)
            bgL = evaluate_on_grid(L, grid)
            for p in (0.0, 0.5):
                gap = minkowski_inequality_gap(bgK, bgL, p)
                assert gap >= -1e-8


def test_minkowski_inequality_equality_case(grid):
    # L = c K gives equality
    K = ellipsoid(np.diag([1.5, 1.0]))
    bgK = evaluate_on_grid(K, grid)
    import calab.bodies as bodies

    bgL = evaluate_on_grid(bodies.linear_image(K, 1.7 * np.eye(2)), grid)
    for p in (0.0, 0.5):
        gap = minkowski_inequality_gap(bgK, bgL, p)
        assert abs(gap) < 1e-9 * max(1.0, abs(gap) + 1.0)
