"""Tests for the centro-affine metric, conjugate calculus, Ricci and duality."""

import numpy as np
import pytest

from calab.bodies import (
    LqNormBody,
    ball,
    ellipsoid,
    evaluate_on_grid,
    firey_sum,
    linear_image,
    lq_gauge_body,
    perturbed_ball,
    polar,
    random_even_body,
)
from calab.calculus import (
    _conjugate_ricci,
    build_state,
    hbm_apply,
    ricci_star_check,
)
from calab.isomorphic import construct
from calab.spectral import bochner_residual
from calab.sphere import (
    ScalarField,
    _antipodal_rows,
    _unfold,
    analyze,
    build_grid,
    gradient_from_coeffs,
    hessian_from_coeffs,
    packed_positions,
    synthesize,
    tangential_gradient,
    tangential_hessian,
    to_ambient,
)

from oracles import (
    adapted_linear_derivs,
    conjugate_hessian_frames,
    conjugate_hessian_packed,
    fd_hbm_terms,
    duality_isometry_check,
    duality_map,
    duality_roundtrip_error,
    integrated_divergence_residual,
    jet_consistency_error,
    ScaledHessian,
    pushforward_invariance_error,
    state_diagnostics,
)


def state_for(body, n, L):
    g = build_grid(n, L)
    return build_state(evaluate_on_grid(body, g))


def ambient(st, A):
    """Ambient matrices E A E^t of frame matrices A in the grid frames E."""
    E = st.grid.tangent_frames()
    return E @ A @ E.transpose(0, 2, 1)


def conjugate_derivs(st, c):
    """Hess* f as frame matrices (N/2, 2, m, m), and L f (N/2, 2), of the
    pair (f, f o A), f with the grid-basis coefficients c."""
    return conjugate_hessian_frames(st, gradient_from_coeffs(st.grid, c),
                                    hessian_from_coeffs(st.grid, c))


def ambient_metric(st):
    """The ambient centro-affine metric E (D2h_frame / h) E^t."""
    return ambient(st, st.bg.D2h_frame / st.bg.h[:, None, None])


# ---------------------------------------------------------------------------
# state densities
# ---------------------------------------------------------------------------


def test_ball_state_densities():
    # nu* = h^{-n}, the dual volume density
    st = state_for(ball(1.0, 3), 3, 8)
    assert np.abs(st.nu_density - 1.0).max() < 1e-10
    assert np.abs(st.bg.h ** -3.0 - 1.0).max() < 1e-10
    r = 1.3
    st = state_for(ball(r, 3), 3, 8)
    assert np.abs(st.nu_density - r**3).max() < 1e-9
    assert np.abs(st.bg.h ** -3.0 - r**-3).max() < 1e-10


def test_measure_conjugacy_invariant():
    for body, n in [(ellipsoid(np.diag([2.0, 1.0])), 2),
                    (ellipsoid(np.diag([2.0, 1.0, 0.6])), 3),
                    (perturbed_ball(3, 0.1), 3)]:
        st = state_for(body, n, 12)
        eig = np.linalg.eigvalsh(ambient_metric(st))[:, 1:]  # drop kernel 0
        detg = np.array([np.prod(e) for e in eig])
        rel = np.abs(st.nu_density * st.bg.h ** -float(n) - detg) / detg
        assert rel.max() < 1e-8


def test_state_requires_valid_body():
    g = build_grid(2, 16)
    bg = evaluate_on_grid(perturbed_ball(2, 1.5), g)
    with pytest.raises(ValueError):
        build_state(bg)


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_metric_is_tangential_inverse(n):
    # K^t K, built from the frame matrices D2h_frame, inverts the ambient g
    # on the tangent space once both are expanded: K^t K g = I - u u^t
    g = build_grid(n, 8)
    st = build_state(evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 0.7][:n])), g))
    u = g.pair_nodes
    proj = np.eye(n)[None] - u[:, :, None] * u[:, None, :]
    ginv = st.K.transpose(0, 2, 1) @ st.K
    assert np.abs(ambient(st, ginv) @ ambient_metric(st) - proj).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_metric_in_frames(n):
    # the state's row roots hold g^{-1} = h R^{-1} as K^t K, with K lower
    # triangular (sqrt(h) times the inverse Cholesky factor), and
    # p = K grad log h
    g = build_grid(n, 8)
    st = build_state(evaluate_on_grid(perturbed_ball(n, 0.1), g))
    assert st.K.shape == (g.node_count // 2, n - 1, n - 1)
    assert not np.triu(st.K, 1).any()
    hI = st.bg.h[:, None, None] * np.eye(n - 1)
    assert np.abs(st.K.transpose(0, 2, 1) @ st.K @ st.bg.D2h_frame - hI).max() < 1e-12
    assert np.abs(st.p - np.einsum("iqr,ir->iq", st.K, st.grad_log_h)).max() == 0.0


# ---------------------------------------------------------------------------
# conjugate Hessian
# ---------------------------------------------------------------------------


def test_conjugate_hessian_on_ball_is_spherical_hessian():
    g = build_grid(3, 12)
    st = build_state(evaluate_on_grid(ball(1.0, 3), g))
    rng = np.random.default_rng(0)
    c = rng.normal(size=g.basis.size) * np.exp(-0.6 * g.basis.degrees)
    f = synthesize(g, c)
    Hs = _unfold(g, to_ambient(g.tangent_frames(), conjugate_derivs(st, analyze(f))[0], 2))
    H = tangential_hessian(f).tensors
    assert np.abs(Hs - H).max() < 1e-10


def test_conjugate_hessian_of_constant_is_zero():
    st = state_for(ellipsoid(np.diag([2.0, 1.0])), 2, 16)
    f = ScalarField.from_values(st.grid, np.full(st.grid.node_count, 4.2))
    Hs = to_ambient(st.grid.tangent_frames(), conjugate_derivs(st, analyze(f))[0], 2)
    assert np.abs(Hs).max() < 1e-10


@pytest.mark.parametrize("body,n,L", [
    (ellipsoid(np.diag([2.0, 1.0])), 2, 24),
    (ellipsoid(np.diag([1.6, 1.0, 0.8])), 3, 16),
    (perturbed_ball(2, 0.1), 2, 24),
])
def test_adapted_linear_hessian_identity(body, n, L):
    # Hess* of <theta,xi>/h equals -f g, pointwise (closed-form derivatives:
    # the field is analytic but not band-limited)
    st = state_for(body, n, L)
    for k in range(n):
        xi = np.zeros(n)
        xi[k] = 1.0
        fv, grad, hess = adapted_linear_derivs(st, xi)
        Hs = ambient(st, conjugate_hessian_frames(st, grad[:, None], hess[:, None])[0][:, 0])
        gmat = ambient_metric(st)
        target = -fv[:, None, None] * gmat
        scale = np.linalg.norm(gmat, axis=(1, 2)).max()
        assert np.abs(Hs - target).max() < 1e-8 * scale


# ---------------------------------------------------------------------------
# the HBM operator as the induced Laplacian
# ---------------------------------------------------------------------------


def test_hbm_kills_constants():
    st = state_for(perturbed_ball(3, 0.1), 3, 12)
    f = ScalarField.from_values(st.grid, np.ones(st.grid.node_count))
    assert np.abs(hbm_apply(st, f).values).max() < 1e-9


@pytest.mark.parametrize("body,n,L", [
    (ellipsoid(np.diag([2.0, 1.0])), 2, 24),
    (ellipsoid(np.diag([1.6, 1.0, 0.8])), 3, 16),
    (perturbed_ball(3, 0.1), 3, 16),
])
def test_adapted_linear_functions_are_first_eigenfunctions(body, n, L):
    st = state_for(body, n, L)
    rng = np.random.default_rng(1)
    xi = rng.normal(size=n)
    fv, grad, hess = adapted_linear_derivs(st, xi)
    lf = conjugate_hessian_frames(st, grad[:, None], hess[:, None])[1][:, 0]
    # -L f = (n-1) f
    scale = np.abs(fv).max()
    assert np.abs(lf + (n - 1) * fv).max() < 1e-8 * scale


def test_hbm_apply_analyzes_once_and_matches_separate_derivatives(monkeypatch):
    # one analysis of f feeds hbm_apply, whose result keeps the bits of the
    # diagonal sum of conjugate_hessian_packed on the composition of the
    # tables with the pair's coefficients; bochner_residual reads the
    # coefficients and analyzes nothing
    from calab import calculus, sphere

    st = state_for(random_even_body(3, seed=2), 3, 12)
    rng = np.random.default_rng(5)
    c = rng.normal(size=st.grid.basis.size) * np.exp(-0.4 * st.grid.basis.degrees)
    f = synthesize(st.grid, c)
    a = sphere.analyze(f)
    Q = conjugate_hessian_packed(st, _antipodal_rows(st.grid, a, 1),
                                 _antipodal_rows(st.grid, a, 2))
    lf = Q[:, packed_positions(2).diagonal()].sum(axis=1)

    calls = []
    monkeypatch.setattr(calculus, "analyze",
                        lambda field: calls.append(1) or sphere.analyze(field))
    assert np.array_equal(hbm_apply(st, f).values, _unfold(st.grid, lf))
    assert calls == [1]
    bochner_residual(st, c)
    assert calls == [1]


@pytest.mark.parametrize("n,L", [(2, 24), (3, 12)])
def test_hbm_and_bochner_on_odd_fields_match_fd_oracle(n, L):
    # a field with odd degrees enters calculus as the pair (f, f o A) at the
    # pair nodes, where the state is read for both halves: hbm_apply at both
    # nodes of each pair, and bochner_residual's sum over both halves, match
    # the finite-difference oracle evaluated at every node of the grid
    g = build_grid(n, L)
    body = perturbed_ball(n, 0.1) if n == 2 else ellipsoid(np.diag([1.6, 1.0, 0.7]))
    st = build_state(evaluate_on_grid(body, g))
    rng = np.random.default_rng(n + 40)
    c = rng.normal(size=g.basis.size) * (g.basis.degrees <= 5)
    assert np.abs(c[g.basis.parity < 0]).max() > 0.1
    f = synthesize(g, c)
    Lf, gsq, hsq, nu = fd_hbm_terms(body, lambda x: g.basis.frame_derivs(x, 0)[0] @ c,
                                    g.nodes)
    assert np.abs(hbm_apply(st, f).values - Lf).max() <= 1e-7 * np.abs(Lf).max()
    w = g.weights * nu
    t1, t2, t3 = w @ Lf**2, w @ hsq, (n - 2) * (w @ gsq)
    fd_residual = abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))
    # the band-5 prefix of c and c itself are the same field
    nb = int((g.basis.degrees <= 5).sum())
    for coeffs in (c, c[:nb]):
        assert abs(bochner_residual(st, coeffs) - fd_residual) <= 1e-9


def test_constant_field_has_exactly_zero_derivatives():
    g = build_grid(3, 12)
    f = ScalarField.from_values(g, np.full(g.node_count, 0.1))
    assert not tangential_gradient(f).vectors.any()
    assert not tangential_hessian(f).tensors.any()


def test_ball_hbm_is_laplace_beltrami():
    g = build_grid(3, 12)
    st = build_state(evaluate_on_grid(ball(1.0, 3), g))
    (B, _, _), _ = g.basis_tables()
    # the first degree-2 column of the even table
    idx = int(np.flatnonzero(g.basis.degrees[g.basis.parity_columns[0]] == 2)[0])
    # the tables cover the first half; an even function repeats at the antipodes
    values = np.empty(g.node_count)
    values[:g.node_count // 2] = B[:, idx]
    values[g.antipodal_index[:g.node_count // 2]] = B[:, idx]
    f = ScalarField.from_values(g, values)
    lf = hbm_apply(st, f)
    # -L f = l(l+1) f = 2n f on degree-2 harmonics
    assert np.abs(lf.values + 6.0 * f.values).max() < 1e-9


# ---------------------------------------------------------------------------
# conjugate Ricci curvature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_body_jets_run_on_the_pair_nodes_only(n):
    # a spy on body.jet: evaluate_on_grid asks for the N/2 pair nodes, and
    # the Ricci check reads the grid jet without evaluating the body again
    g = build_grid(n, 16)
    body = ellipsoid(np.diag([2.0, 1.0, 0.7][:n]))
    jet, asked = body.jet, []
    body.jet = lambda X, order=2: asked.append(len(X)) or jet(X, order)
    st = build_state(evaluate_on_grid(body, g))
    assert asked == [g.node_count // 2]
    ricci_star_check(st)
    assert asked == [g.node_count // 2]


def test_conjugacy_of_connections_fd_oracle():
    """d_u g(V,W) = g(grad_u V, W) + g(V, grad*_u W) with the primal action
    reconstructed from the Gauss structure equation (finite differences)."""
    n, L = 3, 16
    body = ellipsoid(np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]]))
    g = build_grid(n, L)
    bg = evaluate_on_grid(body, g)
    st = build_state(bg)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(n, n))
    Bm = rng.normal(size=(n, n))

    def Vf(p):
        w = p @ A.T
        return w - np.einsum("ij,ij->i", w, p)[:, None] * p

    def Wf(p):
        w = p @ Bm.T
        return w - np.einsum("ij,ij->i", w, p)[:, None] * p

    def gmat(p):
        h = body.support(p)
        H = body.jet(p)[2]
        proj = np.eye(n)[None] - p[:, :, None] * p[:, None, :]
        D2 = np.einsum("iab,ibc,icd->iad", proj, H, proj)
        return D2 / h[:, None, None]

    keep = np.arange(g.node_count // 2)[::7]
    pts = g.pair_nodes[keep]
    frames = g.tangent_frames()[keep]
    eps = 1e-5
    worst = 0.0
    for q in range(n - 1):
        u = frames[:, :, q]

        def curve(t):
            c = pts + t * u
            return c / np.linalg.norm(c, axis=1, keepdims=True)

        def scal(t):
            c = curve(t)
            return np.einsum("ik,ikl,il->i", Vf(c), gmat(c), Wf(c))

        lhs = (scal(eps) - scal(-eps)) / (2 * eps)

        # conjugate covariant derivative of W (first-derivative formula)
        dW = (Wf(curve(eps)) - Wf(curve(-eps))) / (2 * eps)
        proj = np.eye(n)[None] - pts[:, :, None] * pts[:, None, :]
        sphW = np.einsum("ikl,il->ik", proj, dW)
        glh = np.einsum("ikq,iq->ik", frames, st.grad_log_h[keep])
        W0, V0 = Wf(pts), Vf(pts)
        ulogh = np.einsum("ik,ik->i", u, glh)
        Wlogh = np.einsum("ik,ik->i", W0, glh)
        covW = sphW - ulogh[:, None] * W0 - Wlogh[:, None] * u

        # primal covariant derivative of V via the Gauss equation:
        # dx(grad_u V) = D_u(dx(V)) + g(u, V) x
        def dxV(t):
            c = curve(t)
            H = body.jet(c)[2]
            return np.einsum("ikl,il->ik", H, Vf(c))

        DuF = (dxV(eps) - dxV(-eps)) / (2 * eps)
        guv = np.einsum("ik,ikl,il->i", u, gmat(pts), V0)
        xb = bg.x[keep]
        rhs_vec = DuF + guv[:, None] * xb
        tang = np.einsum("ikl,il->ik", proj, rhs_vec)
        D2 = frames @ bg.D2h_frame[keep] @ frames.transpose(0, 2, 1)
        covV = np.einsum("ikl,il->ik", np.linalg.pinv(D2, hermitian=True), tang)

        G0 = gmat(pts)
        rhs = np.einsum("ik,ikl,il->i", covV, G0, W0) + np.einsum(
            "ik,ikl,il->i", V0, G0, covW
        )
        scale = np.maximum(np.abs(lhs), 1.0)
        worst = max(worst, float((np.abs(lhs - rhs) / scale).max()))
    assert worst < 1e-4


def test_ricci_constancy():
    st = state_for(ball(1.0, 3), 3, 12)
    assert ricci_star_check(st)["max_relative_deviation"] < 1e-6

    st = state_for(ellipsoid(np.diag([2.0, 1.0, 1.0])), 3, 24)
    assert ricci_star_check(st)["max_relative_deviation"] < 1e-2

    st2 = state_for(ellipsoid(np.diag([2.0, 1.0])), 2, 16)
    assert ricci_star_check(st2)["max_relative_deviation"] == 0.0


EIGHT_BODIES = pytest.mark.parametrize("make_body, L", [
    (lambda: ball(1.0, 3), 24),
    (lambda: ellipsoid(np.diag([2.0, 1.0, 1.0])), 24),
    (lambda: ellipsoid(np.diag([2.0, 1.0, 0.7])), 64),
    (lambda: perturbed_ball(3, 0.1), 16),
    (lambda: random_even_body(3, seed=4), 16),
    (lambda: linear_image(perturbed_ball(3, 0.1),
                          [[1.2, 0.3, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]]), 16),
    (lambda: firey_sum(1.0, ellipsoid(np.diag([2.0, 1.0, 0.7])),
                       0.5, ball(1.0, 3), 2.0), 16),
    (lambda: polar(perturbed_ball(3, 0.1), build_grid(3, 16)), 16),
], ids=["ball", "diag211", "diag2107", "perturbed", "random", "linear_image",
        "firey", "polar"])


@EIGHT_BODIES
def test_ricci_star_is_constant_on_every_body(make_body, L):
    # Ric* = (n-2) g is algebra in the order-2 jet: roundoff on every body
    st = state_for(make_body(), 3, L)
    assert ricci_star_check(st)["max_relative_deviation"] <= 1e-14


def _jet_is_consistent(bg) -> bool:
    # second order: the error falls 100x from step 1e-3 to 1e-4; >= 50x
    # passes, and so does roundoff level
    coarse, fine = jet_consistency_error(bg, 1e-3), jet_consistency_error(bg, 1e-4)
    return fine <= 1e-10 or fine * 50.0 <= coarse


@EIGHT_BODIES
def test_jet_hessian_is_the_derivative_of_its_gradient(make_body, L):
    assert _jet_is_consistent(evaluate_on_grid(make_body(), build_grid(3, L)))


@pytest.mark.parametrize("base", [ball(1.0, 3), ellipsoid(np.diag([2.0, 1.0, 0.7]))],
                         ids=["ball", "diag2107"])
def test_jet_consistency_sees_a_wrong_hessian(base):
    bg = evaluate_on_grid(ScaledHessian(base, 1.01), build_grid(3, 16))
    assert not _jet_is_consistent(bg)


def _lq_family(name, n, g):
    if name == "smoothed_lq4":
        return construct(lq_gauge_body(4, n), g, 0.5, 0.3)[0]
    if name == "polar_lq4_sum":
        return polar(firey_sum(0.1, ball(1.0, n), 1.0, LqNormBody(4, n), 1.0), g)
    return LqNormBody(float(name[2:]), n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["lq2.5", "lq3", "lq4", "smoothed_lq4", "polar_lq4_sum"])
def test_lq_family_jets_are_consistent(name, n):
    # and a 1.01-scaled D^2h is not.  D^2h ~ |x_i|^(q-2) of LqNormBody(q)
    # has no first-order Taylor term across a coordinate plane for 2 < q < 4,
    # and the grid has nodes there: its error falls as step^(q-2), 3.16x at
    # q = 2.5 and 10x at q = 3 from step 1e-3 to 1e-4 (measured within 1e-6)
    g = build_grid(n, 16)
    body = _lq_family(name, n, g)
    bg, wrong = (evaluate_on_grid(b, g) for b in (body, ScaledHessian(body, 1.01)))
    if name in ("lq2.5", "lq3"):
        fall = 10.0 ** (float(name[2:]) - 2.0)
        for b, ok in ((bg, True), (wrong, False)):
            ratio = jet_consistency_error(b, 1e-3) / jet_consistency_error(b, 1e-4)
            assert (abs(ratio / fall - 1.0) <= 0.05) == ok
    else:
        assert _jet_is_consistent(bg) and not _jet_is_consistent(wrong)


def test_ricci_check_sees_a_wrong_connection():
    # the check must not pass vacuously: a 5% error in d log h shows
    st = state_for(ellipsoid(np.diag([2.0, 1.0, 0.7])), 3, 16)
    wrong = st._replace(grad_log_h=1.05 * st.grad_log_h)
    assert ricci_star_check(wrong)["max_relative_deviation"] >= 1e-3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ricci_star_identity_is_algebra(m):
    # with Psi = R/h - I - p p^t, the round Hessian of log h, the
    # contraction is (m-1) R/h = (n-2) g for any symmetric R, h > 0 and p
    sp = pytest.importorskip("sympy")
    if np.lib.NumpyVersion(np.__version__) < "1.25.0":
        pytest.skip("einsum on object arrays needs numpy 1.25")
    h = sp.Symbol("h", positive=True)
    R = sp.Matrix(m, m, lambda a, b: sp.Symbol(f"r{min(a, b)}{max(a, b)}"))
    p = sp.Matrix(m, 1, lambda a, _: sp.Symbol(f"p{a}"))
    psi = R / h - sp.eye(m) - p * p.T
    ric = _conjugate_ricci(np.array([list(p)], dtype=object),
                           np.array([psi.tolist()], dtype=object))
    assert sp.expand(sp.Matrix(ric[0]) - (m - 1) * R / h) == sp.zeros(m, m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conjugate_ricci_contraction_closed_form(m):
    # the contraction of the connection's curvature is
    # (m-1)(I + p p^t) + m Psi - Psi^t, for any p and Psi
    rng = np.random.default_rng(m)
    p, psi = rng.normal(size=(7, m)), rng.normal(size=(7, m, m))
    ref = ((m - 1) * (np.eye(m) + p[:, :, None] * p[:, None, :])
           + m * psi - psi.transpose(0, 2, 1))
    assert np.abs(_conjugate_ricci(p, psi) - ref).max() <= 1e-13


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_duality_ball_self_dual():
    g = build_grid(3, 12)
    bg = evaluate_on_grid(ball(1.0, 3), g)
    res = duality_isometry_check(bg, bg)  # unit ball is its own polar
    assert res["metric_pullback_error"] < 1e-10
    assert res["omega_mass_gap"] < 1e-12
    assert duality_roundtrip_error(bg, ball(1.0, 3)) < 1e-12


def test_duality_map_directions():
    g = build_grid(2, 16)
    A = np.diag([2.0, 1.0])
    bg = evaluate_on_grid(ellipsoid(A), g)
    d = duality_map(bg)
    expected = bg.x / np.linalg.norm(bg.x, axis=1, keepdims=True)
    assert np.allclose(d, expected)


def test_duality_isometry_ellipsoid():
    g = build_grid(3, 24)
    A = np.diag([1.5, 1.0, 0.8])
    bgK = evaluate_on_grid(ellipsoid(A), g)
    bgP = evaluate_on_grid(ellipsoid(np.linalg.inv(A)), g)
    res = duality_isometry_check(bgK, bgP)
    assert res["metric_pullback_error"] < 1e-12
    assert res["omega_mass_gap"] < 1e-3
    assert duality_roundtrip_error(bgK, ellipsoid(np.linalg.inv(A))) < 1e-10


def test_duality_isometry_numeric_polar():
    g = build_grid(2, 24)
    K = perturbed_ball(2, 0.1)
    bgK = evaluate_on_grid(K, g)
    bgP = evaluate_on_grid(polar(K, g), g)
    res = duality_isometry_check(bgK, bgP)
    assert res["metric_pullback_error"] < 1e-12
    assert res["omega_mass_gap"] < 1e-3


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------


def test_integrated_divergence_residual():
    for n, L, seed in [(2, 24, 3), (3, 16, 4)]:
        body = random_even_body(n, seed=seed)
        g = build_grid(n, L)
        st = build_state(evaluate_on_grid(body, g))
        rng = np.random.default_rng(seed)
        c = rng.normal(size=g.basis.size) * (g.basis.degrees <= 6)
        f = synthesize(g, c)
        assert integrated_divergence_residual(st, f) < 1e-6


def test_unimodular_pushforward_invariance():
    n = 3
    g = build_grid(n, 20)
    K = perturbed_ball(n, 0.1)
    T = np.array([[1.2, 0.1, 0.0], [0.1, 0.9, 0.05], [0.0, 0.05, 1.0]])
    T /= np.linalg.det(T) ** (1.0 / n)
    bgK = evaluate_on_grid(K, g)
    bgTK = evaluate_on_grid(linear_image(K, T), g)
    a = np.array([0.3, -0.2, 0.5])

    def test_fn(x):
        return np.exp(x @ a)

    assert pushforward_invariance_error(bgK, bgTK, T, test_fn) < 1e-4


def test_state_diagnostics_report():
    st = state_for(ellipsoid(np.diag([2.0, 1.0, 0.8])), 3, 12)
    rep = state_diagnostics(st)
    names = {r["name"] for r in rep}
    assert names == {"measure_conjugacy", "adapted_linear_hessian"}
    assert all(r["max_error"] < 1e-6 for r in rep)
