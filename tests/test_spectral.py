"""Tests for the Galerkin spectrum of the Hilbert-Brunn-Minkowski operator."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from calab import spectral

from calab.bodies import (
    ball,
    ellipsoid,
    evaluate_on_grid,
    perturbed_ball,
    random_even_body,
)
from calab.calculus import build_state, conjugate_hessian_packed
from calab.spectral import (
    GalerkinBasis,
    assemble,
    bochner_residual,
    hessian_gap_even,
    invariance_check,
    solve_spectrum,
    spectrum_of_body,
)
from calab.sphere import build_grid

from oracles import (discrete_bochner_residual, first_eigenspace_deficiency,
                     hessform, unfold)


def system_for(body, n, L):
    g = build_grid(n, L)
    st = build_state(evaluate_on_grid(body, g))
    basis = GalerkinBasis(g, L)
    return st, assemble(st, basis)


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------


def test_ball_assembly_closed_form():
    # on the unit ball the operator is the round Laplacian: the stiffness
    # diagonalizes on harmonics with entries l(l+1) and the mass is identity
    g = build_grid(3, 8)
    st = build_state(evaluate_on_grid(ball(1.0, 3), g))
    basis = GalerkinBasis(g, 4)
    sys_ = assemble(st, basis)
    degs = basis.degrees
    expected = np.diag([l * (l + 1) for l in degs]).astype(float)
    assert np.abs(sys_.stiffness - expected).max() < 1e-8
    assert np.abs(sys_.mass - np.eye(basis.size)).max() < 1e-10


def test_constant_gives_zero_stiffness_row():
    st, sys_ = system_for(perturbed_ball(3, 0.1), 3, 12)
    const_row = np.flatnonzero(sys_.basis.degrees == 0)[0]
    assert np.abs(sys_.stiffness[const_row]).max() < 1e-9
    assert np.abs(hessform(sys_)[const_row]).max() < 1e-8


def test_matrices_symmetric_and_definite():
    st, sys_ = system_for(random_even_body(2, seed=3), 2, 16)
    for A in (sys_.stiffness, sys_.mass, hessform(sys_)):
        assert np.abs(A - A.T).max() < 1e-10 * max(np.abs(A).max(), 1.0)
    assert np.linalg.eigvalsh(sys_.mass).min() > 0
    assert np.linalg.eigvalsh(sys_.stiffness).min() > -1e-8


def _einsum_assembly(state, basis):
    """Reference oracle: the per-node einsum contraction of the three forms
    over every node, with the full (n, n) metric factor and ambient conjugate
    Hessians, from a direct evaluation of the basis (not the grid's tables).
    The state's pair-node rows are unfolded to every node: nu and the
    ambient inverse metric are even, the ambient grad log h is odd."""
    grid = state.grid
    B, G, H = grid.basis.eval_derivs(grid.nodes, order=2)
    nb = basis.size
    B, G, H = B[:, :nb], G[:, :nb, :], H[:, :nb, :, :]
    rho = state.grid.weights * unfold(grid, state.nu_density)
    sq = np.sqrt(rho)
    E = grid.tangent_frames()
    ginv = state.bg.h[:, None, None] * np.linalg.inv(state.bg.D2h_frame)
    lam, V = np.linalg.eigh(unfold(grid, E @ ginv @ E.transpose(0, 2, 1)))
    F = V * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    T = np.einsum("ikq,iak->iaq", F, G) * sq[:, None, None]
    S = np.einsum("iaq,ibq->ab", T, T)
    M = (B * rho[:, None]).T @ B
    glh = unfold(grid, np.einsum("ikq,iq->ik", E, state.grad_log_h), -1)
    cross = glh[:, None, :, None] * G[:, :, None, :]
    Hs = H + cross + cross.transpose(0, 1, 3, 2)
    D = np.einsum("ikq,iakl,ilr->iaqr", F, Hs, F) * sq[:, None, None, None]
    D = D.reshape(len(rho), basis.size, -1)
    Hmat = np.einsum("iam,ibm->ab", D, D)
    return S, M, Hmat


def _rotated_ellipsoid():
    # a rotated, non-axis-aligned ellipsoid: every metric entry is nonzero
    c, s = np.cos(0.7), np.sin(0.7)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    R = Rz @ Rx
    return ellipsoid(R @ np.diag([1.6, 1.0, 0.7]) @ R.T)


def test_assembly_matches_einsum_oracle():
    st, sys_ = system_for(_rotated_ellipsoid(), 3, 16)
    assert len(sys_.blocks) == 2
    for A, ref in zip((sys_.stiffness, sys_.mass, hessform(sys_)),
                      _einsum_assembly(st, sys_.basis)):
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_packed_forms_match_ambient_reference(n, L):
    # half-grid frame-packed tables against full-grid ambient ones
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    st, sys_ = system_for(body, n, L)
    assert len(sys_.blocks) == 2
    for A, ref in zip((sys_.stiffness, sys_.mass, hessform(sys_)),
                      _einsum_assembly(st, sys_.basis)):
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_hessian_gap_matches_full_hessform(n, L):
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    _, sys_ = system_for(body, n, L)
    cols = np.flatnonzero(sys_.basis.parities > 0)[1:]
    ix = np.ix_(cols, cols)
    ref = scipy.linalg.eigh(hessform(sys_)[ix], sys_.stiffness[ix],
                            eigvals_only=True)[0]
    assert abs(hessian_gap_even(sys_) - ref) <= 1e-12 * abs(ref)


def _dense_spectrum(sys_, k):
    """Reference: one dense generalized eigensolve of the full matrices, and
    the even spectrum with the constant deflated mass-orthogonally."""
    S, M = sys_.stiffness, sys_.mass
    eigs = scipy.linalg.eigh(S, M, eigvals_only=True)[:k]
    cols = np.flatnonzero(sys_.basis.parities > 0)
    Z = scipy.linalg.null_space(M[cols, cols[0]][None, :])
    ix = np.ix_(cols, cols)
    even = scipy.linalg.eigh(Z.T @ S[ix] @ Z, Z.T @ M[ix] @ Z, eigvals_only=True)
    return eigs, even[:k]


@pytest.mark.parametrize("case", ["rotated_ellipsoid", "random_n2"])
def test_blocked_solve_matches_dense_eigh(case):
    body, n, L = {"rotated_ellipsoid": (_rotated_ellipsoid(), 3, 16),
                  "random_n2": (random_even_body(2, seed=3), 2, 16)}[case]
    _, sys_ = system_for(body, n, L)
    k = 12
    ref, ref_even = _dense_spectrum(sys_, k)
    rep = solve_spectrum(sys_, k=k)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-12 * scale.max()
    assert abs(rep.lambda1_even - ref_even[0]) <= 1e-12 * ref_even[0]
    # with k = 1 the even block keeps one pair, but lambda1_even still reads
    # its second eigenvalue
    assert abs(solve_spectrum(sys_, k=1).lambda1_even - ref_even[0]) <= 1e-12 * ref_even[0]
    assert rep.residuals.max() < 1e-10
    even = solve_spectrum(sys_, k=k, subspace="even-nonconstant")
    assert np.abs(even.eigenvalues - ref_even).max() <= 1e-12 * ref_even.max()
    # eigenvectors of the even subspace are mass-orthogonal to the constant
    assert np.abs(sys_.mass[0] @ even.eigenvectors).max() < 1e-10


def test_one_eigensolve_per_block(monkeypatch):
    _, sys_ = system_for(_rotated_ellipsoid(), 3, 8)
    full = solve_spectrum(sys_)
    calls = []
    block_eigh = spectral._block_eigh
    monkeypatch.setattr(spectral, "_block_eigh",
                        lambda *a: calls.append(a) or block_eigh(*a))
    rep = solve_spectrum(sys_, k=1)
    assert len(calls) == len(sys_.blocks)
    assert rep.lambda1_even == full.lambda1_even
    assert rep.eigenvalues[0] == full.eigenvalues[0]


def test_hessform_built_only_when_read(monkeypatch):
    calls = []
    build = spectral._hessian_form
    monkeypatch.setattr(spectral, "_hessian_form", lambda system, blocks:
                        calls.append([len(c) for c in blocks]) or build(system, blocks))
    _, sys_ = system_for(perturbed_ball(3, 0.1), 3, 8)
    solve_spectrum(sys_, k=4)
    solve_spectrum(sys_, k=4, subspace="even-nonconstant")
    assert calls == []
    # the gap forms its Gram product on the even non-constant columns only
    hessian_gap_even(sys_)
    even = int((sys_.basis.parities > 0).sum())
    assert calls == [[even - 1]]
    discrete_bochner_residual(sys_, k=4)
    assert calls == [[even - 1], [len(c) for c in sys_.blocks]]


def test_basis_band_limit_capped_by_grid():
    g = build_grid(2, 8)
    for band in (16, 9, -1):
        with pytest.raises(ValueError, match="0..8"):
            GalerkinBasis(g, band)


@pytest.mark.parametrize("n,L,band", [(2, 16, 9), (3, 12, 7)])
def test_sub_band_system_is_leading_block_of_full_band(n, L, band):
    # the band-b forms read the first nb columns of the same tables, so they
    # are the leading principal block of the full-band forms
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    st, full = system_for(body, n, L)
    sub = assemble(st, GalerkinBasis(st.grid, band))
    nb = sub.basis.size
    assert nb == int((st.grid.basis.degrees <= band).sum()) < full.basis.size
    for name, A, ref in (("stiffness", sub.stiffness, full.stiffness),
                         ("mass", sub.mass, full.mass),
                         ("hessform", hessform(sub), hessform(full))):
        ref = ref[:nb, :nb]
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max(), name


def test_sub_band_spectrum_on_fine_grid_builds_only_its_tables():
    # band 16 on an L=48 grid: tables hold the 289 band-16 columns, not the
    # grid's 2401, and the value is that of the L=24 grid
    body = perturbed_ball(3, 0.1)
    g = build_grid(3, 48)
    rep = spectrum_of_body(body, g, degree_max=16)
    half = g.node_count // 2
    assert sum(T.nbytes for T in g._tables) <= half * 289 * 6 * 8
    ref = spectrum_of_body(body, build_grid(3, 24), degree_max=16)
    assert abs(rep.lambda1_even - ref.lambda1_even) <= 1e-10


def test_sub_band_bochner_on_fine_grid_builds_only_its_tables():
    # a band-8 field on an L=24 grid: the residual reads the 81 band-8
    # columns of the tables, not the grid's 625, and equals the residual of
    # the same field given with the grid's full band of coefficients
    g = build_grid(3, 24)
    st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))
    nb = GalerkinBasis(g, 8).size
    c = np.random.default_rng(3).normal(size=nb)
    res = bochner_residual(st, c)
    assert sum(T.nbytes for T in g._tables) <= (g.node_count // 2) * nb * 6 * 8
    full = np.zeros(g.basis.size)
    full[:nb] = c
    assert abs(bochner_residual(st, full) - res) <= 1e-15


# ---------------------------------------------------------------------------
# spectra (paper closed forms)
# ---------------------------------------------------------------------------


def test_ball_spectrum_n3():
    g = build_grid(3, 16)
    rep = spectrum_of_body(ball(1.0, 3), g, k=12)
    assert abs(rep.eigenvalues[0]) < 1e-8
    assert rep.multiplicities[0][1] == 1
    v1, m1 = rep.multiplicities[1]
    assert abs(v1 - 2.0) < 1e-8 and m1 == 3
    v2, m2 = rep.multiplicities[2]
    assert abs(v2 - 6.0) < 1e-8 and m2 == 5
    assert rep.residuals.max() < 1e-8


def test_ball_even_gap_n2():
    g = build_grid(2, 16)
    rep = spectrum_of_body(ball(1.0, 2), g)
    assert abs(rep.lambda1_even - 4.0) < 1e-9


def test_ellipsoid_spectrum_matches_ball():
    g = build_grid(3, 16)
    rep = spectrum_of_body(ellipsoid(np.diag([2.0, 1.0, 1.0])), g, k=10)
    assert abs(rep.lambda1 - 2.0) < 1e-6
    assert abs(rep.lambda1_even - 6.0) < 1e-3


def test_even_subspace_solve():
    g = build_grid(2, 16)
    st = build_state(evaluate_on_grid(ball(1.0, 2), g))
    sys_ = assemble(st, GalerkinBasis(g, 16))
    rep = solve_spectrum(sys_, k=4, subspace="even-nonconstant")
    # even spectrum of the circle Laplacian: 4, 4, 16, 16
    assert np.abs(rep.eigenvalues - np.array([4.0, 4.0, 16.0, 16.0])).max() < 1e-8


def test_eigenvalues_nonnegative_random_bodies():
    for seed in range(3):
        body = random_even_body(2, seed=seed)
        g = build_grid(2, 16)
        rep = spectrum_of_body(body, g, k=10)
        assert rep.eigenvalues.min() > -1e-8
        assert rep.residuals.max() < 1e-8


def test_lambda1_is_dimension_minus_one():
    # Hilbert's theorem: lambda_1 = n-1 with multiplicity exactly n
    g2 = build_grid(2, 62, n_nodes=256)
    for seed in (0, 1):
        rep = spectrum_of_body(random_even_body(2, seed=seed), g2, k=6)
        assert abs(rep.lambda1 - 1.0) < 1e-6
        lam1_cluster = [m for v, m in rep.multiplicities
                        if abs(v - rep.lambda1) < 1e-3]
        assert lam1_cluster[0] == 2

    g3 = build_grid(3, 20)
    rep = spectrum_of_body(perturbed_ball(3, 0.1), g3, k=6)
    assert abs(rep.lambda1 - 2.0) < 1e-3
    lam1_cluster = [m for v, m in rep.multiplicities
                    if abs(v - rep.lambda1) < 1e-2]
    assert lam1_cluster[0] == 3


def test_first_eigenspace_spanned_by_adapted_linear():
    g = build_grid(3, 16)
    body = perturbed_ball(3, 0.1)
    st = build_state(evaluate_on_grid(body, g))
    sys_ = assemble(st, GalerkinBasis(g, 16))
    assert first_eigenspace_deficiency(st, sys_) < 1e-3


# ---------------------------------------------------------------------------
# Bochner identities
# ---------------------------------------------------------------------------


def test_bochner_residual_constant_is_zero():
    g = build_grid(2, 16)
    st = build_state(evaluate_on_grid(ball(1.0, 2), g))
    c = np.zeros(g.basis.size)
    c[0] = 2.0 / g.basis.constant_value
    assert bochner_residual(st, c) == 0.0
    assert bochner_residual(st, c[:1]) == 0.0


@pytest.mark.parametrize("n,L,tol", [(2, 24, 1e-6), (3, 16, 1e-3)])
def test_bochner_residual_random_fields(n, L, tol):
    g = build_grid(n, L)
    rng = np.random.default_rng(n)
    for seed in range(3):
        body = random_even_body(n, seed=seed)
        st = build_state(evaluate_on_grid(body, g))
        for _ in range(4):
            c = rng.normal(size=g.basis.size) * (g.basis.degrees <= L // 3)
            assert bochner_residual(st, c) < tol


@pytest.mark.parametrize("n", [2, 3])
def test_bochner_residual_rejects_a_count_that_is_no_band_size(n):
    # the counts of bands 0..L are 1, 3, 5, ... at n=2 and 1, 4, 9, ... at
    # n=3; any other count, or more than the grid's basis (band 9's count
    # included), is an error
    g = build_grid(n, 8)
    st = build_state(evaluate_on_grid(perturbed_ball(n, 0.1), g))
    size = g.basis.size
    bad = [0, 2, size - 1, size + 1, {2: 19, 3: 100}[n]]
    for count in bad:
        with pytest.raises(ValueError, match="basis size of one band 0..8"):
            bochner_residual(st, np.ones(count))
    with pytest.raises(ValueError, match="basis size of one band"):
        bochner_residual(st, np.ones((1, 3)))
    for band in range(9):
        bochner_residual(st, np.ones(GalerkinBasis(g, band).size))


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_per_field_rows_match_the_assembled_forms(n, L):
    # for one field c of one parity, the weighted sums of |K G c|^2 and of
    # the squared packed conjugate Hessians are c^t S c and c^t H c
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    st, sys_ = system_for(body, n, L)
    _, G, Hp = st.grid.basis_tables()
    sq, Kt = st.sqrt_weights, st.K.transpose(0, 2, 1)
    Hform = hessform(sys_)
    rng = np.random.default_rng(n)
    for parity in (1, -1):
        c = rng.normal(size=sys_.basis.size) * (sys_.basis.parities == parity)
        grad = (c @ G)[:, None]
        stiff = np.sum((sq[:, None, None] * (grad @ Kt)) ** 2)
        hess = np.sum(conjugate_hessian_packed(st, grad, (c @ Hp)[:, None], sq) ** 2)
        for got, A in ((stiff, sys_.stiffness), (hess, Hform)):
            ref = c @ A @ c
            assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("degree_max", [0, 1])
def test_discrete_bochner_rejects_empty_even_subspace(degree_max):
    # no even non-constant function has degree <= 1
    g = build_grid(3, 8)
    st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))
    sys_ = assemble(st, GalerkinBasis(g, degree_max))
    with pytest.raises(ValueError, match="even non-constant subspace is empty"):
        discrete_bochner_residual(sys_, k=6)


@pytest.mark.parametrize("n,L,tol", [(2, 20, 1e-6), (3, 14, 1e-3)])
def test_discrete_bochner_identity(n, L, tol):
    body = random_even_body(n, seed=7)
    st, sys_ = system_for(body, n, L)
    assert discrete_bochner_residual(sys_, k=6) < tol


# ---------------------------------------------------------------------------
# Hessian gap
# ---------------------------------------------------------------------------


def test_ball_hessian_gap_is_n_plus_2():
    for n, L in [(2, 16), (3, 12)]:
        st, sys_ = system_for(ball(1.0, n), n, L)
        assert abs(hessian_gap_even(sys_) - (n + 2)) < 1e-7


def test_hessian_gap_at_least_one():
    # the p=1 case of the gap inequality holds unconditionally
    for seed in range(4):
        body = random_even_body(2, seed=seed)
        st, sys_ = system_for(body, 2, 16)
        assert hessian_gap_even(sys_) >= 1.0 - 1e-6


def test_gap_identity_links_to_even_eigenvalue():
    # gap = lambda_1_even - (n - 2) through the integrated Bochner identity
    for body, n, L in [
        (ball(1.0, 2), 2, 16),
        (ellipsoid(np.diag([1.5, 1.0])), 2, 20),
        (perturbed_ball(3, 0.1), 3, 16),
    ]:
        st, sys_ = system_for(body, n, L)
        gap = hessian_gap_even(sys_)
        rep = solve_spectrum(sys_, k=2, subspace="even-nonconstant")
        lam = rep.lambda1_even
        assert abs(gap - (lam - n + 2)) / lam < 1e-3


# ---------------------------------------------------------------------------
# centro-affine invariance of the spectrum
# ---------------------------------------------------------------------------


def test_invariance_identity_map():
    g = build_grid(2, 16)
    res = invariance_check(perturbed_ball(2, 0.1), np.eye(2), g)
    assert res["max_gap"] < 1e-12


def test_invariance_rotation():
    g = build_grid(3, 14)
    th = 0.7
    R = np.array([
        [np.cos(th), -np.sin(th), 0.0],
        [np.sin(th), np.cos(th), 0.0],
        [0.0, 0.0, 1.0],
    ])
    res = invariance_check(perturbed_ball(3, 0.1), R, g, count=10)
    assert res["max_gap"] < 1e-8


def test_invariance_diagonal_stretch():
    g = build_grid(3, 24)
    res = invariance_check(perturbed_ball(3, 0.1), np.diag([2.0, 1.0, 1.0]), g,
                           count=10)
    assert res["max_gap"] < 1e-3

    g2 = build_grid(2, 24)
    res2 = invariance_check(perturbed_ball(2, 0.1), np.diag([2.0, 1.0]), g2,
                            count=10)
    assert res2["max_gap"] < 1e-3


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree_max", [0, 1])
def test_hessian_gap_on_an_empty_even_subspace_raises(n, degree_max):
    # below degree 2 the only even function is the constant
    g = build_grid(n, 8)
    st = build_state(evaluate_on_grid(perturbed_ball(n, 0.1), g))
    sys_ = assemble(st, GalerkinBasis(g, degree_max))
    with pytest.raises(ValueError, match="even non-constant subspace is empty"):
        hessian_gap_even(sys_)


def _with_negative_diagonal(A, col):
    """A copy of A that is indefinite: one diagonal entry negated."""
    A = A.copy()
    A[col, col] = -A[col, col]
    return A


@pytest.mark.parametrize("n", [2, 3])
def test_non_definite_pencils_raise(n):
    _, sys_ = system_for(perturbed_ball(n, 0.1), n, 8)
    col = sys_.blocks[0][1]   # the first even non-constant column
    bad_stiffness = replace(sys_, stiffness=_with_negative_diagonal(sys_.stiffness, col))
    with pytest.raises(ValueError, match="stiffness is singular on the even non-constant"):
        hessian_gap_even(bad_stiffness)
    bad_mass = replace(sys_, mass=_with_negative_diagonal(sys_.mass, col))
    for subspace in ("all", "even-nonconstant"):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spectrum(bad_mass, k=4, subspace=subspace)


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_eigenvectors_are_mass_orthonormal(n, L):
    _, sys_ = system_for(perturbed_ball(n, 0.1), n, L)
    for subspace in ("all", "even-nonconstant"):
        V = solve_spectrum(sys_, k=8, subspace=subspace).eigenvectors
        assert np.abs(V.T @ sys_.mass @ V - np.eye(V.shape[1])).max() < 1e-12


@pytest.mark.parametrize("subspace", ["all", "even-nonconstant"])
def test_solve_spectrum_rejects_k_below_one(subspace):
    _, sys_ = system_for(perturbed_ball(3, 0.1), 3, 8)
    with pytest.raises(ValueError, match="k must be in 1.."):
        solve_spectrum(sys_, k=0, subspace=subspace)
