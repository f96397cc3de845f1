"""Tests for the Galerkin spectrum of the Hilbert-Brunn-Minkowski operator."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

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
    compute_spectrum,
    hessian_gap_even,
    invariance_check,
    solve_spectrum,
)
from calab.sphere import CHUNK_ROWS, build_grid

from oracles import (degree_order_tables, discrete_bochner_residual,
                     first_eigenspace_deficiency, full_matrix, hessform,
                     lower_inverse_reference, take_gram_assembly, transient_peak, unfold)


def system_for(body, n, L):
    g = build_grid(n, L)
    st = build_state(evaluate_on_grid(body, g))
    basis = GalerkinBasis(g, L)
    return st, assemble(st, basis)


def parities(system):
    """The parity of each basis function of the system, in basis order."""
    return system.basis.grid.basis.parity[:system.basis.size]


def forms(system):
    """Stiffness, mass and Hessian form as nb x nb matrices in basis order,
    zero outside the diagonal blocks."""
    return tuple(full_matrix(system, blocks) for blocks in
                 (system.stiffness, system.mass, hessform(system)))


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
    S, M, _ = forms(sys_)
    assert np.abs(S - expected).max() < 1e-8
    assert np.abs(M - np.eye(basis.size)).max() < 1e-10


def test_constant_gives_zero_stiffness_row():
    st, sys_ = system_for(perturbed_ball(3, 0.1), 3, 12)
    const_row = np.flatnonzero(sys_.basis.degrees == 0)[0]
    S, _, H = forms(sys_)
    assert np.abs(S[const_row]).max() < 1e-9
    assert np.abs(H[const_row]).max() < 1e-8


def test_matrices_symmetric_and_definite():
    st, sys_ = system_for(random_even_body(2, seed=3), 2, 16)
    S, M, H = forms(sys_)
    for A in (S, M, H):
        assert np.abs(A - A.T).max() < 1e-10 * max(np.abs(A).max(), 1.0)
    assert np.linalg.eigvalsh(M).min() > 0
    assert np.linalg.eigvalsh(S).min() > -1e-8


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
    for A, ref in zip(forms(sys_), _einsum_assembly(st, sys_.basis)):
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_packed_forms_match_ambient_reference(n, L):
    # half-grid frame-packed tables against full-grid ambient ones
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    st, sys_ = system_for(body, n, L)
    assert len(sys_.blocks) == 2
    for A, ref in zip(forms(sys_), _einsum_assembly(st, sys_.basis)):
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_hessian_gap_matches_full_hessform(n, L):
    body = random_even_body(2, seed=3) if n == 2 else _rotated_ellipsoid()
    _, sys_ = system_for(body, n, L)
    cols = np.flatnonzero(parities(sys_) > 0)[1:]
    ix = np.ix_(cols, cols)
    S, _, H = forms(sys_)
    ref = scipy.linalg.eigh(H[ix], S[ix], eigvals_only=True)[0]
    assert abs(hessian_gap_even(sys_) - ref) <= 1e-12 * abs(ref)


def _dense_spectrum(sys_, k):
    """Reference: one dense generalized eigensolve of the full matrices, and
    the even spectrum with the constant deflated mass-orthogonally."""
    S, M, _ = forms(sys_)
    eigs = scipy.linalg.eigh(S, M, eigvals_only=True)[:k]
    cols = np.flatnonzero(parities(sys_) > 0)
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
    assert np.abs(forms(sys_)[1][0] @ even.eigenvectors).max() < 1e-10


def test_one_eigensolve_per_block(monkeypatch):
    _, sys_ = system_for(_rotated_ellipsoid(), 3, 8)
    full = solve_spectrum(sys_)
    calls = []
    block_eigvalsh = spectral._block_eigvalsh
    monkeypatch.setattr(spectral, "_block_eigvalsh",
                        lambda *a: calls.append(a) or block_eigvalsh(*a))
    rep = solve_spectrum(sys_, k=1)
    assert len(calls) == len(sys_.blocks)
    assert rep.lambda1_even == full.lambda1_even
    assert rep.eigenvalues[0] == full.eigenvalues[0]


def test_clusters_formed_once_on_first_read(monkeypatch):
    calls = []
    cluster = spectral._cluster
    monkeypatch.setattr(spectral, "_cluster",
                        lambda eigs: calls.append(len(eigs)) or cluster(eigs))
    _, sys_ = system_for(ball(1.0, 3), 3, 8)
    rep = solve_spectrum(sys_, k=6)
    assert calls == []
    first = rep.multiplicities
    assert rep.multiplicities is first and calls == [6]
    assert rep.to_dict()["multiplicities"] == [[v, m] for v, m in first]
    assert calls == [6]
    assert first == cluster(rep.eigenvalues)


def test_hessform_built_only_when_read(monkeypatch):
    calls = []
    build = spectral._hessian_form
    monkeypatch.setattr(spectral, "_hessian_form", lambda system, block, first=0:
                        calls.append(len(system.blocks[block]) - first)
                        or build(system, block, first))
    _, sys_ = system_for(perturbed_ball(3, 0.1), 3, 8)
    solve_spectrum(sys_, k=4)
    solve_spectrum(sys_, k=4, subspace="even-nonconstant")
    assert calls == []
    # the gap forms its Gram product on the even non-constant columns only
    hessian_gap_even(sys_)
    even = int((parities(sys_) > 0).sum())
    assert calls == [even - 1]
    discrete_bochner_residual(sys_, k=4)
    assert calls == [even - 1] + [len(c) for c in sys_.blocks]


@pytest.mark.parametrize("n", [2, 3])
def test_hessian_gap_builds_conjugate_hessians_of_even_nonconstant_columns(
        n, monkeypatch):
    # the conjugate Hessian is formed for the even non-constant columns
    # only, read from the even rows without the constant column, and over
    # all N/2 pair rows in total
    calls = []
    rows = spectral.conjugate_hessian_rows
    monkeypatch.setattr(spectral, "conjugate_hessian_rows",
                        lambda weights, grad, hess, out=None:
                        calls.append((grad.shape[1], hess.shape[1], len(grad)))
                        or rows(weights, grad, hess, out))
    _, sys_ = system_for(perturbed_ball(n, 0.1), n, 8)
    even = int((parities(sys_) > 0).sum())
    assert len(sys_.blocks) == 2 and even < sys_.basis.size
    hessian_gap_even(sys_)
    assert {call[:2] for call in calls} == {(even - 1, even - 1)}
    assert sum(call[2] for call in calls) == sys_.basis.grid.node_count // 2


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12), (3, 24)])
def test_blocks_equal_take_gram_reference_bit_for_bit(n, L):
    # each block's stiffness and mass, Gram products of its parity's rows
    # summed over the grid's row chunks, equal the block of the np.take Gram
    # assembly on degree-order tables (a direct evaluation at n=2, the
    # product-grid tables at n=3) over the same chunks, bit for bit
    body = random_even_body(2, seed=3) if n == 2 else perturbed_ball(3, 0.1)
    st, sys_ = system_for(body, n, L)
    ref_S, ref_M = take_gram_assembly(st, sys_.basis.degree_max)
    assert len(sys_.blocks) == 2
    for cols, S, M in zip(sys_.blocks, sys_.stiffness, sys_.mass):
        ix = np.ix_(cols, cols)
        assert S.shape == M.shape == (len(cols), len(cols))
        assert np.array_equal(S, ref_S[ix])
        assert np.array_equal(M, ref_M[ix])


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
    for name, A, ref in zip(("stiffness", "mass", "hessform"), forms(sub),
                            forms(full)):
        ref = ref[:nb, :nb]
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max(), name


def factor_bytes_bound(g, band):
    """Bytes of the separable factors of the band's (band+1)^2 columns on an
    n=3 product grid: five per ring and column, and per longitude one cos m
    phi and one sin m phi for each m <= band."""
    (ct, _), (cp, _) = g.product_factors
    return (5 * len(ct) * (band + 1) ** 2 + 2 * len(cp) * (band + 1)) * 8


def test_sub_band_spectrum_on_fine_grid_builds_only_its_tables():
    # band 16 on an L=48 grid: no basis table is built, the cached factors
    # hold the 289 band-16 columns, not the grid's 2401, and the value is
    # that of the L=24 grid
    body = perturbed_ball(3, 0.1)
    g = build_grid(3, 48)
    rep, _ = compute_spectrum(evaluate_on_grid(body, g), 16)
    assert g._tables is None
    assert sum(T.nbytes for T in [*g._factors[0], g._factors[1]]) <= factor_bytes_bound(g, 16)
    ref, _ = compute_spectrum(evaluate_on_grid(body, build_grid(3, 24)), 16)
    assert abs(rep.lambda1_even - ref.lambda1_even) <= 1e-10


def test_sub_band_bochner_on_fine_grid_builds_only_its_tables():
    # a band-8 field on an L=24 grid: the residual builds no basis table,
    # reads the factors of the 81 band-8 columns, not the grid's 625, and
    # equals the residual of the same field given with the grid's full band
    # of coefficients
    g = build_grid(3, 24)
    st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))
    nb = GalerkinBasis(g, 8).size
    c = np.random.default_rng(3).normal(size=nb)
    res = bochner_residual(st, c)
    assert g._tables is None
    assert sum(T.nbytes for T in [*g._factors[0], g._factors[1]]) <= factor_bytes_bound(g, 8)
    full = np.zeros(g.basis.size)
    full[:nb] = c
    assert abs(bochner_residual(st, full) - res) <= 1e-15


# ---------------------------------------------------------------------------
# streamed forms: ring chunks of the product grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,L,n_nodes", [(3, 12, None), (3, 24, None), (3, 48, None),
                                         (2, 16, None), (2, 62, 4096)],
                         ids=["12", "24", "48", "n2-L16", "n2-L62-4096"])
def test_chunk_rows_are_the_table_rows_bit_for_bit(n, L, n_nodes):
    # every chunk of whole rings holds the rows of the grid's tables at its
    # rows, both parities, values, gradients and Hessians, from any first
    # column, bit for bit and sign bits included; the parts not asked are
    # None, the chunks tile the pair rows in order, and no table is built.
    # The n=2 grids are one chunk (build_grid(2, 16)) and several (4096
    # nodes), each angle a ring of one longitude.  The grid owns the row
    # layout: SphereGrid.row_chunks streams the rows the forms read
    g = build_grid(n, L, n_nodes)
    half = g.node_count // 2
    ring = len(g.product_factors[1][0])
    for band in (L // 2, L):
        tables = build_grid(n, L, n_nodes).basis_tables(band)
        for block, first, parts in ((0, 0, (0, 1, 2)), (1, 0, (0, 1, 2)),
                                    (0, 1, (1, 2)), (1, 2, (0,))):
            stop = chunks = 0
            for rows, (views,) in g.row_chunks(band, parts, (block,), first):
                assert rows.start == stop
                assert rows.stop - rows.start <= max(CHUNK_ROWS, ring)
                stop = rows.stop
                chunks += 1
                for part, (T, ref) in enumerate(zip(views, tables[block])):
                    if part not in parts:
                        assert T is None
                        continue
                    ref = ref[rows, first:]
                    assert np.array_equal(T, ref)
                    assert np.array_equal(np.signbit(T), np.signbit(ref))
            assert stop == half
            assert (chunks == 1) == (half <= CHUNK_ROWS)
        del tables
    assert g._tables is None


def _single_gram_forms(st, degree_max, first):
    """Per block: stiffness, mass and the Hessian form from column `first`,
    each one Gram product over all rows of the grid's tables."""
    sq = st.sqrt_weights
    out = []
    for B, G, H in st.grid.basis_tables(degree_max):
        X = [(st.K * sq[:, None, None]) @ G.transpose(0, 2, 1), B * sq[:, None],
             conjugate_hessian_packed(st, G[:, first:], H[:, first:], sq)]
        out.append([Y.reshape(-1, Y.shape[-1]).T @ Y.reshape(-1, Y.shape[-1]) for Y in X])
    return out


@pytest.mark.parametrize("L,band", [(24, 24), (48, 24)])
def test_streamed_forms_match_one_gram_product(L, band):
    # with several chunks, the streamed stiffness, mass and Hessian forms
    # (both blocks, from columns 0 and 1) agree with one Gram product over
    # all rows of the tables to 1e-14 of each block's largest entry
    g = build_grid(3, L)
    st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))
    sys_ = assemble(st, GalerkinBasis(g, band))
    assert g._tables is None
    assert g.node_count // 2 > 2 * CHUNK_ROWS
    for first in (0, 1):
        streamed = [(S, M, spectral._hessian_form(sys_, block, first))
                    for block, (S, M) in enumerate(zip(sys_.stiffness, sys_.mass))]
        for got, ref in zip(streamed, _single_gram_forms(st, band, first)):
            for A, R in zip(got, ref):
                assert np.abs(A - R).max() <= 1e-14 * np.abs(R).max()


@pytest.mark.parametrize("grid", [lambda: build_grid(2, 16),
                                  lambda: build_grid(2, 62, n_nodes=256)],
                         ids=["n2-L16", "n2-L62-256"])
def test_one_chunk_grids_keep_the_single_gram_bit_for_bit(grid):
    # a grid of at most CHUNK_ROWS pair rows is one chunk: its stiffness,
    # mass and Hessian forms are the single Gram products, bit for bit
    g = grid()
    assert len(list(g.row_chunks(g.band_limit, (), (0,)))) == 1
    st = build_state(evaluate_on_grid(perturbed_ball(g.n, 0.1), g))
    sys_ = assemble(st, GalerkinBasis(g, g.band_limit))
    for first in (0, 1):
        for block, ref in enumerate(_single_gram_forms(st, g.band_limit, first)):
            got = (sys_.stiffness[block], sys_.mass[block],
                   spectral._hessian_form(sys_, block, first))
            for A, R in zip(got, ref):
                assert np.array_equal(A, R)


def test_streamed_spectrum_memory_on_a_fine_grid():
    # assembly, eigensolve and Hessian gap at band 16 on an L=48 grid work
    # in chunks of rings: no basis table, and a traced peak far below the
    # 54 MB of the tables' path
    g = build_grid(3, 48)
    st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))

    def pipeline():
        sys_ = assemble(st, GalerkinBasis(g, 16))
        solve_spectrum(sys_)
        hessian_gap_even(sys_)

    _, peak = transient_peak(pipeline)
    assert g._tables is None
    assert peak <= 8e6


# each phase's traced transient at n=3, L=24 on perturbed_ball(3, 0.1), in
# units of the largest block's nb^2 doubles (nb = 325): the assembly holds
# its forms, one Gram work buffer and one chunk of rows; the solve one
# reduction, three matrices; the gap the Hessian-form stream, its sum, one
# work buffer, a chunk of conjugate-Hessian rows and a ring of rows.  The
# out-of-place inverse, a work buffer per form and a whole chunk of
# gradient and Hessian rows read 8.4, 3.25 and 5.8.
PHASE_BUDGET = {"assemble": 7.5, "solve_spectrum": 3.1, "hessian_gap_even": 4.6}


def test_pipeline_phases_keep_their_transient_budget():
    # in a fresh interpreter, so that no cache of an earlier test is reused
    script = textwrap.dedent("""
        import json, sys
        sys.path[:0] = sys.argv[1:]
        from oracles import transient_peak
        from calab.bodies import evaluate_on_grid, perturbed_ball
        from calab.calculus import build_state
        from calab.spectral import (GalerkinBasis, assemble, hessian_gap_even,
                                    solve_spectrum)
        from calab.sphere import build_grid
        g = build_grid(3, 24)
        st = build_state(evaluate_on_grid(perturbed_ball(3, 0.1), g))
        system, a = transient_peak(lambda: assemble(st, GalerkinBasis(g, 24)))
        _, s = transient_peak(lambda: solve_spectrum(system, k=10))
        _, h = transient_peak(lambda: hessian_gap_even(system))
        unit = 8 * max(len(b) for b in system.blocks) ** 2
        print(json.dumps({"assemble": a / unit, "solve_spectrum": s / unit,
                          "hessian_gap_even": h / unit}))
    """)
    tests = Path(__file__).resolve().parent
    run = subprocess.run([sys.executable, "-c", script, str(tests.parent / "src"), str(tests)],
                         capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert {k: v for k, v in got.items() if v > PHASE_BUDGET[k]} == {}, got


def test_lower_inverse_in_place_is_the_out_of_place_recursion():
    # bit for bit, across the 32/33 leaf boundary and two levels above it;
    # the inverse is written over the factor it is given
    rng = np.random.default_rng(7)
    for n in range(1, 131):
        A = rng.normal(size=(n, n))
        L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
        ref = lower_inverse_reference(L.copy())
        got = spectral._lower_inverse(L)
        assert got is L
        assert np.array_equal(got, ref), n
        assert np.abs(got @ np.linalg.cholesky(A @ A.T + n * np.eye(n))
                      - np.eye(n)).max() <= 1e-12, n


def test_streamed_planar_spectrum_on_a_fine_grid():
    # the n=2 forms stream through the same chunks of rings: assembly,
    # eigensolve and Hessian gap at band 62 on 4096 nodes build no basis
    # table, and lambda1_even is that of the single Gram products to 1e-12
    g = build_grid(2, 62, n_nodes=4096)
    st = build_state(evaluate_on_grid(perturbed_ball(2, 0.1), g))
    sys_ = assemble(st, GalerkinBasis(g, 62))
    rep = solve_spectrum(sys_)
    hessian_gap_even(sys_)
    assert g._tables is None
    S, M, _ = _single_gram_forms(st, 62, 0)[0]
    ref = scipy.linalg.eigh(S, M, eigvals_only=True)[1]
    assert abs(rep.lambda1_even - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# spectra (paper closed forms)
# ---------------------------------------------------------------------------


def test_ball_spectrum_n3():
    g = build_grid(3, 16)
    rep, _ = compute_spectrum(evaluate_on_grid(ball(1.0, 3), g), k=12)
    assert abs(rep.eigenvalues[0]) < 1e-8
    assert rep.multiplicities[0][1] == 1
    v1, m1 = rep.multiplicities[1]
    assert abs(v1 - 2.0) < 1e-8 and m1 == 3
    v2, m2 = rep.multiplicities[2]
    assert abs(v2 - 6.0) < 1e-8 and m2 == 5
    assert rep.residuals.max() < 1e-8


def test_ball_even_gap_n2():
    g = build_grid(2, 16)
    rep, _ = compute_spectrum(evaluate_on_grid(ball(1.0, 2), g))
    assert abs(rep.lambda1_even - 4.0) < 1e-9


def test_ellipsoid_spectrum_matches_ball():
    g = build_grid(3, 16)
    rep, _ = compute_spectrum(evaluate_on_grid(ellipsoid(np.diag([2.0, 1.0, 1.0])), g),
                              k=10)
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
        rep, _ = compute_spectrum(evaluate_on_grid(body, g), k=10)
        assert rep.eigenvalues.min() > -1e-8
        assert rep.residuals.max() < 1e-8


def test_lambda1_is_dimension_minus_one():
    # Hilbert's theorem: lambda_1 = n-1 with multiplicity exactly n
    g2 = build_grid(2, 62, n_nodes=256)
    for seed in (0, 1):
        rep, _ = compute_spectrum(evaluate_on_grid(random_even_body(2, seed=seed), g2),
                                  k=6)
        assert abs(rep.lambda1 - 1.0) < 1e-6
        lam1_cluster = [m for v, m in rep.multiplicities
                        if abs(v - rep.lambda1) < 1e-3]
        assert lam1_cluster[0] == 2

    g3 = build_grid(3, 20)
    rep, _ = compute_spectrum(evaluate_on_grid(perturbed_ball(3, 0.1), g3), k=6)
    assert abs(rep.lambda1 - 2.0) < 1e-3
    lam1_cluster = [m for v, m in rep.multiplicities
                    if abs(v - rep.lambda1) < 1e-2]
    assert lam1_cluster[0] == 3


@pytest.mark.parametrize("subspace", ["all", "even-nonconstant"])
@pytest.mark.parametrize("body, n, band, fold", [
    (random_even_body(2, 5), 2, 8, False),                 # a band below L
    (perturbed_ball(3, 0.1), 3, None, False),              # whole parity blocks
    (ellipsoid(np.diag([2.0, 1.0, 1.0])), 3, None, True),  # sign-sector blocks
], ids=["random_n2_band8", "perturbed_n3", "ellipsoid_n3"])
def test_compute_spectrum_is_the_written_out_chain(body, n, band, fold, subspace,
                                                  monkeypatch):
    g = build_grid(n, 16)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(len(a)) or eigh(a))
    rep, system = compute_spectrum(evaluate_on_grid(body, g), band, k=6,
                                   subspace=subspace)
    assert system.fold is fold
    # the solve and its eigenvalues take no eigh; the residuals take one per
    # block that holds a selected pair, on first read only
    assert rep.lambda1 > 0 and rep.lambda1_even > 0 and len(rep.eigenvalues) == 6
    assert eighs == []
    assert rep.residuals.max() <= 1e-10 and rep.residuals is rep.residuals
    selected = {b for b, cols in enumerate(system.blocks)
                if np.any(rep.eigenvectors[cols])}
    assert sorted(eighs) == sorted(len(system.blocks[b]) for b in selected)
    # against a full eigh (scipy's, vectors too) of each block's pencil
    keep = [(b, 0) for b in range(len(system.blocks))] if subspace == "all" else [
        (b, int(b == 0)) for b, p in enumerate(system.parities) if p > 0]
    full = np.sort(np.concatenate([
        scipy.linalg.eigh(system.stiffness[b], system.mass[b])[0][first:]
        for b, first in keep]))[:6]
    assert np.all(np.abs(rep.eigenvalues - full)
                  <= 1e-12 * np.maximum(np.abs(full), 1.0))
    ref_system = assemble(build_state(evaluate_on_grid(body, g)),
                          GalerkinBasis(g, 16 if band is None else band))
    ref = solve_spectrum(ref_system, k=6, subspace=subspace)
    assert np.array_equal(rep.eigenvalues, ref.eigenvalues)
    assert rep.lambda1 == ref.lambda1
    assert rep.lambda1_even == ref.lambda1_even
    assert np.array_equal(rep.residuals, ref.residuals)
    assert hessian_gap_even(system) == hessian_gap_even(ref_system)


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
    _, G, Hp = degree_order_tables(st.grid)
    sq, Kt = st.sqrt_weights, st.K.transpose(0, 2, 1)
    S, _, Hform = forms(sys_)
    rng = np.random.default_rng(n)
    for parity in (1, -1):
        c = rng.normal(size=sys_.basis.size) * (parities(sys_) == parity)
        grad = (c @ G)[:, None]
        stiff = np.sum((sq[:, None, None] * (grad @ Kt)) ** 2)
        hess = np.sum(conjugate_hessian_packed(st, grad, (c @ Hp)[:, None], sq) ** 2)
        for got, A in ((stiff, S), (hess, Hform)):
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
    col = 1   # the first even non-constant column of the even block
    S, M = sys_.stiffness, sys_.mass
    bad_stiffness = sys_._replace(stiffness=(_with_negative_diagonal(S[0], col),) + S[1:])
    with pytest.raises(ValueError, match="stiffness is singular on the even non-constant"):
        hessian_gap_even(bad_stiffness)
    bad_mass = sys_._replace(mass=(_with_negative_diagonal(M[0], col),) + M[1:])
    for subspace in ("all", "even-nonconstant"):
        with pytest.raises(np.linalg.LinAlgError):
            solve_spectrum(bad_mass, k=4, subspace=subspace)


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_eigenvectors_are_mass_orthonormal(n, L):
    _, sys_ = system_for(perturbed_ball(n, 0.1), n, L)
    for subspace in ("all", "even-nonconstant"):
        V = solve_spectrum(sys_, k=8, subspace=subspace).eigenvectors
        M = full_matrix(sys_, sys_.mass)
        assert np.abs(V.T @ M @ V - np.eye(V.shape[1])).max() < 1e-12


@pytest.mark.parametrize("subspace", ["all", "even-nonconstant"])
def test_solve_spectrum_rejects_k_below_one(subspace):
    _, sys_ = system_for(perturbed_ball(3, 0.1), 3, 8)
    with pytest.raises(ValueError, match="k must be in 1.."):
        solve_spectrum(sys_, k=0, subspace=subspace)
