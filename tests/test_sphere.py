"""Tests for grids, quadrature, and tangential calculus on S^{n-1}."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander
from scipy.special import roots_legendre, sph_harm_y

from calab.sphere import (
    _gauss_legendre,
    _unfold,
    HarmonicBasis,
    ScalarField,
    SphereGrid,
    build_grid,
    tangential_gradient,
    tangential_hessian,
    analyze,
    synthesize,
    frame_det,
    frame_eigvalsh,
    frame_solve,
    gradient_from_coeffs,
    hessian_from_coeffs,
    packed_positions,
    quad_values,
    sign_fold,
    tangent_frames,
    unpack_sym,
)

from oracles import (
    SURFACE_MEASURE,
    degree_order_tables,
    fd_gradient_on_sphere,
    fd_hessian_on_sphere,
    laplace_beltrami,
)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3])
def test_packed_positions_unpack_the_upper_triangle(q):
    # packed[..., pos] is the symmetric matrix whose upper triangle, in
    # np.triu_indices(q) order, is the packed vector
    packed = np.arange(1.0, q * (q + 1) // 2 + 1)
    S = packed[packed_positions(q)]
    assert np.array_equal(S, S.T)
    assert np.array_equal(S[np.triu_indices(q)], packed)
    # unpack_sym reads q off the packed length, over leading axes too
    assert np.array_equal(unpack_sym(np.stack([packed, 2 * packed])),
                          np.stack([S, 2 * S]))


def test_build_grid_n2_node_count_and_weights():
    g = build_grid(2, 16)
    assert g.node_count == 68
    assert abs(g.weights.sum() - 2.0 * np.pi) < 1e-10


def test_build_grid_n3_weights_sum():
    g = build_grid(3, 16)
    assert abs(g.weights.sum() - 4.0 * np.pi) < 1e-10


def test_gauss_legendre_matches_scipy_and_is_exact():
    # scipy is the oracle for every rule a grid up to L = 96 uses (m = L + 2);
    # node errors are in ulps of 1, the scale of the interval (scipy's nodes
    # near 0 are the less accurate ones, up to ~10 ulps of the node itself)
    for m in range(2, 99):
        x, w = _gauss_legendre(m)
        xr, wr = roots_legendre(m)
        assert np.abs(x - xr).max() <= 2 * np.spacing(1.0), m
        assert (np.abs(w - wr) / wr).max() <= 1e-10, m
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), m
        moments = legvander(x, 2 * m - 1).T @ w  # int P_k dx = 2 delta_k0
        moments[0] -= 2.0
        assert np.abs(moments).max() <= 2e-15, m


def test_build_grid_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        build_grid(4, 16)


def test_build_grid_rejects_odd_band_limit():
    with pytest.raises(ValueError):
        build_grid(2, 15)


@pytest.mark.parametrize("n,L", [(2, 8), (2, 16), (3, 8), (3, 16)])
def test_grid_invariants(n, L):
    g = build_grid(n, L)
    norms = np.linalg.norm(g.nodes, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    assert (g.weights > 0).all()
    assert abs(g.weights.sum() - SURFACE_MEASURE[n]) < 1e-10
    # antipodal pairing is exact and involutive
    assert np.abs(g.nodes[g.antipodal_index] + g.nodes).max() < 1e-12
    assert (g.antipodal_index[g.antipodal_index] == np.arange(g.node_count)).all()


def test_n2_node_count_override():
    g = build_grid(2, 62, n_nodes=256)
    assert g.node_count == 256
    assert abs(g.weights.sum() - 2.0 * np.pi) < 1e-10


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_circle():
    g = build_grid(2, 8)
    assert abs(quad_values(g, np.ones(g.node_count)) - 2.0 * np.pi) < 1e-12


def test_quadrature_linear_sphere_vanishes():
    g = build_grid(3, 8)
    e = np.array([0.3, -0.5, 0.81])
    e /= np.linalg.norm(e)
    assert abs(quad_values(g, g.nodes @ e)) < 1e-12


def test_quadrature_second_moment_sphere():
    # closed form: int <theta,e>^2 dm = 4 pi / 3; cross-checked by Monte Carlo
    g = build_grid(3, 8)
    e = np.array([0.6, 0.0, 0.8])
    val = quad_values(g, (g.nodes @ e) ** 2)
    assert abs(val - 4.0 * np.pi / 3.0) < 1e-12

    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mc = 4.0 * np.pi * np.mean((pts @ e) ** 2)
    # MC standard error ~ 4pi * std/sqrt(N) ~ 0.008
    assert abs(val - mc) < 0.03


def test_quadrature_odd_field_is_zero():
    for n in (2, 3):
        g = build_grid(n, 8)
        rng = np.random.default_rng(n)
        v = rng.normal(size=g.node_count)
        odd = 0.5 * (v - v[g.antipodal_index])
        assert abs(quad_values(g, odd)) < 1e-12


# n=2 at the default node count and the 256-node override, n=3 at three bands
HALF_GRID_CASES = [(2, 16, None), (2, 62, 256), (3, 4, None), (3, 16, None),
                   (3, 24, None)]


@pytest.mark.parametrize("n,L,n_nodes", HALF_GRID_CASES)
def test_first_half_holds_one_node_per_antipodal_pair(n, L, n_nodes):
    g = build_grid(n, L, n_nodes=n_nodes)
    half = g.node_count // 2
    assert g.node_count % 2 == 0
    assert (g.antipodal_index[:half] >= half).all()
    assert np.array_equal(np.sort(g.antipodal_index[:half]),
                          np.arange(half, g.node_count))


@pytest.mark.parametrize("n,L,n_nodes", [(2, 16, None), (2, 62, 256), (3, 8, None),
                                         (3, 16, None), (3, 24, None)])
def test_antipodes_are_exact_negations(n, L, n_nodes):
    # bit for bit, on the same nodes and weights as cos and sin of the full
    # angle lists give (those differ from exact negation by up to ~1e-15)
    g = build_grid(n, L, n_nodes=n_nodes)
    assert np.array_equal(g.nodes[g.antipodal_index], -g.nodes)
    if n == 2:
        N = g.node_count
        t = 2.0 * np.pi * np.arange(N) / N
        nodes = np.stack([np.cos(t), np.sin(t)], axis=-1)
        weights = np.full(N, 2.0 * np.pi / N)
    else:
        u, wu = _gauss_legendre(L + 2)
        phi = 2.0 * np.pi * np.arange(2 * L + 4) / (2 * L + 4)
        st = np.sqrt(1.0 - u**2)
        nodes = np.stack([np.outer(st, np.cos(phi)).ravel(),
                          np.outer(st, np.sin(phi)).ravel(),
                          np.repeat(u, len(phi))], axis=-1)
        weights = np.repeat(wu * (2.0 * np.pi / len(phi)), len(phi))
    assert np.array_equal(g.weights, weights)
    assert np.abs(g.nodes - nodes).max() <= 2e-15


@pytest.mark.parametrize("n,L,n_nodes", HALF_GRID_CASES + [(2, 16, 70)])
def test_coordinate_flips_of_nodes_are_nodes(n, L, n_nodes):
    # bit for bit, like the antipodes: the first quadrant of the angles (n=2)
    # or longitudes (n=3) is reflected exactly, and cos(pi/2) is exactly 0.
    # The fold over the flips then finds one orbit per first-quadrant angle
    # (n=2), or per upper ring and first-quadrant longitude (n=3)
    g = build_grid(n, L, n_nodes=n_nodes)
    rows = {tuple(x) for x in g.nodes.tolist()}
    for i in range(n):
        S = np.ones(n)
        S[i] = -1.0
        assert all(tuple(x) in rows for x in (g.nodes * S).tolist())
    first, inverse, D = sign_fold(g.nodes, flips=True)
    assert np.array_equal(np.abs(g.nodes), np.abs(g.nodes[first])[inverse])
    if n == 3:
        m_th, m_ph = L + 2, 2 * L + 4
        assert len(first) == (m_th // 2) * (m_ph // 4 + 1)
    else:
        N = g.node_count
        assert len(first) == (N // 4 + 1 if N % 4 == 0 else (N + 2) // 4)


@pytest.mark.parametrize("n,L", [(2, 16), (3, 24)])
def test_grid_sign_fold_is_cached_for_nodes_and_pair_nodes(n, L):
    # the grid keeps sign_fold of its nodes per sign group, read-only; its
    # prefix is the pair nodes' own fold: both fold onto the same rows
    g = build_grid(n, L)
    for flips in (False, True):
        fold = g.sign_fold(flips)
        assert g.sign_fold(flips) is fold
        assert not any(a.flags.writeable for a in fold)
        for a, b in zip(fold, sign_fold(g.nodes, flips)):
            assert np.array_equal(a, b)
        half = len(g.pair_nodes)
        first, inverse, D = sign_fold(g.pair_nodes, flips)
        assert np.array_equal(first, fold[0])
        assert np.array_equal(inverse, fold[1][:half]) and np.array_equal(D, fold[2][:half])
    assert len(g.sign_fold(True)[0]) == {2: 18, 3: 182}[n]


def test_legendre_coefficients_are_cached_bit_for_bit():
    # the cached recurrence coefficients give the table of the recurrence
    # that forms them on every call, bit for bit
    from calab.sphere import _legendre, _legendre_coefficients

    def recurrence(ct, st, L):
        P = np.zeros((L + 1, L + 1, len(ct)))
        P[0, 0] = 0.5 / np.sqrt(np.pi)
        for l in range(1, L + 1):
            m = np.arange(l)[:, None]
            a = np.sqrt((4 * l * l - 1) / (l * l - m * m))
            P[l, :l] = a * ct * P[l - 1, :l]
            if l >= 2:
                b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
                P[l, :l] -= a * b * P[l - 2, :l]
            P[l, l] = -np.sqrt((2 * l + 1) / (2 * l)) * st * P[l - 1, l - 1]
        return P

    ct = np.random.default_rng(7).uniform(-1.0, 1.0, 50)
    st = np.sqrt(1.0 - ct**2)
    for L in (0, 1, 2, 10, 25):
        assert np.array_equal(_legendre(ct, st, L), recurrence(ct, st, L))
    assert _legendre_coefficients(10) is _legendre_coefficients(10)


def test_antipodal_fold_keeps_first_occurrences():
    # the fold over +-I: the representative is the first row of each pair,
    # and D is the one sign of each row against it
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 3))
    base[:5, 0] = 0.0          # leading zeros: the sign is read further on
    base[5, :2] = 0.0
    pick = rng.integers(0, len(base), size=200)
    X = rng.choice([-1.0, 1.0], size=(200, 1)) * base[pick]
    first, inverse, D = sign_fold(X)
    assert np.array_equal(X, D * X[first][inverse])
    assert np.all(D[first] == 1.0) and np.all(D == D[:, :1])
    assert np.all(np.diff(first) > 0)
    # each representative is the first row equal to it up to sign
    for k, i in enumerate(first):
        same = np.flatnonzero((X == X[i]).all(axis=1) | (X == -X[i]).all(axis=1))
        assert same[0] == i and np.all(inverse[same] == k)
    assert len(first) == len(np.unique(pick))
    # rows with no partner fold onto themselves, in order
    U = rng.normal(size=(30, 2))
    first, inverse, D = sign_fold(U)
    assert np.array_equal(first, np.arange(30)) and np.array_equal(inverse, first)
    assert np.all(D == 1.0)


def test_flip_fold_keeps_first_occurrences_and_solves_at_abs():
    # the fold over every coordinate flip: one orbit per |x|, represented by
    # |x| with D = sign(x) (-0.0 reads -1), first occurrences kept in order
    rng = np.random.default_rng(6)
    base = rng.normal(size=(40, 3))
    base[:5, 0] = 0.0          # rows in a coordinate plane: smaller orbits
    base[5, :2] = 0.0
    pick = rng.integers(0, len(base), size=300)
    X = rng.choice([-1.0, 1.0], size=(300, 3)) * base[pick]
    first, inverse, D = sign_fold(X, flips=True)
    R = D[first] * X[first]
    assert np.array_equal(R, np.abs(X[first]))
    assert not np.signbit(R).any()
    assert np.array_equal(X, D * R[inverse])
    assert np.array_equal(D, np.copysign(1.0, X))
    assert np.all(np.diff(first) > 0)
    for k, i in enumerate(first):
        same = np.flatnonzero((np.abs(X) == np.abs(X[i])).all(axis=1))
        assert same[0] == i and np.all(inverse[same] == k)
    assert len(first) == len(np.unique(pick))
    # x and -x share an orbit under both groups, the flips of x only here
    Y = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0], [-1.0, 2.0, 3.0],
                  [0.0, 2.0, 3.0], [-0.0, 2.0, 3.0], [0.0, -2.0, 3.0]])
    assert np.array_equal(sign_fold(Y)[1], [0, 0, 1, 2, 2, 3])
    assert np.array_equal(sign_fold(Y, flips=True)[1], [0, 0, 0, 1, 1, 1])


def test_grid_without_half_structure_is_rejected():
    g = build_grid(2, 8)
    # interleaved order: antipodal pairs sit next to each other
    order = np.stack([np.arange(g.node_count // 2),
                      np.arange(g.node_count // 2) + g.node_count // 2], axis=1).ravel()
    nodes = g.nodes[order]
    anti = np.argsort(order)[g.antipodal_index[order]]
    assert np.abs(nodes[anti] + nodes).max() < 1e-12
    with pytest.raises(ValueError, match="antipodal pair"):
        SphereGrid(2, 8, nodes, g.weights[order], anti, g.product_factors)


@pytest.mark.parametrize("n", [2, 3])
def test_grid_with_mismatched_product_factors_is_rejected(n):
    # the rings times the longitudes must count the pair nodes
    g = build_grid(n, 8)
    rings, (cp, sp) = g.product_factors
    for factors in ((rings, (cp[:-1], sp[:-1])),
                    (tuple(f[:-1] for f in rings), (cp, sp))):
        with pytest.raises(ValueError, match="pair nodes"):
            SphereGrid(n, 8, g.nodes, g.weights, g.antipodal_index, factors)


def _full_ambient_tables(g):
    """The grid's half-grid tables mapped to ambient coordinates through
    their frames and unfolded to every node by the basis parity pi:
    B(-u) = pi B(u), G(-u) = -pi G(u), H(-u) = pi H(u)."""
    B, G, H = degree_order_tables(g)
    E = g.tangent_frames()[:g.node_count // 2]
    q = g.n - 1
    iu, ju = np.triu_indices(q)
    Hq = np.zeros(H.shape[:2] + (q, q))
    Hq[:, :, iu, ju] = H
    Hq[:, :, ju, iu] = H
    tables = (B, np.einsum("iar,ikr->iak", G, E),
              np.einsum("iars,ikr,ils->iakl", Hq, E, E))
    half = g.node_count // 2
    anti = g.antipodal_index[:half]
    full = []
    for T, sign in zip(tables, (1, -1, 1)):
        signs = (sign * g.basis.parity).reshape((-1,) + (1,) * (T.ndim - 2))
        F = np.empty((g.node_count,) + T.shape[1:])
        F[:half] = T
        F[anti] = signs * T
        full.append(F)
    return full


@pytest.mark.parametrize("n,L,n_nodes", HALF_GRID_CASES)
def test_unfolded_tables_match_direct_evaluation(n, L, n_nodes):
    # the grid evaluates its first half only, derivatives packed in a frame
    g = build_grid(n, L, n_nodes=n_nodes)
    half, nb = g.node_count // 2, g.basis.size
    B, G, H = degree_order_tables(g)
    assert B.shape == (half, nb)
    assert G.shape == (half, nb, n - 1)
    assert H.shape == (half, nb, n * (n - 1) // 2)
    E = g.tangent_frames()[:half]
    assert np.abs(E.transpose(0, 2, 1) @ E - np.eye(n - 1)).max() < 1e-15
    assert np.abs(np.einsum("ikr,ik->ir", E, g.nodes[:half])).max() < 1e-15
    direct = g.basis.eval_derivs(g.nodes, order=2)
    ring = np.abs(g.nodes[:, -1]) == np.abs(g.nodes[:, -1]).max()  # pole rings
    for got, ref in zip(_full_ambient_tables(g), direct):
        assert got.shape == ref.shape
        err = np.abs(got - ref)
        assert err.max() <= 1e-13 * np.abs(ref).max()
        assert err[ring].max() <= 1e-13 * np.abs(ref[ring]).max()


@pytest.mark.parametrize("n,L,n_nodes", HALF_GRID_CASES)
def test_frame_fields_expand_to_eval_derivs(n, L, n_nodes):
    # the derivative fields of f and f o A, A(u) = -u, are components in the
    # grid frames E at the pair nodes, read from the half-grid tables;
    # expanded with E (and grad f(-u) = -grad(f o A)(u)) they match the
    # direct ambient evaluation at every node, the antipodes and the pole
    # rings included
    g = build_grid(n, L, n_nodes=n_nodes)
    rng = np.random.default_rng(n + L)
    c = rng.normal(size=g.basis.size) * np.exp(-0.2 * g.basis.degrees)
    grad, hess = gradient_from_coeffs(g, c), hessian_from_coeffs(g, c)
    assert grad.shape == (g.node_count // 2, 2, n - 1)
    assert hess.shape == (g.node_count // 2, 2, n - 1, n - 1)
    E = g.tangent_frames()[:, None]
    _, G, H = g.basis.eval_derivs(g.nodes, order=2)
    ring = np.abs(g.nodes[:, -1]) == np.abs(g.nodes[:, -1]).max()
    sign = np.array([1.0, -1.0])[None, :, None]
    for got, ref in [(_unfold(g, sign * np.einsum("ijkr,ijr->ijk", E, grad)),
                      G.transpose(0, 2, 1) @ c),
                     (_unfold(g, E @ hess @ np.swapaxes(E, -1, -2)),
                      np.einsum("iakl,a->ikl", H, c))]:
        err = np.abs(got - ref)
        assert err.max() <= 1e-13 * np.abs(ref).max()
        assert err[ring].max() <= 1e-13 * np.abs(ref[ring]).max()


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_frames_are_orthonormal_and_tangent(n):
    # random points, the coordinate axes and their negatives; at n=3 the
    # axes include the exact poles (0, 0, +-1)
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(1000, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.concatenate([pts, np.eye(n), -np.eye(n)])
    E = tangent_frames(pts)
    assert E.shape == (len(pts), n, n - 1)
    assert np.abs(E.transpose(0, 2, 1) @ E - np.eye(n - 1)).max() <= 1e-15
    assert np.abs(np.einsum("ikr,ik->ir", E, pts)).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_column_places_each_harmonic_at_its_basis_position(n):
    # the basis order: by degree; at n=2 cos kt then sin kt (m = k); at n=3
    # m = 0, then cos and sin of each m = 1..l.  column maps every mode to
    # its position, one position each, and rejects a mode outside the basis
    L = 8
    basis = HarmonicBasis(n, L)
    if n == 2:
        modes = [(0, 0, 0)] + [(k, k, kind) for k in range(1, L + 1) for kind in (0, 1)]
    else:
        modes = [(l, m, kind) for l in range(L + 1) for m in range(l + 1)
                 for kind in ((0,) if m == 0 else (0, 1))]
    assert [basis.column(*mode) for mode in modes] == list(range(basis.size))
    assert np.array_equal(basis.degrees, [l for l, _, _ in modes])
    assert np.array_equal(basis._m, [m for _, m, _ in modes])
    for bad in ((L + 1, 0, 0), (0, 0, 1), (2, 3, 0) if n == 3 else (2, 1, 0)):
        with pytest.raises(KeyError):
            basis.column(*bad)


def test_tangent_frames_reject_other_dimensions():
    with pytest.raises(ValueError, match="n=4"):
        tangent_frames(np.eye(4))


@pytest.mark.parametrize("n,L,n_nodes", HALF_GRID_CASES)
def test_grid_frames_are_the_table_frames(n, L, n_nodes):
    # one frame per pair node, the evaluator's frames bit for bit; the basis
    # tables are not built for them
    g = build_grid(n, L, n_nodes=n_nodes)
    half = g.node_count // 2
    E = g.tangent_frames()
    assert E.shape == (half, n, n - 1)
    assert np.array_equal(E, tangent_frames(g.nodes[:half]))
    assert g._tables is None


@pytest.mark.parametrize("n", [2, 3])
def test_geometry_does_not_build_basis_tables(n):
    from calab.bodies import ellipsoid, evaluate_on_grid, perturbed_ball
    from calab.calculus import build_state
    from calab.pinching import measure_pinching

    g = build_grid(n, 16)
    for body in (ellipsoid(np.diag([2.0, 1.0, 0.7][:n])), perturbed_ball(n, 0.1)):
        bg = evaluate_on_grid(body, g)
        build_state(bg)
        measure_pinching(bg)
    assert g._tables is None


def test_tables_memory_at_L24():
    # half grid (676 nodes) x 625 functions x (1 + 2 + 3) components, over
    # the two parity blocks' cached tables
    g = build_grid(3, 24)
    g.basis_tables()
    assert sum(T.nbytes for view in g._tables for T in view) <= 676 * 625 * 6 * 8


@pytest.mark.parametrize("n,L", [(2, 16), (3, 12)])
def test_band_tables_are_prefix_columns_of_full_tables(n, L):
    # per parity, the band-b view is a column prefix of the full band's
    # view, and a view of that block's cached tables
    full = build_grid(n, L).basis_tables()
    g = build_grid(n, L)
    half = g.node_count // 2
    if n == 3:   # the rows include a ring nearest the poles
        z = np.abs(g.nodes[:, 2])
        assert z[:half].max() == z.max()
    for band in (0, 1, 5, L):
        views = g.basis_tables(band)
        for view, whole, cols in zip(views, full, g.basis.parity_columns):
            nb = int((g.basis.degrees[cols] <= band).sum())
            for T, ref in zip(view, whole):
                assert T.shape[:2] == (half, nb)
                assert np.array_equal(T, ref[:, :nb])
        # a smaller band afterwards is a view of the cached tables
        assert all(np.shares_memory(S, T) for small, view in
                   zip(g.basis_tables(band // 2), views)
                   for S, T in zip(small, view) if S.size)


@pytest.mark.parametrize("n,L", [(2, 16), (2, 62), (3, 4), (3, 12)])
def test_parity_tables_are_the_direct_evaluation_columns(n, L):
    # each parity view equals the matching columns of a direct evaluation of
    # the band's basis bit for bit, and is a read-only view of its block's
    # cached tables, built once at the grid's band; at n=3 the direct
    # evaluation is the product-grid one, a fresh grid's tables built at
    # the band
    g = build_grid(n, L)
    half = g.node_count // 2
    g.basis_tables()
    cached = g._tables
    assert ([[T.shape[1] for T in view] for view in cached]
            == [[len(cols)] * 3 for cols in g.basis.parity_columns])
    for band in sorted({L, min(5, L), 2, 1, 0}, reverse=True):
        basis = HarmonicBasis(n, band)
        direct = (basis.frame_derivs(g.pair_nodes, order=2) if n == 2
                  else degree_order_tables(build_grid(n, L), band))
        views = g.basis_tables(band)
        assert g._tables is cached
        for view, cols, block in zip(views, basis.parity_columns, cached):
            for T, C, ref in zip(view, block, direct):
                assert T.shape[:2] == (half, len(cols))
                assert np.array_equal(T, ref[:, cols])
                assert np.array_equal(np.signbit(T), np.signbit(ref[:, cols]))
                assert not T.flags.writeable
                assert T.size == 0 or np.shares_memory(T, C)


@pytest.mark.parametrize("L", [4, 12, 24, 48])
def test_product_tables_match_pointwise_evaluation(L):
    # the n=3 tables, colatitude x longitude outer products, equal the
    # pointwise frame_derivs at the pair nodes (even columns first) to 1e-13
    # of each table's largest entry at every order and parity: only the
    # rounding of the longitudes differs (measured <= 2.1e-14 at L=48); the
    # rows are compared one ring at a time.  A table built at band b alone is
    # a bit-for-bit column prefix of the full band's.
    g = build_grid(3, L)
    full = g.basis_tables()
    cols = np.concatenate(g.basis.parity_columns)
    e = len(g.basis.parity_columns[0])
    parts = (slice(None, e), slice(e, None))
    largest = [[np.abs(T).max() for T in view] for view in full]
    ring = 2 * L + 4
    for start in range(0, len(g.pair_nodes), ring):
        rows = slice(start, start + ring)
        for order in (0, 1, 2):
            ref = g.basis.frame_derivs(g.pair_nodes[rows], order, cols)
            for view, part, big in zip(full, parts, largest):
                for T, R, m in zip(view, ref[:order + 1], big):
                    assert np.abs(T[rows] - R[:, part]).max() <= 1e-13 * m
    for band in (min(L // 2, 8), 2):
        sub = build_grid(3, L).basis_tables(band)
        for view, fview in zip(sub, full):
            for T, F in zip(view, fview):
                F = F[:, :T.shape[1]]
                assert np.array_equal(T, F)
                assert np.array_equal(np.signbit(T), np.signbit(F))


@pytest.mark.parametrize("n", [2, 3])
def test_column_selection_keeps_each_column(n):
    # frame_derivs on a column selection returns the selected columns of the
    # full evaluation, bit for bit, at random points and at every order
    basis = HarmonicBasis(n, 8)
    pts = np.random.default_rng(n).normal(size=(40, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cols = np.concatenate(basis.parity_columns[::-1])
    for order in (0, 1, 2):
        full = basis.frame_derivs(pts, order)
        part = basis.frame_derivs(pts, order, columns=cols)
        for T, ref in zip(part[:order + 1], full):
            assert np.array_equal(T, ref[:, cols])
            assert T.flags.c_contiguous


def _tables_expansion(basis, pts, c, order, cols):
    B, G, H = basis.frame_derivs(pts, order, cols)
    return (B @ c, None if G is None else c @ G, None if H is None else c @ H)


def _assert_close_parts(out, ref, order):
    # each output to 1e-14 of its max |value|, the parts above order None
    for k in range(3):
        if k > order:
            assert out[k] is None and ref[k] is None
        else:
            assert out[k].shape == ref[k].shape
            assert np.abs(out[k] - ref[k]).max() <= 1e-14 * np.abs(ref[k]).max()


@pytest.mark.parametrize("n,L", [(2, 16), (2, 62), (3, 8)])
def test_expand_is_the_contracted_tables(n, L):
    # expanding coefficients through synthesis and synthesis_jet, as
    # SpectralBody does at both n, is the coefficients contracted with the
    # frame_derivs tables, which the plan does not form: to 1e-14 of each
    # part's max |value| (measured <= 4.6e-16 at n=2 and <= 4.2e-16 at n=3),
    # at random points and at the grid nodes, on every column and on a
    # reversed subset that mixes parities and kinds; each part bit-identical
    # across orders, and the longitudes (cos phi, sin phi) returned at n=3 only
    basis = HarmonicBasis(n, L)
    rng = np.random.default_rng(L + n)
    pts = rng.normal(size=(60, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.concatenate([pts, build_grid(n, L).nodes])
    even, odd = basis.parity_columns
    for cols in (None, np.concatenate([even[::2], odd[1::3]])[::-1]):
        c = rng.normal(size=basis.size if cols is None else len(cols))
        plan = basis.synthesis(c, cols)
        full = basis.synthesis_jet(pts, plan, 2)[0]
        for order in (0, 1, 2):
            out, lon = basis.synthesis_jet(pts, plan, order)
            assert (lon is None) == (n == 2)
            _assert_close_parts(out, _tables_expansion(basis, pts, c, order, cols), order)
            for a, b in zip(out[:order + 1], full):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("L", [8, 24])
def test_synthesis_matches_the_tables(L):
    # synthesis_jet of the synthesis matrix against the frame_derivs tables
    # contracted with the coefficients, at random points and at grid nodes,
    # on every column and on a subset that mixes parities and kinds; each
    # part bit-identical across orders
    basis = HarmonicBasis(3, L)
    rng = np.random.default_rng(L + 1)
    pts = rng.normal(size=(60, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = np.concatenate([pts, build_grid(3, L).pair_nodes])
    even, odd = basis.parity_columns
    for cols in (None, np.concatenate([odd[::3], even[1::2]])):
        c = rng.normal(size=basis.size if cols is None else len(cols))
        plan = basis.synthesis(c, cols)
        full = basis.synthesis_jet(pts, plan, 2)[0]
        for order in (0, 1, 2):
            out = basis.synthesis_jet(pts, plan, order)[0]
            _assert_close_parts(out, _tables_expansion(basis, pts, c, order, cols), order)
            for a, b in zip(out[:order + 1], full):
                assert np.array_equal(a, b)


def test_synthesis_at_and_near_the_poles():
    # nodes at both poles, with x or y -0.0, and points near them: the
    # longitude is arctan2(y, x) as in frame_derivs and tangent_frames, so
    # the frame parts and the returned (cos phi, sin phi) agree with both, on
    # every column and on orders m <= 2, where m/sin(theta) matters most
    basis = HarmonicBasis(3, 8)
    rng = np.random.default_rng(5)
    near = rng.normal(size=(20, 3)) * [1e-4, 1e-4, 1.0]
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    pts = np.concatenate([[[x, y, z] for z in (1.0, -1.0) for x, y in
                           ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0))], near])
    low = np.flatnonzero(basis._m <= 2)
    for cols in (None, low[::-1]):
        c = rng.normal(size=basis.size if cols is None else len(cols))
        for order in (0, 1, 2):
            out, (cp, sp) = basis.synthesis_jet(pts, basis.synthesis(c, cols), order)
            _assert_close_parts(out, _tables_expansion(basis, pts, c, order, cols), order)
            e_phi = tangent_frames(pts)[:, :, 1]
            assert np.array_equal(e_phi[:, 0], -sp) and np.array_equal(e_phi[:, 1], cp)


def test_synthesis_storage_is_bounded():
    # at most 6 (2L+1) rows on the nonzero Legendre entries, m <= l <= L+1:
    # O(parts (L+1) (L+2)^2) per plan
    L = 24
    basis = HarmonicBasis(3, L)
    keep, Mt = basis.synthesis(np.random.default_rng(0).normal(size=basis.size))
    assert Mt.shape == (len(keep), 6 * (2 * L + 1))
    assert len(keep) <= (L + 2) * (L + 3) // 2


def test_band_tables_rebuild_only_for_a_larger_band():
    # each parity block's tables are rebuilt only when the band asks for
    # more of its columns: band 5 adds odd columns only
    g = build_grid(3, 12)
    small = g.basis_tables(4)
    cached = g._tables
    assert [view[0].shape[1] for view in cached] == [15, 10]
    g.basis_tables(2)
    assert g._tables is cached
    g.basis_tables(5)
    assert g._tables[0] is cached[0] and g._tables[1] is not cached[1]
    assert [view[0].shape[1] for view in g._tables] == [15, 21]
    (B, _, _), (Bo, _, _) = g.basis_tables(8)
    assert [view[0].shape[1] for view in g._tables] == [45, 36]
    assert np.array_equal(B[:, :15], small[0][0])
    assert np.array_equal(Bo[:, :10], small[1][0])


def test_band_tables_reject_bands_outside_the_grid():
    g = build_grid(2, 8)
    for band in (-1, 9):
        with pytest.raises(ValueError, match="0..8"):
            g.basis_tables(band)
    assert g._tables is None


def test_band_tables_are_stored_only_once_filled(monkeypatch):
    # a build that fails leaves no unfilled tables in the cache: the next
    # read builds them again, bit for bit the tables of a fresh grid
    g = build_grid(3, 8)

    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(g, "_ring_rows", fail)
    with pytest.raises(MemoryError):
        g.basis_tables()
    assert g._tables is None
    monkeypatch.undo()
    for view, ref in zip(g.basis_tables(), build_grid(3, 8).basis_tables()):
        for T, R in zip(view, ref):
            assert np.array_equal(T, R)


def test_grid_with_unequal_antipodal_weights_is_rejected():
    g = build_grid(2, 8)
    w = g.weights.copy()
    w[0] *= 1.0 + 1e-15
    with pytest.raises(ValueError, match="equal weights"):
        SphereGrid(2, 8, g.nodes, w, g.antipodal_index, g.product_factors)


def _random_symmetric(rng, count, q, lam):
    Q = np.linalg.qr(rng.normal(size=(count, q, q)))[0]
    R = Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2))
    return 0.5 * (R + np.swapaxes(R, 1, 2))


def _frame_matrices(q):
    """Symmetric (q, q) matrices with indefinite, negative-definite,
    near-singular and nearly double spectra over eleven decades of scale,
    plus the zero matrix and -I."""
    rng = np.random.default_rng(3)
    count = 4000
    lam = rng.normal(size=(count, q)) * 10.0 ** rng.uniform(-8, 3, size=(count, 1))
    quarter = count // 4
    lam[:quarter, 0] = lam[:quarter, -1] * 10.0 ** rng.uniform(-16, -6, size=quarter)
    lam[quarter:2 * quarter] = -np.abs(lam[quarter:2 * quarter])
    lam[2 * quarter:3 * quarter, 0] = lam[2 * quarter:3 * quarter, -1] * (
        1.0 + 10.0 ** rng.uniform(-16, -3, size=quarter))
    R = _random_symmetric(rng, count, q, lam)
    return np.concatenate([R, np.zeros((1, q, q)), -np.eye(q)[None]])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_frame_eigvalsh_matches_eigvalsh(q):
    R = _frame_matrices(q)
    got, ref = frame_eigvalsh(R), np.linalg.eigvalsh(R)
    assert got.shape == ref.shape
    assert np.all(np.diff(got, axis=-1) >= 0)
    scale = np.maximum(np.abs(ref).max(axis=-1, keepdims=True), 1e-300)
    assert (np.abs(got - ref) / scale).max() <= 1e-15


def _exact_det(M):
    """Determinant of a small matrix of Fractions by cofactor expansion."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _exact_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


@pytest.mark.parametrize("q,tol", [(1, 0.0), (2, 1e-15), (3, 1e-13)])
def test_frame_det_matches_exact_det(q, tol):
    # errors relative to max|R_ij|^q, the scale of a determinant's rounding;
    # the reference is exact in rationals and rounded once.  np.linalg.det
    # (the q = 3 path) reads 3.6e-15 at q = 1 and 8.0e-15 at q = 2 here, as
    # it goes through an LU and exp(log |det|)
    R = _frame_matrices(q)
    got = frame_det(R)
    ref = np.array([float(_exact_det([[Fraction(x) for x in row] for row in M.tolist()]))
                    for M in R])
    assert got.shape == ref.shape
    scale = np.maximum(np.abs(R).max(axis=(-2, -1)) ** q, 1e-300)
    assert (np.abs(got - ref) / scale).max() <= tol


def _relative_residual(A, X, B):
    return (np.linalg.norm(B - A @ X, axis=(-2, -1))
            / (np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(X, axis=(-2, -1))))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("kind", ["spd", "indefinite", "near_singular", "mixed"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_frame_solve_matches_linalg_solve(q, kind, k):
    # k = 1 is the Newton step's right-hand side, k = 4 the implicit
    # Hessian's (q, n) one; judged by the residual relative to |A| |X|, the
    # measure of a backward-stable solve (Cramer's rule reaches ~2e-13 at
    # q = 2 on near-singular matrices, this elimination ~2e-16)
    rng = np.random.default_rng(17)
    if kind == "mixed":
        A = _frame_matrices(q)
        A = A[frame_det(A) != 0.0]
    else:
        count = 2000
        lam = rng.uniform(0.1, 10.0, size=(count, q))
        if kind == "indefinite":
            lam[:, ::2] *= -1.0
        if kind == "near_singular":
            lam[:, 0] = rng.choice([-1e-12, 1e-12], size=count) * lam[:, -1]
        A = _random_symmetric(rng, count, q, lam)
    B = rng.normal(size=(len(A), q, k))
    X = frame_solve(A, B)
    ref = np.linalg.solve(A, B)
    assert X.shape == ref.shape
    assert _relative_residual(A, X, B).max() <= 1e-15
    assert _relative_residual(A, ref, B).max() <= 1e-15


# ---------------------------------------------------------------------------
# spectral transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_analysis_synthesis_roundtrip(n):
    g = build_grid(n, 8)
    rng = np.random.default_rng(42)
    c = rng.normal(size=g.basis.size) * np.exp(-0.3 * g.basis.degrees)
    f = synthesize(g, c)
    c2 = analyze(f)
    assert np.abs(c2 - c).max() < 1e-10


@pytest.mark.parametrize("n,L", [pytest.param(2, 8, id="2"),
                                 pytest.param(3, 8, id="3"),
                                 pytest.param(3, 24, id="3-L24")])
def test_basis_orthonormal_under_quadrature(n, L):
    g = build_grid(n, L)
    B = _full_ambient_tables(g)[0]
    gram = B.T @ (g.weights[:, None] * B)
    assert np.abs(gram - np.eye(g.basis.size)).max() < 1e-10


# ---------------------------------------------------------------------------
# tangential derivatives
# ---------------------------------------------------------------------------


def test_gradient_of_constant_vanishes():
    g = build_grid(3, 8)
    f = ScalarField.from_values(g, np.full(g.node_count, 3.0))
    assert np.abs(tangential_gradient(f).vectors).max() < 1e-11
    assert np.abs(tangential_hessian(f).tensors).max() < 1e-11


def test_gradient_of_linear_field():
    g = build_grid(3, 8)
    e = np.array([0.0, 0.0, 1.0])
    f = ScalarField.from_values(g, g.nodes @ e)
    grad = tangential_gradient(f).vectors
    # grad of <theta,e> is the tangential projection of e
    proj = e[None, :] - (g.nodes @ e)[:, None] * g.nodes
    assert np.abs(grad - proj).max() < 1e-10


def test_hessian_of_linear_field_is_degree_one_identity():
    # degree-1 harmonic: covariant Hessian = -f * P_tangent
    g = build_grid(3, 8)
    e = np.array([1.0, 0.0, 0.0])
    f = ScalarField.from_values(g, g.nodes @ e)
    H = tangential_hessian(f).tensors
    P = np.eye(3)[None] - g.nodes[:, :, None] * g.nodes[:, None, :]
    expected = -(g.nodes @ e)[:, None, None] * P
    assert np.abs(H - expected).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_hessian_match_fd_oracle(n):
    # random band-8 field against the finite-difference oracle
    g = build_grid(n, 16)
    rng = np.random.default_rng(3)
    mask = g.basis.degrees <= 8
    c = np.where(mask, rng.normal(size=g.basis.size), 0.0)
    f = synthesize(g, c)

    def fn(x):
        return g.basis.frame_derivs(x, 0)[0] @ c

    grad = tangential_gradient(f).vectors
    grad_fd = fd_gradient_on_sphere(fn, g.nodes)
    assert np.abs(grad - grad_fd).max() < 1e-6

    hess = tangential_hessian(f).tensors
    hess_fd = fd_hessian_on_sphere(fn, g.nodes)
    assert np.abs(hess - hess_fd).max() < 1e-6


def test_derivative_fields_are_tangential():
    g = build_grid(3, 16)
    rng = np.random.default_rng(11)
    c = rng.normal(size=g.basis.size) * np.exp(-0.5 * g.basis.degrees)
    f = synthesize(g, c)
    grad = tangential_gradient(f).vectors
    radial = np.einsum("ik,ik->i", grad, g.nodes)
    scale = np.abs(grad).max()
    assert np.abs(radial).max() < 1e-10 * max(scale, 1.0)
    H = tangential_hessian(f).tensors
    Hrad = np.einsum("ikl,il->ik", H, g.nodes)
    assert np.abs(Hrad).max() < 1e-10 * max(np.abs(H).max(), 1.0)
    assert np.abs(H - H.transpose(0, 2, 1)).max() < 1e-12


@pytest.mark.parametrize("L", [16, 24])
def test_spherical_harmonics_eigenfunctions_of_laplacian(L):
    # closed-form check up to degree L/2
    g = build_grid(3, L)
    B = _full_ambient_tables(g)[0]
    for a in range(g.basis.size):
        l = g.basis.degrees[a]
        if l > g.band_limit // 2:
            continue
        f = ScalarField.from_values(g, B[:, a])
        lap = laplace_beltrami(f).values
        assert np.abs(lap + l * (l + 1) * B[:, a]).max() < 1e-8


def _scipy_real_harmonics(L, pts):
    """Real Y_lm, tangential gradients and covariant Hessians at off-pole
    points from scipy's complex harmonics, in the basis order (l, then m = 0,
    (1, cos), (1, sin), ...); the frame formulas divide by sin(theta)."""
    lm = np.array([(l, m) for l in range(L + 1) for m in range(l + 1)])
    theta = np.arccos(pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    y, dy, d2y = sph_harm_y(lm[:, :1], lm[:, 1:], theta, phi, diff_n=2)
    st, ct = np.sin(theta), np.cos(theta)
    cot = ct / st
    e_th = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=-1)
    e_ph = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    f_t, f_p = dy[..., 0], dy[..., 1]
    grad = (f_t[..., None] * e_th + (f_p / st)[..., None] * e_ph)
    tt = d2y[..., 0, 0]
    tp = (d2y[..., 0, 1] - cot * f_p) / st
    pp = d2y[..., 1, 1] / st**2 + cot * f_t
    oth = e_th[:, :, None] * e_th[:, None, :]
    oph = e_ph[:, :, None] * e_ph[:, None, :]
    oxm = e_th[:, :, None] * e_ph[:, None, :]
    hess = (tt[..., None, None] * oth + pp[..., None, None] * oph
            + tp[..., None, None] * (oxm + oxm.transpose(0, 2, 1)))
    out = []
    for q in (y, grad, hess):
        cols = []
        for k, (_, m) in enumerate(lm):
            if m == 0:
                cols.append(q[k].real)
            else:
                cols.extend([np.sqrt(2.0) * q[k].real, np.sqrt(2.0) * q[k].imag])
        out.append(np.stack(cols, axis=1))
    return out


@pytest.mark.parametrize("L", [8, 24])
def test_harmonic_basis_matches_scipy_convention(L):
    # sign and normalization of the real harmonics are those of sph_harm_y
    rng = np.random.default_rng(L)
    pts = rng.normal(size=(60, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts[np.abs(pts[:, 2]) < 0.99]
    ours = HarmonicBasis(3, L).eval_derivs(pts, order=2)
    for got, ref in zip(ours, _scipy_real_harmonics(L, pts)):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_circle_basis_matches_closed_form():
    # n=2: 1/sqrt(2 pi), cos(k t)/sqrt(pi), sin(k t)/sqrt(pi); gradients
    # f'(t) tau and Hessians f''(t) tau tau^t with tau = (-sin t, cos t);
    # measured <= 2.0e-16 relative to the largest entry
    L = 16
    s = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=40)
    pts = np.stack([np.cos(s), np.sin(s)], axis=1)
    t = np.arctan2(pts[:, 1], pts[:, 0])  # the angle the points carry
    tau = np.stack([-np.sin(t), np.cos(t)], axis=1)
    k = np.arange(1, L + 1)[None, :]
    kt = k * t[:, None]
    f, df, d2f = (np.full((len(t), 2 * L + 1), 0.0) for _ in range(3))
    f[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
    f[:, 1::2], f[:, 2::2] = np.cos(kt) / np.sqrt(np.pi), np.sin(kt) / np.sqrt(np.pi)
    df[:, 1::2], df[:, 2::2] = -k * f[:, 2::2], k * f[:, 1::2]
    d2f[:, 1:] = -np.repeat(k, 2, axis=1) ** 2 * f[:, 1:]
    refs = (f, df[:, :, None] * tau[:, None, :],
            d2f[:, :, None, None] * (tau[:, None, :, None] * tau[:, None, None, :]))
    for got, ref in zip(HarmonicBasis(2, L).eval_derivs(pts, order=2), refs):
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("L", [8, 16])
def test_derivatives_exact_at_and_near_poles(L):
    basis = HarmonicBasis(3, L)
    rng = np.random.default_rng(L)
    c = rng.normal(size=basis.size) * np.exp(-0.3 * basis.degrees)

    def fn(x):
        return basis.frame_derivs(x, 0)[0] @ c

    t = 1e-6
    pts = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [np.sin(t) * np.cos(1.0), np.sin(t) * np.sin(1.0), np.cos(t)],
        [-np.sin(t), 0.0, -np.cos(t)],
    ])
    _, G, H = basis.eval_derivs(pts, order=2)
    grad = np.einsum("iak,a->ik", G, c)
    hess = np.einsum("iakl,a->ikl", H, c)
    assert np.abs(grad - fd_gradient_on_sphere(fn, pts)).max() < 1e-6
    assert np.abs(hess - fd_hessian_on_sphere(fn, pts)).max() < 1e-6


def test_divergence_identity():
    # int <grad f, grad g> dm = -int f * (Laplace-Beltrami g) dm
    for n in (2, 3):
        g = build_grid(n, 16)
        rng = np.random.default_rng(n + 5)
        damp = np.exp(-0.4 * g.basis.degrees)
        cf = rng.normal(size=g.basis.size) * damp
        cg = rng.normal(size=g.basis.size) * damp
        f = synthesize(g, cf)
        h = synthesize(g, cg)
        gf = tangential_gradient(f).vectors
        gh = tangential_gradient(h).vectors
        lhs = g.weights @ np.einsum("ik,ik->i", gf, gh)
        rhs = -(g.weights @ (f.values * laplace_beltrami(h).values))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1e-12)


def test_tail_warning_for_rough_field():
    g = build_grid(2, 8)
    # sawtooth-like field far above the band limit
    t = np.arctan2(g.nodes[:, 1], g.nodes[:, 0])
    f = ScalarField.from_values(g, np.sign(np.sin(17.0 * t)) + np.cos(t))
    assert tangential_gradient(f).tail_warning
