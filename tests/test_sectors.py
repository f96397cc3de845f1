"""Sign-sector Galerkin blocks for bodies invariant under every coordinate flip.

A body that states sign_symmetric is assembled one block per (parity, sign
sector), each summed over the grid's flip-orbit representatives weighted by
their orbit sizes; any other body one block per parity over every pair row.
The reference for the sector path is the whole-block path on the same body,
reached through a wrapper that claims no symmetry.
"""

import numpy as np
import pytest

from calab import spectral
from calab.bodies import (BodyEvaluator, LqNormBody, ball, ellipsoid, evaluate_on_grid,
                          firey_sum, linear_image, lq_gauge_body, perturbed_ball, polar)
from calab.calculus import build_state
from calab.isomorphic import construct
from calab.spectral import GalerkinBasis, assemble, hessian_gap_even, solve_spectrum
from calab.sphere import HarmonicBasis, build_grid, sign_fold

from oracles import full_matrix


class Unfolded(BodyEvaluator):
    """The body, claiming no sign symmetry: assembled on whole parity blocks."""

    def __init__(self, body):
        super().__init__(body.n, body.label)
        self.body = body

    def jet(self, X, order=2):
        return self.body.jet(X, order)


def _system(body, grid, band):
    return assemble(build_state(evaluate_on_grid(body, grid)), GalerkinBasis(grid, band))


def _bipolar(n, grid):
    """polar(0.1 B + B_{4/3}), B_{4/3} the unit l_{4/3} ball (h = ||.||_4)."""
    return polar(firey_sum(0.1, ball(1.0, n), 1.0, LqNormBody(4, n), 1.0), grid)


# ---------------------------------------------------------------------------
# the sector path against the whole block
# ---------------------------------------------------------------------------

# LqNormBody(4, n) is not strongly convex (D^2 h vanishes on the axes, where
# flip-exact grids have nodes), so it enters through 0.1 B + B_{4/3}
SECTOR_CASES = {
    "ball-n2-256": lambda: (ball(1.0, 2), build_grid(2, 62, 256), 62),
    "ball-n2-258": lambda: (ball(1.0, 2), build_grid(2, 62, 258), 62),
    "ball-n3-L16": lambda: (ball(1.0, 3), build_grid(3, 16), 16),
    "ball-n3-L24": lambda: (ball(1.0, 3), build_grid(3, 24), 16),
    "ellipsoid-L16": lambda: (ellipsoid(np.diag([2.0, 1.0, 0.7])), build_grid(3, 16), 16),
    "ellipsoid-L24": lambda: (ellipsoid(np.diag([2.0, 1.0, 0.7])), build_grid(3, 24), 16),
    "l4-sum-L16": lambda: (firey_sum(0.1, ball(1.0, 3), 1.0, LqNormBody(4, 3), 1.0),
                           build_grid(3, 16), 16),
    "l4-sum-L24": lambda: (firey_sum(0.1, ball(1.0, 3), 1.0, LqNormBody(4, 3), 1.0),
                           build_grid(3, 24), 16),
    "bipolar-L16": lambda: (lambda g: (_bipolar(3, g), g, 16))(build_grid(3, 16)),
    "bipolar-L24": lambda: (lambda g: (_bipolar(3, g), g, 16))(build_grid(3, 24)),
}


def _relative(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))


@pytest.mark.parametrize("case", list(SECTOR_CASES))
def test_sector_path_matches_the_whole_block(case):
    # 2^n sector blocks against the two parity blocks of the same body: the
    # k=12 spectra ('all' and 'even-nonconstant'), lambda1_even and the
    # Hessian gap agree to 1e-11 relative; the sector eigenpairs have
    # residuals <= 1e-10 and are mass-orthonormal
    body, grid, band = SECTOR_CASES[case]()
    assert body.sign_symmetric
    sectors, whole = _system(body, grid, band), _system(Unfolded(body), grid, band)
    n = grid.n
    assert len(sectors.blocks) == 2 ** n and len(whole.blocks) == 2
    assert sectors.parities == (1,) * 2 ** (n - 1) + (-1,) * 2 ** (n - 1)
    assert sectors.blocks[0][0] == 0
    for subspace in ("all", "even-nonconstant"):
        got = solve_spectrum(sectors, k=12, subspace=subspace)
        ref = solve_spectrum(whole, k=12, subspace=subspace)
        assert _relative(got.eigenvalues, ref.eigenvalues) <= 1e-11, subspace
        assert _relative(got.lambda1_even, ref.lambda1_even) <= 1e-11, subspace
        assert got.residuals.max() <= 1e-10
        V, M = got.eigenvectors, full_matrix(sectors, sectors.mass)
        assert np.abs(V.T @ M @ V - np.eye(V.shape[1])).max() <= 1e-10
    assert _relative(hessian_gap_even(sectors), hessian_gap_even(whole)) <= 1e-11


def test_sector_blocks_read_only_the_orbit_rows(monkeypatch):
    # each sector block streams the flip-orbit representatives, a quarter of
    # the pair rows at n=3, and the whole block every pair row
    grid = build_grid(3, 12)
    seen = []
    chunks = grid.row_chunks
    monkeypatch.setattr(grid, "row_chunks", lambda *a, **k: (
        seen.append(sum(r.stop - r.start for r, _ in chunks(*a, **k))) or chunks(*a, **k)))
    _system(ball(1.0, 3), grid, 12)
    assert seen == [len(grid.flip_orbits()[0])] * 8
    seen.clear()
    _system(perturbed_ball(3, 0.1), grid, 12)
    assert seen == [grid.node_count // 2] * 2


# ---------------------------------------------------------------------------
# the fold and the labels
# ---------------------------------------------------------------------------

GRIDS = {"n2-64": (2, 14, 64), "n2-256": (2, 62, 256), "n2-258": (2, 62, 258),
         "n3-L4": (3, 4, None), "n3-L16": (3, 16, None), "n3-L24": (3, 24, None)}


@pytest.mark.parametrize("name", list(GRIDS))
def test_flip_orbits_are_the_sign_fold_of_the_pair_nodes(name):
    # the representatives and sizes are sign_fold's first rows and orbit
    # counts, and the folded weights sum to the pair weights
    g = build_grid(*GRIDS[name])
    first, sizes, rings, lons = g.flip_orbits()
    ref_first, inverse, _ = sign_fold(g.pair_nodes, flips=True)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(sizes, np.bincount(inverse))
    assert len(first) == rings * lons
    total = g.pair_weights.sum()
    assert abs(sizes @ g.pair_weights[first] - total) <= 1e-15 * total


@pytest.mark.parametrize("args", [(3, 16, None), (3, 24, None), (2, 16, None), (2, 62, 256)],
                         ids=["n3-L16", "n3-L24", "n2-L16", "n2-256"])
def test_flip_orbits_fold_the_pair_nodes_as_the_full_grid_does(args):
    # flip_orbits folds the pair nodes alone; every orbit holds a pair node,
    # so its representatives and sizes are those of the grid's cached fold
    # of every node, read on the pair nodes
    g = build_grid(*args)
    first, sizes, _, _ = g.flip_orbits()
    full_first, inverse, _ = g.sign_fold(True)
    assert np.array_equal(first, full_first)
    assert np.array_equal(sizes, np.bincount(inverse[:len(g.pair_weights)]))


@pytest.mark.parametrize("name", list(GRIDS))
def test_sector_labels_are_the_flip_characters(name):
    # f_a(S u) = chi_a(S) f_a(u) for each coordinate flip S, on the nodes,
    # to 1e-13 of each column's largest value: chi_a(S_i) = -1 when bit i of
    # the column's sector is set (i < n-1), and the last flip's sign is the
    # parity times the others'
    n, L, nodes = GRIDS[name]
    g = build_grid(n, L, nodes)
    basis = g.basis
    B = basis.frame_derivs(g.nodes, 0)[0]
    scale = np.abs(B).max(axis=0)
    last = basis.parity.copy()
    for i in range(n):
        S = np.ones(n)
        S[i] = -1.0
        if i < n - 1:
            chi = np.where(basis.sectors >> i & 1, -1, 1)
            last = last * chi
        else:
            chi = last
        flipped = basis.frame_derivs(g.nodes * S, 0)[0]
        assert np.all(np.abs(flipped - chi * B) <= 1e-13 * scale), i


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("L", [0, 1, 4, 13, 24])
def test_flip_invariant_is_the_even_all_plus_sector(n, L):
    # the mask is the cosines cos m phi N P_lm with l and m even at n=3, and
    # the cosines of even degree at n=2, from the modes enumerated here
    if n == 2:
        modes = [(0, 0, 0)] + [(k, k, kind) for k in range(1, L + 1) for kind in (0, 1)]
    else:
        modes = [(l, m, kind) for l in range(L + 1) for m in range(l + 1)
                 for kind in ((0,) if m == 0 else (0, 1))]
    l, m, kind = np.array(modes).T
    basis = HarmonicBasis(n, L)
    assert np.array_equal(basis.flip_invariant, (kind == 0) & (m % 2 == 0) & (l % 2 == 0))
    assert np.array_equal(basis.flip_invariant, (basis.parity > 0) & (basis.sectors == 0))
    # the sector blocks partition each parity block, in degree order
    for p, cols in zip((1, -1), basis.parity_columns):
        parts = [c for c in basis.blocks(True) if len(c) and basis.parity[c[0]] == p]
        assert np.array_equal(np.sort(np.concatenate(parts or [cols[:0]])), cols)


def _symmetric_families(n, g):
    """A body of each family that states sign symmetry and is strongly convex:
    LqNormBody enters through Firey sums, being flat on the axes itself."""
    E = ellipsoid(np.diag([1.5, 1.0, 0.8][:n]))
    even = {2: [(2, 0, 1.0), (4, 0, 0.3)], 3: [(2, 0, 1.0), (2, 2, 0.5), (4, 4, 0.2)]}[n]
    spectral_body = perturbed_ball(n, 0.1, coeffs=even)
    return {
        "ball": ball(1.3, n),
        "ellipsoid_diag": E,
        "spectral_cosines": spectral_body,
        "lq_norm_sum": firey_sum(0.1, ball(1.0, n), 1.0, LqNormBody(4, n), 1.0),
        "firey": firey_sum(1.0, E, 0.8, spectral_body, 2.0),
        "polar_ellipsoid": polar(E, g),
        "polar_spectral": polar(spectral_body, g),
        "bipolar_l43": _bipolar(n, g),
        "linear_image_diag": linear_image(E, np.diag([1.0, 0.5, 2.0][:n])),
        "smoothed_lq4": construct(lq_gauge_body(4, n), g, 0.5, 0.3)[0],
    }


@pytest.mark.parametrize("n,L,nodes", [(2, 30, 128), (3, 12, None)])
def test_stated_symmetry_splits_the_whole_blocks_by_sector(n, L, nodes):
    # the sector path trusts sign_symmetric: on every family that states it,
    # the whole parity blocks' stiffness, mass and Hessian forms vanish
    # between sectors to 1e-12 of each block's largest entry
    g = build_grid(n, L, nodes)
    for name, body in _symmetric_families(n, g).items():
        assert body.sign_symmetric, name
        whole = _system(Unfolded(body), g, L)
        for block, cols in enumerate(whole.blocks):
            sector = g.basis.sectors[cols]
            cross = sector[:, None] != sector[None, :]
            for A in (whole.stiffness[block], whole.mass[block],
                      spectral._hessian_form(whole, block)):
                assert np.abs(A[cross]).max() <= 1e-12 * np.abs(A).max(), name
