"""calab: a numerical laboratory for the centro-affine geometry of convex bodies.

Computes support-function geometry, the Hilbert-Brunn-Minkowski spectrum,
centro-affine invariants and Bochner identities, curvature-pinching thresholds,
the smoothing construction for isomorphic bounds, and a variational solver for
the discrete even L^p-Minkowski problem.  The package root exports the names
of the README quick start; everything else is imported from its module
(calab.sphere, calab.bodies, calab.calculus, calab.spectral, calab.pinching,
calab.isomorphic, calab.minkowski, calab.cli).
"""

from calab.sphere import build_grid
from calab.bodies import ellipsoid, evaluate_on_grid
from calab.calculus import build_state
from calab.spectral import GalerkinBasis, assemble, solve_spectrum

__version__ = "0.1.0"
