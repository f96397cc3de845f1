"""calab: a numerical laboratory for the centro-affine geometry of convex bodies.

Computes support-function geometry, the Hilbert-Brunn-Minkowski spectrum,
centro-affine invariants and Bochner identities, curvature-pinching thresholds,
the smoothing construction for isomorphic bounds, and a variational solver for
the discrete even L^p-Minkowski problem.
"""

from calab.sphere import (
    SphereGrid,
    ScalarField,
    TangentField,
    TangentTensorField,
    build_grid,
    quadrature,
    tangential_gradient,
    tangential_hessian,
    parity_split,
)
from calab.bodies import (
    BodyEvaluator,
    BodyOnGrid,
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
from calab.calculus import (
    CentroAffineState,
    build_state,
    conjugate_hessian,
    hbm_apply,
    conjugate_christoffels,
    ricci_star_check,
    duality_isometry_check,
)
from calab.spectral import (
    GalerkinBasis,
    GalerkinSystem,
    SpectrumReport,
    assemble,
    solve_spectrum,
    spectrum_of_body,
    bochner_residual,
    discrete_bochner_residual,
    hessian_gap_even,
    invariance_check,
)
from calab.pinching import (
    PinchingReport,
    john_position,
    measure_pinching,
    threshold_main,
    threshold_strong,
    optimize_image,
    spectral_consistency,
)
from calab.isomorphic import (
    IsoParams,
    predicted_params,
    construct,
    direct_route_support,
    verify,
    p_gamma_D,
    isometric_gamma,
    geometric_distance,
)
from calab.minkowski import (
    TargetMeasure,
    SolveOptions,
    SolveResult,
    functional,
    minimize,
    uniqueness_probe,
    minkowski_inequality_gap,
)

__version__ = "0.1.0"
