"""calab's records: immutable, with pinned to_dict keys and lean reprs.

The plain records are typing.NamedTuples; GalerkinBasis and SpectrumReport
are small immutable classes.  Setting a field of any of them raises
AttributeError, the to_dict keys that the commands write keep their order,
and the repr of a system or a spectrum report leaves out the state and the
system behind it.
"""

import functools

import numpy as np
import pytest

from calab import acceptance, bodies, calculus, isomorphic, minkowski, pinching, spectral
from calab.sphere import (ScalarField, build_grid, tangential_gradient,
                          tangential_hessian)


@functools.cache
def _records():
    grid = build_grid(2, 8)
    bg = bodies.evaluate_on_grid(bodies.ellipsoid(np.diag([1.5, 1.0])), grid)
    state = calculus.build_state(bg)
    field = ScalarField.from_values(grid, grid.nodes[:, 0] ** 2)
    system = spectral.assemble(state, spectral.GalerkinBasis(grid, 6))
    return {
        "ScalarField": field,
        "TangentField": tangential_gradient(field),
        "TangentTensorField": tangential_hessian(field),
        "BodyOnGrid": bg,
        "Quantities": bodies.quantities(bg),
        "CentroAffineState": state,
        "IsoParams": isomorphic.predicted_params(2, 0.5, 1.0, 1.5),
        "PinchingReport": pinching.measure_pinching(bg),
        "TargetMeasure": minkowski.TargetMeasure.from_body(bg, 0.5),
        "SolveResult": minkowski.SolveResult(np.zeros(3), 2, 2, 0.0, 0.0, 0, True, 1.0),
        "GalerkinBasis": system.basis,
        "GalerkinSystem": system,
        "SpectrumReport": spectral.solve_spectrum(system, k=4),
        "Check": acceptance.Check("check", 1.0, 1.0, 0.0, True),
    }


# the to_dict keys, in the order the commands write them
TO_DICT_KEYS = {
    "PinchingReport": ["n", "r_curv", "R_curv", "A", "B", "r_in", "R_out",
                       "p_main", "p_strong", "admissible"],
    "IsoParams": ["n", "alpha", "beta", "D", "r", "R", "A", "B", "dbm_bound"],
    "SolveResult": ["band", "dimension", "value", "el_residual", "iterations",
                    "converged", "normalization", "coefficients", "message"],
    "SpectrumReport": ["eigenvalues", "multiplicities", "lambda1", "lambda1_even",
                       "max_residual", "subspace"],
    "Check": ["name", "value", "expected", "tolerance", "passed"],
}

# the fields of the two records that are not NamedTuples
FIELDS = {
    "GalerkinBasis": ["grid", "degree_max"],
    "SpectrumReport": ["eigenvalues", "lambda1", "lambda1_even", "subspace",
                       "_system", "_selected"],
}

# what a repr leaves out: the field, and the record it holds
HIDDEN = {
    "GalerkinSystem": ["state=", "CentroAffineState("],
    "SpectrumReport": ["_system=", "_selected=", "GalerkinSystem("],
}


@pytest.mark.parametrize("name", [
    "ScalarField", "TangentField", "TangentTensorField", "BodyOnGrid", "Quantities",
    "CentroAffineState", "IsoParams", "PinchingReport", "TargetMeasure", "SolveResult",
    "GalerkinBasis", "GalerkinSystem", "SpectrumReport", "Check"])
def test_record_is_immutable_with_pinned_keys_and_repr(name):
    record = _records()[name]
    assert type(record).__name__ == name
    fields = FIELDS.get(name) or record._fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    if name in TO_DICT_KEYS:
        assert list(record.to_dict()) == TO_DICT_KEYS[name]
    text = repr(record)
    assert text.startswith(f"{name}({fields[0]}=")
    for hidden in HIDDEN.get(name, ()):
        assert hidden not in text
