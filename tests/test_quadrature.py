import numpy as np
import pytest

from nugs import analysis, fourier
from nugs.analysis import concentration_matrix
from nugs.errors import QuadratureError
from nugs.fourier import FunctionSpec, l2_error, project, transform_integrals
from nugs.spaces import SpaceSpec, build_basis

_F = FunctionSpec.benchmark()
_BASIS = build_basis(SpaceSpec.legendre(2))

# each quadrature with the module constant of its tolerance
UNATTAINABLE = {
    "transform": (fourier, "_TRANSFORM_TOL", lambda: transform_integrals(_F, [0.0, 3.0])),
    "projection": (fourier, "_TRANSFORM_TOL", lambda: project(_F, _BASIS)),
    "L2 error": (fourier, "_L2_TOL", lambda: l2_error(_F, np.zeros(3), _BASIS)),
    "concentration": (analysis, "_CONCENTRATION_TOL",
                      lambda: concentration_matrix(_BASIS, 2.0)),
}


@pytest.mark.parametrize("what", sorted(UNATTAINABLE))
def test_unattainable_tolerance_raises_quadrature_error(what, monkeypatch):
    module, name, run = UNATTAINABLE[what]
    # a negative tolerance no two estimates can meet, so refinement runs out
    monkeypatch.setattr(module, name, -1.0)
    with pytest.raises(QuadratureError, match=f"^{what} .*did not converge at panel width"):
        run()
