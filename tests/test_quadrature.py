import numpy as np
import pytest

from nugs.analysis import concentration_matrix
from nugs.errors import QuadratureError
from nugs.fourier import FunctionSpec, l2_error, project, transform_integrals
from nugs.spaces import SpaceSpec, build_basis

_F = FunctionSpec.benchmark()
_BASIS = build_basis(SpaceSpec.legendre(2))

# a negative tolerance no two estimates can meet, so refinement runs out
UNATTAINABLE = {
    "transform": lambda: transform_integrals(_F, [0.0, 3.0], abs_tol=-1.0),
    "projection": lambda: project(_F, _BASIS, abs_tol=-1.0),
    "L2 error": lambda: l2_error(_F, np.zeros(3), _BASIS, tol=-1.0),
    "concentration": lambda: concentration_matrix(_BASIS, 2.0, abs_tol=-1.0),
}


@pytest.mark.parametrize("what", sorted(UNATTAINABLE))
def test_unattainable_tolerance_raises_quadrature_error(what):
    with pytest.raises(QuadratureError, match=f"^{what} .*did not converge at panel width"):
        UNATTAINABLE[what]()
