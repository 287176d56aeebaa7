"""Quadrature statistics of zero-mean single-mode Gaussian states.

Simulation of phase-scanned homodyne and double-homodyne measurements,
three estimators of the squeezing triple (s, kappa, phi_s), the matching
variance bounds, and a Monte Carlo harness that checks which estimator
saturates which bound.

The package exports every public name of those five modules, as each
module's ``__all__`` declares it.
"""

from . import model, bounds, estimators, simulate, montecarlo
from .model import *
from .bounds import *
from .estimators import *
from .simulate import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *bounds.__all__,
    *estimators.__all__,
    *simulate.__all__,
    *montecarlo.__all__,
    "__version__",
]
