"""Optimal control constrained by fractional powers of elliptic operators.

The fractional operator is realized as the Dirichlet-to-Neumann map of a
degenerate elliptic problem on a cylinder in one extra dimension; the
cylinder is truncated, meshed by tensor products with a graded partition in
the extended variable, and the box-constrained control problem is solved by
one projected descent loop in either a fully discrete (piecewise-constant
control) or variational (undiscretized control) formulation.
"""

from .control import *
from .fem import *
from .manufactured import *
from .meshes import *
from .spectral import *
from .study import *

__version__ = "0.1.0"
