"""Solvers for the fractional relaxation and subdiffusion equations.

The package discretizes the Caputo derivative with the L1 and modified-L1
schemes, corrects the start-up singularity of the solutions with fractional
Taylor polynomials, and measures empirical convergence orders over
step-halving ladders.

Solvers live in the `relaxation` and `subdiffusion` modules; `harness` runs
convergence studies over the built-in `problems`; the `fracsolve` console
script fronts all of it.  Every function and class is reached through its
module; the four names below are also kept at the top level.
"""

from . import caputo, harness, problems, relaxation, subdiffusion, specfun
from .caputo import Scheme
from .relaxation import RelaxationProblem
from .specfun import ConvergenceError
from .subdiffusion import SubdiffusionProblem

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "caputo", "harness", "problems", "relaxation", "subdiffusion", "specfun",
    "Scheme", "RelaxationProblem", "SubdiffusionProblem", "ConvergenceError",
]
