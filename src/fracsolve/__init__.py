"""Solvers for the fractional relaxation and subdiffusion equations.

The package discretizes the Caputo derivative with the L1 and modified-L1
schemes, corrects the start-up singularity of the solutions with fractional
Taylor polynomials, and measures empirical convergence orders over
step-halving ladders.

Solvers live in the `relaxation` and `subdiffusion` modules; `harness` runs
convergence studies over the built-in `problems`; the `fracsolve` console
script fronts all of it.
"""

from . import caputo, harness, problems, relaxation, subdiffusion, specfun
from .caputo import (Scheme, caputo_apply, caputo_power_rule, l1_weights,
                     ml1_weights)
from .harness import Coupling, Ladder, estimate_order
from .relaxation import PowerSum, RelaxationProblem, TimeSeries, choose_m, taylor_poly
from .specfun import (ConvergenceError, mittag_leffler, ml_relaxation_exact,
                      zeta_unit_strip)
from .subdiffusion import SpaceTimeSolution, SubdiffusionProblem, thomas_solve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "caputo", "harness", "problems", "relaxation", "subdiffusion", "specfun",
    "Scheme", "l1_weights", "ml1_weights",
    "caputo_apply", "caputo_power_rule",
    "ConvergenceError", "zeta_unit_strip",
    "mittag_leffler", "ml_relaxation_exact",
    "PowerSum", "RelaxationProblem", "TimeSeries", "choose_m", "taylor_poly",
    "SubdiffusionProblem", "SpaceTimeSolution", "thomas_solve",
    "Ladder", "Coupling", "estimate_order",
]
