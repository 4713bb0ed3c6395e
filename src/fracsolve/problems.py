"""Built-in test problems with known exact solutions.

Registry ids:
    r11            relaxation, alpha=0.5, B=1, manufactured solution x^2
    r12            relaxation, alpha=0.5, B=1, manufactured solution x^1.25
                   (unbounded second derivative at 0)
    relax-mlexact  homogeneous relaxation, exact solution E_alpha(-B x^alpha)
    s2             subdiffusion, alpha=0.5, exact sin(x) E_0.5(-t^0.5)
    s03            subdiffusion, alpha=0.3, exact sin(x) E_0.3(-t^0.3)

A family is the one place that chooses a solver: `family.solve(step, scheme,
m)` runs the plain scheme when m is None and the start-up corrected solver of
degree m otherwise, and `family.error(solution)` is the maximum error against
the exact solution that the convergence harness reports.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import relaxation, subdiffusion
from .caputo import Scheme
from .relaxation import PowerSum, RelaxationProblem, TimeSeries
from .specfun import ml_relaxation_exact
from .subdiffusion import (SineMode, SpaceTimeSolution, SubdiffusionProblem,
                           exact_single_mode)

__all__ = [
    "RelaxationFamily",
    "SubdiffusionFamily",
    "RELAXATION_IDS",
    "SUBDIFFUSION_IDS",
    "PROBLEM_IDS",
    "relaxation_family",
    "subdiffusion_family",
]

RELAXATION_IDS = ("r11", "r12", "relax-mlexact")
SUBDIFFUSION_IDS = ("s2", "s03")
PROBLEM_IDS = RELAXATION_IDS + SUBDIFFUSION_IDS

_FIXED_ALPHA = {"r11": 0.5, "r12": 0.5, "s2": 0.5, "s03": 0.3}


@dataclass(frozen=True)
class RelaxationFamily:
    """A relaxation problem family: data plus its exact solution on a grid."""

    name: str
    alpha: float
    B: float
    forcing: PowerSum | None
    y0: float
    exact: Callable[[np.ndarray], np.ndarray]
    T: float = 1.0

    def solve(self, step: float, scheme: Scheme,
              m: int | None = None) -> TimeSeries:
        """Solution on [0, T] with step `step`: the plain scheme when m is
        None, else the corrected solver of degree m, which applies to the
        homogeneous problem with y0 = 1 only."""
        if m is None:
            problem = RelaxationProblem(alpha=self.alpha, B=self.B,
                                        forcing=self.forcing, y0=self.y0,
                                        T=self.T, h=step)
            return relaxation.solve(problem, scheme)
        if self.forcing is not None or self.y0 != 1.0:
            raise ValueError(
                f"correction applies to the homogeneous problem only, "
                f"not {self.name}")
        return relaxation.solve_corrected(self.alpha, self.B, m, self.T,
                                          step, scheme)

    def error(self, series: TimeSeries) -> float:
        """Maximum of |exact(x_n) - v_n| over the grid nodes n >= 1 (node 0
        is exact by construction)."""
        x = series.x
        return float(np.max(np.abs(series.values[1:] - self.exact(x[1:]))))


@dataclass(frozen=True)
class SubdiffusionFamily:
    """A subdiffusion problem family: initial profile sin(x) plus the exact
    solution profile at a given time."""

    name: str
    alpha: float
    exact: Callable[[np.ndarray, float], np.ndarray]
    T: float = 1.0

    def solve(self, step: float, scheme: Scheme, m: int | None = None,
              N: int | None = None) -> SpaceTimeSolution:
        """Solution on M = T / step time levels and N space intervals, by
        default N = 3 M (h = pi step / (3 T)): the plain scheme when m is
        None, else the corrected solver of degree m.  The step must divide T
        into whole steps."""
        M = round(self.T / step)
        if M < 1 or abs(M * step - self.T) > 1e-9 * self.T:
            raise ValueError(f"tau = {step} does not divide T = {self.T}")
        N = 3 * M if N is None else N
        if m is None:
            problem = SubdiffusionProblem(alpha=self.alpha, N=N, M=M, T=self.T,
                                          initial=SineMode(1))
            return subdiffusion.solve(problem, scheme)
        return subdiffusion.solve_corrected(self.alpha, m, self.T, N, M, scheme)

    def error(self, solution: SpaceTimeSolution) -> float:
        """Maximum error over the interior space nodes at the final time."""
        x = solution.x[1:-1]
        return float(np.max(np.abs(solution.final[1:-1] - self.exact(x, self.T))))


def _check_fixed(pid: str, alpha: float | None, B: float | None) -> None:
    fixed = _FIXED_ALPHA[pid]
    if alpha is not None and alpha != fixed:
        raise ValueError(f"problem {pid!r} has fixed alpha = {fixed}")
    if B is not None and B != 1.0:
        raise ValueError(f"problem {pid!r} has fixed B = 1")


def _mlexact_curve(alpha: float, B: float):
    def exact(x):
        return ml_relaxation_exact(alpha, B, np.atleast_1d(x))
    return exact


def relaxation_family(pid: str, alpha: float | None = None,
                      B: float | None = None) -> RelaxationFamily:
    """Look up a relaxation problem family by id.

    r11 and r12 are fully determined; relax-mlexact takes alpha and B.
    """
    if pid == "r11":
        _check_fixed(pid, alpha, B)
        forcing = PowerSum(((1.0, 2.0), (8.0 / (3.0 * math.sqrt(math.pi)), 1.5)))
        return RelaxationFamily("r11", 0.5, 1.0, forcing, 0.0,
                                lambda x: np.asarray(x, dtype=float) ** 2)
    if pid == "r12":
        _check_fixed(pid, alpha, B)
        c = 5.0 * math.sqrt(2.0) / (24.0 * math.pi) * math.gamma(0.25) ** 2
        forcing = PowerSum(((1.0, 1.25), (c, 0.75)))
        return RelaxationFamily("r12", 0.5, 1.0, forcing, 0.0,
                                lambda x: np.asarray(x, dtype=float) ** 1.25)
    if pid == "relax-mlexact":
        if alpha is None:
            raise ValueError("relax-mlexact requires alpha")
        B = 1.0 if B is None else B
        return RelaxationFamily(f"relax-mlexact(alpha={alpha}, B={B})",
                                alpha, B, None, 1.0, _mlexact_curve(alpha, B))
    raise KeyError(f"unknown relaxation problem {pid!r}; "
                   f"known ids: {RELAXATION_IDS}")


def subdiffusion_family(pid: str | None,
                        alpha: float | None = None) -> SubdiffusionFamily:
    """Look up a subdiffusion problem family by id (s2 or s03), or with pid
    None the single-mode problem of the given alpha."""
    if pid is not None:
        if pid not in SUBDIFFUSION_IDS:
            raise KeyError(f"unknown subdiffusion problem {pid!r}; "
                           f"known ids: {SUBDIFFUSION_IDS}")
        _check_fixed(pid, alpha, None)
        alpha = _FIXED_ALPHA[pid]
    elif alpha is None:
        raise ValueError("a subdiffusion problem needs an id or alpha")
    name = pid or f"single-mode(alpha={alpha})"
    return SubdiffusionFamily(name, alpha, partial(exact_single_mode, alpha, 1))
