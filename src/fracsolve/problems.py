"""Built-in test problems with known exact solutions.

Registry ids:
    r11            relaxation, alpha=0.5, B=1, manufactured solution x^2
    r12            relaxation, alpha=0.5, B=1, manufactured solution x^1.25
                   (unbounded second derivative at 0)
    relax-mlexact  homogeneous relaxation, exact solution E_alpha(-B x^alpha)
    s2             subdiffusion, alpha=0.5, exact sin(x) E_0.5(-t^0.5)
    s03            subdiffusion, alpha=0.3, exact sin(x) E_0.3(-t^0.3)
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .relaxation import PowerSum
from .specfun import ml_relaxation_exact
from .subdiffusion import exact_single_mode

__all__ = [
    "RelaxationFamily",
    "SubdiffusionFamily",
    "require_homogeneous",
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


def require_homogeneous(family: RelaxationFamily) -> None:
    """Reject a family that the start-up correction does not apply to: it
    needs the homogeneous problem with y0 = 1."""
    if family.forcing is not None or family.y0 != 1.0:
        raise ValueError(
            f"correction applies to the homogeneous problem only, "
            f"not {family.name}")


@dataclass(frozen=True)
class SubdiffusionFamily:
    """A subdiffusion problem family: single-mode initial data plus the exact
    solution profile at a given time."""

    name: str
    alpha: float
    exact: Callable[[np.ndarray, float], np.ndarray]
    mode: int = 1
    T: float = 1.0
    amplitude: float = 1.0


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


def subdiffusion_family(pid: str, alpha: float | None = None) -> SubdiffusionFamily:
    """Look up a subdiffusion problem family by id (s2 or s03)."""
    if pid not in SUBDIFFUSION_IDS:
        raise KeyError(f"unknown subdiffusion problem {pid!r}; "
                       f"known ids: {SUBDIFFUSION_IDS}")
    _check_fixed(pid, alpha, None)
    a = _FIXED_ALPHA[pid]
    return SubdiffusionFamily(pid, a, partial(exact_single_mode, a, 1))
