"""Fractional relaxation equation solvers.

Solves y^(alpha)(x) + B y(x) = F(x) on [0, T] with y(0) = y0 using the L1 or
modified-L1 discretization of the Caputo derivative.  The homogeneous
problem's solution E_alpha(-B x^alpha) has a differentiable singularity at
x = 0 which caps the plain schemes at order alpha; subtracting the fractional
Taylor expansion of the solution at the origin removes the singular part and
restores the smooth-solution orders 2-alpha and 2.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caputo import Scheme, _check_alpha, _march
from .specfun import _de_integrate, mittag_leffler, ml_relaxation_exact

__all__ = [
    "PowerSum",
    "RelaxationProblem",
    "TimeSeries",
    "solve",
    "solve_l1",
    "solve_ml1",
    "miller_ross_at_zero",
    "taylor_poly",
    "choose_m",
    "corrected_problem",
    "solve_corrected",
    "exact_convolution",
]


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of c * x^p terms with p >= 0, evaluated with 0^0 = 1.

    Covers every forcing used by the built-in problems while staying
    trivially serializable.  Instances are callable on scalars or arrays.
    """

    terms: tuple

    def __post_init__(self):
        normalized = tuple((float(c), float(p)) for c, p in self.terms)
        for c, p in normalized:
            if not (math.isfinite(c) and math.isfinite(p)):
                raise ValueError(f"non-finite term ({c}, {p})")
            if p < 0.0:
                raise ValueError(f"exponents must be >= 0, got {p}")
        object.__setattr__(self, "terms", normalized)

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        out = np.zeros_like(xa)
        for c, p in self.terms:
            out += c * xa ** p
        return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class RelaxationProblem:
    """Complete statement of a fractional relaxation problem.

    The forcing may be a PowerSum, any callable of x, or None for zero.
    T/h must be a whole number of steps.
    """

    alpha: float
    B: float
    forcing: PowerSum | Callable | None
    y0: float
    T: float
    h: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name in ("B", "y0", "T", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.B <= 0.0:
            raise ValueError(f"B must be positive, got {self.B}")
        if self.T <= 0.0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not 0.0 < self.h <= self.T:
            raise ValueError(f"h must lie in (0, T], got {self.h}")
        if self.forcing is not None and not callable(self.forcing):
            raise TypeError("forcing must be a PowerSum, a callable, or None")
        steps = self.T / self.h
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise ValueError(f"T/h = {steps} is not a whole number of steps")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.h)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Computed grid values v_0..v_N on the uniform grid x_k = k h."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.values.size) * self.h


def _forcing_samples(forcing, x: np.ndarray) -> np.ndarray:
    if forcing is None:
        return np.zeros_like(x)
    out = forcing(x)
    out = np.asarray(out, dtype=float)
    if out.shape != x.shape:
        # plain scalar-valued callables get sampled pointwise
        out = np.array([float(forcing(xi)) for xi in x])
    return out


def _advance(problem: RelaxationProblem, scheme: Scheme) -> np.ndarray:
    """Run the time-stepping recurrence; the march kernel evaluates the
    nonlocal history sum in O(N log^2 N) work for N steps."""
    alpha, h = problem.alpha, problem.h
    N = problem.n_steps
    gha = math.gamma(2.0 - alpha) * h ** alpha
    rhs = gha * _forcing_samples(problem.forcing, np.arange(N + 1) * h)
    return _march(alpha, scheme, N, problem.y0, problem.B * gha, rhs)


def solve(problem: RelaxationProblem, scheme: Scheme) -> TimeSeries:
    """Numerical solution with the given scheme: `solve_l1` or `solve_ml1`."""
    return solve_ml1(problem) if scheme is Scheme.MODIFIED_L1 else solve_l1(problem)


def solve_l1(problem: RelaxationProblem) -> TimeSeries:
    """Numerical solution with the L1 scheme, stepped explicitly from v_0 = y0."""
    return TimeSeries(problem.h, _advance(problem, Scheme.L1))


def solve_ml1(problem: RelaxationProblem) -> TimeSeries:
    """Numerical solution with the modified L1 scheme.

    The first step coincides with the L1 step (the modification needs three
    grid points), so at least two steps are required.
    """
    if problem.n_steps < 2:
        raise ValueError("the modified L1 scheme needs at least 2 steps")
    return TimeSeries(problem.h, _advance(problem, Scheme.MODIFIED_L1))


def _check_B(B: float) -> None:
    if not 0.0 < B < math.inf:
        raise ValueError(f"B must be positive and finite, got {B}")


def miller_ross_at_zero(alpha: float, B: float, n: int) -> float:
    """n-fold sequential fractional derivative of the decay solution at 0.

    Repeated differentiation of y^(alpha) = -B y gives (-B)^n regardless of
    alpha; alpha is validated for interface consistency only.
    """
    _check_alpha(alpha)
    _check_B(B)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (-B) ** n


# the polynomial is the first m + 1 terms of the E_alpha series, so a degree
# past the series' default term budget is refused; the smallest valid degree
# 2 / alpha reaches it at alpha = 2e-4, and the sum costs m + 1 array passes
_MAX_DEGREE = 10_000


def taylor_poly(alpha: float, B: float, m: int, x):
    """Fractional Taylor polynomial sum_{n=0}^m (-B x^alpha)^n / Gamma(alpha n + 1).

    Matches the decay solution to order x^(alpha m) at the origin; accepts a
    scalar or an array of non-negative points, and a degree m up to 10 000.
    """
    _check_alpha(alpha)
    _check_B(B)
    if not 1 <= m <= _MAX_DEGREE:
        raise ValueError(f"m must lie in [1, {_MAX_DEGREE}], got {m}")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa < math.inf)):
        raise ValueError("x must be finite and >= 0")
    base = -B * xa ** alpha
    out = np.zeros_like(xa)
    for n in range(m + 1):
        out += base ** n / math.gamma(alpha * n + 1.0)
    return float(out) if np.isscalar(x) else out


def choose_m(alpha: float) -> int:
    """Smallest polynomial degree m with m * alpha >= 2, so the corrected
    unknown is twice continuously differentiable.  An alpha whose degree
    would exceed 10 000 is refused (beyond 2^53 a step of m would not even
    change m * alpha)."""
    _check_alpha(alpha)
    if _MAX_DEGREE * alpha < 2.0:
        raise ValueError(
            f"alpha = {alpha} needs a degree above {_MAX_DEGREE}")
    m = max(1, math.ceil(2.0 / alpha))
    while m * alpha < 2.0:
        m += 1
    while m > 1 and (m - 1) * alpha >= 2.0:
        m -= 1
    return m


def corrected_problem(alpha: float, B: float, m: int, T: float,
                      h: float) -> RelaxationProblem:
    """Problem satisfied by the remainder z = y - (Taylor polynomial).

    Subtracting the degree-m fractional Taylor polynomial from the
    homogeneous decay problem leaves z^(alpha) + B z = (-B)^(m+1)
    x^(alpha m) / Gamma(alpha m + 1) with z(0) = 0; for m alpha >= 2 the
    remainder is C^2, which the plain schemes need for full order.
    """
    _check_alpha(alpha)
    if m * alpha < 2.0:
        raise ValueError(
            f"m * alpha = {m * alpha} < 2; the remainder would not be C^2")
    coeff = (-B) ** (m + 1) / math.gamma(alpha * m + 1.0)
    return RelaxationProblem(alpha=alpha, B=B,
                             forcing=PowerSum(((coeff, alpha * m),)),
                             y0=0.0, T=T, h=h)


def solve_corrected(alpha: float, B: float, m: int, T: float, h: float,
                    scheme: Scheme = Scheme.L1) -> TimeSeries:
    """Singularity-corrected solution of the homogeneous decay problem.

    Solves the smooth remainder problem with the requested scheme, then adds
    the fractional Taylor polynomial back on the grid.
    """
    problem = corrected_problem(alpha, B, m, T, h)
    zs = solve(problem, scheme)
    values = zs.values + taylor_poly(alpha, B, m, zs.x)
    return TimeSeries(h, values)


def exact_convolution(alpha: float, B: float, forcing, x: float,
                      y0: float = 1.0) -> float:
    """Exact solution of y^(alpha) + B y = F, y(0) = y0, at the point x.

    Evaluates y0 E_alpha(-B x^alpha)
    + int_0^x s^(alpha-1) E_{alpha,alpha}(-B s^alpha) F(x - s) ds.
    The substitution s = u^(1/alpha) removes the endpoint singularity of the
    kernel; the integral over u in [0, x^alpha] is taken on the nested
    tanh-sinh levels of `specfun`, to 1e-12 of the integral of its absolute
    value.
    """
    _check_alpha(alpha)
    _check_B(B)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return y0
    homogeneous = y0 * ml_relaxation_exact(alpha, B, x) if y0 != 0.0 else 0.0
    if forcing is None:
        return homogeneous
    inv_alpha = 1.0 / alpha
    top = x ** alpha

    def integrand(rule, _):
        u = top * rule.y[0]
        # rounding in u**(1/alpha) can overshoot x by one ulp near the
        # upper limit; clamp so fractional-power forcings never see x < 0
        xi = np.maximum(x - u ** inv_alpha, 0.0)
        kernel = np.array([mittag_leffler(alpha, alpha, -B * ui) for ui in u])
        return top * rule.jy * kernel * _forcing_samples(forcing, xi)

    value = _de_integrate(integrand, 1, "convolution integral")[0]
    return homogeneous + inv_alpha * value
