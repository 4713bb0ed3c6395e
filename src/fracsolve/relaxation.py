"""Fractional relaxation equation solvers.

Solves y^(alpha)(x) + B y(x) = F(x) on [0, T] with y(0) = y0 using the L1 or
modified-L1 discretization of the Caputo derivative.  The homogeneous
problem's solution E_alpha(-B x^alpha) has a differentiable singularity at
x = 0 which caps the plain schemes at order alpha; subtracting the fractional
Taylor expansion of the solution at the origin removes the singular part and
restores the smooth-solution orders 2-alpha and 2.  That polynomial is the
Mittag-Leffler power series of `specfun` cut at degree m; a correction whose
polynomial would cancel to roundoff at T is refused.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .caputo import Scheme, _march
from .specfun import (_SERIES_MAX_TERMS, ConvergenceError, _check_alpha,
                      _check_positive, _count, _ml_neg, _ml_series, _points,
                      _power_over_gamma, ml_relaxation_exact)

__all__ = [
    "PowerSum",
    "RelaxationProblem",
    "TimeSeries",
    "solve",
    "solve_l1",
    "solve_ml1",
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
        out, term = np.zeros_like(xa), np.empty_like(xa)
        for c, p in self.terms:
            np.power(xa, p, out=term)
            term *= c
            out += term
        return float(out) if np.isscalar(x) else out


def _four_digits(count) -> str:
    """count to four significant digits, as `.4g` writes a float, also for
    an int past the double range, which float() refuses."""
    try:
        return f"{count:.4g}"
    except OverflowError:
        # imported here: no other path needs it
        from decimal import Context, Decimal
        return f"{Decimal(count).normalize(Context(prec=4)):g}"


def _whole_steps(T: float, step: float, name: str = "h", width=None) -> int:
    """T / step rounded to the whole number N of steps, at least 1, that it
    must lie within 1e-8 max(1, T / step) of, else a ValueError that calls
    the step `name`.  First, the one "too large to index" refusal of a grid
    of N + 1 levels (of `width` values each), made before numpy would refuse
    its shape.  Every relaxation and subdiffusion grid is counted here, and
    both march the step T / N."""
    steps = T / step
    if not steps + 1.0 <= sys.maxsize // 8 // (width or 1):
        size = (f"{steps + 1.0:.4g} levels" if width is None else
                f"{steps + 1.0:.4g} x {_four_digits(width)} values")
        raise MemoryError(f"a grid of {size} is too large to index")
    count = round(steps)
    if count < 1 or abs(steps - count) > 1e-8 * max(1.0, steps):
        raise ValueError(f"T/{name} = {steps} is not a whole number of steps")
    return count


def _check_y0(y0: float) -> None:
    """The initial value of a relaxation problem is finite."""
    if not math.isfinite(y0):
        raise ValueError(f"y0 must be finite, got {y0}")


@dataclass(frozen=True)
class RelaxationProblem:
    """Complete statement of a fractional relaxation problem.

    The forcing is a PowerSum, or None for zero.  T/h must be a whole number
    N of steps; the solvers march the step T/N.
    """

    alpha: float
    B: float
    forcing: PowerSum | None
    y0: float
    T: float
    h: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name in ("B", "T", "h"):
            _check_positive(name, getattr(self, name))
        _check_y0(self.y0)
        if self.h > self.T:
            raise ValueError(f"h must lie in (0, T], got {self.h}")
        if self.forcing is not None and not isinstance(self.forcing, PowerSum):
            raise TypeError("forcing must be a PowerSum or None")
        _whole_steps(self.T, self.h)

    @property
    def n_steps(self) -> int:
        return round(self.T / self.h)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Computed grid values v_0..v_N on the uniform grid x_k = k h, h = T/N."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def x(self) -> np.ndarray:
        return _grid(self.values.size, self.h)


def _grid(levels: int, h: float) -> np.ndarray:
    """The points x_k = k h, k < levels, as float k scaled in place."""
    x = np.arange(levels, dtype=float)
    x *= h
    return x


def _advance(problem: RelaxationProblem, scheme: Scheme) -> TimeSeries:
    """Run the time-stepping recurrence at h = T/N; the march kernel
    evaluates the nonlocal history sum in O(N log^2 N) work for N steps.
    The march writes the levels over the forcing samples: no second array
    of all levels is held."""
    h, B, n_steps = _rate(problem)
    F = (np.zeros(n_steps + 1) if problem.forcing is None else
         problem.forcing(_grid(n_steps + 1, h)))
    return TimeSeries(h, _march(problem.alpha, scheme, h, problem.y0, B, F, F))


def _rate(problem: RelaxationProblem) -> tuple:
    """(h, B, N) of the march that solves the problem: N steps of
    h = T / N at the rate B.  A convergence ladder computes the leaf
    inverses of its rungs' marches from these."""
    return problem.T / problem.n_steps, problem.B, problem.n_steps


def solve(problem: RelaxationProblem, scheme: Scheme) -> TimeSeries:
    """Numerical solution with the given scheme: `solve_l1` or `solve_ml1`."""
    return solve_ml1(problem) if scheme is Scheme.MODIFIED_L1 else solve_l1(problem)


def solve_l1(problem: RelaxationProblem) -> TimeSeries:
    """Numerical solution with the L1 scheme, stepped explicitly from v_0 = y0."""
    return _advance(problem, Scheme.L1)


def solve_ml1(problem: RelaxationProblem) -> TimeSeries:
    """Numerical solution with the modified L1 scheme.

    The first step coincides with the L1 step (the modification needs three
    grid points), so at least two steps are required.
    """
    return _advance(problem, Scheme.MODIFIED_L1)


def _check_degree(m: int) -> None:
    """A Taylor degree is an integer in [1, 10 000], the most terms that the
    series sums."""
    _count("m", m, 1)
    if m > _SERIES_MAX_TERMS:
        raise ValueError(f"m must lie in [1, {_SERIES_MAX_TERMS}], got {m}")


def taylor_poly(alpha: float, B: float, m: int, x):
    """Fractional Taylor polynomial sum_{n=0}^m (-B x^alpha)^n / Gamma(alpha n + 1).

    Matches the decay solution to order x^(alpha m) at the origin; accepts a
    scalar or an array of non-negative points, and a degree m up to 10 000.
    These are the first m + 1 terms of the series of E_alpha(-B x^alpha).
    """
    _check_alpha(alpha)
    _check_positive("B", B)
    _check_degree(m)
    xa = _points("x", x)
    out = _ml_series(alpha, 1.0, -B * xa ** alpha, degree=m)[0]
    return float(out) if np.isscalar(x) else out


def choose_m(alpha: float) -> int:
    """Smallest polynomial degree m with m * alpha >= 2, so the corrected
    unknown is twice continuously differentiable.  An alpha whose degree
    would exceed 10 000 is refused (beyond 2^53 a step of m would not even
    change m * alpha)."""
    _check_alpha(alpha)
    if _SERIES_MAX_TERMS * alpha < 2.0:
        raise ValueError(
            f"alpha = {alpha} needs a degree above {_SERIES_MAX_TERMS}")
    # ceil of the rounded 2 / alpha can fall one short, as at alpha =
    # 0.39999999999999997, but never over: j alpha rounding up to 2 for the
    # j below it would need 2 / alpha within j 2^-54 of j, which rounds
    # 2 / alpha to j itself for every j < 2^53
    m = math.ceil(2.0 / alpha)
    while m * alpha < 2.0:
        m += 1
    return m


def corrected_problem(alpha: float, B: float, m: int, T: float,
                      h: float) -> RelaxationProblem:
    """Problem satisfied by the remainder z = y - (Taylor polynomial).

    Subtracting the degree-m fractional Taylor polynomial from the
    homogeneous decay problem leaves z^(alpha) + B z = (-B)^(m+1)
    x^(alpha m) / Gamma(alpha m + 1) with z(0) = 0; for m alpha >= 2 the
    remainder is C^2, which the plain schemes need for full order.

    The polynomial and the remainder cancel where the polynomial's terms
    dwarf the solution.  ConvergenceError when roundoff in the polynomial's
    largest term at T alone exceeds 1% of the lower bound 1 / (1 +
    Gamma(1 - alpha) B T^alpha) of the solution E_alpha(-B T^alpha), or when
    the forcing's coefficient or x^(alpha m) overflows on [0, T].
    """
    _check_alpha(alpha)
    _check_degree(m)
    if m * alpha < 2.0:
        raise ValueError(
            f"m * alpha = {m * alpha} < 2; the remainder would not be C^2")
    problem = RelaxationProblem(alpha=alpha, B=B, forcing=None, y0=0.0, T=T,
                                h=h)
    # in log space: B^(m+1) and Gamma(alpha m + 1) overflow long before
    # their quotient does
    coeff = _power_over_gamma(B, m + 1, alpha * m + 1.0)
    with np.errstate(over="ignore"):
        if not (coeff < math.inf and np.float64(T) ** (alpha * m) < math.inf):
            raise ConvergenceError(
                f"the degree-{m} remainder forcing B^(m+1) x^(alpha m) / "
                f"Gamma(alpha m + 1) overflows on [0, {T}] for B = {B}")
    problem = replace(problem, forcing=PowerSum(
        (((-1.0) ** (m + 1) * coeff, alpha * m),)))
    s = B * T ** alpha
    peak = _ml_series(alpha, 1.0, np.array([-s]), degree=m)[1]
    if np.finfo(float).eps * peak * (1.0 + math.gamma(1.0 - alpha) * s) > 0.01:
        raise ConvergenceError(
            f"the degree-{m} Taylor polynomial cancels at T = {T}: its largest "
            f"term {peak:.3g} leaves roundoff above 1% of the solution")
    return problem


def solve_corrected(alpha: float, B: float, m: int, T: float, h: float,
                    scheme: Scheme = Scheme.L1) -> TimeSeries:
    """Singularity-corrected solution of the homogeneous decay problem.

    Solves the smooth remainder problem with the requested scheme, then adds
    the fractional Taylor polynomial back on the grid.
    """
    problem = corrected_problem(alpha, B, m, T, h)
    zs = solve(problem, scheme)
    values = zs.values + taylor_poly(alpha, B, m, zs.x)
    return TimeSeries(zs.h, values)


def exact_convolution(alpha: float, B: float, forcing, x, y0: float = 1.0):
    """Exact solution of y^(alpha) + B y = F, y(0) = y0, for F a PowerSum
    sum_j c_j x^p_j or None.

    Takes a scalar or an array of x >= 0 and returns a float or an array of
    the closed form y0 E_alpha(-s) + sum_j c_j Gamma(p_j + 1) x^(p_j + alpha)
    E_{alpha,p_j+alpha+1}(-s) with s = B x^alpha.  Gamma(p_j + 1) is folded
    into the Mittag-Leffler sum, which stays at most 1, so every exponent
    p_j is served, past 170.6 too, where Gamma(p_j + 1) alone overflows.
    ConvergenceError where the value overflows.  A callable forcing raises
    TypeError.
    """
    _check_alpha(alpha)
    _check_positive("B", B)
    _check_y0(y0)
    if not (forcing is None or isinstance(forcing, PowerSum)):
        raise TypeError("exact_convolution takes a PowerSum forcing or None")
    out = y0 * ml_relaxation_exact(alpha, B, x)
    xa = np.asarray(x, dtype=float)
    s = (B * xa ** alpha).ravel()
    for c, p in forcing.terms if forcing else ():
        kernel = _ml_neg(alpha, p + alpha + 1.0, s, p + 1.0)
        # x^(p + alpha) in two halves, which overflow only where the value does
        root = xa ** (0.5 * (p + alpha))
        with np.errstate(over="ignore", invalid="ignore"):
            out = out + c * (root * kernel.reshape(xa.shape) * root)
        if not np.all(np.isfinite(out)):
            raise ConvergenceError(
                f"exact_convolution: the term {c} x^{p} overflows at "
                f"x = {np.max(xa)} for alpha = {alpha}, B = {B}")
    return float(out) if np.isscalar(x) else out
