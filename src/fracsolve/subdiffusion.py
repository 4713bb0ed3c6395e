"""Finite-difference solvers for the time-fractional subdiffusion equation.

Solves d^alpha u / dt^alpha = d^2 u / dx^2 + F(x, t) on [0, pi] x [0, T] with
homogeneous Dirichlet boundaries.  Space uses the second-order central
difference; time uses the L1 or modified-L1 Caputo discretization, giving one
tridiagonal solve per time level.  As in the scalar case, the single-mode
solution sin(x) E_alpha(-t^alpha) is singular at t = 0 and the plain schemes
drop to first order in time; subtracting the fractional Taylor expansion of
the time factor restores them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .caputo import Scheme, _check_alpha, _march
from .relaxation import PowerSum, taylor_poly
from .specfun import ConvergenceError, ml_relaxation_exact, zeta_unit_strip

__all__ = [
    "SineMode",
    "Sampled",
    "SeparableForcing",
    "SubdiffusionProblem",
    "TridiagonalSystem",
    "SpaceTimeSolution",
    "build_system",
    "thomas_solve",
    "solve_l1",
    "solve_ml1",
    "exact_single_mode",
    "fourier_sine_coefficients",
    "corrected_problem",
    "solve_corrected",
]


@dataclass(frozen=True)
class SineMode:
    """Initial profile sin(k x)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"mode number must be >= 1, got {self.k}")


@dataclass(frozen=True, eq=False)
class Sampled:
    """Initial profile given by its values on the N+1 space nodes."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled profile values must be finite")


@dataclass(frozen=True)
class SeparableForcing:
    """Forcing sin(mode * x) * time_profile(t)."""

    mode: int
    time_profile: PowerSum

    def __post_init__(self):
        if self.mode < 1:
            raise ValueError(f"mode number must be >= 1, got {self.mode}")


@dataclass(frozen=True)
class SubdiffusionProblem:
    """Problem statement on the grid x_n = n pi/N, t_m = m T/M."""

    alpha: float
    N: int
    M: int
    T: float
    initial: SineMode | Sampled
    forcing: SeparableForcing | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.N < 2:
            raise ValueError(f"need at least 2 space intervals, got N={self.N}")
        if self.M < 1:
            raise ValueError(f"need at least 1 time step, got M={self.M}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if isinstance(self.initial, Sampled):
            v = self.initial.values
            if v.size != self.N + 1:
                raise ValueError(
                    f"sampled profile has {v.size} values, expected N+1={self.N + 1}")
            if v[0] != 0.0 or v[-1] != 0.0:
                raise ValueError("sampled profile must vanish on the boundary")
        elif not isinstance(self.initial, SineMode):
            raise TypeError("initial must be a SineMode or Sampled profile")
        if self.forcing is not None and not isinstance(self.forcing, SeparableForcing):
            raise TypeError("forcing must be a SeparableForcing or None")

    @property
    def h(self) -> float:
        return math.pi / self.N

    @property
    def tau(self) -> float:
        return self.T / self.M


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Strictly diagonally dominant tridiagonal matrix, stored by diagonals."""

    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "main", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)
        dim = self.main.size
        if dim < 1:
            raise ValueError("empty system")
        if self.lower.size != dim - 1 or self.upper.size != dim - 1:
            raise ValueError("off-diagonals must have length dim - 1")
        offsum = np.zeros(dim)
        offsum[1:] += np.abs(self.lower)
        offsum[:-1] += np.abs(self.upper)
        if not np.all(self.main > offsum):
            raise ValueError("main diagonal is not strictly dominant")

    @property
    def dim(self) -> int:
        return self.main.size


def build_system(alpha: float, tau: float, h: float, N: int,
                 scheme: Scheme = Scheme.L1) -> TridiagonalSystem:
    """Matrix applied to the unknown interior values at each time level.

    With eta = Gamma(2-alpha) tau^alpha / h^2 the main diagonal is 1 + 2 eta
    (minus zeta(alpha-1) for the modified scheme, which is a positive shift)
    and the off-diagonals are -eta, so dominance always holds.
    """
    _check_alpha(alpha)
    if N < 2:
        raise ValueError(f"need at least 2 space intervals, got N={N}")
    if tau <= 0.0 or h <= 0.0:
        raise ValueError("tau and h must be positive")
    eta = math.gamma(2.0 - alpha) * tau ** alpha / h ** 2
    main = np.full(N - 1, 1.0 + 2.0 * eta)
    if scheme is Scheme.MODIFIED_L1:
        main -= zeta_unit_strip(alpha - 1.0)
    off = np.full(N - 2, -eta)
    return TridiagonalSystem(off, main, off.copy())


def _factor(lower, main, upper):
    """LU factorization of a tridiagonal matrix (Thomas algorithm, O(dim))."""
    dim = main.size
    piv = np.empty(dim)
    mult = np.empty(max(dim - 1, 0))
    piv[0] = main[0]
    for i in range(1, dim):
        if piv[i - 1] == 0.0:
            raise RuntimeError("zero pivot in tridiagonal factorization")
        mult[i - 1] = lower[i - 1] / piv[i - 1]
        piv[i] = main[i] - mult[i - 1] * upper[i - 1]
    if piv[-1] == 0.0:
        raise RuntimeError("zero pivot in tridiagonal factorization")
    return mult, piv


def _solve_factored(mult, piv, upper, rhs):
    dim = piv.size
    y = np.empty(dim)
    y[0] = rhs[0]
    for i in range(1, dim):
        y[i] = rhs[i] - mult[i - 1] * y[i - 1]
    x = np.empty(dim)
    x[-1] = y[-1] / piv[-1]
    for i in range(dim - 2, -1, -1):
        x[i] = (y[i] - upper[i] * x[i + 1]) / piv[i]
    return x


def _factor_system(system: TridiagonalSystem):
    """Arguments of `_solve_factored` that precede the right-hand side."""
    return (*_factor(system.lower, system.main, system.upper), system.upper)


def thomas_solve(system: TridiagonalSystem, rhs) -> np.ndarray:
    """Solve the tridiagonal system by forward elimination and back
    substitution.  Dominance guarantees nonzero pivots."""
    b = np.asarray(rhs, dtype=float)
    if b.size != system.dim:
        raise ValueError(f"rhs has length {b.size}, expected {system.dim}")
    return _solve_factored(*_factor_system(system), b)


def _initial_interior(problem: SubdiffusionProblem, x_interior: np.ndarray) -> np.ndarray:
    if isinstance(problem.initial, SineMode):
        return np.sin(problem.initial.k * x_interior)
    return np.array(problem.initial.values[1:-1])


def _advance(problem: SubdiffusionProblem, scheme: Scheme) -> np.ndarray:
    """Time-step the interior values; returns an (M+1) x (N-1) matrix."""
    alpha, N, M = problem.alpha, problem.N, problem.M
    h, tau = problem.h, problem.tau
    x_interior = np.arange(1, N) * h
    # LU factors of the level matrix, keyed by the level's `modified` flag
    factors = {False: _factor_system(build_system(alpha, tau, h, N, Scheme.L1))}
    if scheme is Scheme.MODIFIED_L1:
        factors[True] = _factor_system(
            build_system(alpha, tau, h, N, Scheme.MODIFIED_L1))
    scale = math.gamma(2.0 - alpha) * tau ** alpha
    forcing = problem.forcing
    if forcing is not None:
        f_space = np.sin(forcing.mode * x_interior)

    def solve(m, modified, hist):
        rhs = -hist
        if forcing is not None:
            rhs = rhs + scale * forcing.time_profile(m * tau) * f_space
        return _solve_factored(*factors[modified], rhs)

    return _march(alpha, scheme, M, _initial_interior(problem, x_interior), solve)


@dataclass(frozen=True, eq=False)
class SpaceTimeSolution:
    """Grid values u(x_n, t_m): row m holds time level m, columns 0 and N are
    the (identically zero) boundary."""

    h: float
    tau: float
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.values.shape[1]) * self.h

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.tau

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _assemble(problem: SubdiffusionProblem, interior: np.ndarray) -> SpaceTimeSolution:
    full = np.zeros((problem.M + 1, problem.N + 1))
    full[:, 1:-1] = interior
    return SpaceTimeSolution(problem.h, problem.tau, full)


def solve_l1(problem: SubdiffusionProblem) -> SpaceTimeSolution:
    """March the L1 scheme: one dominant tridiagonal solve per time level."""
    return _assemble(problem, _advance(problem, Scheme.L1))


def solve_ml1(problem: SubdiffusionProblem) -> SpaceTimeSolution:
    """March the modified L1 scheme; levels 0 and 1 come from the L1 step."""
    if problem.M < 2:
        raise ValueError("the modified L1 scheme needs at least 2 time steps")
    return _assemble(problem, _advance(problem, Scheme.MODIFIED_L1))


def exact_single_mode(alpha: float, k: int, x, t: float):
    """Separated solution sin(k x) E_alpha(-k^2 t^alpha) of the homogeneous
    problem with initial profile sin(k x)."""
    if k < 1:
        raise ValueError(f"mode number must be >= 1, got {k}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > math.pi):
        raise ValueError("x must lie in [0, pi]")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    decay = 1.0 if t == 0.0 else ml_relaxation_exact(alpha, float(k * k), t)
    out = np.sin(k * xa) * decay
    return float(out) if np.isscalar(x) else out


def fourier_sine_coefficients(profile, n_max: int) -> np.ndarray:
    """Coefficients c_1..c_n_max of the sine expansion of a profile on [0, pi].

    A SineMode yields its exact unit coefficient vector without quadrature;
    a callable profile is integrated mode by mode to 1e-10 absolute.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if isinstance(profile, SineMode):
        c = np.zeros(n_max)
        if profile.k <= n_max:
            c[profile.k - 1] = 1.0
        return c
    if not callable(profile):
        raise TypeError(
            "profile must be a SineMode or a callable on [0, pi]; sampled "
            "profiles carry too little information for 1e-10 coefficients")
    c = np.empty(n_max)
    for n in range(1, n_max + 1):
        val, abserr = quad(lambda s: profile(s) * math.sin(n * s), 0.0, math.pi,
                           epsabs=1e-12, epsrel=1e-12, limit=200)
        if abserr > 1e-10:
            raise ConvergenceError(
                f"sine-coefficient quadrature for mode {n} reported error {abserr}")
        c[n - 1] = 2.0 / math.pi * val
    return c


def corrected_problem(alpha: float, m: int, T: float, N: int,
                      M: int) -> SubdiffusionProblem:
    """Problem for the remainder v = u - sin(x) * (Taylor polynomial in t).

    The sequential time derivatives of the single-mode solution at t = 0 are
    (-1)^n sin x, so subtracting the degree-m fractional Taylor expansion of
    the time factor leaves a C^2 solution of the same equation with zero
    initial data and forcing (-1)^(m+1) sin(x) t^(alpha m) / Gamma(alpha m + 1).
    """
    _check_alpha(alpha)
    if m * alpha < 2.0:
        raise ValueError(
            f"m * alpha = {m * alpha} < 2; the remainder would not be C^2")
    coeff = (-1.0) ** (m + 1) / math.gamma(alpha * m + 1.0)
    return SubdiffusionProblem(
        alpha=alpha, N=N, M=M, T=T,
        initial=Sampled(np.zeros(N + 1)),
        forcing=SeparableForcing(1, PowerSum(((coeff, alpha * m),))))


def solve_corrected(alpha: float, m: int, T: float, N: int, M: int,
                    scheme: Scheme = Scheme.L1) -> SpaceTimeSolution:
    """Singularity-corrected solution of the single-mode problem.

    Solves the smooth remainder problem, then adds sin(x_n) times the
    fractional Taylor polynomial of the time factor back on every level.
    Level 0 reproduces sin(x_n) exactly and the boundary stays exactly zero.
    """
    problem = corrected_problem(alpha, m, T, N, M)
    vsol = solve_ml1(problem) if scheme is Scheme.MODIFIED_L1 else solve_l1(problem)
    sine = np.sin(vsol.x)
    sine[0] = 0.0
    sine[-1] = 0.0
    poly = taylor_poly(alpha, 1.0, m, vsol.t)
    values = vsol.values + np.outer(poly, sine)
    return SpaceTimeSolution(vsol.h, vsol.tau, values)
