"""Finite-difference solvers for the time-fractional subdiffusion equation.

Solves d^alpha u / dt^alpha = d^2 u / dx^2 + F(x, t) on [0, pi] x [0, T] with
homogeneous Dirichlet boundaries.  Space uses the second-order central
difference; time uses the L1 or modified-L1 Caputo discretization.  On the
grid x_j = j pi/N every sin(k x_j) is an eigenvector of the second difference,
so an orthonormal discrete sine transform (DST-I) splits the scheme into N-1
independent relaxation marches, one per mode, which `caputo._march` advances
together as one vector state.  As in the scalar case, the single-mode
solution sin(x) E_alpha(-t^alpha) is singular at t = 0 and the plain schemes
drop to first order in time; subtracting the fractional Taylor expansion of
the time factor restores them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import relaxation
from .caputo import Scheme, _check_alpha, _march, _scheme_weights
from .relaxation import PowerSum, taylor_poly
from .specfun import ml_relaxation_exact

__all__ = [
    "SineMode",
    "Sampled",
    "SeparableForcing",
    "SubdiffusionProblem",
    "TridiagonalSystem",
    "SpaceTimeSolution",
    "space_nodes",
    "build_system",
    "thomas_solve",
    "solve",
    "solve_l1",
    "solve_ml1",
    "exact_single_mode",
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


def space_nodes(N: int) -> np.ndarray:
    """The space grid x_j = j pi/N, j = 0..N; the last node is exactly pi."""
    return np.linspace(0.0, math.pi, N + 1)


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

    With eta = Gamma(2-alpha) tau^alpha / h^2 the main diagonal is c_0 + 2 eta
    (c_0 = 1, or 1 - zeta(alpha-1) for the modified scheme, which is a
    positive shift) and the off-diagonals are -eta, so dominance always holds.
    """
    _check_alpha(alpha)
    if N < 2:
        raise ValueError(f"need at least 2 space intervals, got N={N}")
    if tau <= 0.0 or h <= 0.0:
        raise ValueError("tau and h must be positive")
    eta = math.gamma(2.0 - alpha) * tau ** alpha / h ** 2
    c0 = _scheme_weights(alpha, scheme, 2)[0]
    main = np.full(N - 1, c0 + 2.0 * eta)
    off = np.full(N - 2, -eta)
    return TridiagonalSystem(off, main, off.copy())


def thomas_solve(system: TridiagonalSystem, rhs) -> np.ndarray:
    """Solve the tridiagonal system by forward elimination and back
    substitution (Thomas algorithm, O(dim)).  Dominance guarantees nonzero
    pivots."""
    b = np.asarray(rhs, dtype=float)
    if b.size != system.dim:
        raise ValueError(f"rhs has length {b.size}, expected {system.dim}")
    lower, main, upper = system.lower, system.main, system.upper
    piv = np.empty(system.dim)
    y = np.empty(system.dim)
    piv[0], y[0] = main[0], b[0]
    for i in range(1, system.dim):
        mult = lower[i - 1] / piv[i - 1]
        piv[i] = main[i] - mult * upper[i - 1]
        y[i] = b[i] - mult * y[i - 1]
    x = np.empty(system.dim)
    x[-1] = y[-1] / piv[-1]
    for i in range(system.dim - 2, -1, -1):
        x[i] = (y[i] - upper[i] * x[i + 1]) / piv[i]
    return x


# rows of the level matrix sine-transformed at once
_DST_ROWS = 64


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; it is its own inverse.

    X_k = sqrt(2/(n+1)) sum_j x_j sin(j k pi/(n+1)) for j, k = 1..n.  The
    sum is -1/2 the imaginary part of entry k of the real FFT of the odd
    extension [0, x, 0, -x reversed], of length 2(n+1).
    """
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    return np.fft.rfft(ext)[..., 1:n + 1].imag * -math.sqrt(0.5 / (n + 1))


def _advance(problem: SubdiffusionProblem, scheme: Scheme) -> np.ndarray:
    """Time-step the interior values; returns an (M+1) x (N-1) matrix.  In
    orthonormal DST-I coordinates mode k has B_k = (4/h^2) sin^2(k h/2)."""
    alpha, N, M = problem.alpha, problem.N, problem.M
    h, tau = problem.h, problem.tau
    x_interior = space_nodes(N)[1:-1]
    if isinstance(problem.initial, SineMode):
        u0 = np.sin(problem.initial.k * x_interior)
    else:
        u0 = problem.initial.values[1:-1]
    scale = math.gamma(2.0 - alpha) * tau ** alpha
    lam = scale * 4.0 / h ** 2 * np.sin(0.5 * h * np.arange(1, N)) ** 2
    forcing = problem.forcing
    if forcing is None:
        g, f = np.zeros(M + 1), 0.0
    else:
        g = scale * forcing.time_profile(np.arange(M + 1) * tau)
        f = _dst(np.sin(forcing.mode * x_interior))
    u = _march(alpha, scheme, M, _dst(u0), lam, g, f)
    # back to grid values in place, a block of rows at a time: a second
    # array of all levels would raise peak memory
    for rows in range(0, M + 1, _DST_ROWS):
        u[rows:rows + _DST_ROWS] = _dst(u[rows:rows + _DST_ROWS])
    # the transform round trip is not exact; level 0 is the given data
    u[0] = u0
    return u


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
        return space_nodes(self.values.shape[1] - 1)

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


def solve(problem: SubdiffusionProblem, scheme: Scheme) -> SpaceTimeSolution:
    """Numerical solution with the given scheme: `solve_l1` or `solve_ml1`."""
    return solve_ml1(problem) if scheme is Scheme.MODIFIED_L1 else solve_l1(problem)


def solve_l1(problem: SubdiffusionProblem) -> SpaceTimeSolution:
    """March the L1 scheme."""
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
    if not np.all((xa >= 0.0) & (xa <= math.pi)):
        raise ValueError("x must lie in [0, pi]")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    out = np.sin(k * xa) * ml_relaxation_exact(alpha, float(k * k), t)
    return float(out) if np.isscalar(x) else out


def solve_corrected(alpha: float, m: int, T: float, N: int, M: int,
                    scheme: Scheme = Scheme.L1) -> SpaceTimeSolution:
    """Singularity-corrected solution of the single-mode problem.

    The sequential time derivatives of the single-mode solution at t = 0 are
    (-1)^n sin x, so the remainder v = u - sin(x) * (Taylor polynomial in t)
    solves the same equation with zero initial data and the forcing sin(x)
    times the relaxation remainder forcing with B = 1,
    (-1)^(m+1) t^(alpha m) / Gamma(alpha m + 1).  Solves that smooth
    problem, then adds sin(x_n) times the fractional Taylor polynomial of the
    time factor back on every level.  Level 0 reproduces sin(x_n) exactly and
    the boundary stays exactly zero.
    """
    problem = SubdiffusionProblem(alpha=alpha, N=N, M=M, T=T,
                                  initial=Sampled(np.zeros(N + 1)))
    remainder = relaxation.corrected_problem(alpha, 1.0, m, T, problem.tau)
    forcing = SeparableForcing(1, remainder.forcing)
    vsol = solve(replace(problem, forcing=forcing), scheme)
    sine = np.sin(vsol.x)
    sine[0] = 0.0
    sine[-1] = 0.0
    poly = taylor_poly(alpha, 1.0, m, vsol.t)
    values = vsol.values + np.outer(poly, sine)
    return SpaceTimeSolution(vsol.h, vsol.tau, values)
