"""Finite-difference solvers for the time-fractional subdiffusion equation.

Solves d^alpha u / dt^alpha = d^2 u / dx^2 on [0, pi] x [0, T] with
homogeneous Dirichlet boundaries.  Space uses the second-order central
difference; time uses the L1 or modified-L1 Caputo discretization.  On the
grid x_j = j pi/N every sin(k x_j) is an eigenvector of the second difference,
so each kind of initial profile takes one path: a `SineMode(k)` solution is
sin(k x_j) times one scalar relaxation march, and a `Sampled` profile is split
by an orthonormal discrete sine transform (DST-I) into N-1 such marches, which
`caputo._march` advances together as one vector state.  As in the scalar
case, the single-mode solution sin(x) E_alpha(-t^alpha) is singular at t = 0
and the plain schemes drop to first order in time; subtracting the fractional
Taylor expansion of the time factor from the scalar march restores them.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import relaxation
from .caputo import Scheme, _check_alpha, _march, _Scope
from .specfun import ml_relaxation_exact

__all__ = [
    "SineMode",
    "Sampled",
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
    """Initial profile sin(k x); the mode number k is a positive integer, by
    the rule of `Ladder.levels`."""

    k: int

    def __post_init__(self):
        k = self.k
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"mode number must be an integer >= 1, got {k!r}")


@dataclass(frozen=True, eq=False)
class Sampled:
    """Initial profile given by its values on the N+1 space nodes."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled profile values must be finite")


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

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.N < 2:
            raise ValueError(f"need at least 2 space intervals, got N={self.N}")
        if self.M < 1:
            raise ValueError(f"need at least 1 time step, got M={self.M}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        # a grid too large to index is refused before h^2 underflows
        relaxation._whole_steps(self.T, self.tau, "tau", self.N + 1)
        if isinstance(self.initial, Sampled):
            v = self.initial.values
            if v.size != self.N + 1:
                raise ValueError(
                    f"sampled profile has {v.size} values, expected N+1={self.N + 1}")
            if v[0] != 0.0 or v[-1] != 0.0:
                raise ValueError("sampled profile must vanish on the boundary")
        elif not isinstance(self.initial, SineMode):
            raise TypeError("initial must be a SineMode or Sampled profile")

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
    main = np.full(N - 1, _Scope(alpha, scheme).c0 + 2.0 * eta)
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


# rows of the level matrix sine-transformed at once: a block's transform
# temporaries are about 5 times its rows, so 64 rows held one more result's
# worth at N = 960, M = 320
_DST_ROWS = 8


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


def _mode_rates(N: int, k):
    """Eigenvalues B_k = (4/h^2) sin^2(k h/2) of the negated second
    difference on the grid of N intervals, h = pi/N: the decay rate of mode
    k, for one int k or an array of them."""
    h = math.pi / N
    # np.square, not ** 2: a float64 scalar's power can round the other way
    return 4.0 / h ** 2 * np.square(np.sin(0.5 * h * k))


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
        return relaxation._grid(self.values.shape[0], self.tau)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _advance(problem: SubdiffusionProblem, scheme: Scheme,
             m: int | None = None) -> SpaceTimeSolution:
    """Time-step the problem by the one path for its initial profile: a
    `SineMode(k)` is sin(k x_j) times the scalar march of `_mode_march`
    (with a degree m, plus the Taylor polynomial), and a `Sampled` profile
    marches its DST-I modes together as one vector state."""
    N, M, tau = problem.N, problem.M, problem.tau
    values = np.zeros((M + 1, N + 1))
    if isinstance(problem.initial, Sampled):
        u0 = problem.initial.values[1:-1]
        # the march fills the interior columns of the result, which turn
        # back to grid values in place, a block of rows at a time: a second
        # array of all levels would raise peak memory
        u = _march(problem.alpha, scheme, tau, _dst(u0),
                   _mode_rates(N, np.arange(1, N)),
                   np.broadcast_to(0.0, (M + 1,)), values[:, 1:-1])
        for rows in range(0, M + 1, _DST_ROWS):
            u[rows:rows + _DST_ROWS] = _dst(u[rows:rows + _DST_ROWS])
        # the transform round trip is not exact; level 0 is the given data
        u[0] = u0
        return SpaceTimeSolution(problem.h, tau, values)
    k, z = problem.initial.k, relaxation.solve(_mode_march(problem, m), scheme)
    series = (z.values if m is None else
              z.values + relaxation.taylor_poly(problem.alpha, 1.0, m, z.x))
    np.multiply.outer(series, np.sin(k * space_nodes(N)[1:-1]), out=values[:, 1:-1])
    return SpaceTimeSolution(problem.h, tau, values)


def _mode_march(problem: SubdiffusionProblem,
                m: int | None = None) -> relaxation.RelaxationProblem:
    """The scalar march of a `SineMode(k)` problem: at the rate B_k, from 1,
    or with a degree m the remainder march of `solve_corrected`, from 0.
    A convergence ladder takes its rungs' (h, B, N) from it too."""
    alpha, T, tau = problem.alpha, problem.T, problem.tau
    march = (relaxation.RelaxationProblem(alpha, 1.0, None, 1.0, T, tau)
             if m is None else relaxation.corrected_problem(alpha, 1.0, m, T, tau))
    return replace(march, B=_mode_rates(problem.N, problem.initial.k))


def solve(problem: SubdiffusionProblem, scheme: Scheme) -> SpaceTimeSolution:
    """Numerical solution with the given scheme: `solve_l1` or `solve_ml1`."""
    return solve_ml1(problem) if scheme is Scheme.MODIFIED_L1 else solve_l1(problem)


def solve_l1(problem: SubdiffusionProblem) -> SpaceTimeSolution:
    """March the L1 scheme."""
    return _advance(problem, Scheme.L1)


def solve_ml1(problem: SubdiffusionProblem) -> SpaceTimeSolution:
    """March the modified L1 scheme; levels 0 and 1 come from the L1 step."""
    return _advance(problem, Scheme.MODIFIED_L1)


def exact_single_mode(alpha: float, k: int, x, t: float):
    """Separated solution sin(k x) E_alpha(-k^2 t^alpha) of the homogeneous
    problem with initial profile sin(k x) of a mode number k that `SineMode`
    takes."""
    SineMode(k)
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
    (-1)^(m+1) t^(alpha m) / Gamma(alpha m + 1).  On the grid sin(x_n) is
    the first eigenvector of the second difference, so v = sin(x_n) z(t)
    with z the scalar relaxation remainder march at the mode-1 rate B_1 =
    (4/h^2) sin^2(h/2), from z = 0.  Returns sin(x_n) times z plus the
    fractional Taylor polynomial of the time factor.  Level 0 reproduces
    sin(x_n) exactly and the boundary stays exactly zero.
    """
    return _advance(SubdiffusionProblem(alpha, N, M, T, SineMode(1)), scheme, m)
