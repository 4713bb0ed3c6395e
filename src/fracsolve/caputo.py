"""L1 and modified-L1 discretizations of the Caputo derivative.

Both schemes approximate the Caputo derivative of order alpha in (0, 1) on a
uniform grid x_k = k h as

    y^(alpha)(x_n)  ~=  1 / (Gamma(2 - alpha) h^alpha) * sum_k c_k y_{n-k},

where the weight row c_0..c_n depends on the time level n: the final weight
couples the scheme to the initial value and differs from the interior
formula.  The modified scheme shifts the first three weights by multiples of
zeta(alpha - 1), which cancels the leading error term for smooth functions.

Solvers march such a scheme through `_march`, which owns the weights and the
nonlocal history sum.  All weights but c_0, the tail and the modified shifts
are shared by every level, so the sum is a causal Toeplitz convolution;
`_march` evaluates it exactly by blocked FFT convolution (Hairer, Lubich and
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985) in O(N log^2 N) for N levels.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .specfun import zeta_unit_strip

__all__ = [
    "Scheme",
    "CoefficientRow",
    "l1_weights",
    "ml1_weights",
    "caputo_apply",
    "caputo_power_rule",
]


class Scheme(Enum):
    L1 = "l1"
    MODIFIED_L1 = "ml1"


@dataclass(frozen=True, eq=False)
class CoefficientRow:
    """Discretization weights c_0..c_n for one scheme at time level n.

    The row always sums to zero (the schemes annihilate constants), and for
    the plain L1 scheme c_0 = 1 with strictly negative trailing weights.
    """

    alpha: float
    n: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _interior_weights(alpha: float, kmax: int) -> np.ndarray:
    """Level-independent weights c_k = (k+1)^(1-a) - 2 k^(1-a) + (k-1)^(1-a)
    for k = 1..kmax.  Valid as long as k < n; the level's own index takes the
    tail formula instead.

    The three powers cancel to a value of order k^(-1-a), so they are not
    evaluated as written.  With e = 1-a, x = 1/k and t = e atanh(x),

        (1+x)^e + (1-x)^e - 2
            = 2 (expm1(e/2 log1p(-x^2)) cosh(t) + 2 sinh(t/2)^2),

    whose two terms cancel only by a factor (2-a)/a, independent of k.  At
    k = 1, log1p(-1) diverges, so c_1 = 2^e - 2 is set directly.
    """
    e = 1.0 - alpha
    w = np.empty(kmax)
    w[0] = 2.0 ** e - 2.0
    k = np.arange(2, kmax + 1, dtype=float)
    t = e * np.arctanh(1.0 / k)
    w[1:] = 2.0 * k ** e * (np.expm1(0.5 * e * np.log1p(-1.0 / k ** 2)) * np.cosh(t)
                            + 2.0 * np.sinh(0.5 * t) ** 2)
    return w


def _tail_weights(alpha: float, nmax: int) -> np.ndarray:
    """Final weight (n-1)^(1-a) - n^(1-a) for levels n = 1..nmax."""
    n = np.arange(1, nmax + 1, dtype=float)
    e = 1.0 - alpha
    return (n - 1.0) ** e - n ** e


def l1_weights(alpha: float, n: int) -> CoefficientRow:
    """Weight row of the L1 scheme at time level n >= 1."""
    _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"l1_weights requires n >= 1, got {n}")
    w = np.empty(n + 1)
    w[0] = 1.0
    if n >= 2:
        w[1:n] = _interior_weights(alpha, n - 1)
    e = 1.0 - alpha
    w[n] = (n - 1.0) ** e - n ** e
    return CoefficientRow(alpha, n, w)


def ml1_weights(alpha: float, n: int) -> CoefficientRow:
    """Weight row of the modified L1 scheme at time level n >= 2.

    Identical to the L1 row except that indices 0, 1, 2 are shifted by
    -z, +2z, -z with z = zeta(alpha - 1); the shifts cancel, so the row
    still sums to zero.  At n = 2 the index-2 slot is the tail weight and
    receives the shift there.  Level 1 has no index 2 and falls back to L1.
    """
    _check_alpha(alpha)
    if n < 2:
        raise ValueError(f"ml1_weights requires n >= 2, got {n}")
    z = zeta_unit_strip(alpha - 1.0)
    w = np.array(l1_weights(alpha, n).weights)
    w[0] -= z
    w[1] += 2.0 * z
    w[2] -= z
    return CoefficientRow(alpha, n, w)


# Blocks of at most _LEAF levels sum their own history directly, which keeps
# the roundoff of the direct sum; larger blocks hand their left half's effect
# on the right half to one FFT convolution.  Matrix states are transformed
# _COLUMNS columns at a time to bound the transforms' working memory.
_LEAF = 64
_COLUMNS = 64


@dataclass(eq=False)
class _MarchState:
    """Arrays shared by the recursion of one `_march` call."""

    v: np.ndarray            # levels 0..N, each shaped like the state
    hist: np.ndarray         # history sum of each level, as far as known
    interior: np.ndarray     # c_1, c_2, ... shared by every level
    z: float | None          # zeta(alpha - 1) for the modified scheme
    solve: Callable
    spectra: dict            # FFT of the interior weights, by transform size


def _march(alpha: float, scheme: Scheme, n_steps: int, v0,
           solve: Callable) -> np.ndarray:
    """March levels 1..n_steps of the L1 or modified-L1 scheme from v0.

    Level n satisfies c_0 v_n + (the rest of the equation) = -hist with
    hist = sum_{k=1..n} c_k v_{n-k} over the level-n weight row.
    `solve(n, modified, hist)` must return v_n; `modified` says whether the
    row carries the modified-L1 shift (c_0 = 1 - zeta(alpha - 1), from level
    2 on) or is plain L1 (c_0 = 1).  Returns the levels 0..n_steps stacked
    along a new first axis; the state may be a scalar or an array.
    """
    v0 = np.asarray(v0, dtype=float)
    v = np.empty((n_steps + 1,) + v0.shape)
    v[0] = v0
    hist = np.empty_like(v)
    hist[0] = 0.0
    # the tail weight of level n multiplies v_0, which is known up front
    np.multiply.outer(_tail_weights(alpha, n_steps), v0, out=hist[1:])
    state = _MarchState(
        v=v, hist=hist,
        interior=_interior_weights(alpha, max(n_steps - 1, 1)),
        z=(zeta_unit_strip(alpha - 1.0)
           if scheme is Scheme.MODIFIED_L1 else None),
        solve=solve, spectra={})
    size = _LEAF
    while size < n_steps:
        size *= 2
    _march_block(state, 1, size)
    return v


def _march_block(state: _MarchState, lo: int, size: int) -> None:
    """Solve levels lo..lo+size-1 (clipped to the last level), given that
    state.hist already holds the history of every level before lo."""
    hi = min(lo + size, state.v.shape[0])
    if size <= _LEAF:
        _march_leaf(state, lo, hi)
        return
    mid = lo + size // 2
    _march_block(state, lo, size // 2)
    if mid < hi:
        _add_history(state, lo, mid, hi, size)
        _march_block(state, mid, size // 2)


def _march_leaf(state: _MarchState, lo: int, hi: int) -> None:
    v, hist, interior, z = state.v, state.hist, state.interior, state.z
    for n in range(lo, hi):
        total = hist[n] + interior[:n - lo] @ v[n - 1:lo - 1:-1]
        modified = z is not None and n >= 2
        if modified:
            total = total + z * (2.0 * v[n - 1] - v[n - 2])
        v[n] = state.solve(n, modified, total)


def _add_history(state: _MarchState, lo: int, mid: int, hi: int,
                 size: int) -> None:
    """Add sum_{lo <= j < mid} c_{n-j} v_j to state.hist[n], mid <= n < hi.

    With x = v[lo:mid] and c_1..c_{size-1}, the sum is entry n - lo - 1 of
    their linear convolution.  A circular convolution of length size wraps
    only entries past size - 1 onto indices below mid - lo - 1, so the
    entries needed are free of wrap-around.
    """
    spectrum = state.spectra.get(size)
    if spectrum is None:
        spectrum = state.spectra[size] = np.fft.rfft(state.interior[:size - 1], size)
    rows = len(state.v)
    x = state.v.reshape(rows, -1)[lo:mid]
    out = state.hist.reshape(rows, -1)[mid:hi]
    start = mid - lo - 1
    for c in range(0, x.shape[1], _COLUMNS):
        f = np.fft.rfft(x[:, c:c + _COLUMNS], size, axis=0)
        f *= spectrum[:, None]
        out[:, c:c + _COLUMNS] += np.fft.irfft(f, size, axis=0)[start:start + hi - mid]


def caputo_apply(samples, alpha: float, h: float,
                 scheme: Scheme = Scheme.L1) -> float:
    """Apply a scheme to the samples y_0..y_n; returns the derivative at x_n."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("samples must be a one-dimensional sequence")
    n = y.size - 1
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    if scheme is Scheme.MODIFIED_L1:
        if n < 2:
            raise ValueError("the modified L1 scheme needs at least samples y_0..y_2")
        row = ml1_weights(alpha, n)
    else:
        if n < 1:
            raise ValueError("need at least samples y_0..y_1")
        row = l1_weights(alpha, n)
    return float(row.weights @ y[::-1]) / (math.gamma(2.0 - alpha) * h ** alpha)


def caputo_power_rule(p: float, alpha: float, x: float) -> float:
    """Caputo derivative of x^p: Gamma(p+1)/Gamma(p+1-alpha) * x^(p-alpha).

    Requires p > 0; at x = 0 the derivative is 0 for p > alpha, finite for
    p = alpha and divergent for p < alpha.
    """
    if p <= 0.0:
        raise ValueError(f"caputo_power_rule requires p > 0, got {p}")
    _check_alpha(alpha)
    if x < 0.0:
        raise ValueError(f"caputo_power_rule requires x >= 0, got {x}")
    c = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    if x == 0.0:
        if p > alpha:
            return 0.0
        if p == alpha:
            return c
        return math.inf
    return c * x ** (p - alpha)
