"""L1 and modified-L1 discretizations of the Caputo derivative.

Both schemes approximate the Caputo derivative of order alpha in (0, 1) on a
uniform grid x_k = k h as

    y^(alpha)(x_n)  ~=  1 / (Gamma(2 - alpha) h^alpha) * sum_k c_k y_{n-k},

where the weight row c_0..c_n depends on the time level n: the final weight
couples the scheme to the initial value and differs from the interior
formula.  The modified scheme shifts the first three weights by multiples of
zeta(alpha - 1), which cancels the leading error term for smooth functions.

Solvers march such a scheme through `_march`, which takes the equation's
step, decay rates and forcing samples and owns the step scaling, the weights,
the history sum and the level solve.  With the modified shifts folded into
the weights, levels 2..N solve one lower-triangular Toeplitz system, which
`_march` solves exactly, up to roundoff, in O(N log^2 N): the blocked scheme
of Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985) with its
recursion unrolled, over leaves solved by FFT convolution with the first
column of their matrix's inverse.  One helper, `_convolve`, does every FFT
convolution: the leaf solves, the history hand-offs between blocks and both
halves of each Newton step that builds the leaf inverse.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

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
    w[:1] = 2.0 ** e - 2.0
    k = np.arange(2, kmax + 1, dtype=float)
    t = e * np.arctanh(1.0 / k)
    w[1:] = 2.0 * k ** e * (np.expm1(0.5 * e * np.log1p(-1.0 / k ** 2)) * np.cosh(t)
                            + 2.0 * np.sinh(0.5 * t) ** 2)
    return w


def _tail_weights(alpha: float, nmax: int) -> np.ndarray:
    """Final weight (n-1)^e - n^e, e = 1-a, for levels n = 1..nmax, as
    n^e expm1(e log1p(-1/n)) so that the powers do not cancel; at n = 1,
    log1p(-1) diverges and the weight -1 is set directly."""
    e = 1.0 - alpha
    w = np.empty(nmax)
    w[0] = -1.0
    n = np.arange(2, nmax + 1, dtype=float)
    w[1:] = n ** e * np.expm1(e * np.log1p(-1.0 / n))
    return w


def _scheme_weights(alpha: float, scheme: Scheme, n: int):
    """The weights of levels 1..n as (c_0, interior, tail).

    interior holds c_1..c_{n-1}, shared by every level that reaches them, and
    tail[m-1] is the final weight (m-1)^e - m^e of level m, e = 1-alpha.  The
    modified scheme shifts indices 0, 1, 2 of every row from level 2 on by
    -z, +2z, -z with z = zeta(alpha - 1), so its c_0 is 1 - z; index 2 is an
    interior weight from level 3 on and the tail at level 2, so both take the
    -z.  Level 1 has no index 2 and is the L1 row 1, tail[0] in both schemes.
    """
    interior = _interior_weights(alpha, n - 1)
    tail = _tail_weights(alpha, n)
    if scheme is Scheme.L1:
        return 1.0, interior, tail
    z = zeta_unit_strip(alpha - 1.0)
    interior[:1] += 2.0 * z
    interior[1:2] -= z
    tail[1:2] -= z
    return 1.0 - z, interior, tail


def _row(alpha: float, scheme: Scheme, n: int) -> CoefficientRow:
    c0, interior, tail = _scheme_weights(alpha, scheme, n)
    return CoefficientRow(alpha, n, np.concatenate(([c0], interior, tail[-1:])))


def l1_weights(alpha: float, n: int) -> CoefficientRow:
    """Weight row of the L1 scheme at time level n >= 1."""
    _check_alpha(alpha)
    if n < 1:
        raise ValueError(f"l1_weights requires n >= 1, got {n}")
    return _row(alpha, Scheme.L1, n)


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
    return _row(alpha, Scheme.MODIFIED_L1, n)


# Leaves are solved at once with the inverse of their triangular Toeplitz
# matrix, and each block of leaves hands its history to the next block of the
# same width by one FFT convolution.  A leaf holds at least _LEAF levels and,
# for narrow states, up to _LEAF_VALUES values: each FFT call then does enough
# arithmetic to outweigh its fixed cost.  Matrix states are marched _COLUMNS
# columns at a time, each chunk with its own leaf inverse, to bound the
# transforms' working memory.
_LEAF = 128
_LEAF_VALUES = 1024
_COLUMNS = 64


def _march(alpha: float, scheme: Scheme, h: float, v0, B, F) -> np.ndarray:
    """March v^(alpha) + B v = F(x) from v0 with the L1 or modified-L1
    scheme on the grid x_n = n h, n = 0..N.

    The state v0 may be a scalar or an array; B is a scalar or an array of
    its shape, and F holds one forcing sample per level, N + 1 in all, the
    same for every entry of the state.  The modified scheme needs N >= 2.
    With gha = Gamma(2 - alpha) h^alpha, level n solves
    (c_0 + B gha) v_n = F_n gha - sum_{k=1..n} c_k v_{n-k} over the level-n
    weight row.  Returns the levels 0..N stacked along a new first axis.

    Level 1 is solved in closed form.  From level 2 on, every row has the
    same c_0 and interior weights once the modified shifts are part of them,
    so with the terms in v_0 and v_1 moved to the right-hand side, levels
    2..N solve one lower-triangular Toeplitz system.  It is solved leaf by
    leaf, L levels each: a leaf's solution is the convolution of its
    right-hand sides with s, the first column of the leaf matrix's inverse,
    whose FFT `_leaf_inverse` returns.
    L is the power of two at or below max(_LEAF, _LEAF_VALUES / columns),
    columns being the width of one chunk, so a scalar state takes leaves of
    1024 levels and a state of 8 or more columns leaves of 128.  After
    leaf k (counted from 1) the block of width W = L (k & -k) that ends
    there subtracts its history from the next W levels, by convolution with
    c_1..c_{2W-1}, whose FFT is computed once per width.  This is the
    Hairer-Lubich-Schlichte recursion over power-of-two blocks, unrolled:
    every level receives the history of every earlier block exactly once
    before its leaf is solved.
    """
    n_steps = len(F) - 1
    if scheme is Scheme.MODIFIED_L1 and n_steps < 2:
        raise ValueError("the modified L1 scheme needs at least 2 steps")
    gha = math.gamma(2.0 - alpha) * h ** alpha
    # F is scaled as each chunk is filled, not up front: a scaled copy of F
    # would be a second array of all levels
    lam = B * gha
    c0, interior, tail = _scheme_weights(alpha, scheme, n_steps)
    v0 = np.asarray(v0, dtype=float)
    v = np.empty((n_steps + 1,) + v0.shape)
    v[0] = v0
    v[1] = (F[1] * gha - tail[0] * v0) / (1.0 + lam)
    if n_steps < 2:
        return v
    v = v.reshape(n_steps + 1, -1)
    diagonal = (c0 + np.broadcast_to(lam, v0.shape)).reshape(-1)
    longest = max(_LEAF, _LEAF_VALUES // min(_COLUMNS, v.shape[1]))
    leaf = min(1 << (longest.bit_length() - 1), n_steps - 1)

    # the FFT of length 2 W of c_1..c_{2W-1}, the history operand of blocks
    # of width W, once per width for every chunk and its leaf inverse
    @functools.cache
    def weights(width):
        return np.fft.rfft(interior[:2 * width - 1], 2 * width)[:, None]

    # one chunk at a time, leaf inverse included: full-width temporaries
    # would be a second array of all levels
    for c in range(0, v.shape[1], _COLUMNS):
        x = v[:, c:c + _COLUMNS]
        np.multiply(F[2:, None], gha, out=x[2:])
        x[2:] -= np.multiply.outer(tail[1:], x[0])
        x[2:] -= np.multiply.outer(interior, x[1])
        s = _leaf_inverse(weights, diagonal[c:c + _COLUMNS], leaf)
        for k, lo in enumerate(range(2, n_steps + 1, leaf), 1):
            x[lo:lo + leaf] = _convolve(x[lo:lo + leaf], s, 0)
            mid, width = lo + leaf, leaf * (k & -k)
            if mid <= n_steps:
                future = x[mid:mid + width]
                future -= _convolve(x[mid - width:mid], weights(width),
                                    width - 1)[:len(future)]
    return v.reshape((n_steps + 1,) + v0.shape)


def _leaf_inverse(weights, diagonal: np.ndarray, leaf: int) -> np.ndarray:
    """FFT of length 2 leaf of the first column s of the inverse of the
    leaf x leaf lower-triangular Toeplitz matrix with the given diagonal and
    subdiagonals c_1..c_{leaf-1}, one column of s per diagonal entry.  The
    inverse is lower-triangular Toeplitz too, so s defines it; s solves the
    matrix against e_0.  weights(W) is the FFT of length 2 W of
    c_1..c_{2W-1}.

    s starts at its one entry 1/diagonal and doubles by Newton's step
    s <- s (2 - a s) for power series (Kung, Numer. Math. 22, 1974), a the
    matrix's first column: with s exact to k entries, a s = 1 + r with r
    zero below k, and entries k..2k-1 of s are those of -r convolved with s.
    In march terms, -r is the history that levels 0..k-1 of s hand to the
    next k levels, and the convolution solves those k levels as a leaf with
    s[:k]; both take the one FFT of s[:k].
    """
    s = np.empty((leaf, diagonal.size))
    s[0] = 1.0 / diagonal
    k = 1
    while k < leaf:
        spectrum = np.fft.rfft(s[:k], 2 * k, axis=0)
        grown = s[k:2 * k]
        np.negative(_convolve(s[:k], weights(k), k - 1, spectrum)[:len(grown)],
                    out=grown)
        grown[...] = _convolve(grown, spectrum, 0)
        k *= 2
    return np.fft.rfft(s, 2 * leaf, axis=0)


def _convolve(x: np.ndarray, spectrum: np.ndarray, start: int,
              x_spectrum: np.ndarray | None = None) -> np.ndarray:
    """Entries start..start+len(x)-1 of the linear convolution, along the
    first axis, of x with the sequence c whose rfft of length
    n = 2 (len(spectrum) - 1) is spectrum; x_spectrum is the rfft of x of
    length n where it is known already.  The product of the transforms is
    the circular convolution of length n, which wraps the linear entries
    past n - 1 onto the indices below len(x) + len(c) - 1 - n; every call
    asks for entries in between."""
    size = 2 * (len(spectrum) - 1)
    if x_spectrum is None:
        f = np.fft.rfft(x, size, axis=0)
        f *= spectrum
    else:
        f = x_spectrum * spectrum
    return np.fft.irfft(f, size, axis=0)[start:start + len(x)]


def caputo_apply(samples, alpha: float, h: float,
                 scheme: Scheme = Scheme.L1) -> float:
    """Apply a scheme to the samples y_0..y_n; returns the derivative at x_n."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("samples must be a one-dimensional sequence")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    weights = ml1_weights if scheme is Scheme.MODIFIED_L1 else l1_weights
    row = weights(alpha, y.size - 1)
    return float(row.weights @ y[::-1]) / (math.gamma(2.0 - alpha) * h ** alpha)


def caputo_power_rule(p: float, alpha: float, x: float) -> float:
    """Caputo derivative of x^p: Gamma(p+1)/Gamma(p+1-alpha) * x^(p-alpha).

    Requires p > 0; at x = 0 the derivative is 0 for p > alpha, finite for
    p = alpha and divergent for p < alpha.
    """
    if not 0.0 < p < math.inf:
        raise ValueError(f"caputo_power_rule requires a finite p > 0, got {p}")
    _check_alpha(alpha)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"caputo_power_rule requires a finite x >= 0, got {x}")
    c = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    if x == 0.0:
        if p > alpha:
            return 0.0
        if p == alpha:
            return c
        return math.inf
    return c * x ** (p - alpha)
