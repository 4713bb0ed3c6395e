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
the history sum and the level solve.  It solves for v - v_0, in which every
row, summing to zero, drops its final weight.  With the modified shifts
folded into the weights, levels 2..N then solve one lower-triangular
Toeplitz system, which `_march` solves exactly, up to roundoff, in
O(N log^2 N): the blocked scheme of Hairer, Lubich and Schlichte (SIAM J.
Sci. Stat. Comput. 6, 1985) with its recursion unrolled, over leaves solved
by FFT convolution with the first column of their matrix's inverse.  `_leaf`
sizes the leaves to the grid: their size is 5-smooth, so no FFT length has a
prime factor above 5, and they number a power of two wherever rounding the
size up allows, as on the ladders' grids, so each history hand-off feeds a
whole block but for the short end of the last leaf.  One helper,
`_convolve`, does every FFT convolution: the leaf solves, the history
hand-offs between blocks and both halves of each Newton step that builds
the leaf inverse.

Every interior weight and every history operand depends on alpha and the
scheme alone.  A `_Scope` holds them for the marches of one call at one
(alpha, scheme): c_0, the interior weights with the modified shifts applied,
the FFT of c_1..c_{2W-1} by block width W, and the first columns of the leaf
inverses of a convergence ladder's rungs, all computed in one doubling.
`_solving` makes a scope current for a block, as a convergence study does
around its rungs; a march that finds none for its (alpha, scheme) makes its
own and drops it when it returns.  A scope keeps weights and transforms of
at most 2^16 levels, and a longer march computes its own.  `l1_weights` and
`ml1_weights` compute their rows afresh.
"""

import bisect
import contextlib
import contextvars
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import (ConvergenceError, _check_alpha, _check_positive, _count,
                      _points, zeta_unit_strip)

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

    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)


# Interior weights are computed this many at a time: each block's temporaries
# are a few times its size, not a few arrays of all levels.
_WEIGHT_BLOCK = 1 << 12


def _interior_weights(alpha: float, lo: int, hi: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Level-independent weights c_k = (k+1)^(1-a) - 2 k^(1-a) + (k-1)^(1-a)
    for k = lo..hi-1, lo >= 2, written into out (hi - lo entries) where
    given, _WEIGHT_BLOCK of them at a time so that the temporaries stay
    bounded.  Valid as long as k < n; the level's own index takes the final
    weight of `_tail_weights` instead.  Each entry depends on its k alone,
    so any range or block gives the same bits as the same k in a longer one.

    The three powers cancel to a value of order k^(-1-a), so they are not
    evaluated as written.  With e = 1-a, x = 1/k and t = e atanh(x),

        (1+x)^e + (1-x)^e - 2
            = 2 (expm1(e/2 log1p(-x^2)) cosh(t) + 2 sinh(t/2)^2),

    whose two terms cancel only by a factor (2-a)/a, independent of k.  At
    k = 1, log1p(-1) diverges, so `_Scope` sets c_1 = 2^e - 2 itself,
    shift included.
    """
    e = 1.0 - alpha
    out = np.empty(hi - lo) if out is None else out
    for start in range(lo, hi, _WEIGHT_BLOCK):
        k = np.arange(start, min(start + _WEIGHT_BLOCK, hi), dtype=float)
        t = e * np.arctanh(1.0 / k)
        out[start - lo:start - lo + len(k)] = 2.0 * k ** e * (
            np.expm1(0.5 * e * np.log1p(-1.0 / k ** 2)) * np.cosh(t)
            + 2.0 * np.sinh(0.5 * t) ** 2)
    return out


def _tail_weights(alpha: float, lo: int, hi: int) -> np.ndarray:
    """Final weight (n-1)^e - n^e, e = 1-a, for levels n = lo..hi-1, lo >= 2,
    as n^e expm1(e log1p(-1/n)) so that the powers do not cancel; at n = 1,
    log1p(-1) diverges and `_row` sets the weight -1 itself.  Only the
    public rows read it: the march solves for v - v_0, which it drops."""
    e = 1.0 - alpha
    n = np.arange(lo, hi, dtype=float)
    return n ** e * np.expm1(e * np.log1p(-1.0 / n))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# The current scope, which `_solving` sets: None outside one.
_SCOPE = contextvars.ContextVar("_SCOPE", default=None)
# A scope keeps weights and transforms of at most this many levels; a longer
# march computes its own and drops them as it goes.
_KEPT_LEVELS = 1 << 16


class _Scope:
    """The weights and history operands of one scheme at one alpha, for the
    marches of one call.

    c0 is c_0 = 1 - z, and `interior(n)` returns the interior weights
    c_1..c_{n-1}.  The modified scheme shifts indices 0, 1, 2 of every row
    from level 2 on by -z, +2z, -z with z = zeta(alpha - 1), so its c_1 and
    c_2 carry the shifts; index 2 is the final weight at level 2, which
    `_row` shifts by -z itself.  The plain scheme takes z = 0, which leaves
    every weight's bits as they are.  No final weight is kept: a march of
    v - v_0 never reads one.  The interior weights are grown to the longest
    of marches, each (h, B, N), on entry, and later by the ones they lack;
    `spectrum(W)` is the history operand of block width W.  Both are kept
    while they serve at most _KEPT_LEVELS levels.  `inverses` maps
    the `key` of each scalar march in marches to the first column of its
    leaf inverse.  Every array it keeps is read-only.
    """

    def __init__(self, alpha: float, scheme: Scheme, marches=()):
        e = 1.0 - alpha
        z = 0.0 if scheme is Scheme.L1 else zeta_unit_strip(alpha - 1.0)
        self.alpha, self.scheme, self.z, self.c0 = alpha, scheme, z, 1.0 - z
        self._interior = _frozen(np.concatenate(
            ([2.0 ** e - 2.0 + 2.0 * z], _interior_weights(alpha, 2, 3) - z)))
        self._spectra = {}
        if marches:     # at once, not grown rung by rung
            self.interior(min(max(N for _, _, N in marches), _KEPT_LEVELS))
        self.inverses = self._invert(marches)

    def interior(self, n: int) -> np.ndarray:
        """c_1..c_{n-1}, the interior weights of level n >= 1."""
        weights = self._interior
        kept = len(weights)
        if kept < n - 1:
            grown = np.empty(n - 1)
            grown[:kept] = weights
            _interior_weights(self.alpha, kept + 1, n, grown[kept:])
            weights = _frozen(grown)
            if n <= _KEPT_LEVELS:
                self._interior = weights
        return weights[:n - 1]

    def spectrum(self, width: int) -> np.ndarray:
        """The FFT of length 2 W of c_1..c_{2W-1}, W = width, as a column.
        The weights depend on alpha alone, so a march of N levels takes them
        past c_{N-1} where 2W - 1 > N - 1: they reach only entries past the
        levels it keeps, which it drops."""
        spectrum = self._spectra.get(width)
        if spectrum is None:
            spectrum = _frozen(np.fft.rfft(self.interior(2 * width),
                                           2 * width)[:, None])
            if 2 * width <= _KEPT_LEVELS:
                self._spectra[width] = spectrum
        return spectrum

    def key(self, h: float, B, n_steps: int) -> tuple:
        """(L, c_0 + B Gamma(2 - alpha) h^alpha), the leaf size and the
        diagonal of the leaf matrix of a scalar march of n_steps levels of
        step h at the rate B."""
        return (_leaf(n_steps - 1, 1),
                float(self.c0 + B * _step_scale(self.alpha, h)))

    def _invert(self, marches) -> dict:
        """The leaf inverses of the scalar marches at (h, B, N), each of a
        problem that passed its checks, by `key`, from one `_leaf_inverse`
        call.  Their leaf matrices differ only in the diagonal and in their
        size L, so the doubling serves them all as columns, and each column
        keeps the bits of its lone inverse.  Each is copied out, so that the
        batch's array of max L rows per column is not held."""
        keys = {self.key(h, B, N) for h, B, N in marches if N >= 2}
        keys = sorted((key for key in keys if math.isfinite(key[1])),
                      key=lambda key: -key[0])
        if not keys:
            return {}
        s = _leaf_inverse(self.spectrum, np.array([key[1] for key in keys]),
                          [key[0] for key in keys])
        return {key: _frozen(s[:key[0], j:j + 1].copy())
                for j, key in enumerate(keys)}


@contextlib.contextmanager
def _solving(alpha: float, scheme: Scheme, marches=()):
    """Within the block, every march of (alpha, scheme) shares one `_Scope`,
    made on entry with the leaf inverses of the scalar marches at the
    (h, B, N) in marches.  A march takes a column only where its leaf and
    diagonal match bit for bit; any other computes its own.  The scope is
    dropped when the block exits, by an exception too."""
    token = _SCOPE.set(_Scope(alpha, scheme, marches))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _row(alpha: float, scheme: Scheme, n: int) -> CoefficientRow:
    """The weights c_0..c_n of level n, final weight included: -1 at n = 1,
    and shifted by -z at n = 2."""
    scope = _Scope(alpha, scheme)
    final = -1.0 if n == 1 else _tail_weights(alpha, n, n + 1)[0]
    if n == 2:
        final -= scope.z
    return CoefficientRow(np.concatenate(
        ([scope.c0], scope.interior(n), [final])))


def l1_weights(alpha: float, n: int) -> CoefficientRow:
    """Weight row of the L1 scheme at time level n >= 1."""
    _check_alpha(alpha)
    _count("n", n, 1)
    return _row(alpha, Scheme.L1, n)


def ml1_weights(alpha: float, n: int) -> CoefficientRow:
    """Weight row of the modified L1 scheme at time level n >= 2.

    Identical to the L1 row except that indices 0, 1, 2 are shifted by
    -z, +2z, -z with z = zeta(alpha - 1); the shifts cancel, so the row
    still sums to zero.  At n = 2 the index-2 slot is the tail weight and
    receives the shift there.  Level 1 has no index 2: the march takes the
    L1 step there, and this function refuses n = 1.
    """
    _check_alpha(alpha)
    _count("n", n, 2)
    return _row(alpha, Scheme.MODIFIED_L1, n)


# Leaves are solved at once with the inverse of their triangular Toeplitz
# matrix, and each block of leaves hands its history to the next block of the
# same width by one FFT convolution.  Where the march is long enough, a leaf
# holds at least _LEAF levels and, for narrow states, _LEAF_VALUES values, and
# about twice that at most: each FFT call then does enough arithmetic to
# outweigh its fixed cost.  Matrix states are marched _COLUMNS columns at a
# time, each chunk with its own leaf inverse, to bound the transforms' working
# memory.
_LEAF = 128
_LEAF_VALUES = 1024
_COLUMNS = 64


# the 5-smooth numbers up to 2^12, past every leaf size
_SMOOTH = tuple(sorted(2 ** a * 3 ** b * 5 ** c for a in range(13)
                       for b in range(8) for c in range(6)
                       if 2 ** a * 3 ** b * 5 ** c <= 1 << 12))


def _leaf(unknowns: int, columns: int) -> int:
    """The leaf size L of a march of `unknowns` levels, `columns` columns
    in a chunk.  With longest = max(_LEAF, _LEAF_VALUES // columns), count
    is the largest power of two whose leaves would hold at least longest
    levels each, or 1, and L is the smallest 2^a 3^b 5^c at or above
    unknowns / count, at most 11% above it (7% from 1024 on) and at most
    2 longest <= 2048.  So count L >= unknowns, every FFT length 2 L 2^j
    has no prime factor above 5, and where the rounding adds fewer than
    L / count levels per leaf, as for every scalar march of N <= 32769 and
    the ladders' N = 20 2^k, the march has count leaves, of which only the
    last falls short."""
    longest = max(_LEAF, _LEAF_VALUES // columns)
    count = 1
    while unknowns // (2 * count) >= longest:
        count *= 2
    return _SMOOTH[bisect.bisect_left(_SMOOTH, -(-unknowns // count))]


def _step_scale(alpha: float, h: float) -> float:
    """Gamma(2 - alpha) h^alpha, the factor of a march's forcing and rate."""
    return math.gamma(2.0 - alpha) * h ** alpha


def _check_steps(scheme: Scheme, n_steps: int) -> None:
    """The one step count rule of a march: the modified scheme needs two."""
    if scheme is Scheme.MODIFIED_L1 and n_steps < 2:
        raise ValueError("the modified L1 scheme needs at least 2 steps")


def _march(alpha: float, scheme: Scheme, h: float, v0, B, F,
           out: np.ndarray) -> np.ndarray:
    """March v^(alpha) + B v = F(x) from v0 with the L1 or modified-L1
    scheme on the grid x_n = n h, n = 0..N.

    The state v0 may be a scalar or an array; B is a scalar or an array of
    its shape, and F holds one forcing sample per level, N + 1 in all, the
    same for every entry of the state.  The modified scheme needs N >= 2.
    Writes the levels 0..N into out, of shape (N + 1,) + the state's shape,
    and returns it; out is contiguous or 2-D, such as the interior columns
    of a padded result, so that its rows reshape to a view.  For a scalar
    state out may be F itself, so that the forcing samples become the
    result.  ConvergenceError where B gha v_0 is not finite.

    With gha = Gamma(2 - alpha) h^alpha and lam = B gha, level n solves
    (c_0 + lam) v_n = F_n gha - sum_{k=1..n} c_k v_{n-k} over its weight
    row.  The row sums to zero, so w_n = v_n - v_0 solves
    (c_0 + lam) w_n = F_n gha - lam v_0 - sum_{k=1..n-1} c_k w_{n-k}: the
    final weight multiplies w_0 = 0.  Level 1 is solved in closed form,
    v_1 = (F_1 gha + v_0) / (1 + lam).  From level 2 on, every row has
    the same c_0 and interior weights once the modified shifts are part of
    them, so with the term c_{n-1} w_1 moved to the right-hand side, the w_n
    of levels 2..N solve one lower-triangular Toeplitz system, and each
    chunk adds v_0 back once they are solved.  So each level is accurate to
    a few eps |v_0| absolutely, not relative to its value: where a stiff
    solve decays to eps |v_0| or below, its values may read 0.  The system
    is solved leaf by leaf, L levels each (`_leaf`): a leaf's solution is
    the convolution of its right-hand sides with s, the first column of the
    leaf matrix's inverse, which a ladder's scope holds for its scalar
    marches and `_leaf_inverse` computes otherwise.  After leaf k (counted
    from 1) the block of width W = L (k & -k) that ends there subtracts its
    history from the next W levels, by convolution with c_1..c_{2W-1}.
    This is the Hairer-Lubich-Schlichte recursion over power-of-two blocks,
    unrolled: every level receives the history of every earlier block
    exactly once before its leaf is solved.
    """
    n_steps = len(F) - 1
    _check_steps(scheme, n_steps)
    gha = _step_scale(alpha, h)
    lam = B * gha
    v0 = np.asarray(v0, dtype=float)
    # where out is F, level n's sample is read before level n is written
    out[0] = v0
    out[1] = (F[1] * gha + v0) / (1.0 + lam)
    if n_steps < 2:
        return out
    v = out.reshape(n_steps + 1, -1)
    lam = np.broadcast_to(lam, v0.shape).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_v0 = lam * v[0]
    if not np.all(np.isfinite(lam_v0)):
        raise ConvergenceError(
            f"B Gamma(2 - alpha) h^alpha v_0 overflows at h = {h}: the march "
            f"of v - v_0 cannot hold it")
    scope = _SCOPE.get()
    if scope is None or (scope.alpha, scope.scheme) != (alpha, scheme):
        scope = _Scope(alpha, scheme)
    held = (scope.inverses.get(scope.key(h, B, n_steps)) if v0.ndim == 0
            else None)
    leaf = _leaf(n_steps - 1, min(_COLUMNS, v.shape[1]))

    # one chunk at a time, leaf inverse included, and the right-hand sides
    # one leaf of rows at a time: full-length temporaries would be a second
    # array of all levels
    for c in range(0, v.shape[1], _COLUMNS):
        x, rates = v[:, c:c + _COLUMNS], lam[c:c + _COLUMNS]
        interior, w1 = scope.interior(n_steps), x[1] - x[0]
        for lo in range(2, n_steps + 1, leaf):
            rows = x[lo:lo + leaf]
            np.multiply(F[lo:lo + leaf, None], gha, out=rows)
            rows -= lam_v0[c:c + _COLUMNS]
            rows -= np.multiply.outer(interior[lo - 2:lo - 2 + leaf], w1)
        # past _KEPT_LEVELS the scope keeps no weights, so these are an
        # array of all levels that the hand-offs must not hold too
        del interior
        s = (held if held is not None else
             _leaf_inverse(scope.spectrum, scope.c0 + rates, leaf))
        s = np.fft.rfft(s, 2 * leaf, axis=0)
        for k, lo in enumerate(range(2, n_steps + 1, leaf), 1):
            x[lo:lo + leaf] = _convolve(x[lo:lo + leaf], s, 0)
            mid, width = lo + leaf, leaf * (k & -k)
            if mid <= n_steps:
                future = x[mid:mid + width]
                future -= _convolve(x[mid - width:mid], scope.spectrum(width),
                                    width - 1)[:len(future)]
        x[2:] += x[0]
    return out


def _leaf_inverse(weights, diagonal: np.ndarray, leaves) -> np.ndarray:
    """The first column s of the inverse of the L x L lower-triangular
    Toeplitz matrix with the given diagonal and subdiagonals c_1..c_{L-1},
    one column of s per diagonal entry, L = leaves: one int for every
    column, or one per column in non-increasing order.  The inverse is
    lower-triangular Toeplitz too, so s defines it; s solves the matrix
    against e_0.  Returns max L rows, zero past each column's L.
    weights(W) is the FFT of length 2 W of c_1..c_{2W-1}.

    s starts at its one entry 1/diagonal and doubles by Newton's step
    s <- s (2 - a s) for power series (Kung, Numer. Math. 22, 1974), a the
    matrix's first column: with s exact to k entries, a s = 1 + r with r
    zero below k, and entries k..2k-1 of s are those of -r convolved with s.
    In march terms, -r is the history that levels 0..k-1 of s hand to the
    next k levels, and the convolution solves those k levels as a leaf with
    s[:k]; both take the one FFT of s[:k], of every column still short of
    its L.  So the first L entries of a longer column invert the L x L
    matrix too, up to roundoff (the prefix rule).  A column leaves the
    doubling once it holds its L entries, and the doubling that reaches L
    zeroes its entries past L before the leaf convolution, as the FFT's
    zero padding does for a lone column of L entries: each column keeps
    the bits it would have alone.
    """
    leaves = np.broadcast_to(leaves, diagonal.shape)
    s = np.zeros((leaves[0], diagonal.size))
    s[0] = 1.0 / diagonal
    k = 1
    while k < leaves[0]:
        short = np.count_nonzero(leaves > k)
        head, grown = s[:k, :short], s[k:2 * k, :short]
        spectrum = np.fft.rfft(head, 2 * k, axis=0)
        np.negative(_convolve(head, weights(k), k - 1, spectrum)[:len(grown)],
                    out=grown)
        past = np.arange(k, k + len(grown))[:, None] >= leaves[:short]
        grown[past] = 0.0
        grown[...] = _convolve(grown, spectrum, 0)
        grown[past] = 0.0
        k *= 2
    return s


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
    """Apply a scheme to the samples y_0..y_n; returns the derivative at x_n.
    ValueError for a sample that is not finite, ConvergenceError where the
    derivative of finite samples overflows."""
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ValueError("samples must be a one-dimensional sequence")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    _check_positive("h", h)
    weights = ml1_weights if scheme is Scheme.MODIFIED_L1 else l1_weights
    row = weights(alpha, y.size - 1)
    derivative = float(row.weights @ y[::-1]) / _step_scale(alpha, h)
    if not math.isfinite(derivative):
        raise ConvergenceError(
            f"the derivative of the samples overflows at h = {h}")
    return derivative


def caputo_power_rule(p: float, alpha: float, x: float) -> float:
    """Caputo derivative of x^p: Gamma(p+1)/Gamma(p+1-alpha) * x^(p-alpha).

    Requires p > 0; at x = 0 the derivative is 0 for p > alpha, finite for
    p = alpha and divergent for p < alpha.
    """
    _check_positive("p", p)
    _check_alpha(alpha)
    _points("x", x)
    c = math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha)
    if x == 0.0:
        if p > alpha:
            return 0.0
        if p == alpha:
            return c
        return math.inf
    return c * x ** (p - alpha)
