"""Special functions behind the fractional solvers.

The Riemann zeta function on the strip (-1, 0], and the one- and
two-parameter Mittag-Leffler functions.  One power series, summed by
Horner's rule in `_ml_series`, gives `mittag_leffler`, E_{alpha,beta}(-s)
for small s and the fractional Taylor polynomial of `relaxation`; a spectral
integral gives E_{alpha,beta}(-s) for larger s.  Everything here is a pure
function of its arguments and safe to call concurrently.
"""

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConvergenceError",
    "zeta_unit_strip",
    "mittag_leffler",
    "ml_relaxation_exact",
]

_LN2 = math.log(2.0)

# `_ml_neg` refuses a series that no spectral integral replaces where its
# largest term exceeds the smallest value by this factor (about five decimal
# digits lost to cancellation).
_CANCELLATION_GUARD = 1e5

# The power series stops once a term falls below _SERIES_REL_TOL times the
# partial sum, and raises ConvergenceError past _SERIES_MAX_TERMS terms; the
# same budget bounds `_ml_neg`'s steps down in beta.
_SERIES_REL_TOL = 1e-15
_SERIES_MAX_TERMS = 10_000


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to converge.

    Attributes:
        partial_sum: the partial result accumulated before giving up,
            or None when no meaningful partial value exists.
        terms_used: number of series terms consumed, when applicable.
    """

    def __init__(self, message, partial_sum=None, terms_used=None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used


def _eta(t: float) -> float:
    # Alternating zeta series sum (-1)^(k-1) / k^t, accelerated with the
    # Chebyshev-coefficient scheme of Cohen, Rodriguez Villegas and Zagier;
    # 30 terms give ~(3+sqrt(8))^-30 ~ 1e-23, far below double roundoff.
    terms = 30
    d = (3.0 + math.sqrt(8.0)) ** terms
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    total = 0.0
    for k in range(terms):
        c = b - c
        total += c / (k + 1.0) ** t
        b *= (k + terms) * (k - terms) / ((k + 0.5) * (k + 1.0))
    return total / d


def zeta_unit_strip(s: float) -> float:
    """Riemann zeta on the strip -1 < s <= 0, by analytic continuation.

    Uses zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) with
    zeta(1-s) = eta(1-s) / (1 - 2^s).  Both sin(pi s/2) and 1 - 2^s vanish
    linearly as s -> 0, so their ratio is evaluated as a pair (expm1 keeps
    the denominator fully accurate) and the limit point s = 0 is exact.
    """
    if not -1.0 < s <= 0.0:
        raise ValueError(f"zeta_unit_strip requires -1 < s <= 0, got {s}")
    if s == 0.0:
        return -0.5
    ratio = math.sin(math.pi * s / 2.0) / -math.expm1(s * _LN2)
    return 2.0 ** s * math.pi ** (s - 1.0) * ratio * math.gamma(1.0 - s) * _eta(1.0 - s)


def _power_over_gamma(x: float, n: int, a: float, g: float = 1.0) -> float:
    """x^n Gamma(g) / Gamma(a) for x > 0, a > 0 and 1 <= g <= a + 1:
    directly where every factor is representable, else through logarithms;
    inf where the quotient overflows.  a and g first come down by m whole
    steps, to an a - m of at most 100 where g - m stays positive, as
    Gamma(g) / Gamma(a) = Gamma(g - m) / Gamma(a - m) prod_{j=1..m}
    (g - j) / (a - j), the product summed in logarithms: lgamma(g) - lgamma(a)
    would be off by about lgamma(a) eps, 2e-13 at a = 300.  At g = 1, m = 0,
    and the factors Gamma(1) = exp(0) = 1 leave the bits of x^n / Gamma(a)."""
    m = max(0, min(math.ceil(a) - 100, math.ceil(g) - 1))
    log_ratio = math.fsum(math.log1p((g - a) / (a - j)) for j in range(1, m + 1))
    a, g = a - m, g - m
    log_x = math.log(x)
    if 1.0 / sys.float_info.max < a < 171.0 and n * log_x < 700.0:
        return x ** n / math.gamma(a) * math.gamma(g) * math.exp(log_ratio)
    log_c = n * log_x - math.lgamma(a) + math.lgamma(g) + log_ratio
    return math.exp(log_c) if log_c < 709.0 else math.inf


def _stirling_tail(z: float) -> float:
    # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) by three terms of
    # Stirling's series; the next, 1/(1680 z^7), changes by under 5e-19 alpha
    # from z = a to z = a + alpha for a > 100
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / z


def _gamma_ratio(b: float, alpha: float) -> float:
    """Gamma(b) / Gamma(b - alpha) for 0 < alpha < 1 and b > alpha: up to
    b - alpha = 100 by `_power_over_gamma`, past it in O(1) from the
    difference of Stirling's series at b and a = b - alpha,

        alpha log a + (b - 1/2) log1p(alpha / a) - alpha + tail(b) - tail(a),

    every term of which is O(alpha); a^alpha is taken by one power, so
    only a small argument goes through exp.  `_power_over_gamma` would sum
    about a - 100 logarithms, and is 1.5e-12 off at a = 5000."""
    a = b - alpha
    if a <= 100.0:
        return _power_over_gamma(1.0, 0, a, b)
    return a ** alpha * math.exp((b - 0.5) * math.log1p(alpha / a) - alpha
                                 + (_stirling_tail(b) - _stirling_tail(a)))


def _ml_series(alpha: float, beta: float, x: np.ndarray,
               degree: int | None = None, g: float = 1.0):
    """Power series sum x^n Gamma(g) / Gamma(alpha n + beta) over an array x
    of one sign, Gamma(g) E_{alpha,beta}(x); g = 1 gives E itself.

    The sum runs to n = degree, or else until a term at the x of largest
    magnitude, top, falls below _SERIES_REL_TOL times the partial sum there,
    which stops it for every smaller |x|.
    Horner's rule runs in x / top, so the coefficients top^n Gamma(g) /
    Gamma(alpha n + beta) are the terms at top: a coefficient 1 / Gamma(alpha
    n + beta) alone would go subnormal long before its term does.  A
    coefficient is computed directly where that is representable.
    Returns the values and the largest term magnitude at top; peak / |value|
    measures how much cancellation the sum suffers.  ConvergenceError when a
    term or the sum at top overflows, or _SERIES_MAX_TERMS terms do not
    converge.
    """
    # the floor keeps log(top) finite; an all-zero x gives x / top = 0 anyway
    top = max(float(np.max(np.abs(x), initial=0.0)), 1e-300)
    sign = -1.0 if np.any(x < 0.0) else 1.0
    coeffs, total = [], 0.0
    last = _SERIES_MAX_TERMS if degree is None else degree
    for n in range(last + 1):
        c = _power_over_gamma(top, n, alpha * n + beta, g)
        step = total + sign ** n * c
        if not abs(step) < math.inf:
            raise ConvergenceError(
                f"Mittag-Leffler term or sum overflows at n={n} for "
                f"alpha={alpha}, beta={beta}, x={sign * top}",
                partial_sum=total, terms_used=n)
        coeffs.append(c)
        total = step
        if degree is None and c <= _SERIES_REL_TOL * abs(total):
            break
    else:
        if degree is None:
            raise ConvergenceError(
                f"Mittag-Leffler series did not converge within "
                f"{_SERIES_MAX_TERMS} terms for alpha={alpha}, beta={beta}, "
                f"x={sign * top}", partial_sum=total, terms_used=n)
    u = x / top
    out = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out *= u
        out += c
    return out, max(coeffs)


def mittag_leffler(alpha: float, beta: float, x):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x).

    Takes a scalar or an array of x and returns a float or an array.
    Restricted to 0 < alpha <= 1, beta > 0 and |x| <= 50.  For x >= 0 it
    sums the power series sum_{n>=0} x^n / Gamma(alpha n + beta), truncated
    once a term drops below 1e-15 times the partial sum at the largest x, and
    raises ConvergenceError where 10 000 terms do not get there;
    E_{alpha,beta}(0) = 1/Gamma(beta) exactly.  For x < 0 it is `_ml_neg`
    at s = -x, which picks the evaluation and raises ConvergenceError where
    none gives the value.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha}")
    if beta <= 0.0:
        raise ValueError(f"mittag_leffler requires beta > 0, got {beta}")
    xa = np.asarray(x, dtype=float)
    bad = xa[~(np.abs(xa) <= 50.0)]
    if bad.size:
        raise ValueError(f"mittag_leffler requires |x| <= 50, got {bad[0]}")
    out = np.empty_like(xa)
    neg = xa < 0.0
    out[~neg] = _ml_series(alpha, beta, xa[~neg])[0]
    out[neg] = _ml_neg(alpha, beta, -xa[neg])
    return float(out) if np.isscalar(x) else out


def _sin_cos_pi(a: float, b: float = 0.0) -> tuple[float, float]:
    """sin and cos of pi (a - b), with a - b as the exact pair hi + lo of
    Knuth's TwoSum less its nearest integer: the sine is 0 at integers."""
    hi = a - b
    bb = hi - a
    n = round(hi)
    r = math.pi * ((hi - n) + ((a - (hi - bb)) - (b + bb)))
    sign = -1.0 if n % 2 else 1.0
    return sign * math.sin(r), sign * math.cos(r)


def _ml_neg(alpha: float, beta: float, s: np.ndarray,
            g: float = 1.0) -> np.ndarray:
    """Gamma(g) E_{alpha,beta}(-s) for an array of s >= 0, 0 < alpha <= 1,
    beta > 0 and g >= 1; g = 1 gives E itself, and a large g keeps the
    value of a large beta inside the double range.

    The one choice of how E_{alpha,beta}(-s) is evaluated, from alpha, beta
    and s alone.  alpha = beta = 1 is exp(-s).  Below alpha = 1e-17
    min(1, beta) the value is the limit 1 / (Gamma(beta) (1 + s)), off by
    about alpha |psi(beta)| relative.  The series takes every s where no
    spectral integral applies: at alpha = 1, at any other alpha < 1e-17
    (the integral's factor t^((1-beta)/alpha) is a step at t = 1 that no
    node resolves), and more than _SERIES_MAX_TERMS steps of alpha above
    beta = 1.  Its alternating terms can peak far above the value there:
    ConvergenceError where the largest exceeds the smallest |value| by more
    than _CANCELLATION_GUARD, or where the series does not converge.

    Elsewhere the series takes s <= max(1, beta^alpha), where its terms fall
    from about the first on, but only s < 1e-8 for alpha <= 0.1, beta <= 1
    and 1 - beta <= 1e8 alpha: there its terms near s = 1 peak up to 390
    times the value, or number about 18 / alpha at beta = 1, while the
    integral's error, about 1e-23 (1 - beta) / alpha, stays near 1e-15.
    The spectral integral takes the rest, after a beta > 1 steps down into
    (1 - alpha, 1], where the spectral density is bounded at 0, by
    E_{alpha,beta}(-s) = (1/Gamma(beta - alpha) - E_{alpha,beta-alpha}(-s)) / s,
    taken in u_b = Gamma(b) E_{alpha,b}(-s), which lies in (0, 1] for every
    b >= alpha: u_b = Gamma(b) / Gamma(b - alpha) (1 - u_{b-alpha}) / s,
    from b in (1 - alpha, 1], where Gamma(b) is moderate.
    Above beta^alpha, s exceeds Gamma(b + alpha) / Gamma(b) <= b^alpha
    (Wendel's inequality) at each b = beta - k alpha, so no step grows the
    error much.  Each step takes Gamma(b) / Gamma(b - alpha) from
    `_gamma_ratio` at O(1) cost.
    """
    if alpha == beta == 1.0:
        return math.gamma(g) * np.exp(-s)
    if alpha < 1e-17 * min(1.0, beta):
        return _power_over_gamma(1.0, 0, beta, g) / (1.0 + s)
    if alpha == 1.0 or alpha < 1e-17 or beta - 1.0 > _SERIES_MAX_TERMS * alpha:
        value, peak = _ml_series(alpha, beta, -s, g=g)
        worst = np.min(np.abs(value), initial=math.inf)
        if not peak <= _CANCELLATION_GUARD * worst:
            raise ConvergenceError(
                f"Mittag-Leffler series for alpha={alpha}, beta={beta}, "
                f"x={-np.max(s)} cancels: its largest term is {peak} "
                f"against the sum {worst}")
        return value
    out = np.empty_like(s)
    low = (s < 1e-8 if alpha <= 0.1 and 0.0 <= 1.0 - beta <= 1e8 * alpha
           else s <= max(1.0, beta ** alpha))
    if low.any():
        out[low] = _ml_series(alpha, beta, -s[low], g=g)[0]
    if not low.all():
        steps = math.ceil((beta - 1.0) / alpha) if beta > 1.0 else 0
        high = s[~low]
        b = beta - steps * alpha
        value = _ml_neg_spectral(alpha, b, high)
        if steps:
            value *= math.gamma(b)      # u_b, stepped up to u_beta
            for k in range(steps - 1, -1, -1):
                value = (_gamma_ratio(beta - k * alpha, alpha)
                         * (1.0 - value) / high)
            value *= _power_over_gamma(1.0, 0, beta, g)
        else:
            value *= math.gamma(g)
        out[~low] = value
    return out


def _ml_neg_spectral(alpha: float, beta: float, s: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(-s) for an array of s > 0, 0 < alpha < 1 and
    0 < beta <= 1, from the spectral representation of Gorenflo, Loutchko
    and Luchko (Fract. Calc. Appl. Anal. 5, 2002).  With r^alpha = t / s,

        E_{alpha,beta}(-s) = 1/(alpha pi) int_0^inf g(t) w / ((t - p)^2 + w^2)
                             t^((1-beta)/alpha) (a - b t / s) dt,

    g(t) = exp(-t^(1/alpha)), p = -s cos(alpha pi), w = s sin(alpha pi),
    a = sin(pi (beta - alpha)) / sin(alpha pi) and b = sin(pi (beta - 1)) /
    sin(alpha pi).  The sines are reduced exactly, so a = 1 and b = 0 at
    beta = 1, where E_alpha(-s) is completely monotone and nothing cancels,
    and a = 0 at beta = alpha.  g confines the integrand to t ~ 1 for every
    s; in u = t / s it would sit at u ~ 1/s, where a quadrature misses it
    for large s.  The integral is split at the knee t = 1 of g, which is
    sharp for small alpha.

    For alpha > 3/4 the kernel peaks at p with a half-width w < p, and it
    tends to a point mass as alpha -> 1.  Where g(p) has not vanished, the
    integral is instead one piece in t up to p/2, then taken in v,
    t = p + w sinh(v), in which the kernel is 1/cosh(v), split at the peak.
    The sine and cosine of alpha pi come from alpha - 1 for alpha > 1/2,
    exact there, because near alpha = 1 the value depends on w to first
    order.
    """
    sin_t, cos_t = _sin_cos_pi(alpha)
    a = _sin_cos_pi(beta, alpha)[0] / sin_t
    b = _sin_cos_pi(beta, 1.0)[0] / sin_t
    expo = (1.0 - beta) / alpha

    def weight(t, s, log_t):
        # g(t) t^expo (a - b t / s), which is g(t) at beta = 1.  expo and
        # 1/alpha magnify an error in log t, so the t pieces take it from
        # the node itself, not from the rounded t
        with np.errstate(over="ignore"):     # log(t) / alpha for tiny alpha
            log_g = -np.exp(np.minimum(log_t / alpha, 700.0))
        if beta == 1.0:
            return np.exp(log_g)
        return np.exp(log_g + expo * log_t) * (a - b / s * t)

    def integrand(near_peak, s, p, w, rule, idx):
        s, p, w = s[idx, None], p[idx, None], w[idx, None]

        def in_t(t, log_t):
            # weight w / ((t - p)^2 + w^2) with both parts divided by s: w^2
            # would overflow for s > 1e154
            d = t - p
            return sin_t * weight(t, s, log_t) / (d * (d / s) + w * sin_t)

        def in_v(v):
            v = np.minimum(v, 700.0)
            t = p + w * np.sinh(v)
            return weight(t, s, np.log(t)) / np.cosh(v)

        if not near_peak:
            return (rule.jy * in_t(rule.y, rule.log_y)
                    + rule.je * in_t(1.0 + rule.e, np.log1p(rule.e)))
        # t in [0, p/2], then v in [-asinh(p/2w), 0] and [0, inf)
        half = 0.5 * p
        v_low = np.arcsinh(half / w)
        return rule.jy * (half * in_t(half * rule.y, np.log(half) + rule.log_y)
                          + v_low * in_v(v_low * (rule.y - 1.0))) \
            + rule.je * in_v(rule.e)

    peak, width = -cos_t * s, sin_t * s
    split = width < peak
    with np.errstate(over="ignore"):     # p^(1/alpha) for large s
        split[split] = np.exp(-peak[split] ** (1.0 / alpha)) != 0.0
    value = np.empty_like(s)
    for near_peak in (False, True):
        cols = split == near_peak
        if cols.any():
            value[cols] = _de_integrate(
                functools.partial(integrand, near_peak, s[cols], peak[cols],
                                  width[cols]),
                int(cols.sum()),
                f"spectral integral of E_{{{alpha},{beta}}}(-s)")
    return value / (alpha * math.pi)


def ml_relaxation_exact(alpha: float, B: float, x):
    """Decay solution value E_alpha(-B x^alpha) of y^(alpha) + B y = 0, y(0)=1.

    Takes a scalar or an array of x and returns a float or an array: `_ml_neg`
    at beta = 1 and s = B x^alpha, accurate on the whole domain and strictly
    decreasing in x.  An s that overflows to inf raises ValueError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ml_relaxation_exact requires 0 < alpha < 1, got {alpha}")
    if not 0.0 < B < math.inf:
        raise ValueError(f"ml_relaxation_exact requires a finite B > 0, got {B}")
    xa = np.asarray(x, dtype=float)
    bad = xa[~((xa >= 0.0) & (xa < math.inf))]
    if bad.size:
        raise ValueError(f"ml_relaxation_exact requires a finite x >= 0, got {bad[0]}")
    with np.errstate(over="ignore"):
        s = B * xa ** alpha
    if not np.all(s < math.inf):
        raise ValueError(
            f"ml_relaxation_exact: B x^alpha overflows to inf for "
            f"alpha={alpha}, B={B}, x={xa.max()}")
    out = _ml_neg(alpha, 1.0, s.ravel()).reshape(s.shape)
    return float(out) if np.isscalar(x) else out


class _DERule(NamedTuple):
    """One level of the nested double-exponential rules, as (1, n) rows:
    the step h, the tanh-sinh nodes y on (0, 1) with their weights jy, and
    the exp-sinh nodes e on (0, inf) with their weights je.  Weights exclude
    the step.  log_y is log y to full relative accuracy, also where y
    rounds to 1."""

    h: float
    y: np.ndarray
    jy: np.ndarray
    e: np.ndarray
    je: np.ndarray
    log_y: np.ndarray


# Double-exponential quadrature (Takahasi and Mori, Publ. RIMS 9, 1974): with
# y = 1/(1 + exp(-pi sinh u)) and e = exp(pi/2 sinh u), an integral over
# (0, 1) or (0, inf) becomes one over u whose integrand decays double
# exponentially, and the trapezoidal sum in u converges as exp(-c/h).
# Level 0 takes the step 1/16 on u in [-4.5, 3.5], past which both weights
# are below 1e-20 of the integrand's bound (and t, v pieces have decayed);
# each further level halves the step and adds only the odd nodes.
_DE_LO, _DE_HI, _DE_STEP = -4.5, 3.5, 1.0 / 16.0
_DE_LEVELS = 5          # finest step 1/512
_DE_AGREE = 1e-12       # a column is done when two levels agree this well
_DE_FAIL = 1e-10        # ... and fails when the last two still differ more
_DE_BLOCK = 1 << 16     # integrand values evaluated at once


def _de_rule(level: int) -> _DERule:
    h = _DE_STEP / 2 ** level
    k = np.arange(math.ceil(_DE_LO / h), math.floor(_DE_HI / h) + 1)
    if level:
        k = k[k % 2 == 1]
    u = k * h
    sh, ch = np.sinh(u), np.cosh(u)
    z = np.exp(-math.pi * sh)
    y = 1.0 / (1.0 + z)
    e = np.exp(0.5 * math.pi * sh)
    rows = [y, math.pi * ch * z * y * y, e, 0.5 * math.pi * ch * e,
            -np.log1p(z)]
    for r in rows:
        r.setflags(write=False)
    return _DERule(h, *(r[None, :] for r in rows))


_DE_RULES = tuple(_de_rule(level) for level in range(_DE_LEVELS + 1))


def _de_integrate(integrand, n: int, what: str) -> np.ndarray:
    """n integrals at once by the nested double-exponential rules.

    integrand(rule, idx) returns, for the columns idx, the (len(idx), m)
    transformed integrand (weights included) at the m nodes of `rule`.
    Each level's sum is half the previous level's plus the new nodes' sum,
    and a column stops once two levels agree to _DE_AGREE times the integral
    of its absolute value.  ConvergenceError if a column's last two levels
    differ by more than _DE_FAIL.
    """
    value, size = np.zeros(n), np.zeros(n)
    change = np.zeros(n)
    cols = np.arange(n)
    for level, rule in enumerate(_DE_RULES):
        part, part_abs = np.empty(cols.size), np.empty(cols.size)
        block = max(1, _DE_BLOCK // rule.y.size)
        for i in range(0, cols.size, block):
            f = integrand(rule, cols[i:i + block])
            part[i:i + block] = f.sum(axis=1)
            part_abs[i:i + block] = np.abs(f).sum(axis=1)
        old = value[cols]
        value[cols] = 0.5 * old + rule.h * part
        size[cols] = 0.5 * size[cols] + rule.h * part_abs
        if level:
            change[cols] = np.abs(value[cols] - old)
            # a nan sum never agrees, so it ends in the error below
            cols = cols[~(change[cols] <= _DE_AGREE * size[cols])]
            if not cols.size:
                return value
    worst = np.max(change[cols] / size[cols])
    if not worst <= _DE_FAIL:
        raise ConvergenceError(
            f"{what}: the sums at steps {2 * rule.h} and {rule.h} differ by "
            f"{worst:.3g} of the integral")
    return value
