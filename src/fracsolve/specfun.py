"""Special functions behind the fractional solvers.

Gamma, the Riemann zeta function on the strip (-1, 0], and the one- and
two-parameter Mittag-Leffler functions.  Everything here is a pure function
of its arguments and safe to call concurrently.
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad

__all__ = [
    "ConvergenceError",
    "SeriesPolicy",
    "gamma",
    "zeta_unit_strip",
    "mittag_leffler",
    "ml_relaxation_exact",
]

_LN2 = math.log(2.0)

# `mittag_leffler` refuses a series sum whose largest term exceeds the result
# by this factor (about five decimal digits lost to cancellation).
_CANCELLATION_GUARD = 1e5


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


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for the Mittag-Leffler power series."""

    rel_tol: float = 1e-15
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT_POLICY = SeriesPolicy()


def gamma(x: float) -> float:
    """Gamma function for x > 0.

    Non-positive arguments are rejected: 0 is a pole and the analytic
    continuation to x < 0 is never needed here.
    """
    if x <= 0.0:
        raise ValueError(f"gamma requires x > 0 (pole at 0), got {x}")
    return math.gamma(x)


def _eta(t: float, terms: int = 30) -> float:
    # Alternating zeta series sum (-1)^(k-1) / k^t, accelerated with the
    # Chebyshev-coefficient scheme of Cohen, Rodriguez Villegas and Zagier;
    # 30 terms give ~(3+sqrt(8))^-30 ~ 1e-23, far below double roundoff.
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


def _ml_series(alpha: float, beta: float, x: float, policy: SeriesPolicy):
    """Power series sum x^n / Gamma(alpha n + beta) with Neumaier summation.

    Returns (value, peak) where peak is the largest term magnitude seen;
    peak / |value| measures how much cancellation the sum suffered.
    """
    total = 1.0 / math.gamma(beta)
    comp = 0.0
    peak = abs(total)
    log_ax = math.log(abs(x))
    negative = x < 0.0
    for n in range(1, policy.max_terms + 1):
        a = alpha * n + beta
        if a <= 170.0 and n * log_ax <= 700.0:
            term = x ** n / math.gamma(a)
        else:
            log_term = n * log_ax - math.lgamma(a)
            if log_term > 709.0:
                raise ConvergenceError(
                    f"Mittag-Leffler term overflow at n={n} for "
                    f"alpha={alpha}, beta={beta}, x={x}",
                    partial_sum=total + comp,
                    terms_used=n - 1,
                )
            term = math.exp(log_term)
            if negative and n % 2:
                term = -term
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        mag = abs(term)
        if mag > peak:
            peak = mag
        if mag <= policy.rel_tol * abs(total + comp):
            return total + comp, peak
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge within {policy.max_terms} "
        f"terms for alpha={alpha}, beta={beta}, x={x}",
        partial_sum=total + comp,
        terms_used=policy.max_terms,
    )


def mittag_leffler(alpha: float, beta: float, x: float,
                   policy: SeriesPolicy | None = None) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(x).

    Evaluates the defining power series sum_{n>=0} x^n / Gamma(alpha n + beta)
    directly, truncating once a term drops below rel_tol times the running
    partial sum.  E_{alpha,beta}(0) = 1/Gamma(beta) exactly.

    Restricted to 0 < alpha <= 1, beta > 0 and |x| <= 50.  For beta = 1 and
    x < 0 the value is exp(x) at alpha = 1 and otherwise E_alpha(-s) with
    s = -x by the same branch rule as `ml_relaxation_exact`.  Elsewhere a
    strongly negative x makes the alternating terms grow huge before they
    decay; when the largest term exceeds the result by more than
    _CANCELLATION_GUARD, ConvergenceError is raised instead of a value
    missing most of its digits.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha}")
    if beta <= 0.0:
        raise ValueError(f"mittag_leffler requires beta > 0, got {beta}")
    if not abs(x) <= 50.0:
        raise ValueError(f"mittag_leffler requires |x| <= 50, got {x}")
    if policy is None:
        policy = _DEFAULT_POLICY
    if x == 0.0:
        return 1.0 / math.gamma(beta)
    if beta == 1.0 and x < 0.0:
        return math.exp(x) if alpha == 1.0 else _ml_neg(alpha, -x, policy)
    value, peak = _ml_series(alpha, beta, x, policy)
    if not peak <= _CANCELLATION_GUARD * abs(value):
        raise ConvergenceError(
            f"Mittag-Leffler series for alpha={alpha}, beta={beta}, x={x} "
            f"cancels: its largest term is {peak} against the sum {value}")
    return value


def _ml_neg(alpha: float, s: float, policy: SeriesPolicy) -> float:
    """E_alpha(-s) for s > 0, 0 < alpha < 1.

    The branch depends on s alone: the series for s <= 1, where no term
    exceeds about 1 and nothing cancels, and the spectral integral above.
    """
    if s <= 1.0:
        return _ml_series(alpha, 1.0, -s, policy)[0]
    return _ml_neg_spectral(alpha, s)


def _ml_neg_spectral(alpha: float, s: float) -> float:
    """E_alpha(-s) for s > 0, 0 < alpha < 1, from its spectral representation.

    E_alpha(-s) is completely monotone and equals the Laplace transform of a
    positive spectral density.  After substituting r^alpha = t / s,

        E_alpha(-s) = 1/(alpha pi) int_0^inf g(t) w / ((t - p)^2 + w^2) dt,

    with g(t) = exp(-t^(1/alpha)), p = -s cos(alpha pi) and
    w = s sin(alpha pi).  Nothing cancels, and g confines the integrand to
    t ~ 1 for every s; in the unscaled variable u = t / s it would sit at
    u ~ 1/s, where the quadrature misses it for large s.

    For alpha > 3/4 the kernel peaks at p with a half-width w < p, and it
    tends to a point mass as alpha -> 1.  Where g has not vanished at p, the
    integral from p/2 on is taken in v, t = p + w sinh(v), in which the
    kernel is 1/cosh(v).  The sine and cosine come from 1 - alpha, exact for
    alpha >= 1/2, because near alpha = 1 the value depends on w to first
    order.
    """
    if alpha > 0.5:
        d = math.pi * (1.0 - alpha)
        sin_t, cos_t = math.sin(d), -math.cos(d)
    else:
        sin_t, cos_t = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    peak, width = -cos_t * s, sin_t * s

    def g(t):
        if t <= 0.0:
            return 1.0
        ex = math.log(t) / alpha
        return 0.0 if ex > 700.0 else math.exp(-math.exp(ex))

    def in_t(t):
        # g w / ((t - p)^2 + w^2) with both parts divided by s: w^2 would
        # overflow for s > 1e154
        d = t - peak
        return sin_t * g(t) / (d * (d / s) + width * sin_t)

    def in_v(v):
        return 0.0 if v > 700.0 else g(peak + width * math.sinh(v)) / math.cosh(v)

    if width < peak and g(peak) > 0.0:
        pieces = [(in_t, 0.0, 0.5 * peak),
                  (in_v, -math.asinh(0.5 * peak / width), 0.0),
                  (in_v, 0.0, math.inf)]
    else:
        pieces = [(in_t, 0.0, math.inf)]
    value = abserr = 0.0
    for f, a, b in pieces:
        # full_output: a piece that is negligible against the sum may miss
        # its own relative tolerance; the check below is on the sum
        part, err = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200,
                         full_output=1)[:2]
        value += part
        abserr += err
    if not abserr <= 1e-10 * value:
        raise ConvergenceError(
            f"spectral quadrature for E_{alpha}(-{s}) reported error {abserr} "
            f"on the value {value}")
    return value / (alpha * math.pi)


def ml_relaxation_exact(alpha: float, B: float, x: float,
                        policy: SeriesPolicy | None = None) -> float:
    """Decay solution value E_alpha(-B x^alpha) of y^(alpha) + B y = 0, y(0)=1.

    With s = B x^alpha, the series gives the value for s <= 1 and the
    completely monotone spectral integral for s > 1, where the alternating
    series would start to lose digits to cancellation.  The value is
    accurate on the whole domain and strictly decreasing in x.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ml_relaxation_exact requires 0 < alpha < 1, got {alpha}")
    if not 0.0 < B < math.inf:
        raise ValueError(f"ml_relaxation_exact requires a finite B > 0, got {B}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"ml_relaxation_exact requires a finite x >= 0, got {x}")
    if policy is None:
        policy = _DEFAULT_POLICY
    if x == 0.0:
        return 1.0
    return _ml_neg(alpha, B * x ** alpha, policy)
