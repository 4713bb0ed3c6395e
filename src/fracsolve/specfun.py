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

# Switch to the spectral integral when the largest series term exceeds the
# result by this factor (about five decimal digits lost to cancellation).
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

    Restricted to 0 < alpha <= 1, beta > 0 and |x| <= 50.  For strongly
    negative x with small alpha the alternating terms grow huge before they
    decay and the sum loses digits to cancellation; the peak-to-result ratio
    bounds that loss.
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
    value, _ = _ml_series(alpha, beta, x, policy)
    return value


def _ml_neg_spectral(alpha: float, s: float) -> float:
    """E_alpha(-s) for s > 0, 0 < alpha < 1, from its spectral representation.

    E_alpha(-s) is completely monotone and equals the Laplace transform of a
    positive spectral density.  After substituting r^alpha = t / s the
    integrand is smooth and positive, so the quadrature never cancels:

        E_alpha(-s) = sin(alpha pi)/(alpha pi)
                      * int_0^inf exp(-t^(1/alpha)) s / (t^2 + 2 c s t + s^2) dt,

    with c = cos(alpha pi).  The exponential confines the integrand to
    t ~ 1 for every s; in the unscaled variable u = t / s it would sit at
    u ~ 1/s, where the quadrature misses it for large s.
    """
    theta = alpha * math.pi
    two_c = 2.0 * math.cos(theta)

    def integrand(t):
        if t <= 0.0:
            return 1.0 / s
        ex = math.log(t) / alpha
        if ex > 700.0:
            return 0.0
        # s / (t^2 + 2 c s t + s^2), without forming s^2, which overflows
        # for s > 1e154
        return math.exp(-math.exp(ex)) / (t * (t / s + two_c) + s)

    value, abserr = quad(integrand, 0.0, math.inf,
                         epsabs=0.0, epsrel=1e-12, limit=200)
    if not abserr <= 1e-10 * value:
        raise ConvergenceError(
            f"spectral quadrature for E_{alpha}(-{s}) reported error {abserr} "
            f"on the value {value}")
    return math.sin(theta) / (alpha * math.pi) * value


def ml_relaxation_exact(alpha: float, B: float, x: float,
                        policy: SeriesPolicy | None = None) -> float:
    """Decay solution value E_alpha(-B x^alpha) of y^(alpha) + B y = 0, y(0)=1.

    The series is used whenever it is numerically trustworthy.  When the
    alternating sum would lose more than ~5 digits (large B x^alpha with
    small alpha), the completely monotone spectral integral takes over, so
    the returned value is accurate on the whole domain and in particular
    stays strictly decreasing in x.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ml_relaxation_exact requires 0 < alpha < 1, got {alpha}")
    if B <= 0.0:
        raise ValueError(f"ml_relaxation_exact requires B > 0, got {B}")
    if x < 0.0:
        raise ValueError(f"ml_relaxation_exact requires x >= 0, got {x}")
    if policy is None:
        policy = _DEFAULT_POLICY
    if x == 0.0:
        return 1.0
    s = B * x ** alpha
    try:
        value, peak = _ml_series(alpha, 1.0, -s, policy)
        if peak <= _CANCELLATION_GUARD * abs(value):
            return value
    except ConvergenceError:
        pass
    return _ml_neg_spectral(alpha, s)
