"""Special-function accuracy and property tests.

Pinned reference values were computed once offline with mpmath at 40
significant digits.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracsolve.cli import run
from fracsolve.specfun import (ConvergenceError, _gamma_ratio, _ml_neg,
                               mittag_leffler, ml_relaxation_exact,
                               zeta_unit_strip)

# mpmath references
ZETA_STRIP = {
    0.0: -0.5,
    -0.1: -0.4172280407673669,
    -0.3: -0.2938130681297213,
    -0.5: -0.2078862249773546,
    -0.7: -0.1462371917259080,
    -0.9: -0.1011935039853519,
}
E_HALF_AT_MINUS_1 = 0.4275835761558070      # = e * erfc(1)
E_03_AT_MINUS_1 = 0.4565944083296907
E_07_AT_MINUS_4 = 0.09976025489051463
E_HALF_HALF_AT_MINUS_1 = 0.1366060073919493
E_03_DEEP = 0.1389344810783158              # E_0.3(-4 * 2^0.3), spectral regime
E_HALF_AT_MINUS_10 = 0.05614099274382258586     # = e^100 erfc(10)
E_HALF_AT_MINUS_30 = 0.01879588886141675150     # = e^900 erfc(30)
E_1_172_AT_1 = 8.105021019003019e-310           # sum_n 1/Gamma(n + 172)
E_07_25_AT_30 = 9.118616099121992e52
E_0001_AT_MINUS_1 = 0.49985569607852429795
E_HALF_HALF_AT_MINUS_5 = 0.010666394882413155097


class TestZetaUnitStrip:
    @pytest.mark.parametrize("s,expected", sorted(ZETA_STRIP.items()))
    def test_reference_values(self, s, expected):
        assert zeta_unit_strip(s) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [-1.0, -1.5, 0.1, 1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            zeta_unit_strip(bad)


class TestMittagLeffler:
    def test_exponential_point(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(
            math.e, rel=1e-14, abs=0)

    def test_half_at_minus_one(self):
        assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(
            E_HALF_AT_MINUS_1, rel=1e-13, abs=0)

    def test_zero_argument_is_exact(self):
        assert mittag_leffler(0.3, 1.0, 0.0) == 1.0
        assert mittag_leffler(0.5, 2.5, 0.0) == 1.0 / math.gamma(2.5)

    def test_two_parameter_point(self):
        assert mittag_leffler(0.5, 0.5, -1.0) == pytest.approx(
            E_HALF_HALF_AT_MINUS_1, rel=1e-12, abs=0)

    def test_exponential_collapse(self):
        for x in np.arange(-5.0, 5.25, 0.25):
            got = mittag_leffler(1.0, 1.0, float(x))
            assert got == pytest.approx(math.exp(x), rel=1e-12, abs=0)

    def test_two_parameter_exponential_identity(self):
        for x in np.arange(0.1, 5.01, 0.1):
            got = mittag_leffler(1.0, 2.0, float(x))
            assert got == pytest.approx(
                (math.exp(x) - 1.0) / x, rel=1e-10, abs=0)

    def test_convergence_failure_carries_partial_sum(self):
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(0.3, 1.0, 50.0)
        assert isinstance(info.value.partial_sum, float)
        assert info.value.terms_used >= 1

    def test_max_terms_budget(self):
        # the terms 0.999^n / Gamma(0.001 n + 1) fall by about 0.1% a step,
        # so 10 000 of them are still far above 1e-15 of the sum
        with pytest.raises(ConvergenceError) as info:
            mittag_leffler(0.001, 1.0, 0.999)
        assert info.value.terms_used == 10000

    # the two numerical refusals of the negative axis: at alpha = 1 with
    # beta != 1 the series cancels by 1.3e10, and just below alpha = 1 the
    # spectral integral's last two sums still differ by 4.6e-10
    @pytest.mark.parametrize("args,match", [
        ((1.0, 0.5, -20.0), "cancels"),
        ((0.9999999999, 0.9, -3.0), "differ by"),
    ])
    def test_negative_axis_refusals(self, args, match, capsys):
        with pytest.raises(ConvergenceError, match=match):
            mittag_leffler(*args)
        alpha, beta, x = map(repr, args)
        assert run(["ml", "--alpha", alpha, "--beta", beta, f"--x={x}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fracsolve: numerical failure: ")
        assert match in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("alpha,beta,x", [
        (0.0, 1.0, 1.0), (1.2, 1.0, 1.0), (0.5, 0.0, 1.0),
        (0.5, -1.0, 1.0), (0.5, 1.0, 51.0), (0.5, 1.0, -51.0),
    ])
    def test_domain(self, alpha, beta, x):
        with pytest.raises(ValueError):
            mittag_leffler(alpha, beta, x)


class TestRelaxationExact:
    def test_initial_value(self):
        assert ml_relaxation_exact(0.5, 1.0, 0.0) == 1.0
        assert ml_relaxation_exact(0.3, 4.0, 0.0) == 1.0

    def test_alpha_half(self):
        assert ml_relaxation_exact(0.5, 1.0, 1.0) == pytest.approx(
            E_HALF_AT_MINUS_1, rel=1e-13, abs=0)

    def test_alpha_03(self):
        assert ml_relaxation_exact(0.3, 1.0, 1.0) == pytest.approx(
            E_03_AT_MINUS_1, rel=1e-13, abs=0)

    def test_alpha_07_strong_decay(self):
        # the alternating series loses ~3 digits here; still far inside 1e-10
        assert ml_relaxation_exact(0.7, 4.0, 1.0) == pytest.approx(
            E_07_AT_MINUS_4, rel=1e-10, abs=0)

    def test_spectral_regime(self):
        # series cancellation is hopeless at this argument; the spectral
        # integral must deliver full accuracy
        assert ml_relaxation_exact(0.3, 4.0, 2.0) == pytest.approx(
            E_03_DEEP, rel=1e-11, abs=0)

    def test_generalized_mean_value_sandwich(self):
        # (y(h) - 1) Gamma(alpha+1) / h^alpha equals -y(xi) for some
        # xi in [0, h], hence lies between -y(0) = -1 and -y(h)
        for alpha in (0.3, 0.5, 0.7):
            for h in (0.1, 0.01):
                yh = ml_relaxation_exact(alpha, 1.0, h)
                ratio = (yh - 1.0) * math.gamma(alpha + 1.0) / h ** alpha
                assert -1.0 - 1e-12 <= ratio <= -yh + 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("B", [1.0, 4.0])
    def test_monotone_decay(self, alpha, B):
        xs = np.arange(0.0, 2.005, 0.01)
        values = [ml_relaxation_exact(alpha, B, float(x)) for x in xs]
        diffs = np.diff(values)
        assert np.all(diffs < 0.0)

    @pytest.mark.parametrize("alpha,B,x", [
        (1.0, 1.0, 1.0), (0.5, 0.0, 1.0), (0.5, 1.0, -0.1),
    ])
    def test_domain(self, alpha, B, x):
        with pytest.raises(ValueError):
            ml_relaxation_exact(alpha, B, x)


class TestRelaxationExactLargeArgument:
    """E_alpha(-s) = ml_relaxation_exact(alpha, s, 1) for s in [1, 1e8],
    where the spectral branch carries most of the range."""

    ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]
    S = np.logspace(0.0, 8.0, 33)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_positive_and_decreasing(self, alpha):
        values = np.array([ml_relaxation_exact(alpha, s, 1.0) for s in self.S])
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_asymptotic_expansion(self, alpha):
        # E_alpha(-s) ~ sum_k (-1)^(k+1) s^-k / Gamma(1 - alpha k); the first
        # omitted term is below 1e-11 of the value for s >= 1e4
        from scipy.special import rgamma      # 0 at the poles of Gamma
        # s^2 overflows beyond 1e154; the value 1/(s Gamma(1-alpha)) does not
        for s in [*self.S[self.S >= 1e4], 1e160, 1e300]:
            series = sum((-1) ** (k + 1) * s ** -k * rgamma(1.0 - alpha * k)
                         for k in (1, 2, 3))
            assert ml_relaxation_exact(alpha, s, 1.0) == pytest.approx(
                series, rel=1e-10, abs=0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95, 0.99, 0.999,
                                       1.0 - 1e-6])
    def test_matches_mpmath_quadrature(self, alpha):
        # the spectral integral in t = s u at 25 digits, split where the
        # integrand turns: t ~ 1 and, for alpha > 1/2, t ~ -cos(alpha pi) s
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            a = mpmath.mpf(alpha)
            theta = a * mpmath.pi
            c = mpmath.cos(theta)
            for s in (1.0, 1e2, 1e4, 1e6, 1e8):
                def integrand(t, s=mpmath.mpf(s)):
                    return mpmath.exp(-t ** (1 / a)) * s / (t * t + 2 * c * s * t + s * s)
                points = {mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(2)}
                if c < 0:
                    points.add(-c * s)
                want = mpmath.sin(theta) / theta * mpmath.quad(
                    integrand, sorted(points) + [mpmath.inf])
                assert ml_relaxation_exact(alpha, s, 1.0) == pytest.approx(
                    float(want), rel=1e-12, abs=0)


class TestNegativeAxisBranchRule:
    """E_alpha(-s) takes the series for s <= 1 (s < 1e-8 for alpha <= 0.1)
    and the spectral integral above, in `mittag_leffler` (beta = 1) and
    `ml_relaxation_exact` alike; other series that cancel raise instead of
    returning a wrong value."""

    def test_inside_documented_domain(self):
        # the series overflowed a term at n = 773 and raised
        assert mittag_leffler(0.5, 1.0, -30.0) == pytest.approx(
            E_HALF_AT_MINUS_30, rel=1e-15, abs=0)

    def test_no_cancelled_series_value(self):
        # the series returned 1.146e27
        assert mittag_leffler(0.5, 1.0, -10.0) == pytest.approx(
            E_HALF_AT_MINUS_10, rel=1e-14, abs=0)

    def test_exponential_at_alpha_one(self):
        # the series returned -51133
        assert mittag_leffler(1.0, 1.0, -50.0) == math.exp(-50.0)

    def test_cancelling_two_parameter_series_raises(self):
        # the series returned 0.010694 (true 0.010666): peak/value 2.7e12;
        # then it raised, and now the spectral integral gives the value
        assert mittag_leffler(0.5, 0.5, -5.0) == pytest.approx(
            E_HALF_HALF_AT_MINUS_5, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha,B,x", [
        (0.3, 10.0, 0.00547),   # s = 2.096: the series kept ~10 digits here
        (1e-3, 1.0, 1.0),       # s = 1: the series ran out of its 10 000 terms
        (1e-4, 1.0, 1.0),
        (1e-3, 1.0, 0.5 ** 1000),
    ])
    def test_relaxation_exact_past_series_edge_matches_mpmath(self, alpha, B, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            s = B * mpmath.mpf(x) ** a
            # exp(-t^(1/a)) is below exp(-e^40) past t = 1 + 40 a
            want = mpmath.sin(a * mpmath.pi) / (a * mpmath.pi) * mpmath.quad(
                lambda t: mpmath.exp(-t ** (1 / a)) * s
                / (t * t + 2 * mpmath.cos(a * mpmath.pi) * s * t + s * s),
                sorted({0, max(0, 1 - 40 * a), 1, 1 + 40 * a}))
        assert ml_relaxation_exact(alpha, B, x) == pytest.approx(
            float(want), rel=1e-13, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.05, 1.0),
           x=st.floats(-50.0, 0.0, exclude_max=True),
           y=st.floats(-50.0, 0.0, exclude_max=True))
    def test_decays_on_negative_axis(self, alpha, x, y):
        near, far = max(x, y), min(x, y)
        e_near = mittag_leffler(alpha, 1.0, near)
        e_far = mittag_leffler(alpha, 1.0, far)
        assert 0.0 < e_far and e_near <= 1.0
        # non-increasing in |x| up to the 1e-13 the values are good to
        assert e_far <= e_near * (1.0 + 1e-13)
        if alpha < 1.0:
            assert e_near == pytest.approx(
                ml_relaxation_exact(alpha, 1.0, (-near) ** (1.0 / alpha)),
                rel=1e-13, abs=0)


class TestArrayArguments:
    """`ml_relaxation_exact` and `mittag_leffler` take arrays of x: one call
    per curve."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    def test_mittag_leffler_array_matches_scalar_calls(self, beta):
        x = np.linspace(-3.0, 3.0, 25)
        got = mittag_leffler(0.8, beta, x)
        want = np.array([mittag_leffler(0.8, beta, float(v)) for v in x])
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_mittag_leffler_array_raises_when_an_element_would(self):
        # E_{0.5,0.5}(-5) raised "cancels"; now no element of this array does
        got = mittag_leffler(0.5, 0.5, np.array([1.0, -0.5, -5.0]))
        assert got[2] == pytest.approx(
            E_HALF_HALF_AT_MINUS_5, rel=1e-13, abs=0)
        with pytest.raises(ValueError, match="50"):
            mittag_leffler(0.5, 1.0, np.array([1.0, -51.0]))

    def test_large_argument_coefficients_do_not_go_subnormal(self):
        # Horner on 1/Gamma(alpha n + beta) alone was 2.4e-5 off here
        assert mittag_leffler(0.7, 2.5, 30.0) == pytest.approx(
            E_07_25_AT_30, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 0.9, 0.999])
    @pytest.mark.parametrize("B", [0.5, 3.0])
    def test_array_matches_scalar_calls_across_branch_edge(self, alpha, B):
        # s = B x^alpha runs from 0 to 2.5, through both branches
        x = np.linspace(0.0, (2.5 / B) ** (1.0 / alpha), 201)
        got = ml_relaxation_exact(alpha, B, x)
        want = np.array([ml_relaxation_exact(alpha, B, float(v)) for v in x])
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_scalar_gives_float_and_shape_is_kept(self):
        assert isinstance(ml_relaxation_exact(0.5, 1.0, 0.5), float)
        grid = np.full((2, 3), 4.0)
        assert ml_relaxation_exact(0.5, 1.0, grid).shape == (2, 3)


class TestFoundRegressions:
    @pytest.mark.parametrize("x", [1e300, np.array([1.0, 1e300])])
    def test_overflowing_argument_is_a_domain_error(self, x):
        # s = B x^alpha overflows to inf; this raised "spectral quadrature
        # ... error nan on the value nan"
        with pytest.raises(ValueError, match="overflows"):
            ml_relaxation_exact(0.5, 1e300, x)

    def test_overflowing_argument_exits_2(self, capsys):
        assert run(["relax", "--alpha", "0.5", "--B", "1e300",
                    "--h", "1e300", "--T", "1e300"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_large_beta_starts_from_log_gamma(self):
        # 1/Gamma(172) overflowed in math.gamma: "math range error"
        assert mittag_leffler(1.0, 172.0, 1.0) == pytest.approx(
            E_1_172_AT_1, rel=1e-12, abs=0)
        assert mittag_leffler(0.5, 200.0, 0.0) == pytest.approx(
            math.exp(-math.lgamma(200.0)), rel=1e-12, abs=0)

    def test_small_alpha_at_s_one(self, capsys):
        # E_0.001(-1) needed 31 722 series terms; it exited 1, and so did
        # every corrected solve at alpha = 0.001, whose reference reaches s = 1
        assert run(["ml", "--alpha", "0.001", "--x", "-1"]) == 0
        assert abs(float(capsys.readouterr().out) - E_0001_AT_MINUS_1) <= 1e-14
        assert run(["relax", "--alpha", "0.001", "--h", "0.25", "--correct"]) == 0

    def test_large_beta_on_the_command_line(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "172", "--x", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            E_1_172_AT_1, rel=1e-12, abs=0)


def ml_mpmath(alpha, beta, s):
    """E_{alpha,beta}(-s) in mpmath: the Talbot inversion of its Laplace
    transform p^(alpha-beta) / (p^alpha + s), or for s >= 1e3 the first 12
    terms of the asymptotic series -sum_k (-s)^-k / Gamma(beta - alpha k)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, s = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(s)
        if s >= 1e3:
            return float(-mpmath.fsum((-s) ** -k * mpmath.rgamma(b - a * k)
                                      for k in range(1, 13)))
        return float(mpmath.invertlaplace(
            lambda p: p ** (a - b) / (p ** a + s), 1, method="talbot"))


def e_neg(alpha, beta, s):
    return float(_ml_neg(alpha, beta, np.array([s], dtype=float))[0])


class TestTwoParameterNegativeAxis:
    """E_{alpha,beta}(-s) for alpha < 1 takes one path for every beta: the
    series up to s = max(1, beta^alpha), or up to s = 1e-8 for alpha <= 0.1,
    beta <= 1 and 1 - beta <= 1e8 alpha, then the spectral integral, after
    stepping a beta > 1 down into (1 - alpha, 1]."""

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.05, 0.99),
           beta=st.floats(0.0, 3.0, exclude_min=True),
           log_s=st.floats(-3.0, 8.0), log_far=st.floats(0.0, 2.0))
    # the series at s = 1 lost 1.6e-13 to cancellation here
    @example(alpha=0.0546875, beta=0.0546875, log_s=0.0, log_far=0.0)
    def test_matches_mpmath(self, alpha, beta, log_s, log_far):
        s = 10.0 ** log_s
        got, want = e_neg(alpha, beta, s), ml_mpmath(alpha, beta, s)
        if beta < alpha:
            assert abs(got - want) <= 1e-14
            return
        # completely monotone for beta >= alpha (Schneider, Expo. Math. 14,
        # 1996): positive and non-increasing in s
        assert got == pytest.approx(want, rel=1e-13, abs=0)
        assert got > 0.0
        assert e_neg(alpha, beta, s * 10.0 ** log_far) <= got * (1.0 + 1e-13)

    @pytest.mark.parametrize("alpha,beta,s", [
        (0.0546875, 0.0546875, 1.0), (0.02, 0.02, 1.0), (0.01, 0.01, 0.999),
        (0.1, 0.1, 1.0), (0.05, 0.05, 0.999),
        (1e-6, 0.5, 0.999), (1e-4, 0.01, 0.999), (1e-3, 0.9, 0.999)])
    def test_small_alpha_near_s_one(self, alpha, beta, s):
        # the series lost 2e-14 to 5.8e-13 to cancellation at the first five,
        # and ran out of its 10 000 terms at the last three
        want = ml_mpmath(alpha, beta, s)
        assert abs(e_neg(alpha, beta, s) - want) <= 1e-15 * want

    @pytest.mark.parametrize("alpha,beta,x,want", [
        ("0.5", "0.5", "-5", 0.010666394882413155097),
        ("0.9", "0.9", "-30", 0.00011825044794307206789),
        ("0.5", "1.2", "-5", 0.14386372261681706642),
        ("0.7", "2", "-10", 0.10463763325108232624),
    ])
    def test_refused_commands_give_the_mpmath_value(self, alpha, beta, x,
                                                    want, capsys):
        # each exited 1: its series cancelled past the guard
        assert run(["ml", "--alpha", alpha, "--beta", beta, "--x", x]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("x", ["-5", "-10", "-20"])
    def test_beta_one_half_resolves_the_peak(self, x, capsys):
        # each exited 1: the layout was picked from the weight at the
        # peak, whose factor a - b p / s = -cos(pi beta) vanishes at
        # beta = 1/2, and the far layout cannot resolve the peak
        assert run(["ml", "--alpha", "0.999", "--beta", "0.5", "--x", x]) == 0
        got = float(capsys.readouterr().out)
        assert abs(got - ml_mpmath(0.999, 0.5, -float(x))) <= 1e-14

    def test_beta_between_one_and_one_plus_alpha(self):
        # the kernel's factor t^((1-beta)/alpha) is singular at 0 for
        # beta > 1, so beta = 1.45 takes one step down first
        assert mittag_leffler(0.5, 1.45, -3.0) == pytest.approx(
            0.26807046835088013958, rel=1e-13, abs=0)

    def test_beta_equal_to_alpha_far_out(self):
        # 1/Gamma(beta - alpha) = 0 leaves 2.8e-17; a = sin(pi (beta -
        # alpha)) / sin(alpha pi) must be exactly 0, not 1e-16
        assert e_neg(0.5, 0.5, 1e8) == pytest.approx(
            2.8209479177387810116e-17, rel=1e-13, abs=0)

    def test_no_step_down_below_s_one(self):
        # each step divides by s; at alpha = 0.005 the 200 steps blew up
        assert mittag_leffler(0.005, 2.0, -1e-4) == pytest.approx(
            0.99990022192901166544, rel=1e-14, abs=0)

    @pytest.mark.parametrize("beta", ["1e300", "1e12"])
    def test_huge_beta_is_bounded(self, beta, capsys):
        # past the step budget the guarded series gives 1/Gamma(beta) ~ 0;
        # 2e12 steps would hang and beta = 1e300 reached math.gamma(0)
        assert run(["ml", "--alpha", "0.5", "--beta", beta, "--x", "-2"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_large_beta_keeps_the_series_up_to_beta_to_the_alpha(self):
        # stepping down from beta = 20 at s = 1.01 multiplied the error of
        # the spectral value by ~1e17 and returned a wrong sign
        assert e_neg(0.5, 20.0, 1.01) == pytest.approx(
            ml_mpmath(0.5, 20.0, 1.01), rel=1e-13, abs=0)
        assert e_neg(0.7, 50.0, 20.0) == pytest.approx(
            ml_mpmath(0.7, 50.0, 20.0), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.5, 0.95])
    def test_step_ratio_matches_mpmath(self, alpha):
        # Gamma(b) / Gamma(b - alpha) past b - alpha = 100 comes from
        # Stirling's series, at O(1) cost a step where summing a - 100
        # logarithms took 376 ms for mittag_leffler(0.05, 500, -50)
        mpmath = pytest.importorskip("mpmath")
        for b in [100.0 + alpha + 1e-6] + np.linspace(150.0, 5000.0, 98).tolist():
            with mpmath.workdps(40):
                hi = mpmath.mpf(b)
                want = mpmath.exp(mpmath.loggamma(hi)
                                  - mpmath.loggamma(hi - mpmath.mpf(alpha)))
                got = _gamma_ratio(b, alpha)
                assert abs((got - want) / want) <= 5e-16, b

    def test_stepped_large_beta_matches_the_series(self):
        # the terms 50^n / Gamma(n / 2 + 150) peak near 1e580 against a sum
        # of 5e-262, so the reference series is summed to 900 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(900):
            beta, x = mpmath.mpf(150), mpmath.mpf(-50)
            terms = [mpmath.rgamma(beta), x * mpmath.rgamma(beta + 0.5)]
            want = terms[0] + terms[1]
            n = 0
            while n < 100 or abs(terms[n % 2]) > abs(want) * 1e-20:
                terms[n % 2] *= x * x / (beta + mpmath.mpf(n) / 2)
                want += terms[n % 2]
                n += 1
            want = float(want)
        assert mittag_leffler(0.5, 150.0, -50.0) == pytest.approx(
            want, rel=1e-16, abs=0)

    @pytest.mark.parametrize("s", [2.0, 40.0])
    @pytest.mark.parametrize("alpha,beta,rel", [
        (1e-4, 0.01, 1e-15), (1e-6, 0.5, 1e-15), (1e-10, 0.5, 1e-13)])
    def test_small_alpha_below_beta_one(self, alpha, beta, rel, s):
        # the factor t^((1-beta)/alpha) magnifies an error in log t by
        # (1-beta)/alpha; log t from the rounded node was 1.7e-12 off at
        # alpha = 1e-6 and failed to converge at alpha = 1e-10
        want = ml_mpmath(alpha, beta, s)
        assert abs(e_neg(alpha, beta, s) - want) <= rel * want

    @pytest.mark.parametrize("x", [-2.0, -40.0])
    @pytest.mark.parametrize("beta", [1e-3, 0.5])
    @pytest.mark.parametrize("alpha", [1e-300, 1e-200, 1e-100])
    def test_tiny_alpha_takes_the_limit(self, alpha, beta, x):
        # all but (1e-300, 0.5) returned 0.0 with no error: the factor
        # t^((1-beta)/alpha) of the spectral integral is a step at t = 1
        # that no node resolves
        want = 1.0 / (math.gamma(beta) * (1.0 - x))
        assert mittag_leffler(alpha, beta, x) == pytest.approx(
            want, rel=1e-15, abs=0)

    def test_tiny_alpha_on_the_command_line(self, capsys):
        # printed 0.0 with exit 0; 1 / (Gamma(1/2) 3) in mpmath Talbot
        assert run(["ml", "--alpha", "1e-100", "--beta", "0.5",
                    "--x", "-2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            0.18806319451591876, rel=1e-15, abs=0)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-100, 2.2250738585e-313])
    def test_tiny_alpha_past_the_series_refuses(self, alpha):
        # at beta = alpha the limit is off by O(1) relative: the spectral
        # integral returned 0.0, and at a subnormal alpha NaN after numpy
        # RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                mittag_leffler(alpha, alpha, -2.0)

    def test_tiny_alpha_keeps_the_series(self):
        # sum_n (-s)^n / Gamma(alpha (n + 1)) = alpha / (1 + s)^2 to first
        # order; 1 / Gamma(1e-300) must come from math.gamma, which is finite
        # there: exp(-lgamma(1e-300)) is about 5e-14 off
        assert mittag_leffler(1e-300, 1e-300, -0.5) == pytest.approx(
            1e-300 / 2.25, rel=1e-15, abs=0)
