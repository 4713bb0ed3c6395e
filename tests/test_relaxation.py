"""Relaxation solvers, the start-up correction, and the exact solution."""

import math

import numpy as np
import pytest

from fracsolve.caputo import Scheme, caputo_apply, caputo_power_rule
from fracsolve.cli import run
from fracsolve.relaxation import (PowerSum, RelaxationProblem, choose_m,
                                  corrected_problem, exact_convolution,
                                  solve, solve_corrected,
                                  solve_l1, solve_ml1, taylor_poly)
from fracsolve.problems import relaxation_family
from fracsolve.specfun import ConvergenceError, ml_relaxation_exact
from fracsolve.subdiffusion import exact_single_mode

FIRST_STEP_CONSTANT = 0.2421522416427546   # |sqrt(pi)/2 - 2/sqrt(pi)|


def homogeneous(alpha, B, h, T=1.0):
    return RelaxationProblem(alpha=alpha, B=B, forcing=None, y0=1.0, T=T, h=h)


class TestPowerSum:
    def test_evaluates_with_zero_power_convention(self):
        f = PowerSum(((2.0, 0.0), (3.0, 1.5)))
        assert f(0.0) == 2.0
        assert f(1.0) == 5.0

    def test_vectorized(self):
        f = PowerSum(((1.0, 2.0),))
        x = np.array([0.0, 0.5, 2.0])
        assert np.allclose(f(x), x ** 2)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            PowerSum(((1.0, -0.5),))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PowerSum(((math.inf, 1.0),))


class TestProblemValidation:
    def test_step_must_divide_interval(self):
        with pytest.raises(ValueError):
            RelaxationProblem(0.5, 1.0, None, 1.0, T=1.0, h=0.3)

    def test_step_cannot_exceed_interval(self):
        with pytest.raises(ValueError):
            RelaxationProblem(0.5, 1.0, None, 1.0, T=1.0, h=2.0)

    def test_single_step_allowed(self):
        problem = RelaxationProblem(0.5, 1.0, None, 1.0, T=0.1, h=0.1)
        assert problem.n_steps == 1

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError):
            RelaxationProblem(0.5, 0.0, None, 1.0, T=1.0, h=0.1)

    @pytest.mark.parametrize("field", ["B", "y0", "T", "h"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        data = dict(alpha=0.5, B=1.0, forcing=None, y0=1.0, T=1.0, h=0.1)
        data[field] = value
        with pytest.raises(ValueError, match="finite"):
            RelaxationProblem(**data)

    def test_rejects_non_callable_forcing(self):
        # a forcing is a PowerSum; a plain callable is refused too
        for forcing in (3.0, lambda x: 1.0):
            with pytest.raises(TypeError):
                RelaxationProblem(0.5, 1.0, forcing, 1.0, T=1.0, h=0.1)


class TestL1Solver:
    @pytest.mark.parametrize("h", [0.1, 0.01, 1e-4])
    def test_first_step_closed_form(self, h):
        series = solve_l1(homogeneous(0.5, 1.0, h, T=max(h, 0.1)))
        expected = 1.0 / (1.0 + math.gamma(1.5) * math.sqrt(h))
        assert series.values[1] == pytest.approx(expected, rel=1e-14, abs=0)

    def test_constant_solution_is_fixed_point(self):
        problem = RelaxationProblem(0.5, 2.0, PowerSum(((2.0, 0.0),)),
                                    1.0, T=1.0, h=0.05)
        series = solve_l1(problem)
        assert np.max(np.abs(series.values - 1.0)) <= 1e-12

    def test_initial_value_preserved(self):
        series = solve_l1(RelaxationProblem(0.3, 1.0, None, 0.25, T=1.0, h=0.1))
        assert series.values[0] == 0.25

    def test_grid(self):
        series = solve_l1(homogeneous(0.5, 1.0, 0.25))
        assert np.array_equal(series.x, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


class TestML1Solver:
    def test_first_step_matches_l1(self):
        problem = homogeneous(0.5, 1.0, 0.05)
        assert solve_ml1(problem).values[1] == solve_l1(problem).values[1]

    def test_constant_solution_is_fixed_point(self):
        problem = RelaxationProblem(0.5, 1.0, PowerSum(((1.0, 0.0),)),
                                    1.0, T=1.0, h=0.05)
        series = solve_ml1(problem)
        assert np.max(np.abs(series.values - 1.0)) <= 1e-12

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            solve_ml1(RelaxationProblem(0.5, 1.0, None, 1.0, T=0.1, h=0.1))

    def test_solve_dispatches_on_scheme(self):
        problem = homogeneous(0.5, 1.0, 0.05)
        for scheme, direct in ((Scheme.L1, solve_l1),
                               (Scheme.MODIFIED_L1, solve_ml1)):
            assert np.array_equal(solve(problem, scheme).values,
                                  direct(problem).values)

    def test_identical_max_error_on_homogeneous_half(self):
        # both schemes share the first step, where the error peaks
        problem = homogeneous(0.5, 1.0, 0.05)
        x = solve_l1(problem).x
        exact = np.array([ml_relaxation_exact(0.5, 1.0, float(xi)) for xi in x])
        err_l1 = np.max(np.abs(solve_l1(problem).values[1:] - exact[1:]))
        err_ml1 = np.max(np.abs(solve_ml1(problem).values[1:] - exact[1:]))
        assert abs(err_l1 - err_ml1) <= 1e-12


class TestTaylorPoly:
    def test_value_at_origin(self):
        assert taylor_poly(0.5, 1.0, 4, 0.0) == 1.0

    def test_explicit_degree_three_expansion(self):
        g = math.gamma
        for x in (0.1, 0.5, 1.0):
            expected = (1.0 - 4.0 * x ** 0.7 / g(1.7) + 16.0 * x ** 1.4 / g(2.4)
                        - 64.0 * x ** 2.1 / g(3.1))
            assert taylor_poly(0.7, 4.0, 3, x) == pytest.approx(
                expected, rel=1e-14, abs=0)

    def test_converges_to_exact_solution(self):
        exact = ml_relaxation_exact(0.5, 1.0, 0.5)
        assert taylor_poly(0.5, 1.0, 60, 0.5) == pytest.approx(
            exact, rel=1e-12, abs=0)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            taylor_poly(0.5, 1.0, 0, 1.0)

    def test_rejects_degree_past_series_budget(self):
        with pytest.raises(ValueError):
            taylor_poly(1e-6, 1.0, 10_001, 1.0)


class TestChooseM:
    @pytest.mark.parametrize("alpha,m", [(0.3, 7), (0.7, 3), (0.5, 4)])
    def test_reference_degrees(self, alpha, m):
        assert choose_m(alpha) == m

    def test_minimality(self):
        for alpha in np.arange(0.05, 1.0, 0.05):
            m = choose_m(float(alpha))
            assert m * alpha >= 2.0
            assert (m - 1) * alpha < 2.0

    def test_rejects_alpha_past_degree_budget(self):
        assert choose_m(2e-4 + 1e-12) == 10_000
        # near m = 2e300 a step of m leaves m * alpha below 2, so the search
        # never ended
        for alpha in (2e-4 - 1e-12, 1e-300, 5e-324):
            with pytest.raises(ValueError):
                choose_m(alpha)


class TestCorrectedProblem:
    def test_alpha_03_forcing(self):
        problem = corrected_problem(0.3, 1.0, 7, T=1.0, h=0.1)
        assert problem.y0 == 0.0
        ((c, p),) = problem.forcing.terms
        assert p == pytest.approx(2.1)
        assert c == pytest.approx(1.0 / math.gamma(3.1), rel=1e-14, abs=0)

    def test_alpha_07_forcing(self):
        problem = corrected_problem(0.7, 4.0, 3, T=1.0, h=0.1)
        ((c, p),) = problem.forcing.terms
        assert p == pytest.approx(2.1)
        assert c == pytest.approx(256.0 / math.gamma(3.1), rel=1e-14, abs=0)

    def test_minimal_degree_exponent_window(self):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            m = choose_m(alpha)
            ((_, p),) = corrected_problem(alpha, 1.0, m, 1.0, 0.1).forcing.terms
            assert 2.0 <= p < 2.0 + alpha

    def test_rejects_insufficient_degree(self):
        with pytest.raises(ValueError):
            corrected_problem(0.3, 1.0, 6, T=1.0, h=0.1)

    def test_rejects_cancelling_polynomial(self, capsys):
        # degree 20: the terms reach 5e19 at x = 1 against E = 0.0857; the
        # corrected solve printed -1.33e15 there with exit status 0
        with pytest.raises(ConvergenceError, match="cancels"):
            corrected_problem(0.1, 10.0, 20, T=1.0, h=0.05)
        assert run(["relax", "--alpha", "0.1", "--B", "10", "--h", "0.05",
                    "--correct"]) == 1
        assert "cancels" in capsys.readouterr().err

    def test_coefficient_past_gamma_overflow(self):
        # Gamma(201) overflows; B^401 / Gamma(201) = 2^401 / 200! does not
        ((c, p),) = corrected_problem(0.5, 2.0, 400, 1.0, 0.05).forcing.terms
        assert p == 200.0
        assert c == pytest.approx(
            -math.exp(401 * math.log(2.0) - math.lgamma(201.0)),
            rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [342, 1000, 10_000])
    def test_large_degrees_solve(self, m, capsys):
        # from m = 342 at alpha = 0.5, Gamma(alpha m + 1) overflows; the
        # solve failed with "math range error" although taylor_poly works
        series = solve_corrected(0.5, 1.0, m, 1.0, 0.05)
        assert series.values[-1] == pytest.approx(
            taylor_poly(0.5, 1.0, m, 1.0), rel=1e-14, abs=0)
        assert run(["relax", "--alpha", "0.5", "--h", "0.05",
                    f"--correct={m}"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(
            0.427583576155807, rel=1e-14, abs=0)

    @pytest.mark.parametrize("B,T,h", [(1e300, 1.0, 0.5),   # B^(m+1)
                                       (1e-10, 1e20, 1e20)])  # T^(alpha m)
    def test_overflowing_forcing_is_a_numerical_failure(self, B, T, h, capsys):
        with pytest.raises(ConvergenceError, match="overflows"):
            corrected_problem(0.5, B, 400, T, h)
        # printed "(34, 'Numerical result out of range')"
        assert run(["relax", "--alpha", "0.5", f"--B={B!r}", f"--T={T!r}",
                    f"--h={h!r}", "--correct=400"]) == 1
        assert "remainder forcing" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.9, 0.999])
    def test_cancellation_check_bound_is_below_solution(self, alpha):
        # the check takes 1 / (1 + Gamma(1 - alpha) s) as a lower bound of
        # E_alpha(-s)
        s = np.logspace(-8.0, 8.0, 65)
        exact = ml_relaxation_exact(alpha, 1.0, s ** (1.0 / alpha))
        assert np.all(exact * (1.0 + math.gamma(1.0 - alpha) * s) >= 1.0)


class TestSolveCorrected:
    def test_initial_value_is_one(self):
        series = solve_corrected(0.3, 1.0, 7, T=1.0, h=0.1, scheme=Scheme.L1)
        assert series.values[0] == 1.0

    def test_reconstruction_identity(self):
        alpha, B, m, h = 0.7, 4.0, 3, 0.05
        corrected = solve_corrected(alpha, B, m, 1.0, h, Scheme.MODIFIED_L1)
        remainder = solve_ml1(corrected_problem(alpha, B, m, 1.0, h))
        poly = taylor_poly(alpha, B, m, remainder.x)
        assert np.allclose(corrected.values, remainder.values + poly,
                           rtol=1e-15, atol=0.0)

    def test_correction_beats_plain_scheme(self):
        alpha, B, h = 0.3, 1.0, 0.0125
        x = np.arange(round(1.0 / h) + 1) * h
        exact = np.array([ml_relaxation_exact(alpha, B, float(xi)) for xi in x])
        plain = solve_l1(homogeneous(alpha, B, h))
        corrected = solve_corrected(alpha, B, 7, 1.0, h, Scheme.L1)
        err_plain = np.max(np.abs(plain.values[1:] - exact[1:]))
        err_corrected = np.max(np.abs(corrected.values[1:] - exact[1:]))
        assert err_corrected < err_plain / 100.0


class TestExactConvolution:
    def test_homogeneous_case(self):
        got = exact_convolution(0.5, 1.0, None, 1.0)
        assert got == pytest.approx(
            ml_relaxation_exact(0.5, 1.0, 1.0), rel=1e-13, abs=0)

    def test_at_origin(self):
        assert exact_convolution(0.5, 1.0, None, 0.0, y0=0.25) == 0.25

    def test_manufactured_quadratic(self):
        forcing = PowerSum(((1.0, 2.0), (8.0 / (3.0 * math.sqrt(math.pi)), 1.5)))
        for x in (0.25, 0.5, 1.0):
            got = exact_convolution(0.5, 1.0, forcing, x, y0=0.0)
            assert got == pytest.approx(x ** 2, abs=1e-8)

    def test_manufactured_five_quarters_power(self):
        c = 5.0 * math.sqrt(2.0) / (24.0 * math.pi) * math.gamma(0.25) ** 2
        forcing = PowerSum(((1.0, 1.25), (c, 0.75)))
        got = exact_convolution(0.5, 1.0, forcing, 1.0, y0=0.0)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_constant_solution(self):
        got = exact_convolution(0.5, 2.0, PowerSum(((2.0, 0.0),)), 1.0)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_nan_forcing_raises(self):
        # the adaptive quadrature returned nan with a warning, then raised
        # ConvergenceError; the closed form takes no callable forcing
        with pytest.raises(TypeError, match="PowerSum"):
            exact_convolution(0.5, 1.0, lambda s: math.nan, 1.0)


class TestClosedFormReference:
    """exact_convolution is the closed form y0 E_alpha(-s) + sum_j c_j
    Gamma(p_j + 1) x^(p_j + alpha) E_{alpha,p_j+alpha+1}(-s), s = B x^alpha."""

    @pytest.mark.parametrize("pid,power", [("r11", 2.0), ("r12", 1.25)])
    def test_manufactured_solutions_to_roundoff(self, pid, power):
        # the quadrature was good to about 1e-12
        family = relaxation_family(pid)
        x = np.array([0.25, 0.5, 1.0, 3.0])
        got = exact_convolution(0.5, 1.0, family.forcing, x, y0=0.0)
        np.testing.assert_allclose(got, x ** power, rtol=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_unit_forcing_far_past_the_quadrature(self, alpha):
        # y = (1 - E_alpha(-B x^alpha)) / B for F = 1, y0 = 0
        B = np.logspace(0.0, 8.0, 17)
        got = np.array([exact_convolution(alpha, b, PowerSum(((1.0, 0.0),)),
                                          1.0, y0=0.0) for b in B])
        want = (1.0 - np.array([ml_relaxation_exact(alpha, b, 1.0)
                                for b in B])) / B
        np.testing.assert_allclose(got, want, rtol=1e-13)

    @pytest.mark.parametrize("alpha,B", [(0.5, 100.0), (0.3, 10.0), (0.9, 40.0)])
    def test_kernel_past_its_series(self, alpha, B):
        # the quadrature's E_{alpha,alpha}(-B u) kernel raised ValueError
        # (|x| > 50), overflowed and cancelled at these points
        got = exact_convolution(alpha, B, PowerSum(((1.0, 0.0),)), 1.0, y0=0.0)
        want = (1.0 - ml_relaxation_exact(alpha, B, 1.0)) / B
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [100.0, 150.0, 170.0, 171.0, 200.0, 300.0])
    def test_large_exponents_against_a_direct_sum(self, p, x):
        # Gamma(p + 1) overflowed past p = 170.6 and raised a bare
        # OverflowError; at p = 170 the kernel E_{1/2,171.5}(-1) was
        # subnormal, 7.6e-14 off.  The reference sums the power series
        # directly in 40 digits: mpmath.nsum was 8e-11 off at p = 100
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, s = mpmath.mpf(0.5), mpmath.sqrt(x)
            terms = [(-s) ** n / mpmath.gamma(a * n + p + a + 1)
                     for n in range(80)]
            want = mpmath.gamma(p + 1) * mpmath.mpf(x) ** (p + a) \
                * mpmath.fsum(terms)
        got = exact_convolution(0.5, 1.0, PowerSum(((1.0, p),)), x, y0=0.0)
        assert got == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("B,p,want", [
        (20.0, 200.0, 0.029275459151554654),
        (30.0, 300.0, 0.021126904256609128),
    ])
    def test_large_exponents_past_the_series(self, B, p, want):
        # s = B > beta^alpha: the spectral integral and the steps up from
        # beta near 1, where Gamma(b) E_{alpha,b} must stay in range; want
        # is the power series summed directly in 400 digits
        got = exact_convolution(0.5, B, PowerSum(((1.0, p),)), 1.0, y0=0.0)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("p,x", [(200.0, 300.0), (100.0, 1e5)])
    def test_overflowing_value_is_a_convergence_error(self, p, x):
        with pytest.raises(ConvergenceError, match="overflows"):
            exact_convolution(0.5, 1.0, PowerSum(((1.0, p),)), x, y0=0.0)

    def test_array_matches_scalar_calls(self):
        forcing = relaxation_family("r12").forcing
        x = np.linspace(0.0, 4.0, 9)
        got = exact_convolution(0.3, 5.0, forcing, x, y0=2.0)
        want = [exact_convolution(0.3, 5.0, forcing, float(v), y0=2.0) for v in x]
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=1e-15)


def test_first_step_error_constant():
    h = 1e-6
    v1 = solve_l1(homogeneous(0.5, 1.0, h, T=h)).values[1]
    y1 = ml_relaxation_exact(0.5, 1.0, h)
    ratio = abs(y1 - v1) / math.sqrt(h)
    assert ratio == pytest.approx(FIRST_STEP_CONSTANT, rel=0.01, abs=0)


# each returned nan, inf or 0.0, or raised ConvergenceError, before it
# checked its input; the error must name the argument
@pytest.mark.parametrize("func,args,name", [
    pytest.param(caputo_apply, ([0.0, 1.0, 4.0], 0.5, math.nan), "h", id="caputo_apply-h-nan"),
    pytest.param(caputo_apply, ([0.0, 1.0, 4.0], 0.5, math.inf), "h", id="caputo_apply-h-inf"),
    pytest.param(caputo_power_rule, (2.0, 0.5, math.nan), "x", id="caputo_power_rule-x-nan"),
    pytest.param(taylor_poly, (0.5, math.nan, 3, 0.5), "B", id="taylor_poly-B-nan"),
    pytest.param(exact_single_mode, (0.5, 1, math.nan, 1.0), "x", id="exact_single_mode-x-nan"),
    pytest.param(ml_relaxation_exact, (0.5, math.inf, 1.0), "B", id="ml_relaxation_exact-B-inf"),
    pytest.param(ml_relaxation_exact, (0.5, math.nan, 1.0), "B", id="ml_relaxation_exact-B-nan"),
    pytest.param(exact_convolution, (0.5, math.nan, None, 1.0), "B", id="exact_convolution-B-nan"),
])
def test_non_finite_arguments_are_rejected(func, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        func(*args)


# the march solves for v - v_0, so B Gamma(2 - alpha) h^alpha v_0 enters
# every right-hand side; where it overflows, each of these returned nan from
# level 2 on, with RuntimeWarnings, and the last one nan from y0 = 0
@pytest.mark.parametrize("alpha,B,y0,T,h", [
    (0.5, 1e300, 1e10, 1.0, 0.2),
    (0.5, 1e300, 7e300, 1.0, 0.25),
    (0.9, 1e308, 0.0, 2000.0, 1000.0),
])
@pytest.mark.parametrize("solver", [solve_l1, solve_ml1])
def test_overflowing_decay_term_is_a_convergence_error(solver, alpha, B, y0,
                                                       T, h):
    problem = RelaxationProblem(alpha, B, None, y0, T, h)
    with pytest.raises(ConvergenceError, match="overflows"):
        solver(problem)
