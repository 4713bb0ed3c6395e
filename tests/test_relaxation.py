"""Relaxation solvers, the start-up correction, and the exact solution."""

import math

import numpy as np
import pytest

from fracsolve.caputo import Scheme, caputo_apply, caputo_power_rule
from fracsolve.relaxation import (PowerSum, RelaxationProblem, choose_m,
                                  corrected_problem, exact_convolution,
                                  miller_ross_at_zero, solve, solve_corrected,
                                  solve_l1, solve_ml1, taylor_poly)
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
        with pytest.raises(TypeError):
            RelaxationProblem(0.5, 1.0, 3.0, 1.0, T=1.0, h=0.1)


class TestL1Solver:
    @pytest.mark.parametrize("h", [0.1, 0.01, 1e-4])
    def test_first_step_closed_form(self, h):
        series = solve_l1(homogeneous(0.5, 1.0, h, T=max(h, 0.1)))
        expected = 1.0 / (1.0 + math.gamma(1.5) * math.sqrt(h))
        assert series.values[1] == pytest.approx(expected, rel=1e-14)

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


class TestMillerRoss:
    def test_order_zero(self):
        assert miller_ross_at_zero(0.5, 1.0, 0) == 1.0

    def test_order_one(self):
        assert miller_ross_at_zero(0.5, 1.0, 1) == -1.0

    def test_order_two(self):
        assert miller_ross_at_zero(0.5, 4.0, 2) == 16.0

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            miller_ross_at_zero(0.5, 1.0, -1)


class TestTaylorPoly:
    def test_value_at_origin(self):
        assert taylor_poly(0.5, 1.0, 4, 0.0) == 1.0

    def test_explicit_degree_three_expansion(self):
        g = math.gamma
        for x in (0.1, 0.5, 1.0):
            expected = (1.0 - 4.0 * x ** 0.7 / g(1.7) + 16.0 * x ** 1.4 / g(2.4)
                        - 64.0 * x ** 2.1 / g(3.1))
            assert taylor_poly(0.7, 4.0, 3, x) == pytest.approx(expected, rel=1e-14)

    def test_converges_to_exact_solution(self):
        exact = ml_relaxation_exact(0.5, 1.0, 0.5)
        assert taylor_poly(0.5, 1.0, 60, 0.5) == pytest.approx(exact, rel=1e-12)

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
        assert c == pytest.approx(1.0 / math.gamma(3.1), rel=1e-14)

    def test_alpha_07_forcing(self):
        problem = corrected_problem(0.7, 4.0, 3, T=1.0, h=0.1)
        ((c, p),) = problem.forcing.terms
        assert p == pytest.approx(2.1)
        assert c == pytest.approx(256.0 / math.gamma(3.1), rel=1e-14)

    def test_minimal_degree_exponent_window(self):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            m = choose_m(alpha)
            ((_, p),) = corrected_problem(alpha, 1.0, m, 1.0, 0.1).forcing.terms
            assert 2.0 <= p < 2.0 + alpha

    def test_rejects_insufficient_degree(self):
        with pytest.raises(ValueError):
            corrected_problem(0.3, 1.0, 6, T=1.0, h=0.1)


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
        assert got == pytest.approx(ml_relaxation_exact(0.5, 1.0, 1.0), rel=1e-13)

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
        # the adaptive quadrature returned nan with a warning
        with pytest.raises(ConvergenceError, match="nan"):
            exact_convolution(0.5, 1.0, lambda s: math.nan, 1.0)


def test_first_step_error_constant():
    h = 1e-6
    v1 = solve_l1(homogeneous(0.5, 1.0, h, T=h)).values[1]
    y1 = ml_relaxation_exact(0.5, 1.0, h)
    ratio = abs(y1 - v1) / math.sqrt(h)
    assert ratio == pytest.approx(FIRST_STEP_CONSTANT, rel=0.01)


# each returned nan, inf or 0.0, or raised ConvergenceError, before it
# checked its input; the error must name the argument
@pytest.mark.parametrize("func,args,name", [
    pytest.param(caputo_apply, ([0.0, 1.0, 4.0], 0.5, math.nan), "h", id="caputo_apply-h-nan"),
    pytest.param(caputo_apply, ([0.0, 1.0, 4.0], 0.5, math.inf), "h", id="caputo_apply-h-inf"),
    pytest.param(caputo_power_rule, (2.0, 0.5, math.nan), "x", id="caputo_power_rule-x-nan"),
    pytest.param(taylor_poly, (0.5, math.nan, 3, 0.5), "B", id="taylor_poly-B-nan"),
    pytest.param(miller_ross_at_zero, (0.5, math.nan, 2), "B", id="miller_ross_at_zero-B-nan"),
    pytest.param(exact_single_mode, (0.5, 1, math.nan, 1.0), "x", id="exact_single_mode-x-nan"),
    pytest.param(ml_relaxation_exact, (0.5, math.inf, 1.0), "B", id="ml_relaxation_exact-B-inf"),
    pytest.param(ml_relaxation_exact, (0.5, math.nan, 1.0), "B", id="ml_relaxation_exact-B-nan"),
    pytest.param(exact_convolution, (0.5, math.nan, None, 1.0), "B", id="exact_convolution-B-nan"),
])
def test_non_finite_arguments_are_rejected(func, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        func(*args)
