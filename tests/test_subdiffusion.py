"""Subdiffusion finite-difference solvers and their linear algebra."""

import math

import numpy as np
import pytest

from fracsolve import subdiffusion
from fracsolve.caputo import Scheme
from fracsolve.specfun import ml_relaxation_exact, zeta_unit_strip
from fracsolve.subdiffusion import (_dst, Sampled, SineMode,
                                    SubdiffusionProblem, TridiagonalSystem,
                                    build_system, exact_single_mode, solve,
                                    solve_corrected, solve_l1, solve_ml1,
                                    space_nodes, thomas_solve)

ETA_REFERENCE = 72.28242233197722   # Gamma(1.5) * 0.05^0.5 / (pi * 0.05 / 3)^2
E_HALF_AT_MINUS_1 = 0.4275835761558070


class TestBuildSystem:
    def test_reference_eta(self):
        h = math.pi * 0.05 / 3.0
        system = build_system(0.5, 0.05, h, 60, Scheme.L1)
        eta = -system.upper[0]
        assert eta == pytest.approx(ETA_REFERENCE, rel=1e-13, abs=0)
        assert system.main[0] == pytest.approx(
            1.0 + 2.0 * eta, rel=1e-14, abs=0)

    def test_l1_dominance_margin_is_one(self):
        system = build_system(0.5, 0.1, 0.2, 10, Scheme.L1)
        margin = system.main[1] - abs(system.lower[0]) - abs(system.upper[1])
        assert margin == pytest.approx(1.0, abs=1e-12)

    def test_ml1_shift_is_minus_zeta(self):
        l1 = build_system(0.5, 0.1, 0.2, 10, Scheme.L1)
        ml1 = build_system(0.5, 0.1, 0.2, 10, Scheme.MODIFIED_L1)
        shift = ml1.main[0] - l1.main[0]
        assert shift == pytest.approx(-zeta_unit_strip(-0.5), rel=1e-13, abs=0)
        assert shift > 0.0

    def test_dimension(self):
        assert build_system(0.3, 0.1, 0.1, 7).dim == 6

    def test_rejects_single_interval(self):
        with pytest.raises(ValueError):
            build_system(0.5, 0.1, 0.2, 1)


class TestTridiagonalSolve:
    def test_system_requires_dominance(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(np.array([-1.0]), np.array([1.0, 1.0]),
                              np.array([-1.0]))

    def test_identity_system(self):
        system = TridiagonalSystem(np.zeros(4), np.ones(5), np.zeros(4))
        rhs = np.array([3.0, -1.0, 0.5, 2.0, 7.0])
        assert np.array_equal(thomas_solve(system, rhs), rhs)

    def test_matches_dense_oracle_on_random_systems(self):
        rng = np.random.default_rng(1234)
        for dim in range(1, 9):
            for _ in range(5):
                lower = rng.uniform(-1.0, 1.0, size=dim - 1)
                upper = rng.uniform(-1.0, 1.0, size=dim - 1)
                main = rng.uniform(2.5, 4.0, size=dim)
                rhs = rng.uniform(-5.0, 5.0, size=dim)
                system = TridiagonalSystem(lower, main, upper)
                dense = (np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1))
                expected = np.linalg.solve(dense, rhs)
                got = thomas_solve(system, rhs)
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_consistent_with_matrix_action(self):
        eta = 0.8
        off = np.full(4, -eta)
        system = TridiagonalSystem(off, np.full(5, 1.0 + 2.0 * eta), off.copy())
        ones = np.ones(5)
        dense = (np.diag(system.main) + np.diag(system.lower, -1)
                 + np.diag(system.upper, 1))
        got = thomas_solve(system, dense @ ones)
        assert np.max(np.abs(got - ones)) <= 1e-13

    def test_residual_bound(self):
        system = build_system(0.3, 0.01, math.pi / 40, 40)
        rng = np.random.default_rng(7)
        rhs = rng.uniform(-1.0, 1.0, size=system.dim)
        x = thomas_solve(system, rhs)
        dense = (np.diag(system.main) + np.diag(system.lower, -1)
                 + np.diag(system.upper, 1))
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-11 * np.max(np.abs(rhs))

    def test_rejects_wrong_rhs_length(self):
        system = build_system(0.5, 0.1, 0.2, 10)
        with pytest.raises(ValueError):
            thomas_solve(system, np.ones(3))


def single_mode_problem(alpha, N, M, k=1, T=1.0):
    return SubdiffusionProblem(alpha=alpha, N=N, M=M, T=T, initial=SineMode(k))


class TestSolvers:
    def test_zero_data_gives_zero_solution(self):
        problem = SubdiffusionProblem(alpha=0.5, N=8, M=5, T=1.0,
                                      initial=Sampled(np.zeros(9)))
        for solve in (solve_l1, solve_ml1):
            assert not np.any(solve(problem).values)

    def test_boundary_columns_are_exact_zeros(self):
        sol = solve_l1(single_mode_problem(0.5, 12, 8))
        assert not np.any(sol.values[:, 0])
        assert not np.any(sol.values[:, -1])

    def test_initial_row_matches_profile(self):
        problem = single_mode_problem(0.5, 12, 8)
        sol = solve_ml1(problem)
        assert np.array_equal(sol.values[0, 1:-1], np.sin(sol.x[1:-1]))

    def test_grid_ends_exactly_at_pi(self):
        # arange(N + 1) * (pi / N) overshoots pi by one ulp for these N, which
        # puts the last node outside the domain of exact_single_mode
        for N in (25, 41, 50, 100):
            sol = solve_l1(single_mode_problem(0.5, N, 2))
            assert sol.x[-1] == math.pi
            exact_single_mode(0.5, 1, sol.x, 1.0)

    def test_solve_dispatches_on_scheme(self):
        problem = single_mode_problem(0.5, 12, 8)
        for scheme, direct in ((Scheme.L1, solve_l1),
                               (Scheme.MODIFIED_L1, solve_ml1)):
            assert np.array_equal(solve(problem, scheme).values,
                                  direct(problem).values)

    def test_discrete_max_is_non_increasing(self):
        for alpha, scheme in ((0.5, Scheme.L1), (0.3, Scheme.MODIFIED_L1)):
            problem = single_mode_problem(alpha, 60, 20)
            sol = (solve_ml1(problem) if scheme is Scheme.MODIFIED_L1
                   else solve_l1(problem))
            peaks = np.max(np.abs(sol.values), axis=1)
            assert np.all(np.diff(peaks) <= 1e-15)

    def test_mode_invariance(self):
        """A sampled sine mode takes the DST march over every mode, so its
        levels stay multiples of the mode only up to the transforms'
        roundoff; a SineMode solve would hold that by construction."""
        k = 3
        profile = np.sin(k * space_nodes(40))
        profile[[0, -1]] = 0.0
        problem = SubdiffusionProblem(alpha=0.5, N=40, M=25, T=1.0,
                                      initial=Sampled(profile))
        sol = solve_l1(problem)
        s = np.sin(k * sol.x[1:-1])
        worst = 0.0
        for level in sol.values[:, 1:-1]:
            c = (level @ s) / (s @ s)
            worst = max(worst, np.max(np.abs(level - c * s)))
        assert worst <= 1e-10

    def test_converges_to_exact_profile(self):
        problem = single_mode_problem(0.5, 120, 40)
        sol = solve_l1(problem)
        x = sol.x[1:-1]
        exact = np.sin(x) * ml_relaxation_exact(0.5, 1.0, 1.0)
        assert np.max(np.abs(sol.final[1:-1] - exact)) < 2e-3

    def test_ml1_needs_two_levels(self):
        with pytest.raises(ValueError):
            solve_ml1(single_mode_problem(0.5, 8, 1))

    def test_sampled_profile_validation(self):
        with pytest.raises(ValueError):
            SubdiffusionProblem(alpha=0.5, N=8, M=4, T=1.0,
                                initial=Sampled(np.zeros(5)))
        bad = np.ones(9)
        with pytest.raises(ValueError):
            SubdiffusionProblem(alpha=0.5, N=8, M=4, T=1.0, initial=Sampled(bad))

    def test_rejects_non_finite_data(self):
        profile = np.zeros(9)
        profile[4] = math.nan
        with pytest.raises(ValueError, match="finite"):
            Sampled(profile)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SubdiffusionProblem(alpha=0.5, N=8, M=4, T=T, initial=SineMode(1))


class TestOnePathPerProfile:
    """A sine mode is one scalar march spread over the grid; only a sampled
    profile goes through the sine transform."""

    def test_sine_mode_makes_no_transform(self, monkeypatch):
        def refuse(x):
            raise AssertionError("a sine-mode solve took a sine transform")

        monkeypatch.setattr(subdiffusion, "_dst", refuse)
        problem = single_mode_problem(0.5, 12, 8, k=3)
        solve_l1(problem)
        solve_ml1(problem)
        solve_corrected(0.5, 4, T=1.0, N=12, M=8)
        sampled = SubdiffusionProblem(alpha=0.5, N=12, M=8, T=1.0,
                                      initial=Sampled(np.zeros(13)))
        with pytest.raises(AssertionError, match="sine transform"):
            solve_l1(sampled)

    @pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [1, 3, 69, 71, 139])
    def test_sampled_sine_matches_sine_mode(self, k, alpha, scheme):
        # on this grid sin((N + 1) x) = -sin((N - 1) x) and sin((2N - 1) x)
        # = -sin(x): an aliased mode must decay at the rate of its alias
        N, M = 70, 50
        profile = np.sin(k * space_nodes(N))
        profile[[0, -1]] = 0.0
        sampled = SubdiffusionProblem(alpha=alpha, N=N, M=M, T=1.0,
                                      initial=Sampled(profile))
        want = solve(single_mode_problem(alpha, N, M, k=k), scheme).values
        got = solve(sampled, scheme).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestExactSingleMode:
    def test_initial_profile(self):
        assert exact_single_mode(0.5, 2, 0.7, 0.0) == math.sin(1.4)

    def test_reference_point(self):
        got = exact_single_mode(0.5, 1, math.pi / 2.0, 1.0)
        assert got == pytest.approx(E_HALF_AT_MINUS_1, rel=1e-13, abs=0)

    def test_boundary_values(self):
        assert exact_single_mode(0.5, 1, 0.0, 0.5) == 0.0
        assert abs(exact_single_mode(0.5, 3, math.pi, 0.5)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_single_mode(0.5, 1, -0.1, 1.0)
        with pytest.raises(ValueError):
            exact_single_mode(0.5, 0, 1.0, 1.0)


@pytest.mark.parametrize("k", [0, -1, 1.5, 1.0, math.nan, True, "2"],
                         ids=repr)
def test_mode_numbers_are_positive_integers(k):
    """sin(1.5 x) is no eigenvector of the second difference and does not
    vanish at x = pi, and sin(True x) is no mode: each is refused, by the
    rule of `Ladder.levels`."""
    with pytest.raises(ValueError, match="mode number must be an integer"):
        SineMode(k)
    with pytest.raises(ValueError, match="mode number must be an integer"):
        exact_single_mode(0.5, k, math.pi, 0.0)


def test_numpy_integer_modes_are_accepted():
    assert SineMode(np.int64(2)) == SineMode(2)
    assert exact_single_mode(0.5, np.int64(2), 0.7, 0.0) == math.sin(1.4)


class TestSineTransform:
    """The orthonormal DST-I behind the sine-mode march."""

    @pytest.mark.parametrize("n", [1, 2, 39, 959])
    def test_matches_dense_sine_matrix(self, n):
        j = np.arange(1, n + 1)
        # j k reduced mod 2(n+1) keeps the sine's argument below 2 pi, where
        # it is accurate to roundoff
        jk = np.outer(j, j) % (2 * (n + 1))
        dense = math.sqrt(2.0 / (n + 1)) * np.sin(jk * math.pi / (n + 1))
        x = np.random.default_rng(n).standard_normal((3, n))
        assert np.max(np.abs(_dst(x) - x @ dense)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 39, 959])
    def test_is_its_own_inverse(self, n):
        x = np.random.default_rng(n).standard_normal((3, n))
        assert np.max(np.abs(_dst(_dst(x)) - x)) <= 1e-13


class TestCorrected:
    def test_rejects_insufficient_degree(self):
        with pytest.raises(ValueError):
            solve_corrected(0.3, 6, T=1.0, N=30, M=10)

    def test_initial_level_reproduces_sine(self):
        sol = solve_corrected(0.3, 7, T=1.0, N=24, M=8, scheme=Scheme.L1)
        x = sol.x
        assert np.max(np.abs(sol.values[0, 1:-1] - np.sin(x[1:-1]))) <= 1e-15
        assert sol.values[0, 0] == 0.0 and sol.values[0, -1] == 0.0

    def test_boundary_stays_zero(self):
        sol = solve_corrected(0.3, 7, T=1.0, N=24, M=8, scheme=Scheme.MODIFIED_L1)
        assert not np.any(sol.values[:, 0])
        assert not np.any(sol.values[:, -1])

    def test_correction_beats_plain_scheme(self):
        N, M = 120, 40
        plain = solve_l1(single_mode_problem(0.3, N, M))
        corrected = solve_corrected(0.3, 7, 1.0, N, M, Scheme.L1)
        x = plain.x[1:-1]
        exact = np.sin(x) * ml_relaxation_exact(0.3, 1.0, 1.0)
        err_plain = np.max(np.abs(plain.final[1:-1] - exact))
        err_corrected = np.max(np.abs(corrected.final[1:-1] - exact))
        assert err_corrected < err_plain / 10.0
