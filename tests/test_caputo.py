"""Weight rows and point evaluation of the discretized Caputo derivative."""

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fracsolve.caputo import (_KEPT_LEVELS, _SCOPE, Scheme, _march, _Scope,
                              _solving, caputo_apply, caputo_power_rule,
                              l1_weights, ml1_weights)
from fracsolve.harness import Ladder, run_relaxation_study
from fracsolve.problems import relaxation_family
from fracsolve.specfun import ConvergenceError, zeta_unit_strip

SQRT2_MINUS_2 = -0.5857864376269049
ONE_MINUS_ZETA_HALF = 1.2078862249773546   # 1 - zeta(-0.5)
GAMMA_3_OVER_2_5 = 1.5045055561273501      # Gamma(3) / Gamma(2.5)
TWO_OVER_SQRT_PI = 1.1283791670955126      # 1 / Gamma(1.5)


class TestL1Weights:
    def test_level_one(self):
        row = l1_weights(0.5, 1)
        assert row.weights.tolist() == [1.0, -1.0]

    def test_first_interior_weight(self):
        assert l1_weights(0.5, 3).weights[1] == pytest.approx(
            SQRT2_MINUS_2, rel=1e-13, abs=0)

    def test_row_sums_to_zero(self):
        assert abs(l1_weights(0.3, 100).weights.sum()) <= 1e-10

    def test_shape_properties(self):
        row = l1_weights(0.4, 50)
        w = row.weights
        assert w[0] == 1.0
        assert np.all(w[1:] < 0.0)
        interior = np.abs(w[1:-1])
        assert np.all(np.diff(interior) <= 1e-15)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            l1_weights(0.5, 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            l1_weights(alpha, 5)


class TestInteriorWeightAccuracy:
    """The interior weights cancel three powers of size k^(1-alpha) down to
    a value of size k^(-1-alpha); the formula used must not lose the digits
    that cancel.  Evaluating the powers as written is off by up to 3e-6
    relative at k = 40960."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_matches_40_digit_reference(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        kmax = 40960
        w = l1_weights(alpha, kmax + 1).weights
        ks = sorted(set(range(1, 200))
                    | {int(k) for k in np.geomspace(200, kmax, 100)})
        worst = 0.0
        with mpmath.workdps(40):
            e = 1 - mpmath.mpf(alpha)
            for k in ks:
                kk = mpmath.mpf(k)
                exact = (kk + 1) ** e - 2 * kk ** e + (kk - 1) ** e
                worst = max(worst, float(abs(w[k] - exact) / abs(exact)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_tail_matches_40_digit_reference(self, alpha):
        """The tail weight (n-1)^(1-alpha) - n^(1-alpha) cancels two powers
        of size n^(1-alpha) down to one of size n^(-alpha); evaluated as
        written it is off by up to 5e-11 relative at n <= 40960."""
        mpmath = pytest.importorskip("mpmath")
        ns = sorted(set(range(1, 200))
                    | {int(n) for n in np.geomspace(200, 40960, 60)})
        worst = 0.0
        with mpmath.workdps(40):
            e = 1 - mpmath.mpf(alpha)
            for n in ns:
                nn = mpmath.mpf(n)
                exact = (nn - 1) ** e - nn ** e
                got = l1_weights(alpha, n).weights[n]
                worst = max(worst, float(abs(got - exact) / abs(exact)))
        assert worst <= 1e-14


class TestML1Weights:
    def test_row_sums_to_zero(self):
        assert abs(ml1_weights(0.5, 50).weights.sum()) <= 1e-10

    def test_leading_weight(self):
        assert ml1_weights(0.5, 10).weights[0] == pytest.approx(
            ONE_MINUS_ZETA_HALF, rel=1e-12, abs=0)

    def test_unmodified_indices_match_l1(self):
        l1 = l1_weights(0.5, 10).weights
        ml1 = ml1_weights(0.5, 10).weights
        assert np.array_equal(ml1[3:], l1[3:])

    def test_level_two_corrects_the_tail(self):
        z = zeta_unit_strip(-0.5)
        l1 = l1_weights(0.5, 2).weights
        ml1 = ml1_weights(0.5, 2).weights
        assert ml1[2] == pytest.approx(l1[2] - z, rel=1e-14, abs=0)

    def test_rejects_level_below_two(self):
        with pytest.raises(ValueError):
            ml1_weights(0.5, 1)


# Traced memory a march or a study may hold once it returns: numpy's FFT
# keeps a few dozen bytes per transform length it has planned, about 6.6 KB
# after the lone-solve sweep below, and the scope keeps nothing.
RETAINED_BYTES = 1 << 16


def march(alpha, scheme, n):
    return _march(alpha, scheme, 1.0 / n, 0.7, 1.3, np.linspace(0.0, 1.0, n + 1),
                  np.empty(n + 1))


class TestWeightTable:
    """Every march at one (alpha, scheme) in one solve scope reads the
    scope's weights and history-weight transforms, which grow by the levels
    they lack.  What the scope hands out must not depend on which solves
    grew it, or in what order, and none of it outlives the scope."""

    SIZES = [2, 3, 5, 64, 1000, 1025, 4097]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("order", ["rising", "falling", "random"])
    def test_rows_match_a_fresh_table(self, order, alpha, scheme):
        """One scope grown in each order hands out the interior weights of
        a fresh scope, bit for bit."""
        sizes = {"rising": self.SIZES, "falling": self.SIZES[::-1],
                 "random": np.random.default_rng(5).permutation(self.SIZES)}
        scope = _Scope(alpha, scheme)
        for n in sizes[order]:
            fresh = _Scope(alpha, scheme)
            assert scope.c0 == fresh.c0
            assert np.array_equal(scope.interior(int(n)),
                                  fresh.interior(int(n)))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_march_bits_do_not_depend_on_earlier_solves(self, scheme):
        """Each solve in turn inside one scope against the same solve
        alone.  The longest runs past _KEPT_LEVELS, so the scope keeps none
        of the weights it grows, and each takes another leaf size (1500,
        1080, 1250 levels), so each finds the transforms of other solves'
        hand-off widths kept and adds its own."""
        sizes = (3000, _KEPT_LEVELS + 1000, 5000, 3000)
        want = {n: march(0.3, scheme, n) for n in sizes}
        with _solving(0.3, scheme):
            for n in sizes:
                assert np.array_equal(march(0.3, scheme, n), want[n])

    def test_handed_out_arrays_are_read_only(self):
        scope = _Scope(0.5, Scheme.MODIFIED_L1, [(0.01, 1.0, 100)])
        for array in (scope.interior(100), scope.spectrum(8),
                      *scope.inverses.values(), ml1_weights(0.5, 100).weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_retained_memory_is_bounded(self):
        """A march with no scope open keeps nothing once it returns: over a
        sweep of lone solves whose leaf sizes differ, up to 2^17 + 4096
        levels, the traced memory held after each return stays within
        what numpy's own FFT plans take."""
        march(0.3, Scheme.L1, 300)      # first calls may set up caches
        sizes = [*range(1000, 60001, 997), 65537, 2 * _KEPT_LEVELS + 4096]
        retained = []
        tracemalloc.start()
        try:
            for n in sizes:
                for scheme in Scheme:
                    _march(0.5, scheme, 1.0 / n, 1.0, 1.0, np.zeros(n + 1),
                           np.empty(n + 1))
                    retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert max(retained) <= RETAINED_BYTES

    @pytest.mark.parametrize("pid, scheme", [("r11", Scheme.L1),
                                             ("r12", Scheme.MODIFIED_L1)])
    def test_a_study_retains_nothing(self, pid, scheme):
        """The scope of a study, its weights, transforms and leaf inverses
        for rungs up to N = 40960, is dropped when the study returns."""
        family = relaxation_family(pid)
        run_relaxation_study(family, scheme, Ladder(0.05, 12))
        tracemalloc.start()
        try:
            run_relaxation_study(family, scheme, Ladder(0.05, 12))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 1 << 20       # the study held its scope while it ran
        assert retained <= RETAINED_BYTES

    @pytest.mark.parametrize("alpha, scheme", [(0.3, Scheme.L1),
                                               (0.5, Scheme.MODIFIED_L1)])
    def test_solves_at_another_scheme_keep_their_bits_in_a_scope(
            self, alpha, scheme):
        """A march at another (alpha, scheme) than the open scope's makes
        its own, and takes nothing from the scope or leaves anything in it:
        it keeps the bits of a lone solve."""
        sizes = (2, 300, 5000)
        want = {n: march(alpha, scheme, n) for n in sizes}
        marches = [(1.0 / n, 1.3, n) for n in sizes]
        with _solving(0.5, Scheme.L1, marches):
            held = _SCOPE.get()
            for n in sizes:
                assert np.array_equal(march(alpha, scheme, n), want[n])
            assert held._spectra.keys() == _Scope(0.5, Scheme.L1,
                                                  marches)._spectra.keys()

    def test_scopes_hold_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            for scheme in Scheme:
                with _solving(0.5, scheme, [(1.0 / 3000, 1.3, 3000)]):
                    march(0.5, scheme, 3000)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_threads_running_studies_match_serial_studies(self, scheme):
        """Two threads, each running studies at one (alpha, scheme), with
        the interpreter switching threads as often as it can: each thread
        has its own scope, and every report matches the serial study's
        bit for bit."""
        studies = [(relaxation_family("r11"), Ladder(0.05, 9)),
                   (relaxation_family("r12"), Ladder(0.1, 8))]
        want = [run_relaxation_study(family, scheme, ladder)
                for family, ladder in studies]
        got = [[], []]
        start = threading.Barrier(len(studies))

        def study(j):
            family, ladder = studies[j]
            start.wait()
            for _ in range(3):
                got[j].append(run_relaxation_study(family, scheme, ladder))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=study, args=(j,))
                       for j in range(len(studies))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == [[report] * 3 for report in want]


@pytest.mark.parametrize("alpha", np.arange(0.1, 0.95, 0.1))
@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
def test_weight_rows_annihilate_constants(alpha, n):
    assert abs(l1_weights(alpha, n).weights.sum()) <= 1e-10
    if n >= 2:
        assert abs(ml1_weights(alpha, n).weights.sum()) <= 1e-10


class TestCaputoApply:
    def test_constant_samples_give_zero(self):
        y = np.full(21, 3.7)
        for scheme in Scheme:
            assert abs(caputo_apply(y, 0.5, 0.1, scheme)) <= 1e-12

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError,
                           match="^samples must be a one-dimensional sequence$"):
            caputo_apply(np.zeros((3, 3)), 0.5, 0.1)

    def test_linear_ramp_reference_point(self):
        y = np.arange(11) * 0.1
        got = caputo_apply(y, 0.5, 0.1, Scheme.L1)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-11, abs=0)

    def test_exact_on_linear_functions(self):
        rng = np.random.default_rng(20240811)
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0)
            b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, 50))
            h = 0.02
            x = np.arange(n + 1) * h
            got = caputo_apply(a + b * x, alpha, h, Scheme.L1)
            expected = b * caputo_power_rule(1.0, alpha, x[-1])
            assert got == pytest.approx(expected, rel=1e-11, abs=0)

    def test_quadratic_converges_at_two_minus_alpha(self):
        alpha = 0.5
        exact = caputo_power_rule(2.0, alpha, 1.0)
        errors = []
        for h in (0.0125, 0.00625, 0.003125):
            n = round(1.0 / h)
            y = (np.arange(n + 1) * h) ** 2
            errors.append(abs(caputo_apply(y, alpha, h, Scheme.L1) - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.3 <= math.log2(coarse / fine) <= 1.7

    def test_scheme_agreement_on_smooth_data(self):
        # L1 and modified L1 differ by a curvature term of size h^(2-alpha),
        # so the halving ratio approaches 4 only for small alpha
        alpha = 0.1
        diffs = []
        for h in (0.1, 0.05, 0.025):
            n = round(1.0 / h)
            y = (np.arange(n + 1) * h) ** 3
            diffs.append(abs(caputo_apply(y, alpha, h, Scheme.L1)
                             - caputo_apply(y, alpha, h, Scheme.MODIFIED_L1)))
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            caputo_apply([1.0], 0.5, 0.1, Scheme.L1)
        with pytest.raises(ValueError):
            caputo_apply([1.0, 2.0], 0.5, 0.1, Scheme.MODIFIED_L1)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            caputo_apply([1.0, 2.0], 0.5, 0.0)

    @pytest.mark.parametrize("samples, scheme", [
        ([1.0, math.nan, 2.0], Scheme.L1),
        ([1.0, math.inf, 2.0], Scheme.MODIFIED_L1)], ids=["nan", "inf"])
    def test_rejects_samples_that_are_not_finite(self, samples, scheme):
        with pytest.raises(ValueError, match="finite"):
            caputo_apply(samples, 0.5, 0.1, scheme)

    def test_overflowing_derivative_raises(self):
        with pytest.raises(ConvergenceError, match="overflows"):
            caputo_apply([1e308, -1e308, 1e308], 0.5, 1e-3)


class TestCaputoPowerRule:
    def test_half_power_is_flat(self):
        expected = math.gamma(1.5)
        for x in (0.25, 0.5, 1.0, 2.0):
            assert caputo_power_rule(0.5, 0.5, x) == pytest.approx(
                expected, rel=1e-14, abs=0)

    def test_square_at_one(self):
        assert caputo_power_rule(2.0, 0.5, 1.0) == pytest.approx(
            GAMMA_3_OVER_2_5, rel=1e-13, abs=0)

    def test_at_origin(self):
        assert caputo_power_rule(2.0, 0.5, 0.0) == 0.0
        assert caputo_power_rule(0.5, 0.5, 0.0) == pytest.approx(math.gamma(1.5))
        assert caputo_power_rule(0.25, 0.5, 0.0) == math.inf

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            caputo_power_rule(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            caputo_power_rule(-1.0, 0.5, 1.0)
