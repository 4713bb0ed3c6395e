"""Weight rows and point evaluation of the discretized Caputo derivative."""

import math

import numpy as np
import pytest

from fracsolve.caputo import (Scheme, caputo_apply, caputo_power_rule,
                              l1_weights, ml1_weights)
from fracsolve.specfun import zeta_unit_strip

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
            SQRT2_MINUS_2, rel=1e-13)

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


class TestML1Weights:
    def test_row_sums_to_zero(self):
        assert abs(ml1_weights(0.5, 50).weights.sum()) <= 1e-10

    def test_leading_weight(self):
        assert ml1_weights(0.5, 10).weights[0] == pytest.approx(
            ONE_MINUS_ZETA_HALF, rel=1e-12)

    def test_unmodified_indices_match_l1(self):
        l1 = l1_weights(0.5, 10).weights
        ml1 = ml1_weights(0.5, 10).weights
        assert np.array_equal(ml1[3:], l1[3:])

    def test_level_two_corrects_the_tail(self):
        z = zeta_unit_strip(-0.5)
        l1 = l1_weights(0.5, 2).weights
        ml1 = ml1_weights(0.5, 2).weights
        assert ml1[2] == pytest.approx(l1[2] - z, rel=1e-14)

    def test_rejects_level_below_two(self):
        with pytest.raises(ValueError):
            ml1_weights(0.5, 1)


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

    def test_linear_ramp_reference_point(self):
        y = np.arange(11) * 0.1
        got = caputo_apply(y, 0.5, 0.1, Scheme.L1)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-11)

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
            assert got == pytest.approx(expected, rel=1e-11)

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


class TestCaputoPowerRule:
    def test_half_power_is_flat(self):
        expected = math.gamma(1.5)
        for x in (0.25, 0.5, 1.0, 2.0):
            assert caputo_power_rule(0.5, 0.5, x) == pytest.approx(
                expected, rel=1e-14)

    def test_square_at_one(self):
        assert caputo_power_rule(2.0, 0.5, 1.0) == pytest.approx(
            GAMMA_3_OVER_2_5, rel=1e-13)

    def test_at_origin(self):
        assert caputo_power_rule(2.0, 0.5, 0.0) == 0.0
        assert caputo_power_rule(0.5, 0.5, 0.0) == pytest.approx(math.gamma(1.5))
        assert caputo_power_rule(0.25, 0.5, 0.0) == math.inf

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            caputo_power_rule(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            caputo_power_rule(-1.0, 0.5, 1.0)
