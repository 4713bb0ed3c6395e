"""Weight rows and point evaluation of the discretized Caputo derivative."""

import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fracsolve import caputo
from fracsolve.caputo import (_CACHED_LEVELS, Scheme, _march, _table,
                              _WeightTable, caputo_apply, caputo_power_rule,
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


def march(alpha, scheme, n):
    return _march(alpha, scheme, 1.0 / n, 0.7, 1.3, np.linspace(0.0, 1.0, n + 1),
                  np.empty(n + 1))


class TestWeightTable:
    """Every solve at one (alpha, scheme) reads one table of weights and
    history-weight transforms, which grows by the levels it lacks.  What it
    hands out must not depend on which solves grew it, or in what order."""

    SIZES = [2, 3, 5, 64, 1000, 1025, 4097]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("order", ["rising", "falling", "random"])
    def test_rows_match_a_fresh_table(self, order, alpha, scheme):
        sizes = {"rising": self.SIZES, "falling": self.SIZES[::-1],
                 "random": np.random.default_rng(5).permutation(self.SIZES)}
        _table.cache_clear()
        for n in sizes[order]:
            got = _table(alpha, scheme)
            fresh = _WeightTable(alpha, scheme)
            assert got.c0 == fresh.c0
            assert np.array_equal(got.interior(int(n)),
                                  fresh.interior(int(n)))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_march_bits_do_not_depend_on_earlier_solves(self, scheme):
        """Each solve in turn against the same solve from an empty table.
        The longest runs past the table's cap, so the table keeps none of
        the weights it grows, and each takes another leaf size (1500, 1080,
        1250 levels), so each finds the transforms of other solves'
        hand-off widths kept and adds its own."""
        sizes = (3000, _CACHED_LEVELS + 1000, 5000, 3000)
        want = {}
        for n in sizes:
            _table.cache_clear()
            want[n] = march(0.3, scheme, n)
        _table.cache_clear()
        for n in sizes:
            assert np.array_equal(march(0.3, scheme, n), want[n])

    def test_handed_out_arrays_are_read_only(self):
        table = _table(0.5, Scheme.MODIFIED_L1)
        for array in (table.interior(100), table.spectrum(8),
                      ml1_weights(0.5, 100).weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_retained_memory_is_bounded(self):
        """The table keeps interior weights grown for at most 2^16 levels,
        0.5 MiB.  It keeps the transforms of widths up to 2^15 while they
        take at most 1.0625 MiB, and starts them anew past that: under
        1.6 MiB per table with their headers, and the cache holds two
        tables.  A sweep of solves whose leaf sizes differ must not pile up
        transforms: kept for every leaf size, the sweep below leaves about
        11 MiB per table.  65537 levels take 64 leaves of 1024, whose
        transforms take 1.0 MiB and are all kept, 1.5 MiB per table.
        Keeping the weights of a solve of 2^17 + 4096 levels would leave
        about 2.1 MiB per table."""
        march(0.3, Scheme.L1, 300)      # first calls may set up caches
        _table.cache_clear()
        sizes = [*range(1000, 60001, 997), 65537, 2 * _CACHED_LEVELS + 4096]
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
        assert max(retained) <= 2 * 1.6 * 2 ** 20

    def test_tables_hold_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            _table.cache_clear()
            for scheme in Scheme:
                march(0.5, scheme, 3000)
            _table.cache_clear()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_threads_growing_one_table_match_serial_solves(self, scheme):
        sizes = [(700, 20000, 3000), (5000, 129, 40000)]
        _table.cache_clear()
        want = {n: march(0.4, scheme, n) for part in sizes for n in part}
        _table.cache_clear()
        got = {}
        start = threading.Barrier(len(sizes))

        def solve(part):
            start.wait()
            for n in part:
                got[n] = march(0.4, scheme, n)

        threads = [threading.Thread(target=solve, args=(part,))
                   for part in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got.keys() == want.keys()
        for n in want:
            assert np.array_equal(got[n], want[n])

    def test_threads_past_the_kept_bytes_get_every_transform(self,
                                                             monkeypatch):
        """Four threads on one table, each asking for widths whose
        transforms pass the kept bytes many times over, with the
        interpreter switching threads as often as it can: every transform
        must match a fresh table's, and none may raise while another thread
        sums the kept transforms or starts them anew."""
        widths = range(1, 41)
        fresh = _WeightTable(0.4, Scheme.L1)
        want = {width: fresh.spectrum(width) for width in widths}
        # 16 (W + 1) bytes each, 13.8 KB for all: about seven fresh starts
        # for each pass over the widths
        monkeypatch.setattr(caputo, "_SPECTRUM_BYTES", 2048)
        table = _WeightTable(0.4, Scheme.L1)
        failures = []

        def solve(seed):
            order = np.random.default_rng(seed).permutation(widths).tolist()
            try:
                for _ in range(100):
                    for width in order:
                        if not np.array_equal(table.spectrum(width),
                                              want[width]):
                            failures.append(width)
            except Exception as error:      # reported below, not by the thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert sum(s.nbytes for s in table._spectra.values()) <= 2048


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
