"""The blocked march against the direct L1/ML1 march.

The solvers carry the nonlocal history sum across blocks of levels by FFT
convolution and solve each leaf of levels with its Toeplitz inverse.  The
oracle here marches level by level with the public weight rows, summing the
history directly: the interior weights and the modified-L1 shifts come from
`l1_weights` / `ml1_weights` of the last level and of levels 1 and 2, and
every other level's final weight from `_tail_weights`.
"""

import contextlib
import gc
import math
import tracemalloc

import numpy as np
import pytest

from fracsolve import caputo, problems, relaxation, subdiffusion
from fracsolve.caputo import (Scheme, _leaf_inverse, _march, _Scope,
                              _solving, _tail_weights, l1_weights, ml1_weights)
from fracsolve.harness import Ladder, run_relaxation_study
from fracsolve.relaxation import PowerSum, RelaxationProblem, taylor_poly
from fracsolve.subdiffusion import Sampled, SineMode, SubdiffusionProblem

RTOL = 1e-12
SOLVERS = {
    "relaxation": {Scheme.L1: relaxation.solve_l1,
                   Scheme.MODIFIED_L1: relaxation.solve_ml1},
    "subdiffusion": {Scheme.L1: subdiffusion.solve_l1,
                     Scheme.MODIFIED_L1: subdiffusion.solve_ml1},
}


def weight_row(alpha, scheme, n):
    if scheme is Scheme.MODIFIED_L1 and n >= 2:
        return ml1_weights(alpha, n).weights
    return l1_weights(alpha, n).weights


def weight_rows(alpha, scheme, N):
    """The weight rows of levels 1..N.  Levels 1 and 2 are public rows
    whole: the modified scheme's level 1 is the L1 row, and its level 2
    shifts the final weight.  Every later level n shares its first n weights
    with the public row of level N and ends in its own final weight, so the
    interior weights are computed once, not once per level."""
    last, tails = weight_row(alpha, scheme, N), _tail_weights(alpha, 3, N + 1)
    for n in range(1, N + 1):
        yield (weight_row(alpha, scheme, n) if n <= 2 else
               np.append(last[:n], tails[n - 3]))


def direct_relaxation(problem, scheme):
    alpha, B, h, N = problem.alpha, problem.B, problem.h, problem.n_steps
    gha = math.gamma(2.0 - alpha) * h ** alpha
    F = problem.forcing(np.arange(N + 1) * h)
    v = np.empty(N + 1)
    v[0] = problem.y0
    for n, w in enumerate(weight_rows(alpha, scheme, N), 1):
        hist = w[1:] @ v[n - 1::-1]
        v[n] = (gha * F[n] - hist) / (w[0] + B * gha)
    return v


def direct_subdiffusion(problem, scheme, source=None):
    """Interior values of every level, each level solved densely.  `source`
    holds the interior forcing samples of levels 0..M, zero if None."""
    alpha, N, M, tau = problem.alpha, problem.N, problem.M, problem.tau
    x = np.arange(1, N) * problem.h
    scale = math.gamma(2.0 - alpha) * tau ** alpha
    eta = scale / problem.h ** 2
    laplacian = (2.0 * np.eye(N - 1) - np.eye(N - 1, k=1)
                 - np.eye(N - 1, k=-1))
    V = np.empty((M + 1, N - 1))
    if isinstance(problem.initial, SineMode):
        V[0] = np.sin(problem.initial.k * x)
    else:
        V[0] = problem.initial.values[1:-1]
    for m, w in enumerate(weight_rows(alpha, scheme, M), 1):
        rhs = -(w[1:] @ V[m - 1::-1])
        if source is not None:
            rhs += scale * source[m]
        V[m] = np.linalg.solve(w[0] * np.eye(N - 1) + eta * laplacian, rhs)
    return V


def assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale


def relaxation_problem(alpha, n_steps, B=1.3):
    forcing = PowerSum(((1.0, 0.0), (2.0, 1.5), (-0.5, alpha)))
    return RelaxationProblem(alpha=alpha, B=B, forcing=forcing, y0=0.7,
                             T=1.0, h=1.0 / n_steps)


def sampled_problem(alpha, N, M):
    profile = np.zeros(N + 1)
    profile[1:-1] = np.random.default_rng(7).standard_normal(N - 1)
    return SubdiffusionProblem(alpha=alpha, N=N, M=M, T=1.0,
                               initial=Sampled(profile))


PDE_CASES = {
    # one interior node: a sine transform of length 1
    "N2": lambda alpha, M: sampled_problem(alpha, 2, M),
    # on the grid sin((N+1) x) equals -sin((N-1) x)
    "aliased": lambda alpha, M: SubdiffusionProblem(
        alpha=alpha, N=70, M=M, T=1.0, initial=SineMode(71)),
}


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 63, 64, 65, 127, 128, 129, 130,
                                     257, 1000, 1025, 1026, 2049, 5000])
def test_relaxation_matches_direct_march(n_steps, alpha, scheme):
    if scheme is Scheme.MODIFIED_L1 and n_steps == 1:
        n_steps = 2     # the modified scheme needs two steps
    check_relaxation(relaxation_problem(alpha, n_steps), scheme)


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.05, 0.95])
@pytest.mark.parametrize("B", [1e-4, 1e4])
def test_stiff_and_soft_relaxation_match_direct_march(B, alpha, scheme):
    # a leaf inverse that decays at once (stiff) or barely at all (soft),
    # in one leaf of 300 levels (300) and in two of 1500 (3000)
    for n_steps in (300, 3000):
        check_relaxation(relaxation_problem(alpha, n_steps, B), scheme)


def check_relaxation(problem, scheme):
    got = SOLVERS["relaxation"][scheme](problem).values
    assert_close(got, direct_relaxation(problem, scheme))


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("M", [2, 65, 200])
def test_subdiffusion_matches_direct_march(M, alpha, scheme):
    # 69 interior columns: the state is transformed in two column chunks
    check_subdiffusion(sampled_problem(alpha, 70, M), scheme)


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("M", [2, 65, 200])
@pytest.mark.parametrize("case", PDE_CASES)
def test_subdiffusion_edge_cases_match_direct_march(case, M, alpha, scheme):
    check_subdiffusion(PDE_CASES[case](alpha, M), scheme)


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("N", [2, 4])
def test_narrow_subdiffusion_matches_direct_march(N, alpha, scheme):
    # one or three columns: two leaves of 1080 levels or four of 540
    check_subdiffusion(sampled_problem(alpha, N, 2100), scheme)


def check_subdiffusion(problem, scheme):
    got = SOLVERS["subdiffusion"][scheme](problem).values
    assert np.all(got[:, [0, -1]] == 0.0)
    assert_close(got[:, 1:-1], direct_subdiffusion(problem, scheme))


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("M", [2, 65, 200])
@pytest.mark.parametrize("N", [2, 3, 70])
def test_corrected_subdiffusion_matches_direct_march(N, M, alpha, scheme):
    """The corrected solve marches one scalar state at the mode-1 rate; the
    oracle marches the whole grid from zero under the forcing sin(x) G(t),
    G the relaxation remainder forcing with B = 1, and adds sin(x) times
    the Taylor polynomial back."""
    m = relaxation.choose_m(alpha)
    got = subdiffusion.solve_corrected(alpha, m, 1.0, N, M, scheme).values
    problem = SubdiffusionProblem(alpha=alpha, N=N, M=M, T=1.0,
                                  initial=Sampled(np.zeros(N + 1)))
    G = relaxation.corrected_problem(alpha, 1.0, m, 1.0, problem.tau).forcing
    t = np.arange(M + 1) * problem.tau
    sine = np.sin(np.arange(1, N) * problem.h)
    want = (direct_subdiffusion(problem, scheme, np.outer(G(t), sine))
            + np.outer(taylor_poly(alpha, 1.0, m, t), sine))
    assert np.all(got[:, [0, -1]] == 0.0)
    assert_close(got[:, 1:-1], want)


@pytest.mark.parametrize("alpha, lam", [(0.95, 1e-6), (0.05, 1e4)],
                         ids=["soft", "stiff"])
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("leaf", [1, 2, 127, 128, 129, 160, 1000, 1024, 1250,
                                  1280])
def test_leaf_inverse_matches_dense_solve(leaf, columns, alpha, lam):
    """The inverse grows by Newton doubling through the history hand-off;
    each column must still solve its triangular Toeplitz matrix against
    e_0.  160, 1250 and 1280 are leaf sizes the march takes, 5-smooth but
    no power of two."""
    scope = _Scope(alpha, Scheme.MODIFIED_L1)
    interior = scope.interior(leaf + 1)
    diagonal = scope.c0 + lam * np.arange(1.0, columns + 1)
    got = _leaf_inverse(scope.spectrum, diagonal, leaf)
    assert got.shape == (leaf, columns)
    c = np.concatenate(([0.0], interior[:leaf - 1]))
    lags = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    lower = np.where(lags > 0, c[np.clip(lags, 0, None)], 0.0)
    e0 = np.eye(leaf)[:, 0]
    for j, d in enumerate(diagonal):
        want = np.linalg.solve(lower + d * np.eye(leaf), e0)
        assert_close(got[:, j], want)


# non-increasing leaf sizes as a ladder's rungs take them, plus the
# smallest ones: 1250 and 1280 are 5-smooth leaves of long marches
BATCH_LEAVES = [1280, 1280, 1250, 640, 160, 129, 20, 9, 2, 1]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95])
def test_batched_leaf_inverse_keeps_each_columns_bits(alpha, scheme):
    """One batch over several leaf sizes gives every column the bits of
    its lone inverse, and zeros past its leaf: a column leaves the
    doubling at its leaf, and its entries past the leaf are zeroed before
    they would enter a convolution."""
    scope = _Scope(alpha, scheme)
    diagonal = scope.c0 + np.geomspace(1e3, 1e-3, len(BATCH_LEAVES))
    got = _leaf_inverse(scope.spectrum, diagonal, BATCH_LEAVES)
    assert got.shape == (BATCH_LEAVES[0], len(BATCH_LEAVES))
    for j, leaf in enumerate(BATCH_LEAVES):
        lone = _leaf_inverse(scope.spectrum, diagonal[j:j + 1], leaf)
        np.testing.assert_array_equal(got[:leaf, j], lone[:, 0])
        assert np.all(got[leaf:, j] == 0.0)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.95])
def test_longer_leaf_inverse_starts_with_the_shorter_one(alpha, scheme):
    """The prefix rule: the first L entries of the inverse of a longer leaf
    invert the L x L leaf matrix, up to roundoff, since both matrices are
    lower-triangular Toeplitz with the same first L entries.  The worst
    seen is 1.6 eps of the largest entry, at alpha = 0.95."""
    scope = _Scope(alpha, scheme)
    for lam in (1e-3, 1.0, 1e3):
        diagonal = np.array([scope.c0 + lam])
        longer = _leaf_inverse(scope.spectrum, diagonal, 1280)
        for leaf in BATCH_LEAVES[2:]:
            want = _leaf_inverse(scope.spectrum, diagonal, leaf)
            scale = np.max(np.abs(want))
            assert (np.max(np.abs(longer[:leaf] - want))
                    <= 4.0 * np.finfo(float).eps * scale)


def long_double_march(alpha, scheme, h, v0, B, F):
    """The equations `_march` solves, level by level in long double with
    its own weights and step scaling, for a state of columns v0 with rates
    B: what is left is the roundoff of the march's arithmetic.  Each level
    sums its whole row, final weight on v_0 included, where the march
    solves for v - v_0 and never reads a final weight."""
    ld = np.longdouble
    n_steps = len(F) - 1
    scope = _Scope(alpha, scheme)
    c0, c = scope.c0, scope.interior(n_steps).astype(ld)
    tail = np.concatenate(([-1.0], _tail_weights(alpha, 2, n_steps + 1)))
    tail[1:2] -= scope.z
    tail = tail.astype(ld)
    gha = ld(math.gamma(2.0 - alpha) * h ** alpha)
    lam = np.asarray(B, dtype=ld) * gha
    F = np.asarray(F, dtype=ld) * gha
    v = np.empty((n_steps + 1, len(v0)), dtype=ld)
    v[0] = v0
    v[1] = (F[1] - tail[0] * v[0]) / (1 + lam)
    for n in range(2, n_steps + 1):
        history = tail[n - 1] * v[0] + c[:n - 1] @ v[n - 1:0:-1]
        v[n] = (F[n] - history) / (ld(c0) + lam)
    return v


# 1.43 times the worst error on this sweep, 1.19e-12 at alpha = 0.95,
# modified L1, N = 5120, the 5-column state
LONG_DOUBLE_RTOL = 1.7e-12


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n_steps", [2, 3, 7, 20, 129, 1000, 1281, 5120])
def test_march_matches_long_double_substitution(n_steps, alpha, scheme):
    """A scalar state, one of 3 columns and one of 70, whose two chunks
    are checked at five columns, each within LONG_DOUBLE_RTOL of its
    largest value.  The worst seen is 1.19e-12, at alpha = 0.95, modified
    L1, N = 5120, the 5-column state."""
    h = 1.0 / n_steps
    F = 1.0 + np.sqrt(np.arange(n_steps + 1) * h)
    rng = np.random.default_rng(11)
    wide = (rng.uniform(-1.0, 1.0, 70), np.geomspace(1e-3, 1e3, 70))
    picked = [0, 31, 63, 64, 69]
    states = [(np.array([0.7]), np.array([1.3])),
              (np.array([1.0, -0.4, 0.3]), np.array([1e-3, 1.3, 40.0])),
              (wide[0][picked], wide[1][picked])]
    want = long_double_march(alpha, scheme, h,
                             np.concatenate([v0 for v0, _ in states]),
                             np.concatenate([B for _, B in states]), F)
    got = [_march(alpha, scheme, h, 0.7, 1.3, F, np.empty(n_steps + 1))[:, None],
           _march(alpha, scheme, h, *states[1], F, np.empty((n_steps + 1, 3))),
           _march(alpha, scheme, h, *wide, F, np.empty((n_steps + 1, 70)))[:, picked]]
    columns = np.cumsum([0] + [len(v0) for v0, _ in states])
    for march, lo, hi in zip(got, columns, columns[1:]):
        exact = want[:, lo:hi]
        error = np.max(np.abs(march - exact)) / np.max(np.abs(exact))
        assert error <= LONG_DOUBLE_RTOL


# about three times the worst absolute error on this sweep, 5.4 eps |v0|
# at alpha = 0.5, modified L1, N = 1281
ABSOLUTE_FLOOR = 16 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n_steps", [2, 3, 20, 129, 1281])
def test_stiff_march_error_is_bounded_by_v0(n_steps, alpha, scheme):
    """Where B is so large that the solution decays far below v0, the
    march is accurate to ABSOLUTE_FLOOR |v0|, not to a share of each
    value: it solves for v - v0, whose roundoff is eps |v0| in size.  So
    values near eps |v0| and below may be off by all of their size, or
    read 0."""
    h = 1.0 / n_steps
    F = 1.0 + np.sqrt(np.arange(n_steps + 1) * h)
    v0 = np.array([1.0, -3.0, 1e16, 1e-300])
    B = np.array([1e16, 1e8, 1e12, 1e300])
    want = long_double_march(alpha, scheme, h, v0, B, F)
    got = _march(alpha, scheme, h, v0, B, F, np.empty((n_steps + 1, 4)))
    assert np.all(np.abs(got - want) <= ABSOLUTE_FLOOR * np.abs(v0))


def is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("n_steps", [20 * 2 ** k for k in range(6, 12)]
                         + [20000])
def test_leaves_fit_the_grid(n_steps, monkeypatch):
    """On the step-halving ladders' grids, and at N = 20000, a scalar march
    takes every FFT at a 5-smooth length and a power-of-two count of
    leaves, all of L levels but the last.  The block of width L (k & -k)
    that ends at leaf k then lies within the leaves, so every hand-off
    feeds all of its W levels, or all but the short part of the last
    leaf."""
    lengths, leaves, hand_offs = [], [], []
    for name in ("rfft", "irfft"):
        def transform(a, n, *args, real=getattr(np.fft, name), **kwargs):
            lengths.append(n)
            return real(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, transform)

    def convolve(x, spectrum, start, x_spectrum=None, real=caputo._convolve):
        if start == 0:
            leaves.append((len(spectrum) - 1, len(x)))
        elif x_spectrum is None:    # Newton's steps pass the one they share
            hand_offs.append(len(x))
        return real(x, spectrum, start, x_spectrum)
    monkeypatch.setattr(caputo, "_convolve", convolve)
    _march(0.5, Scheme.L1, 1.0 / n_steps, 1.0, 1.0, np.ones(n_steps + 1),
           np.empty(n_steps + 1))
    assert all(is_5_smooth(n) for n in lengths)
    # Newton's leaf steps convolve with inverses shorter than the leaf
    leaf = max(size for size, _ in leaves)
    sizes = [levels for size, levels in leaves if size == leaf]
    count = len(sizes)
    assert count & (count - 1) == 0
    assert sizes[:-1] == [leaf] * (count - 1) and sizes[-1] <= leaf
    assert sum(sizes) == n_steps - 1
    assert hand_offs == [leaf * (k & -k) for k in range(1, count)]
    assert all(k + (k & -k) <= count for k in range(1, count))


@pytest.mark.parametrize("columns", [1, 2, 3, 8, 64])
def test_leaf_is_the_least_5_smooth_size_that_covers_its_share(columns):
    """`_leaf` against its definition: with longest = max(_LEAF,
    _LEAF_VALUES // columns), count is the largest power of two whose
    leaves would hold at least longest levels each, or 1, and L is the
    least 2^a 3^b 5^c at or above unknowns / count."""
    longest = max(caputo._LEAF, caputo._LEAF_VALUES // columns)
    # least_smooth[n] is the least 5-smooth number at or above n; a share
    # holds at most 2 longest <= 2048 levels
    least_smooth = list(range(2049))
    for n in reversed(range(1, 2048)):
        if not is_5_smooth(n):
            least_smooth[n] = least_smooth[n + 1]
    for unknowns in [*range(1, 5001), *range(5001, 200001, 97)]:
        count = 1
        while 2 * count * longest <= unknowns:
            count *= 2
        assert caputo._leaf(unknowns, columns) == least_smooth[
            -(-unknowns // count)], unknowns


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
def test_repeated_solves_compute_no_weight_transform(scheme, monkeypatch):
    """Within one scope each weight transform is taken once: a study's rungs
    share them, and the same solve again, or a step-halving ladder again,
    finds every one."""
    transforms = []

    def spectrum(self, width, real=_Scope.spectrum):
        if width not in self._spectra:
            transforms.append(width)
        return real(self, width)
    monkeypatch.setattr(_Scope, "spectrum", spectrum)
    run_relaxation_study(problems.relaxation_family("r12"), scheme,
                         Ladder(0.05, 12))
    assert transforms and len(set(transforms)) == len(transforms)
    for solves in ([40960], [20 * 2 ** k for k in range(12)]):
        transforms.clear()
        with _solving(0.5, scheme):
            for n_steps in solves:
                SOLVERS["relaxation"][scheme](relaxation_problem(0.5, n_steps))
            assert transforms
            transforms.clear()
            for n_steps in solves:
                SOLVERS["relaxation"][scheme](relaxation_problem(0.5, n_steps))
            assert transforms == []


def test_solves_create_no_reference_cycles():
    """A solve's arrays must be freed by reference counting alone; a cycle
    would hold them until the cyclic collector runs and raise peak memory."""
    ode = relaxation_problem(0.5, 300)
    pde = sampled_problem(0.5, 70, 130)
    calls = [(solve, ode) for solve in SOLVERS["relaxation"].values()]
    calls += [(solve, pde) for solve in SOLVERS["subdiffusion"].values()]
    for solve, problem in calls:
        solve(problem)      # first calls may set up caches of their own
    gc.collect()
    gc.disable()
    try:
        for solve, problem in calls:
            solve(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subdiffusion_peak_memory():
    """The traced peak of a solve stays near one array of all levels: the
    march fills the interior of the padded result, which the sine transform
    turns back to grid values in place, 8 rows at a time.  A march into an
    array of its own, or 64-row transform blocks, read 2.02 of the result's
    size here."""
    problem = sampled_problem(0.5, 960, 320)
    subdiffusion.solve_ml1(problem)     # first calls may set up caches
    tracemalloc.start()
    try:
        values = subdiffusion.solve_ml1(problem).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * values.nbytes


@pytest.mark.parametrize("solve", [
    lambda: subdiffusion.solve_corrected(0.3, 7, 1.0, 960, 320,
                                         Scheme.MODIFIED_L1),
    lambda: subdiffusion.solve_l1(SubdiffusionProblem(
        0.3, N=960, M=320, T=1.0, initial=SineMode(1))),
    lambda: subdiffusion.solve_ml1(SubdiffusionProblem(
        0.3, N=960, M=320, T=1.0, initial=SineMode(1))),
], ids=["corrected", "l1", "ml1"])
def test_corrected_subdiffusion_peak_memory(solve):
    """A sine-mode solve, plain or corrected, marches one scalar state and
    spreads it over the grid once, so its traced peak is the result and
    little more.  A march of every mode reads about 2 of the result."""
    solve()     # first calls may set up caches
    tracemalloc.start()
    try:
        values = solve().values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * values.nbytes


def scalar_march_peak(cold, pid="r11", scheme=Scheme.L1, n_steps=40960):
    """Traced peak over the result's size of a solve of problem `pid` with
    `scheme` at N = n_steps after a first one: a lone solve where cold is
    true, else the second solve inside one open scope."""
    family = problems.relaxation_family(pid)
    problem = RelaxationProblem(family.alpha, family.B, family.forcing,
                                family.y0, T=1.0, h=1.0 / n_steps)
    with (contextlib.nullcontext() if cold else
          _solving(problem.alpha, scheme)):
        # first calls may set up caches; in a scope, it fills the scope
        relaxation.solve(problem, scheme)
        tracemalloc.start()
        try:
            values = relaxation.solve(problem, scheme).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / values.nbytes


def test_scalar_march_peak_memory():
    """A scalar march writes its levels over the forcing samples, builds
    its right-hand sides one leaf of rows at a time and holds the transforms
    of one history hand-off at a time; inside a scope, the weights and
    their spectra by block width are the scope's from the first solve.  At
    N = 40960, 32 leaves of 1280 levels, the widest hand-off transforms
    40960 points and the traced peak is about 3.07 times the result, as is
    the forcing's evaluation (grid, sum and one term); one more array of all
    levels would push it past 3.4.  A separate result array and a
    full-length right-hand side temporary read 4.07."""
    assert scalar_march_peak(cold=False) <= 3.4


def test_scalar_march_peak_memory_of_a_lone_solve():
    """A lone solve builds its weights, 4096 at a time into one new array,
    and their spectra by block width, all of them full-width and kept until
    it returns: at N = 40960 a traced peak about 6.13 times the result.
    One more array of all levels held by the weights or the transforms
    would push it past 6.6; weights computed in one piece and appended by
    concatenation read 8.01."""
    assert scalar_march_peak(cold=True) <= 6.6


def test_scalar_march_peak_memory_past_the_kept_levels():
    """Past 2^16 levels a scope keeps no weights: the march computes its
    own and drops them once its right-hand sides are built, and each
    hand-off wider than 2^15 computes its own.  A lone r12 ML1 solve at
    N = 2^18 reads about 4.8 times the result; one more array of all
    levels, such as the march's weights held through the hand-offs (5.77),
    would push it past 5.3.  Weights computed in one piece, a separate
    result and a full-length right-hand side temporary read 8.27."""
    assert scalar_march_peak(True, "r12", Scheme.MODIFIED_L1, 1 << 18) <= 5.3


def test_both_families_refuse_a_single_modified_l1_step_in_the_march():
    problems = {
        relaxation.solve_ml1: RelaxationProblem(0.5, 1.0, None, 1.0, T=0.1,
                                                h=0.1),
        subdiffusion.solve_ml1: SubdiffusionProblem(0.5, N=4, M=1, T=1.0,
                                                    initial=SineMode(1)),
    }
    messages = set()
    for solve, problem in problems.items():
        with pytest.raises(ValueError) as info:
            solve(problem)
        assert info.traceback[-1].name == "_march"
        messages.add(str(info.value))
    assert messages == {"the modified L1 scheme needs at least 2 steps"}
