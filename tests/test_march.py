"""The blocked march against the direct L1/ML1 march.

The solvers carry the nonlocal history sum across blocks of levels by FFT
convolution and solve each leaf of levels with its Toeplitz inverse.  The
oracle here marches level by level with the public weight rows, summing the
history directly, so every level's row, tail and modified-L1 shift come from
`l1_weights` / `ml1_weights` alone.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from fracsolve import problems, relaxation, subdiffusion
from fracsolve.caputo import (Scheme, _leaf_inverse, _scheme_weights,
                              l1_weights, ml1_weights)
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


def direct_relaxation(problem, scheme):
    alpha, B, h, N = problem.alpha, problem.B, problem.h, problem.n_steps
    gha = math.gamma(2.0 - alpha) * h ** alpha
    F = problem.forcing(np.arange(N + 1) * h)
    v = np.empty(N + 1)
    v[0] = problem.y0
    for n in range(1, N + 1):
        w = weight_row(alpha, scheme, n)
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
    for m in range(1, M + 1):
        w = weight_row(alpha, scheme, m)
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
    # in leaves of 128 levels (300) and of 1024 (3000)
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
    # one or three columns: leaves of 1024 or 256 levels, more than one each
    check_subdiffusion(sampled_problem(alpha, N, 1100), scheme)


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
@pytest.mark.parametrize("leaf", [1, 2, 127, 128, 129, 1000, 1024])
def test_leaf_inverse_matches_dense_solve(leaf, columns, alpha, lam):
    """The inverse grows by Newton doubling through the history hand-off
    and comes back as its FFT of length 2 leaf; each column must still solve
    its triangular Toeplitz matrix against e_0, and the padding must stay
    zero."""
    c0, interior, _ = _scheme_weights(alpha, Scheme.MODIFIED_L1, leaf + 1)
    diagonal = c0 + lam * np.arange(1.0, columns + 1)
    spectrum = _leaf_inverse(
        lambda width: np.fft.rfft(interior[:2 * width - 1], 2 * width)[:, None],
        diagonal, leaf)
    assert spectrum.shape == (leaf + 1, columns)
    got = np.fft.irfft(spectrum, 2 * leaf, axis=0)
    c = np.concatenate(([0.0], interior[:leaf - 1]))
    lags = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    lower = np.where(lags > 0, c[np.clip(lags, 0, None)], 0.0)
    e0 = np.eye(leaf)[:, 0]
    for j, d in enumerate(diagonal):
        want = np.linalg.solve(lower + d * np.eye(leaf), e0)
        assert_close(got[:, j], np.concatenate((want, np.zeros(leaf))))


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
    """The traced peak of a solve stays near two arrays of all levels, the
    march's own and the padded result.  A further array of that order, such
    as the complex spectrum of every mode's leaf inverse, would push it past
    2.3 of the result's size."""
    problem = sampled_problem(0.5, 960, 320)
    subdiffusion.solve_ml1(problem)     # first calls may set up caches
    tracemalloc.start()
    try:
        values = subdiffusion.solve_ml1(problem).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * values.nbytes


def test_corrected_subdiffusion_peak_memory():
    """The corrected solve marches one scalar state and spreads it over the
    grid once, so its traced peak is the result and little more."""
    args = (0.3, 7, 1.0, 960, 320, Scheme.MODIFIED_L1)
    subdiffusion.solve_corrected(*args)     # first calls may set up caches
    tracemalloc.start()
    try:
        values = subdiffusion.solve_corrected(*args).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * values.nbytes


def test_scalar_march_peak_memory():
    """A scalar march holds the levels, the forcing, the weights, their
    spectra by block width and the transforms of one history hand-off at a
    time: at N = 40960 a traced peak about 10.5 times the result.  A
    product of transforms taken out of place, which keeps the operand's
    transform alive through the inverse transform, holds one more spectrum
    of the widest block and reads 12.1."""
    family = problems.relaxation_family("r11")
    problem = RelaxationProblem(family.alpha, family.B, family.forcing,
                                family.y0, T=1.0, h=1.0 / 40960)
    relaxation.solve_l1(problem)     # first calls may set up caches
    tracemalloc.start()
    try:
        values = relaxation.solve_l1(problem).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11.0 * values.nbytes


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
