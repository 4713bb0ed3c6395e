"""The blocked history sum against the direct L1/ML1 march.

The solvers evaluate the nonlocal history sum by FFT convolution over blocks
of levels.  The oracle here marches level by level with the public weight
rows, summing the history directly, so every level's row, tail and
modified-L1 shift come from `l1_weights` / `ml1_weights` alone.
"""

import gc
import math

import numpy as np
import pytest

from fracsolve import relaxation, subdiffusion
from fracsolve.caputo import Scheme, l1_weights, ml1_weights
from fracsolve.relaxation import PowerSum, RelaxationProblem
from fracsolve.subdiffusion import Sampled, SeparableForcing, SubdiffusionProblem

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


def direct_subdiffusion(problem, scheme):
    """Interior values of every level, each level solved densely."""
    alpha, N, M, tau = problem.alpha, problem.N, problem.M, problem.tau
    x = np.arange(1, N) * problem.h
    scale = math.gamma(2.0 - alpha) * tau ** alpha
    eta = scale / problem.h ** 2
    laplacian = (2.0 * np.eye(N - 1) - np.eye(N - 1, k=1)
                 - np.eye(N - 1, k=-1))
    forcing = problem.forcing
    V = np.empty((M + 1, N - 1))
    V[0] = problem.initial.values[1:-1]
    for m in range(1, M + 1):
        w = weight_row(alpha, scheme, m)
        rhs = -(w[1:] @ V[m - 1::-1])
        rhs += scale * forcing.time_profile(m * tau) * np.sin(forcing.mode * x)
        V[m] = np.linalg.solve(w[0] * np.eye(N - 1) + eta * laplacian, rhs)
    return V


def assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale


def relaxation_problem(alpha, n_steps):
    forcing = PowerSum(((1.0, 0.0), (2.0, 1.5), (-0.5, alpha)))
    return RelaxationProblem(alpha=alpha, B=1.3, forcing=forcing, y0=0.7,
                             T=1.0, h=1.0 / n_steps)


def sampled_problem(alpha, N, M):
    profile = np.zeros(N + 1)
    profile[1:-1] = np.random.default_rng(7).standard_normal(N - 1)
    forcing = SeparableForcing(3, PowerSum(((1.0, 1.0), (0.5, 0.25))))
    return SubdiffusionProblem(alpha=alpha, N=N, M=M, T=1.0,
                               initial=Sampled(profile), forcing=forcing)


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 63, 64, 65, 129, 1000, 5000])
def test_relaxation_matches_direct_march(n_steps, alpha, scheme):
    if scheme is Scheme.MODIFIED_L1 and n_steps == 1:
        n_steps = 2     # the modified scheme needs two steps
    problem = relaxation_problem(alpha, n_steps)
    got = SOLVERS["relaxation"][scheme](problem).values
    assert_close(got, direct_relaxation(problem, scheme))


@pytest.mark.parametrize("scheme", [Scheme.L1, Scheme.MODIFIED_L1])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("M", [2, 65, 200])
def test_subdiffusion_matches_direct_march(M, alpha, scheme):
    # 69 interior columns: the state is transformed in two column chunks
    problem = sampled_problem(alpha, 70, M)
    got = SOLVERS["subdiffusion"][scheme](problem).values
    assert np.all(got[:, [0, -1]] == 0.0)
    assert_close(got[:, 1:-1], direct_subdiffusion(problem, scheme))


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
