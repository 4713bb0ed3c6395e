"""The benchmark's own tests: pinned references and the span recorder.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

The reference values behind the pins are cross-checked against mpmath at 30
digits by numerical Laplace inversion (Talbot contour) of
L[E_alpha(-B x^alpha)](p) = p^(alpha-1) / (p^alpha + B), a route independent
of fracsolve's series and spectral-integral branches.
"""

import math
import os
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

from fracsolve import harness, problems, relaxation, specfun  # noqa: E402
from fracsolve.caputo import Scheme  # noqa: E402

# Over all 1280 nodes of the finest reference grid the series branch
# (alpha = 0.5, B = 1) agrees to 7.8e-16 relative, while the spectral branch
# (alpha = 0.3, B = 10) is off by up to 4.4e-10 relative at x = 0.00547:
# far inside the 2% gate, but not at roundoff level.
REL_TOL = 1e-9


def ml_mpmath(alpha, B, x):
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(B)
        return float(mpmath.invertlaplace(lambda p: p ** (a - 1) / (p ** a + b),
                                          mpmath.mpf(x), method="talbot"))


@pytest.mark.parametrize("alpha, B", [(0.5, 1.0), (0.3, 10.0)])
def test_reference_family_values_match_mpmath(alpha, B):
    h = 0.05 / 64  # finest step of the 7-level reference ladders
    nodes = list(range(1, 9)) + list(range(64, 1281, 64))
    for k in nodes:
        x = k * h
        ref = ml_mpmath(alpha, B, x)
        got = specfun.ml_relaxation_exact(alpha, B, x)
        assert abs(got - ref) <= REL_TOL * abs(ref), (alpha, B, x, got, ref)


@pytest.mark.parametrize("name, alpha, B, scheme, corrected", [
    ("mlexact-a0.5-B1-l1", 0.5, 1.0, "l1", False),
    ("mlexact-a0.5-B1-ml1c", 0.5, 1.0, "ml1", True),
    ("mlexact-a0.3-B10-ml1c", 0.3, 10.0, "ml1", True),
])
def test_reference_pins_are_true_errors(name, alpha, B, scheme, corrected):
    """The pinned final-row error, recomputed at its node with mpmath."""
    h = 0.05 / 64
    if corrected:
        series = relaxation.solve_corrected(alpha, B, relaxation.choose_m(alpha),
                                            1.0, h, Scheme(scheme))
    else:
        series = relaxation.solve_l1(relaxation.RelaxationProblem(
            alpha=alpha, B=B, forcing=None, y0=1.0, T=1.0, h=h))
    exact = problems.relaxation_family("relax-mlexact", alpha, B).exact(series.x[1:])
    j = int(np.argmax(np.abs(series.values[1:] - exact))) + 1
    err = abs(series.values[j] - ml_mpmath(alpha, B, series.x[j]))
    pinned = workloads.PINS[name][0]
    # values are O(1), so roundoff in the solution is ~1e-16 absolute
    assert abs(err - pinned) <= 1e-9 * pinned + 1e-15, (err, pinned)


def test_mode_references_match_mpmath():
    for k, value in enumerate(workloads.MODE_EXACT, start=1):
        ref = ml_mpmath(workloads.SAMPLED_ALPHA, k * k, 1.0)
        assert abs(value - ref) <= REL_TOL * ref, (k, value, ref)


@pytest.mark.parametrize("M", sorted(workloads.DEFECT))
def test_mode_defects_match_scalar_march(M):
    """Each sine mode of the PDE march is a scalar relaxation march with the
    discrete eigenvalue B_k = (4/h^2) sin^2(k h / 2); its final value minus
    the mpmath reference reproduces the pinned per-mode defect."""
    h = math.pi / (3 * M)
    for k, pinned in enumerate(workloads.DEFECT[M], start=1):
        Bk = 4.0 / h ** 2 * math.sin(k * h / 2.0) ** 2
        series = relaxation.solve_ml1(relaxation.RelaxationProblem(
            alpha=workloads.SAMPLED_ALPHA, B=Bk, forcing=None, y0=1.0,
            T=1.0, h=1.0 / M))
        defect = series.values[-1] - ml_mpmath(workloads.SAMPLED_ALPHA, k * k, 1.0)
        # the two marches agree to ~1e-11 absolute, 1e-6 of the defect
        assert abs(defect - pinned) <= 1e-6 * abs(pinned), (k, defect, pinned)


def test_gate_rejects_rows_outside_bounds():
    pin = (1e-3, 1.5)
    assert workloads.check_row(pin, workloads.Row(1.019e-3, 1.519)) is None
    assert workloads.check_row(pin, workloads.Row(1.021e-3, 1.5)) is not None
    assert workloads.check_row(pin, workloads.Row(1e-3, 1.521)) is not None
    assert workloads.check_row(pin, workloads.Row(1e-3, None)) is not None


def _tiny_workload(tmp_path):
    ops = [workloads._relax_ladder("r11-l1", "r11", "l1", 3),
           workloads._relax_ladder("mlexact-a0.3-B10-ml1c", "relax-mlexact",
                                   "ml1", 2, alpha=0.3, B=10.0, corrected=True),
           workloads._pde_ladder("s03-ml1c", "s03", "ml1", corrected=True,
                                 levels=2),
           workloads._sampled_ladder(workloads.mode_coefficients(1), levels=2)]
    return workloads.Workload("tiny", 1, ops, {})


def _check_trace(tracer, names):
    assert tracing.check_spans(tracer.spans) == []
    assert all(st >= 0.0 for st in tracing.self_times(tracer.spans))
    seen = {s[0] for s in tracer.spans}
    assert names <= seen, names - seen


def test_traced_pass_spans_nest_and_self_times_are_non_negative(tmp_path):
    workload = _tiny_workload(tmp_path)
    tracer = tracing.Tracer()
    _, results = run_pass(workload, tracer)
    assert len(results) == len(workload.ops)
    _check_trace(tracer, {"bench.pass", "bench.op", "harness.study",
                          "problems.exact", "specfun.ml_exact",
                          "relaxation.march", "relaxation.corrected",
                          "relaxation.taylor", "subdiffusion.march",
                          "subdiffusion.corrected"})
    assert tracer.points > 0 and 0 < len(tracer.distinct) <= tracer.points
    # the wrappers are gone after the pass
    assert problems.ml_relaxation_exact is specfun.ml_relaxation_exact
    assert harness.relaxation.solve_l1.__module__ == "fracsolve.relaxation"


def test_traced_cli_spans_nest_inside_the_process_span(tmp_path, monkeypatch):
    src = str(BENCH_DIR.parent / "src")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    op = workloads._cli_op(
        "converge-tiny", ["converge", "--problem", "relax-mlexact", "--alpha",
                          "0.5", "--levels", "2", "--format", "jsonl"],
        tmp_path, workloads._last_jsonl_row, lambda row: None, BENCH_DIR)
    workload = workloads.Workload("tiny-cli", 1, [op], {}, in_process=False)
    tracer = tracing.Tracer()
    _, (result,) = run_pass(workload, tracer)
    assert result["rc"] == 0 and op.check(result) is None
    _check_trace(tracer, {"cli.process", "cli.run", "harness.study",
                          "problems.exact", "specfun.ml_exact",
                          "relaxation.march"})
