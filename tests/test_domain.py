"""The domain the API accepts: four input rules, each worded once in
`specfun` and applied by every public entry, which the command line passes
its options to as given."""

import ast
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import fracsolve
from fracsolve import (caputo, cli, harness, problems, relaxation,
                       specfun, subdiffusion)
from fracsolve.caputo import Scheme
from fracsolve.cli import run

SOURCES = sorted(Path(fracsolve.__file__).parent.glob("*.py"))

WORDINGS = ["alpha must lie in (0, 1), got ",
            " must be positive and finite, got ",
            " must be finite and >= 0, got ",
            " must be an integer >= "]


def raised_texts(path):
    """The literal text of every `raise` in a module, f-string parts
    joined."""
    texts = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            texts.append("".join(
                part.value for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)))
    return texts


@pytest.mark.parametrize("wording", WORDINGS)
def test_each_rule_is_worded_in_one_raise(wording):
    sites = [path.name for path in SOURCES for text in raised_texts(path)
             if wording in text]
    assert sites == ["specfun.py"]


def test_the_duplicate_checks_are_gone():
    assert caputo._check_alpha is specfun._check_alpha
    assert not hasattr(relaxation, "_check_B")
    assert not hasattr(relaxation, "_integer")


@pytest.mark.parametrize("call, message", [
    (lambda: relaxation.corrected_problem(0.3, 1.0, 7.5, 1.0, 0.1),
     "m must be an integer >= 1, got 7.5"),
    (lambda: relaxation.solve_corrected(0.3, 1.0, 7.5, 1.0, 0.1),
     "m must be an integer >= 1, got 7.5"),
    (lambda: subdiffusion.solve_corrected(0.3, 7.5, 1.0, 6, 4),
     "m must be an integer >= 1, got 7.5"),
    (lambda: relaxation.taylor_poly(0.5, 1.0, 2.5, 1.0),
     "m must be an integer >= 1, got 2.5"),
    (lambda: relaxation.taylor_poly(0.5, 1.0, True, 1.0),
     "m must be an integer >= 1, got True"),
    (lambda: caputo.l1_weights(0.5, 2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: caputo.l1_weights(0.5, True),
     "n must be an integer >= 1, got True"),
    (lambda: caputo.ml1_weights(0.5, 2.0), "n must be an integer >= 2, got 2.0"),
    (lambda: specfun.mittag_leffler(0.5, math.nan, 1.0),
     "beta must be positive and finite, got nan"),
    (lambda: specfun.mittag_leffler(0.5, math.inf, 1.0),
     "beta must be positive and finite, got inf"),
    (lambda: harness.estimate_order(math.nan, 1.0),
     "err_coarse must be positive and finite, got nan"),
    (lambda: harness.estimate_order(math.inf, 1.0),
     "err_coarse must be positive and finite, got inf"),
    (lambda: harness.estimate_order(1.0, math.inf),
     "err_fine must be positive and finite, got inf"),
    (lambda: relaxation.exact_convolution(0.5, 1.0, None, 1.0, y0=math.nan),
     "y0 must be finite, got nan"),
    (lambda: relaxation.exact_convolution(0.5, 1.0, None, 1.0, y0=math.inf),
     "y0 must be finite, got inf"),
    (lambda: subdiffusion.build_system(0.5, math.inf, 0.1, 4),
     "tau must be positive and finite, got inf"),
    (lambda: subdiffusion.build_system(0.5, 0.1, 0.0, 4),
     "h must be positive and finite, got 0.0"),
    (lambda: subdiffusion.build_system(0.5, 0.1, 0.1, 4.0),
     "N must be an integer >= 2, got 4.0"),
], ids=lambda value: "" if callable(value) else value)
def test_public_entries_apply_the_rules(call, message):
    # each raised TypeError, OverflowError or a bare message, or returned a
    # value, nan or inf
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_the_degree_bound_comes_before_the_series():
    # the remainder problem was built, forcing (0.0, 10000.5), and the
    # degree-m series summed, before taylor_poly applied the bound
    with pytest.raises(ValueError) as info:
        relaxation.corrected_problem(0.5, 1.0, 20001, 1.0, 0.5)
    assert str(info.value) == "m must lie in [1, 10000], got 20001"


@pytest.mark.parametrize("err_coarse, err_fine", [(1e-320, 1e300),
                                                  (1e300, 1e-320)])
def test_an_order_of_errors_far_apart_keeps_its_bits(err_coarse, err_fine):
    # the quotient underflows to 0 or overflows to inf
    order = harness.estimate_order(err_coarse, err_fine)
    assert order == math.log2(err_coarse) - math.log2(err_fine)
    assert abs(order) == pytest.approx(2059.6, abs=0.05)


def subdiffusion_solve(step=0.25, T=1.0, N=None):
    return replace(problems.subdiffusion_family("s2"), T=T).solve(
        step, Scheme.L1, N=N)


@pytest.mark.parametrize("kwargs, message", [
    *[({"step": step}, f"tau must be positive and finite, got {step}")
      for step in (0.0, -0.5, math.nan, math.inf)],
    *[({"T": T}, f"T must be positive and finite, got {T}")
      for T in (0.0, -1.0, math.inf, math.nan)],
    *[({"N": N}, f"N must be an integer >= 2, got {N}") for N in (-5, 0, 1)],
], ids=str)
def test_the_subdiffusion_family_checks_its_inputs(kwargs, message):
    # the step and T cases and N = -5 raised ZeroDivisionError, MemoryError
    # or "T/tau = ... is not a whole number of steps"
    with pytest.raises(ValueError) as info:
        subdiffusion_solve(**kwargs)
    assert str(info.value) == message


def test_relaxation_problem_and_exact_convolution_share_the_y0_check():
    with pytest.raises(ValueError) as problem:
        relaxation.RelaxationProblem(0.5, 1.0, None, math.inf, 1.0, 0.1)
    with pytest.raises(ValueError) as exact:
        relaxation.exact_convolution(0.5, 1.0, None, 1.0, y0=math.inf)
    assert str(problem.value) == str(exact.value) == "y0 must be finite, got inf"


def converge(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(["converge", *argv])
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, h0, coarse, reason", [
    (["--problem", "r11", "--h0", "1"], "1.0", "2.0",
     "h must lie in (0, T], got 2.0"),
    (["--problem", "s2", "--h0", "1", "--levels", "2"], "1.0", "2.0",
     "T/tau = 0.5 is not a whole number of steps"),
    (["--problem", "relax-mlexact", "--alpha", "0.5", "--h0", "0.5",
      "--levels", "2", "--scheme", "ml1"], "0.5", "1.0",
     "the modified L1 scheme needs at least 2 steps"),
])
def test_a_refused_coarse_run_names_h0_and_2_h0(argv, h0, coarse, reason,
                                                  monkeypatch):
    # each named a step that the command never gave
    solved = []
    monkeypatch.setattr(relaxation, "_march",
                        lambda *args: solved.append(args) or None)
    assert converge(*argv) == (
        2, "", f"fracsolve: h0 = {h0}: the extra run at 2 h0 = {coarse}, "
        f"which gives the first row its order, is refused: {reason}\n")
    assert solved == []


@pytest.mark.parametrize("argv, message", [
    (["--problem", "r11", "--h0", "0.3"],
     "T/h = 3.3333333333333335 is not a whole number of steps"),
    (["--problem", "r11", "--correct"],
     "correction applies to the homogeneous problem only, not r11"),
    (["--problem", "relax-mlexact", "--alpha", "0.5", "--correct", "3"],
     "m * alpha = 1.5 < 2; the remainder would not be C^2"),
])
def test_a_refusal_of_the_rungs_too_keeps_its_message(argv, message):
    assert converge(*argv) == (2, "", f"fracsolve: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["relax", "--alpha", "0.5", "--h", "0"],
     "h must be positive and finite, got 0.0"),
    (["relax", "--alpha", "1", "--h", "0.1"],
     "alpha must lie in (0, 1), got 1.0"),
    (["subdiff", "--problem", "s2", "--tau", "0.1", "--N", "0"],
     "N must be an integer >= 2, got 0"),
    (["ml", "--alpha", "1.5", "--x", "1"],
     "mittag_leffler requires 0 < alpha <= 1, got 1.5"),
    (["ml", "--alpha", "0.5", "--x", "1", "--beta", "0"],
     "beta must be positive and finite, got 0.0"),
    (["relax", "--alpha", "0.5", "--h", "0.25", "--B", "-1"],
     "B must be positive and finite, got -1.0"),
    (["relax", "--alpha", "0.5", "--h", "0.25", "--T", "inf"],
     "T must be positive and finite, got inf"),
    (["subdiff", "--problem", "s2", "--tau", "nan"],
     "tau must be positive and finite, got nan"),
    (["subdiff", "--problem", "s2", "--tau", "1e-300", "--N", "1"],
     "N must be an integer >= 2, got 1"),
    (["subdiff", "--alpha", "1.5", "--tau", "1e-300"],
     "alpha must lie in (0, 1), got 1.5"),
    (["converge", "--problem", "r11", "--h0", "0"],
     "base_step must be positive and finite, got 0.0"),
    (["converge", "--problem", "r11", "--levels", "0"],
     "levels must be an integer >= 2, got 0"),
    (["converge", "--problem", "s2", "--levels", "2", "--correct", "0"],
     "m must be an integer >= 1, got 0"),
    (["relax", "--alpha", "0.5", "--h", "0.5", "--correct", "100000000"],
     "m must lie in [1, 10000], got 100000000"),
])
def test_the_command_line_words_each_rule_as_the_library_does(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(argv) == 2
    assert err.getvalue() == f"fracsolve: {message}\n"


def test_the_command_line_checks_no_value_itself():
    assert not {"_usage", "_positive", "_alpha_open", "_alpha_closed",
                "_positive_int"} & set(vars(cli))
    assert not [name for name in vars(cli) if name.startswith("_check")]
