"""The domain the API accepts: four input rules, each worded once in
`specfun` and applied by every public entry and by the command line."""

import ast
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import fracsolve
from fracsolve import caputo, harness, relaxation, specfun, subdiffusion
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
     "argument --h: value must be positive and finite, got 0.0"),
    (["relax", "--alpha", "1", "--h", "0.1"],
     "argument --alpha: alpha must lie in (0, 1), got 1.0"),
    (["subdiff", "--problem", "s2", "--tau", "0.1", "--N", "0"],
     "argument --N: value must be an integer >= 1, got 0"),
])
def test_the_command_line_words_each_rule_as_the_library_does(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(argv) == 2
    assert err.getvalue().endswith(f"error: {message}\n")
