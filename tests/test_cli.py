"""Command-line interface: contracts on stdout, files, and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracsolve
from fracsolve.caputo import Scheme
from fracsolve.cli import _series_table, run
from fracsolve.harness import (Coupling, Ladder, render_report,
                               run_relaxation_study, run_subdiffusion_study)
from fracsolve.problems import relaxation_family, subdiffusion_family


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


class TestMl:
    def test_exponential_point(self, capsys):
        assert run(["ml", "--alpha", "1", "--x", "1"]) == 0
        assert capsys.readouterr().out == "2.718281828459045\n"

    def test_beta_flag(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "2", "--x", "1"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(math.e - 1.0, rel=1e-14, abs=0)

    def test_numerical_failure_exit_code(self, capsys):
        assert run(["ml", "--alpha", "0.3", "--x", "50"]) == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_alpha_domain(self, capsys):
        assert run(["ml", "--alpha", "1.2", "--x", "1"]) == 2

    def test_series_budget_is_not_an_option(self, capsys):
        # the stopping ratio 1e-15 and the 10 000-term budget are fixed
        assert run(["ml", "--alpha", "0.5", "--x", "1", "--max-terms", "3"]) == 2
        assert "unrecognized arguments: --max-terms 3" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,x,want", [
        ("0.5", "-30", 0.01879588886141675150),     # was exit 1, term overflow
        ("0.5", "-10", 0.05614099274382258586),     # printed 1.146e27
        ("1", "-50", math.exp(-50.0)),              # printed -51133
    ])
    def test_negative_axis_values(self, alpha, x, want, capsys):
        assert run(["ml", "--alpha", alpha, "--x", x]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            want, rel=1e-14, abs=0)

    def test_cancelling_series_is_a_numerical_failure(self, capsys):
        # printed 0.010694 with exit 0, then exited 1; the spectral integral
        # gives the mpmath value 0.010666394882413155097
        assert run(["ml", "--alpha", "0.5", "--beta", "0.5", "--x", "-5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            0.010666394882413155097, rel=1e-13, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(st.floats(0.0, 1.0), st.floats()),
           beta=st.one_of(st.floats(0.0, 3.0), st.floats()),
           x=st.one_of(st.floats(-50.0, 50.0), st.floats()))
    def test_exit_status_contract(self, alpha, beta, x):
        # "--x=-1e-05": a separate "-1e-05" would parse as an option
        argv = ["ml", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--x={x!r}"]
        status, out, _ = run_captured(argv)
        assert status in (0, 1, 2)
        if status == 0:
            assert math.isfinite(float(out))


class TestRelax:
    def test_series_columns(self, capsys):
        assert run(["relax", "--alpha", "0.5", "--B", "1", "--scheme", "l1",
                    "--h", "0.25", "--T", "1"]) == 0
        out = lines_of(capsys)
        assert out[0] == "x,value,exact,error"
        assert len(out) == 6
        first = out[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[3]) == 0.0

    def test_series_table_matches_row_by_row_formatting(self):
        # the table maps one str.format over the columns; the reference
        # formats each row on its own, as the renderer did before
        x = np.array([0.0, 0.25, 1e-320, 3.0])
        values = np.array([1.0, -0.0, np.nan, 1e300])
        exact = np.array([1.0, 2.5e-17, 0.5, -np.inf])
        want = "x,value,exact,error\n" + "".join(
            f"{a:.17g},{b:.17g},{c:.17g},{abs(b - c):.17g}\n"
            for a, b, c in zip(x, values, exact))
        assert "".join(_series_table(x, values, exact)) == want

    def test_long_series_is_written_in_blocks_of_rows(self, tmp_path):
        # the text of all 20 001 rows at once peaked at 7.1 MB, against
        # 0.64 MB for the four arrays it formats
        target = tmp_path / "series.csv"
        tracemalloc.start()
        try:
            status = run(["relax", "--alpha", "0.5", "--h", "5e-5",
                          "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak < 3.5e6
        family = relaxation_family("relax-mlexact", alpha=0.5)
        series = family.solve(5e-5, Scheme.L1)
        exact = family.exact(series.x)
        want = "x,value,exact,error\n" + "".join(
            f"{a:.17g},{b:.17g},{c:.17g},{abs(b - c):.17g}\n"
            for a, b, c in zip(series.x, series.values, exact))
        assert target.read_text() == want

    def test_corrected_series_written_to_file(self, tmp_path):
        target = tmp_path / "series.csv"
        assert run(["relax", "--alpha", "0.3", "--B", "1", "--scheme", "l1",
                    "--h", "0.1", "--T", "1", "--correct", "7",
                    "--out", str(target)]) == 0
        rows = target.read_text().splitlines()
        assert rows[0] == "x,value,exact,error"
        assert len(rows) == 12
        # corrected start-up: errors stay small right away
        errs = [float(r.split(",")[3]) for r in rows[1:]]
        assert max(errs) < 1e-3

    def test_auto_degree_correction(self, capsys):
        assert run(["relax", "--alpha", "0.5", "--h", "0.25", "--correct"]) == 0
        assert lines_of(capsys)[0] == "x,value,exact,error"

    def test_manufactured_problem(self, capsys):
        assert run(["relax", "--problem", "r11", "--h", "0.25"]) == 0
        out = lines_of(capsys)
        last = out[-1].split(",")
        assert float(last[2]) == 1.0  # exact solution x^2 at x = 1

    def test_correct_rejected_for_manufactured_problem(self, capsys):
        assert run(["relax", "--problem", "r11", "--h", "0.25",
                    "--correct"]) == 2

    def test_mlexact_requires_alpha(self, capsys):
        assert run(["relax", "--h", "0.25"]) == 2

    def test_bad_step_is_usage_error(self, capsys):
        assert run(["relax", "--alpha", "0.5", "--h", "0.3"]) == 2

    def test_memory_exhaustion_is_one_line(self, monkeypatch, capsys):
        # `relax --h 1e-12` asks for terabytes; the solver is replaced so
        # that no test allocates them, which overcommit might even allow
        def exhausted(problem, scheme):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(fracsolve.relaxation, "solve", exhausted)
        assert run(["relax", "--alpha", "0.5", "--h", "1e-12"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("fracsolve: out of memory: Unable to allocate "
                                "7.28 TiB for an array\n")


@pytest.mark.parametrize("argv,size", [
    ("relax --alpha 0.5 --h 0.1 --T 1e300", "1e+301 levels"),
    ("relax --alpha 0.5 --h 1e-300", "1e+300 levels"),
    ("subdiff --problem s2 --tau 1e-30", "1e+30 x 3e+30 values"),
    ("subdiff --alpha 0.5 --tau 0.5 --N 1000000000000000000000",
     "3 x 1e+21 values"),
    ("subdiff --problem s2 --tau 1e-300", "1e+300 x 3e+300 values"),
    ("converge --problem s2 --h0 1e-300", "5e+299 x 1.5e+300 values"),
    ("subdiff --problem s2 --tau 1e-300 --T 1e10", "inf x inf values"),
    ("subdiff --alpha 0.5 --tau 1e-300 --T 1e10 --N 4", "inf x 5 values"),
    pytest.param("subdiff --alpha 0.5 --tau 0.5 --N 1" + "0" * 400,
                 "3 x 1e+400 values", id="subdiff --N 1e400"),
])
def test_grid_too_large_to_index_is_out_of_memory(argv, size):
    # the first four exited 2 with numpy's "Maximum allowed dimension
    # exceeded", the next two 1 with a division by zero where h^2 underflows,
    # a T / tau past the double range 1 with "cannot convert float infinity
    # to integer", and an N past it 1 with "int too large to convert to
    # float"
    status, out, err = run_captured(argv.split())
    assert (status, out) == (1, "")
    assert err == (f"fracsolve: out of memory: a grid of {size} is too "
                   f"large to index\n")


class TestSubdiff:
    def test_final_profile(self, capsys):
        assert run(["subdiff", "--problem", "s2", "--tau", "0.125"]) == 0
        out = lines_of(capsys)
        assert out[0] == "x,value,exact,error"
        assert len(out) == 26  # N = 3 M = 24 intervals -> 25 nodes
        assert float(out[1].split(",")[1]) == 0.0

    def test_explicit_grid_and_alpha(self, capsys):
        assert run(["subdiff", "--alpha", "0.4", "--tau", "0.25",
                    "--N", "8"]) == 0
        assert len(lines_of(capsys)) == 10

    def test_corrected_solve(self, capsys):
        assert run(["subdiff", "--problem", "s03", "--tau", "0.125",
                    "--scheme", "ml1", "--correct"]) == 0
        out = lines_of(capsys)
        errs = [float(r.split(",")[3]) for r in out[1:]]
        assert max(errs) < 1e-3

    def test_needs_alpha_or_problem(self, capsys):
        assert run(["subdiff", "--tau", "0.1"]) == 2

    def test_tau_must_divide_interval(self, capsys):
        assert run(["subdiff", "--problem", "s2", "--tau", "0.3"]) == 2


@pytest.mark.parametrize("off,status", [(5e-9, 0), (5e-8, 2)])
def test_relax_and_subdiff_share_one_whole_step_rule(off, status):
    """A step 0.003125 (1 + off), 320 steps of T = 1 but for off: `relax`
    and `subdiff` accept it or refuse it alike.  `subdiff` refused 5e-9
    with a 1e-9 rule of its own."""
    step = repr(0.003125 * (1.0 + off))
    for argv in (["relax", "--alpha", "0.5", "--h", step],
                 ["subdiff", "--problem", "s2", "--tau", step]):
        got, _, err = run_captured(argv)
        assert got == status
        if status:
            assert err.endswith("is not a whole number of steps\n")


@pytest.mark.parametrize("argv,T", [("--h 0.0031250000156", 1.0),
                                    ("--h 0.1 --T 0.7", 0.7)])
def test_relax_marches_t_over_n_and_ends_at_t(argv, T):
    """An accepted step that is not T/N itself is marched as T/N, as
    `subdiff` marches tau: the last row is at T, where it was at
    1.0000000049920001 and 0.70000000000000007."""
    status, out, _ = run_captured(["relax", "--alpha", "0.5", *argv.split()])
    assert status == 0
    assert float(out.splitlines()[-1].split(",")[0]) == T


def test_step_longer_than_the_interval_is_refused_by_step_count():
    status, out, err = run_captured(["subdiff", "--problem", "s2",
                                     "--tau", "1e10"])
    assert (status, out) == (2, "")
    assert err == "fracsolve: T/tau = 1e-10 is not a whole number of steps\n"


class TestConverge:
    def test_homogeneous_half_csv(self, capsys):
        assert run(["converge", "--problem", "relax-mlexact", "--alpha", "0.5",
                    "--B", "1", "--scheme", "l1", "--h0", "0.05",
                    "--levels", "5", "--format", "csv"]) == 0
        out = lines_of(capsys)
        assert out[0] == "step,max_error,order"
        assert len(out) == 6
        step, err, order = out[-1].split(",")
        assert float(step) == 0.003125
        assert float(err) == pytest.approx(0.0128769, rel=2e-2, abs=0)
        assert float(order) == pytest.approx(0.469859, abs=2e-2)

    def test_markdown_format(self, capsys):
        assert run(["converge", "--problem", "r11", "--levels", "2",
                    "--h0", "0.1", "--format", "markdown"]) == 0
        assert lines_of(capsys)[0] == "| step | max_error | order |"

    def test_jsonl_format(self, capsys):
        assert run(["converge", "--problem", "s2", "--levels", "2",
                    "--h0", "0.1", "--format", "jsonl"]) == 0
        assert lines_of(capsys)[0].startswith('{"step": 0.1,')

    def test_corrected_study(self, capsys):
        assert run(["converge", "--problem", "relax-mlexact", "--alpha", "0.7",
                    "--B", "4", "--scheme", "ml1", "--h0", "0.1",
                    "--levels", "2", "--correct"]) == 0
        out = lines_of(capsys)
        assert float(out[-1].split(",")[2]) > 1.5

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert run(["converge", "--problem", "r11", "--levels", "2",
                    "--h0", "0.1", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("step,max_error,order\n")

    def test_determinism(self, capsys):
        argv = ["converge", "--problem", "r12", "--levels", "3",
                "--h0", "0.05", "--format", "jsonl"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_alpha_rejected_for_fixed_problem(self, capsys):
        assert run(["converge", "--problem", "s2", "--alpha", "0.4"]) == 2

    @pytest.mark.parametrize("argv, study", [
        (["--problem", "s2"],
         lambda: run_subdiffusion_study(
             subdiffusion_family("s2"), Scheme.L1,
             Ladder(0.05, 5, Coupling.SPACE_FROM_TIME))),
        (["--problem", "relax-mlexact", "--alpha", "0.3", "--correct"],
         lambda: run_relaxation_study(
             relaxation_family("relax-mlexact", alpha=0.3), Scheme.L1,
             Ladder(0.05, 5), corrected=True)),
    ])
    def test_report_is_the_study(self, argv, study, capsys):
        assert run(["converge", *argv]) == 0
        assert capsys.readouterr().out == render_report(study())


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["ml", "--alpha", "1", "--x", "1", "--nope"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["ml", "--alpha", "1"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["relax", "--alpha", "0.5", "--B", "nan", "--h", "0.25"],
        ["relax", "--alpha", "0.5", "--B", "inf", "--h", "0.25"],
        ["relax", "--alpha", "0.5", "--h", "0.25", "--T", "inf"],
        ["subdiff", "--problem", "s2", "--tau", "nan"],
        ["subdiff", "--problem", "s2", "--tau", "0.125", "--T", "inf"],
        ["converge", "--problem", "relax-mlexact", "--alpha", "0.5",
         "--B", "inf"],
        ["converge", "--problem", "r11", "--h0", "nan"],
    ])
    def test_non_finite_values_are_usage_errors(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["relax", "--alpha", "0.5", "--h", "0.25"],
        ["subdiff", "--problem", "s2", "--tau", "0.25"],
        ["converge", "--problem", "s2", "--levels", "2"],
    ])
    def test_degree_zero_is_a_usage_error(self, argv, capsys):
        # --correct 0 used to stand for the automatic degree
        assert run([*argv, "--correct", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(["relax", "subdiff", "converge"]),
           problem=st.sampled_from(["relax-mlexact", "s2", "s03"]),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           step=st.sampled_from(["1", "0.5", "0.3", "0.25", "0.125"]),
           scheme=st.sampled_from(["l1", "ml1"]),
           correct=st.one_of(st.none(), st.just("--correct"),
                             st.one_of(st.integers(-2, 30),
                                       st.integers(342, 10_000)).map(
                                 lambda m: f"--correct={m}")))
    def test_solver_exit_status_contract(self, command, problem, alpha, step,
                                         scheme, correct):
        if command == "relax":
            argv = ["relax", f"--alpha={alpha!r}", "--h", step]
        elif command == "subdiff":
            argv = ["subdiff", f"--alpha={alpha!r}", "--tau", step]
        else:
            argv = ["converge", "--problem", problem, "--h0", step,
                    "--levels", "2", "--format", "csv"]
            if problem == "relax-mlexact":
                argv.append(f"--alpha={alpha!r}")
        argv += ["--scheme", scheme] + ([] if correct is None else [correct])
        status, out, err = run_captured(argv)
        assert status in (0, 1, 2)
        assert "Traceback" not in err
        # a numerical failure names its cause, not a bare OverflowError
        assert "range error" not in err and "out of range" not in err
        if status == 0:
            cells = [cell for line in out.splitlines()[1:]
                     for cell in line.split(",") if cell]
            assert cells and all(math.isfinite(float(c)) for c in cells)

    @pytest.mark.parametrize("command", ["ml", "relax", "subdiff", "converge"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out
        assert "default" in out


# runs each command with scipy made unimportable and prints one JSON record
NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from fracsolve.cli import run
records = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run(argv)
    records.append([status, out.getvalue()])
print(json.dumps(records))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(fracsolve.__file__).parents[1]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNumpyOnlyRuntime:
    def test_commands_run_without_scipy(self):
        commands = [
            ["ml", "--alpha", "0.5", "--x", "-2"],
            ["relax", "--alpha", "0.5", "--h", "0.01"],
            ["relax", "--alpha", "0.5", "--B", "1e6", "--h", "0.25"],
            ["subdiff", "--problem", "s03", "--scheme", "ml1", "--correct",
             "--tau", "0.05"],
            ["converge", "--problem", "s2", "--levels", "2"],
        ]
        records = json.loads(_python("-c", NO_SCIPY, json.dumps(commands)))
        assert [status for status, _ in records] == [0] * len(commands)
        # the spectral branch: E_0.5(-1e6) at x = 1, float(e^(1e12) erfc(1e6))
        last_row = records[2][1].splitlines()[-1].split(",")
        assert last_row[0] == "1"
        assert last_row[2] == "5.6418958354747418e-07"

    def test_import_loads_no_scipy(self):
        out = _python("-c", "import sys, fracsolve.cli; "
                            "print(sorted(m for m in sys.modules "
                            "if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"
