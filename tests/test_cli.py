"""Command-line interface: contracts on stdout, files, and exit codes."""

import math

import pytest

from fracsolve.cli import run


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestMl:
    def test_exponential_point(self, capsys):
        assert run(["ml", "--alpha", "1", "--x", "1"]) == 0
        assert capsys.readouterr().out == "2.718281828459045\n"

    def test_beta_flag(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "2", "--x", "1"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_numerical_failure_exit_code(self, capsys):
        assert run(["ml", "--alpha", "0.3", "--x", "50"]) == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_alpha_domain(self, capsys):
        assert run(["ml", "--alpha", "1.2", "--x", "1"]) == 2


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
        assert float(err) == pytest.approx(0.0128769, rel=2e-2)
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

    @pytest.mark.parametrize("command", ["ml", "relax", "subdiff", "converge"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out
        assert "default" in out
