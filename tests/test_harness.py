"""Convergence-study machinery: ladders, orders, reports, rendering."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracsolve import caputo, relaxation, subdiffusion
from fracsolve.caputo import Scheme
from fracsolve.harness import (ConvergenceReport, Coupling, Ladder, ReportRow,
                               estimate_order, parse_report_jsonl,
                               render_report, run_relaxation_study,
                               run_subdiffusion_study)
from fracsolve.problems import (RelaxationFamily, SubdiffusionFamily,
                                relaxation_family, subdiffusion_family)
from fracsolve.relaxation import PowerSum


class TestEstimateOrder:
    def test_exact_quartering(self):
        assert estimate_order(4e-4, 1e-4) == 2.0

    def test_reference_pair(self):
        assert estimate_order(0.00281532, 0.00101549) == pytest.approx(
            1.47112, abs=1e-5)

    def test_equal_errors(self):
        assert estimate_order(1e-3, 1e-3) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            estimate_order(0.0, 1e-4)
        with pytest.raises(ValueError):
            estimate_order(1e-4, -1.0)


class TestLadder:
    def test_steps_halve_exactly(self):
        steps = Ladder(0.05, 5).steps()
        assert len(steps) == 5
        for coarse, fine in zip(steps, steps[1:]):
            assert fine == coarse / 2.0

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            Ladder(0.05, 1)

    def test_needs_positive_base(self):
        with pytest.raises(ValueError):
            Ladder(0.0, 3)

    @pytest.mark.parametrize("base_step", [math.nan, math.inf])
    def test_needs_finite_base(self, base_step):
        # accepted before, and every step came out nan or inf
        with pytest.raises(ValueError):
            Ladder(base_step, 3)

    @pytest.mark.parametrize("levels", [2.5, 3.0, True])
    def test_needs_integer_levels(self, levels):
        # 2.5 was accepted and raised TypeError later, in steps()
        with pytest.raises(ValueError):
            Ladder(0.05, levels)


class TestReport:
    def test_rejects_non_halving_steps(self):
        rows = (ReportRow(0.1, 1e-2, None), ReportRow(0.03, 1e-3, 1.0))
        with pytest.raises(ValueError):
            ConvergenceReport(rows)

    def test_csv_renders_empty_order_cell(self):
        report = ConvergenceReport((ReportRow(0.1, 0.00281532, None),
                                    ReportRow(0.05, 0.00101549, 1.47112)))
        text = render_report(report, "csv")
        assert text == ("step,max_error,order\n"
                        "0.1,0.00281532,\n"
                        "0.05,0.00101549,1.47112\n")

    def test_markdown_table(self):
        report = ConvergenceReport((ReportRow(0.1, 2e-3, None),))
        text = render_report(report, "markdown")
        assert text.splitlines()[0] == "| step | max_error | order |"
        assert "| 0.1 | 0.002 |  |" in text

    def test_jsonl_round_trip(self):
        report = ConvergenceReport((ReportRow(0.1, 0.002815320001, None),
                                    ReportRow(0.05, 1.0 / 3.0, 1.4711234567)))
        assert parse_report_jsonl(render_report(report, "jsonl")) == report

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(ConvergenceReport(()), "xml")

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError, match="^max_error must be >= 0$"):
            ConvergenceReport((ReportRow(0.1, -1e-3, None),))

    def test_jsonl_blank_lines_are_skipped(self):
        report = ConvergenceReport((ReportRow(0.1, 2e-3, None),
                                    ReportRow(0.05, 5e-4, 2.0)))
        lines = render_report(report, "jsonl").splitlines()
        text = "\n" + lines[0] + "\n  \n" + lines[1] + "\n\n"
        assert parse_report_jsonl(text) == report


def constant_family():
    # y = 1 solves the problem exactly, so every level hits roundoff
    return RelaxationFamily("const", 0.5, 2.0, PowerSum(((2.0, 0.0),)), 1.0,
                            lambda x: np.ones_like(np.asarray(x, dtype=float)))


class TestRelaxationStudy:
    def test_constant_problem_reports_no_orders(self):
        report = run_relaxation_study(constant_family(), Scheme.L1,
                                      Ladder(0.1, 3))
        for row in report.rows:
            assert row.max_error <= 1e-12
            assert row.order is None

    def test_row_count_and_steps(self):
        report = run_relaxation_study(relaxation_family("r11"), Scheme.L1,
                                      Ladder(0.05, 3))
        assert [row.step for row in report.rows] == [0.05, 0.025, 0.0125]
        assert all(row.order is not None for row in report.rows)

    def test_order_windows_on_manufactured_problem(self):
        family = relaxation_family("r11")
        l1 = run_relaxation_study(family, Scheme.L1, Ladder(0.05, 5))
        ml1 = run_relaxation_study(family, Scheme.MODIFIED_L1, Ladder(0.05, 5))
        assert all(1.45 <= row.order <= 1.50 for row in l1.rows)
        assert all(1.90 <= row.order <= 1.98 for row in ml1.rows)

    def test_correction_restores_order(self):
        family = relaxation_family("relax-mlexact", alpha=0.3, B=1.0)
        l1 = run_relaxation_study(family, Scheme.L1, Ladder(0.05, 5),
                                  corrected=True)
        ml1 = run_relaxation_study(family, Scheme.MODIFIED_L1, Ladder(0.05, 5),
                                   corrected=True)
        orders = [row.order for row in l1.rows]
        assert orders == sorted(orders)      # climbing toward 2 - alpha
        assert abs(orders[-1] - 1.7) < 0.05
        assert all(row.order >= 1.88 for row in ml1.rows)

    def test_determinism(self):
        family = relaxation_family("relax-mlexact", alpha=0.5, B=1.0)
        run = lambda: render_report(
            run_relaxation_study(family, Scheme.L1, Ladder(0.1, 3)), "jsonl")
        assert run() == run()

    def test_correction_requires_homogeneous_family(self):
        with pytest.raises(ValueError):
            run_relaxation_study(relaxation_family("r11"), Scheme.L1,
                                 Ladder(0.1, 2), corrected=True, m=4)

    def test_rejects_coupled_ladder(self):
        with pytest.raises(ValueError):
            run_relaxation_study(relaxation_family("r11"), Scheme.L1,
                                 Ladder(0.05, 3, Coupling.SPACE_FROM_TIME))


@pytest.mark.parametrize("study,family,ladder", [
    (run_relaxation_study, relaxation_family("relax-mlexact", alpha=0.3),
     Ladder(0.05, 3)),
    (run_subdiffusion_study, subdiffusion_family("s03"),
     Ladder(0.05, 2, Coupling.SPACE_FROM_TIME)),
])
def test_degree_without_correction_is_refused(study, family, ladder):
    # the degree was dropped, and the plain ladder's report returned
    with pytest.raises(ValueError,
                       match=r"^a degree m = 7 needs corrected=True$"):
        study(family, Scheme.L1, ladder, m=7)


class TestSubdiffusionStudy:
    def test_requires_coupling(self):
        with pytest.raises(ValueError):
            run_subdiffusion_study(subdiffusion_family("s2"), Scheme.L1,
                                   Ladder(0.05, 3))

    def test_requires_unit_interval(self):
        family = SubdiffusionFamily("odd", 0.5, lambda x, t: np.sin(x), T=2.0)
        with pytest.raises(ValueError):
            run_subdiffusion_study(family, Scheme.L1,
                                   Ladder(0.05, 2, Coupling.SPACE_FROM_TIME))

    def test_small_study_runs(self):
        report = run_subdiffusion_study(subdiffusion_family("s2"), Scheme.L1,
                                        Ladder(0.1, 2, Coupling.SPACE_FROM_TIME))
        assert [row.step for row in report.rows] == [0.1, 0.05]
        assert all(0.9 < row.order < 1.3 for row in report.rows)


class TestLadderInverses:
    """A study computes the leaf inverses of all its rungs in one
    `_leaf_inverse` call, before its first rung, and drops its scope when
    it returns or raises; each rung keeps the bits of a lone solve."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        """The number of columns of each `_leaf_inverse` call."""
        calls, original = [], caputo._leaf_inverse

        def counted(weights, diagonal, leaves):
            calls.append(len(diagonal))
            return original(weights, diagonal, leaves)
        monkeypatch.setattr(caputo, "_leaf_inverse", counted)
        return calls

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("pid, alpha, corrected", [
        ("r11", None, False), ("relax-mlexact", 0.3, False),
        ("relax-mlexact", 0.3, True)])
    def test_relaxation_study_inverts_once(self, inversions, pid, alpha,
                                           corrected, scheme):
        family = relaxation_family(pid, alpha=alpha)
        run_relaxation_study(family, scheme, Ladder(0.05, 8),
                             corrected=corrected)
        # one column per rung, the extra coarse run's included
        assert inversions == [9]
        run_relaxation_study(family, scheme, Ladder(0.05, 8),
                             corrected=corrected)
        assert inversions == [9, 9]

    @pytest.mark.parametrize("corrected", [False, True])
    def test_sine_mode_study_inverts_once(self, inversions, corrected):
        run_subdiffusion_study(subdiffusion_family("s03"), Scheme.MODIFIED_L1,
                               Ladder(0.05, 4, Coupling.SPACE_FROM_TIME),
                               corrected=corrected)
        assert inversions == [5]

    def test_lone_solve_after_a_study_inverts(self, inversions):
        family = relaxation_family("r12")
        run_relaxation_study(family, Scheme.L1, Ladder(0.05, 4))
        assert caputo._SCOPE.get() is None
        family.solve(0.05, Scheme.L1)
        assert inversions == [5, 1]

    def test_lone_solve_after_a_rung_raises_inverts(self, inversions):
        # 2/3 does not divide T = 1, so the first rung raises, and the
        # study batches none of its rungs
        family = relaxation_family("r11")
        with pytest.raises(ValueError, match="not a whole number of steps"):
            run_relaxation_study(family, Scheme.L1, Ladder(1.0 / 3.0, 3))
        assert inversions == []
        assert caputo._SCOPE.get() is None
        family.solve(1.0 / 3.0, Scheme.L1)
        assert inversions == [1]

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("family, ladder, m", [
        (relaxation_family("r11"), Ladder(0.05, 9), None),
        (relaxation_family("r12"), Ladder(0.05, 9), None),
        (relaxation_family("relax-mlexact", alpha=0.3), Ladder(0.05, 9), 7),
        (subdiffusion_family("s03"),
         Ladder(0.05, 5, Coupling.SPACE_FROM_TIME), None),
        (subdiffusion_family("s2"),
         Ladder(0.05, 5, Coupling.SPACE_FROM_TIME), 4)],
        ids=["r11", "r12", "mlexact-corrected", "s03", "s2-corrected"])
    def test_rungs_keep_the_bits_of_lone_solves(self, monkeypatch, family,
                                                ladder, m, scheme):
        # r11 and r12 reach N = 5120, three rungs of leaves of 1280
        solve, rungs = type(family).solve, []

        def recorded(self, step, scheme, m=None):
            solution = solve(self, step, scheme, m)
            rungs.append((step, solution.values))
            return solution
        monkeypatch.setattr(type(family), "solve", recorded)
        study = (run_relaxation_study if isinstance(family, RelaxationFamily)
                 else run_subdiffusion_study)
        study(family, scheme, ladder, corrected=m is not None, m=m)
        assert len(rungs) == ladder.levels + 1
        for step, values in rungs:
            assert np.array_equal(values, solve(family, step, scheme, m).values)


class TestFamilySolve:
    """family.solve is the one plain/corrected dispatch: it returns exactly
    what the module solvers return."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("pid, alpha, m", [("r12", None, None),
                                               ("relax-mlexact", 0.5, None),
                                               ("relax-mlexact", 0.3, 7)])
    def test_relaxation_matches_module_call(self, pid, alpha, m, scheme):
        family = replace(relaxation_family(pid, alpha=alpha), T=2.0)
        got = family.solve(0.05, scheme, m)
        if m is None:
            want = relaxation.solve(relaxation.RelaxationProblem(
                alpha=family.alpha, B=family.B, forcing=family.forcing,
                y0=family.y0, T=2.0, h=0.05), scheme)
        else:
            want = relaxation.solve_corrected(0.3, 1.0, m, 2.0, 0.05, scheme)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("m", [None, 7])
    @pytest.mark.parametrize("N", [None, 17])
    def test_subdiffusion_matches_module_call(self, m, N, scheme):
        family = replace(subdiffusion_family("s03"), T=0.5)
        got = family.solve(0.0625, scheme, m, N=N)
        N = 24 if N is None else N
        if m is None:
            want = subdiffusion.solve(subdiffusion.SubdiffusionProblem(
                alpha=0.3, N=N, M=8, T=0.5,
                initial=subdiffusion.SineMode(1)), scheme)
        else:
            want = subdiffusion.solve_corrected(0.3, m, 0.5, N, 8, scheme)
        assert np.array_equal(got.values, want.values)

    def test_step_divides_interval_to_relative_tolerance(self):
        family = replace(subdiffusion_family("s2"), T=0.9)
        # 3 * 0.3 = 0.8999999999999999
        assert family.solve(0.3, Scheme.L1).values.shape == (4, 10)
        with pytest.raises(ValueError):
            family.solve(0.4, Scheme.L1)

    def test_correction_requires_homogeneous_family(self):
        with pytest.raises(ValueError):
            relaxation_family("r11").solve(0.1, Scheme.L1, 4)


def test_problem_registry_validation():
    with pytest.raises(KeyError):
        relaxation_family("nope")
    with pytest.raises(ValueError):
        relaxation_family("r11", alpha=0.3)
    with pytest.raises(ValueError, match=r"^problem 'r11' has fixed B = 1$"):
        relaxation_family("r11", B=2.0)
    with pytest.raises(ValueError):
        relaxation_family("relax-mlexact")
    with pytest.raises(KeyError):
        subdiffusion_family("r11")
    with pytest.raises(ValueError):
        subdiffusion_family("s03", alpha=0.5)
    with pytest.raises(ValueError):
        subdiffusion_family(None)
    assert subdiffusion_family(None, alpha=0.4).alpha == 0.4
