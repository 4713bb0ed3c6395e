"""Command-line front end.

Four subcommands: `ml` evaluates the Mittag-Leffler function, `relax` and
`subdiff` run single solves and write plot-ready delimited series, and
`converge` runs a step-halving convergence study.  Each of the last three
builds a problem family from `problems`; `relax` and `subdiff` call its
`solve`, and `converge` passes it to the harness study.  `--correct [M]`
selects the start-up corrected solver of degree M.  Options parse as plain
numbers and go to the library as given: its checks refuse a bad value in
their own words.  Exit status is 0 on success, 2 on usage or domain errors,
1 on numerical failure or when memory runs out.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import problems
from .caputo import Scheme
from .harness import (Coupling, Ladder, render_report, run_relaxation_study,
                      run_subdiffusion_study)
from .relaxation import choose_m
from .specfun import mittag_leffler

__all__ = ["run", "main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsolve",
        description="Fractional relaxation and subdiffusion solvers "
                    "(L1 / modified-L1 schemes with start-up correction).")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    fmt = argparse.ArgumentDefaultsHelpFormatter
    # the flags every solver command takes
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--scheme", choices=["l1", "ml1"], default="l1",
                        help="time discretization")
    solver.add_argument("--correct", type=int, nargs="?", const=choose_m,
                        default=None, metavar="M",
                        help="apply the start-up correction of degree M "
                             "(omit M to pick the smallest valid degree)")
    solver.add_argument("--out", type=Path, default=None,
                        help="output file (default: stdout)")

    p_ml = sub.add_parser("ml", formatter_class=fmt,
                          help="evaluate the Mittag-Leffler function E_{alpha,beta}(x)")
    p_ml.add_argument("--alpha", type=float, required=True,
                      help="series parameter alpha in (0, 1]")
    p_ml.add_argument("--beta", type=float, default=1.0,
                      help="series parameter beta > 0")
    p_ml.add_argument("--x", type=float, required=True, help="argument, |x| <= 50")
    p_ml.set_defaults(func=_cmd_ml)

    p_relax = sub.add_parser("relax", parents=[solver], formatter_class=fmt,
                             help="solve one fractional relaxation problem")
    p_relax.add_argument("--problem", choices=problems.RELAXATION_IDS,
                         default="relax-mlexact", help="built-in problem id")
    p_relax.add_argument("--alpha", type=float, default=None,
                         help="derivative order (required for relax-mlexact)")
    p_relax.add_argument("--B", type=float, default=None,
                         help="decay coefficient (relax-mlexact only)")
    p_relax.add_argument("--h", type=float, required=True, help="step size")
    p_relax.add_argument("--T", type=float, default=1.0, help="interval end")
    p_relax.set_defaults(func=_cmd_relax)

    p_sub = sub.add_parser("subdiff", parents=[solver], formatter_class=fmt,
                           help="solve one subdiffusion problem on [0, pi]")
    p_sub.add_argument("--problem", choices=problems.SUBDIFFUSION_IDS, default=None,
                       help="built-in problem id (fixes alpha)")
    p_sub.add_argument("--alpha", type=float, default=None,
                       help="derivative order (when no --problem is given)")
    p_sub.add_argument("--tau", type=float, required=True, help="time step")
    p_sub.add_argument("--T", type=float, default=1.0, help="final time")
    p_sub.add_argument("--N", type=int, default=None,
                       help="space intervals (default: 3 T / tau, i.e. "
                            "h = pi tau / (3 T))")
    p_sub.set_defaults(func=_cmd_subdiff)

    p_conv = sub.add_parser("converge", parents=[solver], formatter_class=fmt,
                            help="run a step-halving convergence study")
    p_conv.add_argument("--problem", choices=problems.PROBLEM_IDS, required=True,
                        help="built-in problem id")
    p_conv.add_argument("--alpha", type=float, default=None,
                        help="derivative order (relax-mlexact only)")
    p_conv.add_argument("--B", type=float, default=None,
                        help="decay coefficient (relax-mlexact only)")
    p_conv.add_argument("--h0", type=float, default=0.05,
                        help="base step of the halving ladder")
    p_conv.add_argument("--levels", type=int, default=5,
                        help="number of halvings (>= 2)")
    p_conv.add_argument("--format", choices=["csv", "markdown", "jsonl"],
                        default="csv", help="report format")
    p_conv.set_defaults(func=_cmd_converge)

    return parser


def _scheme(args) -> Scheme:
    return Scheme(args.scheme)


def _resolve_correct(value, alpha: float) -> int | None:
    """Map the --correct flag to a correction degree: None when absent, the
    smallest valid degree when given without M (the const choose_m, which
    argparse does not convert and no integer M equals), else M, which the
    solver checks."""
    return choose_m(alpha) if value is choose_m else value


def _emit(chunks, out: Path | None) -> None:
    """Write an iterable of strings to the file out, or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with out.open("w") as f:
            f.writelines(chunks)


# rows formatted at once: the text of a whole long series would take about
# ten times the memory of its four arrays
_BLOCK_ROWS = 1024


def _series_table(x: np.ndarray, values: np.ndarray, exact: np.ndarray):
    """The CSV rows x,value,exact,error after a header, in blocks of rows."""
    row = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format
    error = np.abs(values - exact)
    yield "x,value,exact,error\n"
    for i in range(0, x.size, _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        yield "".join(map(row, x[rows].tolist(), values[rows].tolist(),
                          exact[rows].tolist(), error[rows].tolist()))


def _cmd_ml(args) -> int:
    print(repr(mittag_leffler(args.alpha, args.beta, args.x)))
    return 0


def _cmd_relax(args) -> int:
    family = replace(problems.relaxation_family(args.problem, alpha=args.alpha,
                                                B=args.B), T=args.T)
    series = family.solve(args.h, _scheme(args),
                          _resolve_correct(args.correct, family.alpha))
    exact = family.exact(series.x)
    _emit(_series_table(series.x, series.values, exact), args.out)
    return 0


def _cmd_subdiff(args) -> int:
    family = replace(problems.subdiffusion_family(args.problem, alpha=args.alpha),
                     T=args.T)
    sol = family.solve(args.tau, _scheme(args),
                       _resolve_correct(args.correct, family.alpha), N=args.N)
    exact = family.exact(sol.x, family.T)
    _emit(_series_table(sol.x, sol.final, exact), args.out)
    return 0


def _cmd_converge(args) -> int:
    if args.problem in problems.RELAXATION_IDS:
        family = problems.relaxation_family(args.problem, alpha=args.alpha,
                                            B=args.B)
        study, coupling = run_relaxation_study, Coupling.NONE
    else:
        if args.B is not None:
            raise ValueError(f"problem {args.problem!r} does not take --B")
        family = problems.subdiffusion_family(args.problem, alpha=args.alpha)
        study, coupling = run_subdiffusion_study, Coupling.SPACE_FROM_TIME
    m = _resolve_correct(args.correct, family.alpha)
    report = study(family, _scheme(args), Ladder(args.h0, args.levels, coupling),
                   corrected=m is not None, m=m)
    _emit([render_report(report, args.format)], args.out)
    return 0


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ArithmeticError as exc:     # ConvergenceError, or an overflow
        print(f"fracsolve: numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:         # a step too small for the grid to fit
        print(f"fracsolve: out of memory: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"fracsolve: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
