"""Convergence studies over step-halving ladders.

Runs a problem family's solver (`family.solve`) at a sequence of halved
step sizes, measures maximum errors against the exact solution
(`family.error`), and chains empirical orders
log2(err_coarse / err_fine) between consecutive levels.  One extra run at
twice the base step supplies the order for the first reported row.  Reports
render to csv (the stable contract), markdown, or json-lines.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum

from . import relaxation
from .caputo import Scheme, _check_steps, _solving
from .problems import RelaxationFamily, SubdiffusionFamily
from .specfun import _check_positive, _count

__all__ = [
    "Coupling",
    "Ladder",
    "ReportRow",
    "ConvergenceReport",
    "estimate_order",
    "run_relaxation_study",
    "run_subdiffusion_study",
    "render_report",
    "parse_report_jsonl",
]

# errors at roundoff level carry no rate information; their orders stay blank
_ORDER_FLOOR = 1e-12

_FORMATS = ("csv", "markdown", "jsonl")


class Coupling(Enum):
    NONE = "none"
    SPACE_FROM_TIME = "space-from-time"  # h = pi * tau / 3


@dataclass(frozen=True)
class Ladder:
    """Halving ladder of step sizes base_step / 2^i for i = 0..levels-1."""

    base_step: float
    levels: int
    coupling: Coupling = Coupling.NONE

    def __post_init__(self):
        _check_positive("base_step", self.base_step)
        _count("levels", self.levels, 2)

    def steps(self) -> list[float]:
        return [self.base_step / 2 ** i for i in range(self.levels)]


@dataclass(frozen=True)
class ReportRow:
    step: float
    max_error: float
    order: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        for prev, cur in zip(rows, rows[1:]):
            if cur.step != prev.step / 2.0:
                raise ValueError("report steps must halve exactly")
        for row in rows:
            if row.max_error < 0.0:
                raise ValueError("max_error must be >= 0")


def estimate_order(err_coarse: float, err_fine: float) -> float:
    """Empirical order log2(err_coarse / err_fine) for one step halving;
    where the quotient underflows to 0 or overflows, the difference of the
    two logarithms, which neither does."""
    _check_positive("err_coarse", err_coarse)
    _check_positive("err_fine", err_fine)
    q = err_coarse / err_fine
    if 0.0 < q < math.inf:
        return math.log2(q)
    return math.log2(err_coarse) - math.log2(err_fine)


def _chain_orders(steps, errors) -> ConvergenceReport:
    # errors[0] belongs to the extra coarse run and only feeds the first order
    rows = []
    for i in range(1, len(steps)):
        ec, ef = errors[i - 1], errors[i]
        order = estimate_order(ec, ef) if min(ec, ef) > _ORDER_FLOOR else None
        rows.append(ReportRow(steps[i], ef, order))
    return ConvergenceReport(tuple(rows))


def _study(family, scheme: Scheme, ladder: Ladder, corrected: bool,
           m: int | None) -> ConvergenceReport:
    """The one ladder loop: the family picks the solver and measures the
    error.  Every run's march is built before any run is solved, so a
    study that is refused solves nothing.  A refusal of the extra coarse
    run names h0 and 2 h0, unless the first rung makes it too, which then
    refuses in its own words.  The rungs run in one `caputo._solving` scope
    at the family's (alpha, scheme), so they share its weights and their
    transforms, and every rung marches one scalar state, whose leaf
    matrices differ only in their diagonal and size: one batched inversion,
    computed before the first rung, serves them all, each rung with the
    bits of its own.  The scope is dropped when the loop ends or a rung
    raises."""
    if m is not None and not corrected:
        raise ValueError(f"a degree m = {m} needs corrected=True")
    if corrected and m is None:
        m = relaxation.choose_m(family.alpha)
    steps = [2.0 * ladder.base_step] + ladder.steps()
    try:
        coarse = family._rate(steps[0])
        # the coarse run has the fewest steps, so no rung fails this rule
        _check_steps(scheme, coarse[2])
    except ValueError as exc:
        family._rate(steps[1])      # a refusal of the first rung is its own
        raise ValueError(
            f"h0 = {steps[1]}: the extra run at 2 h0 = {steps[0]}, which "
            f"gives the first row its order, is refused: {exc}") from exc
    marches = [coarse] + [family._rate(step) for step in steps[1:]]
    with _solving(family.alpha, scheme, marches):
        errors = [family.error(family.solve(step, scheme, m))
                  for step in steps]
    return _chain_orders(steps, errors)


def run_relaxation_study(family: RelaxationFamily, scheme: Scheme,
                         ladder: Ladder, corrected: bool = False,
                         m: int | None = None) -> ConvergenceReport:
    """Error ladder for a relaxation problem.

    Each row's error is the maximum of |exact(x_n) - computed_n| over all
    grid nodes n >= 1 (node 0 is exact by construction).  With corrected=True
    the singularity-corrected solver runs instead, which requires the
    homogeneous family; m defaults to the smallest valid degree, and is
    refused without corrected=True.
    """
    if ladder.coupling is not Coupling.NONE:
        raise ValueError("relaxation ladders do not couple step sizes")
    return _study(family, scheme, ladder, corrected, m)


def run_subdiffusion_study(family: SubdiffusionFamily, scheme: Scheme,
                           ladder: Ladder, corrected: bool = False,
                           m: int | None = None) -> ConvergenceReport:
    """Error ladder for a subdiffusion problem with the coupled grid
    h = pi tau / 3 (N = 3 M space intervals).

    Each row's error is the maximum over interior space nodes at the final
    time.  The base step and its halvings must divide T into whole steps.
    With corrected=True the singularity-corrected solver of degree m runs
    instead; m defaults to the smallest valid degree, and is refused
    without corrected=True.
    """
    if ladder.coupling is not Coupling.SPACE_FROM_TIME:
        raise ValueError("subdiffusion ladders require the h = pi tau / 3 coupling")
    if family.T != 1.0:
        raise ValueError("coupled studies are defined for T = 1")
    return _study(family, scheme, ladder, corrected, m)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_report(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render a report as text.

    csv and markdown print 6 significant digits; jsonl keeps full binary64
    precision and round-trips through parse_report_jsonl.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
    if fmt == "jsonl":
        lines = [json.dumps({"step": row.step, "max_error": row.max_error,
                             "order": row.order}) for row in report.rows]
        return "\n".join(lines) + "\n"
    table = [("step", "max_error", "order")]
    if fmt == "markdown":
        table.append(("---",) * 3)
    table += [(_fmt(row.step), _fmt(row.max_error),
               "" if row.order is None else _fmt(row.order))
              for row in report.rows]
    if fmt == "csv":
        lines = [",".join(cells) for cells in table]
    else:
        lines = ["| " + " | ".join(cells) + " |" for cells in table]
    return "\n".join(lines) + "\n"


def parse_report_jsonl(text: str) -> ConvergenceReport:
    """Inverse of render_report(..., "jsonl")."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        rows.append(ReportRow(record["step"], record["max_error"], record["order"]))
    return ConvergenceReport(tuple(rows))
