"""The four benchmark workloads, their pinned results and the checks.

Every operation is one convergence ladder or one CLI invocation.  Its final
row is checked at the acceptance-gate bounds: 2% relative on the maximum
error and +/-0.02 absolute on the order.  Pinned values come from the
program at the commit that introduced the benchmark; the exact reference
values behind them agree with mpmath at 30 digits (see test_bench.py).
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ERR_RTOL = 0.02
ORDER_ATOL = 0.02

WORKLOADS = ("ode-march", "reference", "pde", "cli")

# final-row (max_error, order) of each ladder
PINS = {
    "r11-l1": (3.235287238112505e-08, 1.499212673981807),
    "r12-ml1": (1.5809087215270558e-07, 1.2473969986673217),
    "mlexact-a0.5-B1-l1": (0.006601997978634477, 0.4850412066524467),
    "mlexact-a0.5-B1-ml1c": (1.3393887277057814e-08, 1.9716862131981379),
    "mlexact-a0.3-B10-ml1c": (0.06583101221128601, 2.076437147948171),
    "s03-l1": (6.067603888981754e-05, 1.004694267867259),
}

# The multi-mode ladder is linear in its seeded coefficients c_k: on the
# grid x_j = j pi / N every sin(k x_j) is an exact eigenvector of the
# discrete Laplacian, so the final-time error is
#   sum_k c_k sin(k x_j) DEFECT[M][k-1]
# with DEFECT the per-mode error of the ML1 march (alpha = 0.3, T = 1).
# The check predicts the final row for any seed from these values.
MODES = 8
SAMPLED_ALPHA = 0.3
MODE_EXACT = (0.45659440832969117, 0.16650174431551645, 0.08019833708387392,
              0.04641594241768551, 0.030101147530310984, 0.021054025351884425,
              0.015535262877510985, 0.011927583702268794)  # E_0.3(-k^2)
DEFECT = {
    320: (9.056268564383574e-05, 5.5539329392340075e-05, 3.1578311754112964e-05,
          1.990344838875835e-05, 1.364746775584652e-05, 9.967243897155559e-06,
          7.638399122319312e-06, 6.0786626570399904e-06),
    640: (4.4827185551543636e-05, 2.7163338903846146e-05, 1.5369396144618297e-05,
          9.652798377828009e-06, 6.58489940967219e-06, 4.774485820036034e-06,
          3.625418332866767e-06, 2.8539271815352513e-06),
}

CLI_PINS = {
    # convergence reports: final (max_error, order)
    "converge-s2": (0.00021867099159228465, 1.0156346487074592),
    "converge-mlexact-jsonl": (2.3375035395623023e-06, 1.66807459796961),
    # series files: (rows, max |error|, exact value at the middle row)
    "relax": (20001, 0.00170156499130647, 0.5231565837302468),
    "subdiff": (961, 1.436769483942335e-07, 0.45659440832969117),
}


@dataclass(frozen=True)
class Row:
    max_error: float
    order: float | None


def check_row(pin, row):
    """None when the row lies inside the gate bounds around the pin."""
    err, order = pin
    ok_err = abs(row.max_error - err) <= ERR_RTOL * abs(err)
    ok_order = row.order is not None and abs(row.order - order) <= ORDER_ATOL
    if ok_err and ok_order:
        return None
    return (f"final row error {row.max_error:.6g} (pinned {err:.6g}), "
            f"order {row.order} (pinned {order:.6g})")


@dataclass
class Op:
    """One operation: `run(tracer)` returns a result that `check` judges."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    sizes: dict
    in_process: bool = True
    inputs: dict = field(default_factory=dict)


# ---- in-process ladders -------------------------------------------------

def _relax_ladder(name, pid, scheme, levels, alpha=None, B=None, corrected=False):
    from fracsolve import harness, problems
    from fracsolve.caputo import Scheme
    ladder = harness.Ladder(0.05, levels)
    sch = Scheme(scheme)

    def run(tracer):
        # names are looked up at call time, so traced passes see the wrappers
        family = problems.relaxation_family(pid, alpha=alpha, B=B)
        return harness.run_relaxation_study(family, sch, ladder,
                                            corrected=corrected)

    return Op(name, run, lambda report: check_row(PINS[name], report.rows[-1]))


def _pde_ladder(name, pid, scheme, corrected=False, levels=6):
    from fracsolve import harness, problems
    from fracsolve.caputo import Scheme
    ladder = harness.Ladder(0.05, levels, harness.Coupling.SPACE_FROM_TIME)
    sch = Scheme(scheme)

    def run(tracer):
        family = problems.subdiffusion_family(pid)
        return harness.run_subdiffusion_study(family, sch, ladder,
                                              corrected=corrected)

    return Op(name, run, lambda report: check_row(PINS[name], report.rows[-1]))


def mode_coefficients(seed):
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) for _ in range(MODES)]


def _predicted_error(coeffs, M):
    """Final-time maximum error of the multi-mode ladder at level M."""
    N = 3 * M
    worst = 0.0
    for j in range(1, N):
        x = j * math.pi / N
        e = sum(c * math.sin(k * x) * d
                for k, (c, d) in enumerate(zip(coeffs, DEFECT[M]), start=1))
        worst = max(worst, abs(e))
    return worst


def _sampled_ladder(coeffs, levels=6):
    """ML1 ladder (h = pi tau / 3) from a seeded multi-mode sampled profile.

    The program receives only the samples; the benchmark builds them and
    measures the error against sum_k c_k sin(k x) E_alpha(-k^2 t^alpha).
    """
    import numpy as np
    from fracsolve import harness, subdiffusion
    from fracsolve.subdiffusion import Sampled, SubdiffusionProblem
    Ms = [10 * 2 ** i for i in range(levels + 1)]
    profiles = []
    for M in Ms:
        x = np.arange(3 * M + 1) * (math.pi / (3 * M))
        values = sum(c * np.sin(k * x) for k, c in enumerate(coeffs, start=1))
        values[0] = values[-1] = 0.0
        profiles.append(Sampled(values))

    def run(tracer):
        errors = []
        for M, profile in zip(Ms, profiles):
            problem = SubdiffusionProblem(alpha=SAMPLED_ALPHA, N=3 * M, M=M,
                                          T=1.0, initial=profile)
            sol = subdiffusion.solve_ml1(problem)
            xi = sol.x[1:-1]
            exact = sum(c * subdiffusion.exact_single_mode(SAMPLED_ALPHA, k, xi, 1.0)
                        for k, c in enumerate(coeffs, start=1))
            errors.append(float(np.max(np.abs(sol.final[1:-1] - exact))))
        return Row(errors[-1], harness.estimate_order(errors[-2], errors[-1]))

    pin = []

    def check(row):
        if not pin:
            fine = _predicted_error(coeffs, Ms[-1])
            pin.extend((fine, math.log2(_predicted_error(coeffs, Ms[-2]) / fine)))
        return check_row(pin, row)

    return Op("sampled-ml1", run, check)


# ---- CLI invocations ----------------------------------------------------

CONSOLE = "from fracsolve.cli import main; main()"


def _cli_op(name, argv, out_dir, reader, check, bench_dir):
    out_file = out_dir / f"{name}.out"
    args = [a.replace("{out}", str(out_file)) for a in argv]
    stdout_file = out_dir / f"{name}.stdout"
    stderr_file = out_dir / f"{name}.stderr"

    def run(tracer):
        if tracer is None:
            cmd = [sys.executable, "-c", CONSOLE, *args]
        else:
            spans = out_dir / f"{name}.spans.json"
            cmd = [sys.executable, str(bench_dir / "cli_shim.py"), str(spans), *args]
        if out_file.exists():
            out_file.unlink()
        with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and proc.returncode == 0:
            tracer.absorb(json.loads(spans.read_text()))
        return {"rc": proc.returncode, "rss_kb": usage.ru_maxrss,
                "path": out_file if "{out}" in argv else stdout_file}

    def judge(result):
        if result["rc"] != 0:
            return f"exit status {result['rc']}"
        try:
            return check(reader(result["path"].read_text()))
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    return Op(name, run, judge)


def _last_csv_report_row(text):
    step, err, order = text.strip().splitlines()[-1].split(",")
    return Row(float(err), float(order) if order else None)


def _last_jsonl_row(text):
    record = json.loads(text.strip().splitlines()[-1])
    return Row(record["max_error"], record["order"])


def _series_summary(text):
    """(rows, max |error|, exact value at the middle row) of a series file."""
    lines = text.strip().splitlines()
    if lines[0] != "x,value,exact,error":
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return len(rows), max(r[3] for r in rows), rows[len(rows) // 2][2]


def _check_series(pin):
    rows, err, middle = pin

    def check(summary):
        n, worst, mid = summary
        if n != rows:
            return f"{n} rows, expected {rows}"
        if abs(worst - err) > ERR_RTOL * err:
            return f"max error {worst:.6g} (pinned {err:.6g})"
        if abs(mid - middle) > ERR_RTOL * abs(middle):
            return f"middle exact value {mid:.17g} (pinned {middle:.17g})"
        return None
    return check


def cli_ops(out_dir, bench_dir):
    return [
        _cli_op("converge-s2", ["converge", "--problem", "s2"], out_dir,
                _last_csv_report_row,
                lambda row: check_row(CLI_PINS["converge-s2"], row), bench_dir),
        _cli_op("converge-mlexact-jsonl",
                ["converge", "--problem", "relax-mlexact", "--alpha", "0.3",
                 "--correct", "--format", "jsonl"], out_dir, _last_jsonl_row,
                lambda row: check_row(CLI_PINS["converge-mlexact-jsonl"], row),
                bench_dir),
        _cli_op("relax", ["relax", "--alpha", "0.5", "--h", "5e-5",
                          "--out", "{out}"], out_dir, _series_summary,
                _check_series(CLI_PINS["relax"]), bench_dir),
        _cli_op("subdiff", ["subdiff", "--problem", "s03", "--scheme", "ml1",
                            "--correct", "--tau", "0.003125", "--out", "{out}"],
                out_dir, _series_summary, _check_series(CLI_PINS["subdiff"]),
                bench_dir),
    ]


# ---- workloads ------------------------------------------------------------

def build(name, seed, out_dir: Path, bench_dir: Path) -> Workload:
    """Build a workload's inputs.  The seed drives the multi-mode profile of
    `pde`; the other workloads are fixed and record the seed only."""
    if name == "ode-march":
        ops = [_relax_ladder("r11-l1", "r11", "l1", 12),
               _relax_ladder("r12-ml1", "r12", "ml1", 12)]
        return Workload(name, seed, ops, {"weights_n": 40960, "thomas_n": 1920})
    if name == "reference":
        # the plain L1 ladder of the spectral family is left out: its final
        # order is ~0 (B = 10 is outside the asymptotic range at these
        # steps) and it would double the pass for no extra coverage
        ops = [_relax_ladder("mlexact-a0.5-B1-l1", "relax-mlexact", "l1", 7,
                             alpha=0.5, B=1.0),
               _relax_ladder("mlexact-a0.5-B1-ml1c", "relax-mlexact", "ml1", 7,
                             alpha=0.5, B=1.0, corrected=True),
               _relax_ladder("mlexact-a0.3-B10-ml1c", "relax-mlexact", "ml1", 7,
                             alpha=0.3, B=10.0, corrected=True)]
        return Workload(name, seed, ops, {"weights_n": 1280, "thomas_n": 1920})
    if name == "pde":
        coeffs = mode_coefficients(seed)
        # the corrected (SeparableForcing) PDE solve runs in `cli`, which
        # keeps this pass near three seconds
        ops = [_pde_ladder("s03-l1", "s03", "l1"), _sampled_ladder(coeffs)]
        return Workload(name, seed, ops, {"weights_n": 640, "thomas_n": 1920},
                        inputs={"coefficients": coeffs})
    if name == "cli":
        return Workload(name, seed, cli_ops(out_dir, bench_dir),
                        {"weights_n": 20000, "thomas_n": 960}, in_process=False)
    raise KeyError(f"unknown workload {name!r}; known: {WORKLOADS}")
