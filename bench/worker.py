"""One workload in one process: warm-up, timed passes, optional traced passes.

Started by run.py with the program's source on PYTHONPATH.  Prints one JSON
object on its last stdout line.  With --setup-only it imports the program,
builds the workload's inputs and exits; run.py times that as setup_s.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
MIN_TRACED = 2
PROBE_REPEATS = 3
MICRO_SECONDS = 0.3


def run_pass(workload, tracer=None):
    """Run every operation once, in order; returns (wall_s, results)."""
    results = []
    undo = tracing.install(tracer) if tracer and workload.in_process else []
    op_span = "bench.op" if workload.in_process else "cli.process"
    try:
        if tracer:
            tracer.begin("bench.pass")
        start = time.perf_counter()
        for op in workload.ops:
            if tracer:
                tracer.begin(op_span, {"op": op.name})
            try:
                results.append(op.run(tracer))
            except Exception as exc:  # an operation that raises has failed
                traceback.print_exc()
                results.append(exc)
            finally:
                if tracer:
                    tracer.end()
        wall = time.perf_counter() - start
        if tracer:
            tracer.end()
    finally:
        tracing.uninstall(undo)
    return wall, results


class Tally:
    """Operations attempted and failed, plus the peak RSS of CLI children."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.child_rss_kb = 0

    def add(self, results):
        for op, result in zip(self.workload.ops, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self.failures.append(f"{op.name}: raised {result!r}")
                continue
            if isinstance(result, dict):
                self.child_rss_kb = max(self.child_rss_kb, result["rss_kb"])
            problem = op.check(result)
            if problem is not None:
                self.failures.append(f"{op.name}: {problem}")


# ---- machine block -------------------------------------------------------

def machine_info():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": _openblas_threads()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return getattr(lib, symbol)()
    return None


# ---- microbenchmarks of public functions ---------------------------------

def _median_us(call):
    times = []
    deadline = time.perf_counter() + MICRO_SECONDS
    while len(times) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def microbenchmarks(workload, report):
    import numpy as np
    from fracsolve import caputo, harness, subdiffusion
    alpha = 0.5
    n = workload.sizes["weights_n"]
    N = workload.sizes["thomas_n"]
    h = math.pi / N
    tau = 3.0 * h / math.pi
    rhs = np.ones(N - 1)
    return {
        "caputo.weights.us": (_median_us(lambda: caputo.l1_weights(alpha, n))
                              + _median_us(lambda: caputo.ml1_weights(alpha, n))),
        "subdiffusion.thomas.us_per_level": _median_us(
            lambda: subdiffusion.thomas_solve(
                subdiffusion.build_system(alpha, tau, h, N), rhs)),
        "harness.render.us": statistics.fmean(
            _median_us(lambda: harness.render_report(report, fmt))
            for fmt in ("csv", "markdown", "jsonl")),
    }


def _report_of(workload, results):
    """The convergence report a pass produced, for the render benchmark."""
    if workload.in_process:
        return results[0]
    from fracsolve import harness
    jsonl = next(r for op, r in zip(workload.ops, results)
                 if op.name == "converge-mlexact-jsonl")
    return harness.parse_report_jsonl(jsonl["path"].read_text())


def _wall(cmd, **kw):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, **kw)
    return time.perf_counter() - t0, proc


def startup_probes():
    """Interpreter start, fresh `import fracsolve.cli`, and scipy's share of
    that import from -X importtime (sum of self times of scipy modules)."""
    py = sys.executable
    interp = statistics.median(_wall([py, "-c", "pass"])[0]
                               for _ in range(PROBE_REPEATS))
    imp = statistics.median(_wall([py, "-c", "import fracsolve.cli"])[0]
                            for _ in range(PROBE_REPEATS))
    _, proc = _wall([py, "-X", "importtime", "-c", "import fracsolve.cli"],
                    capture_output=True, text=True)
    scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return {"cli.interp_s": interp, "cli.import_s": imp,
            "cli.import.scipy_s": scipy_us / 1e6}


# ---- per-layer metrics ---------------------------------------------------

UNITS = {
    "specfun.ml_exact.calls": "count", "specfun.ml_exact.s": "s",
    "specfun.ml_exact.series_us": "us", "specfun.ml_exact.spectral_us": "us",
    "problems.exact.points": "count", "problems.exact.distinct_ratio": "1",
    "problems.exact.self_s": "s",
    "caputo.weights.us": "us",
    "relaxation.march.s": "s", "relaxation.march.slope": "1",
    "relaxation.march.history_terms": "count",
    "relaxation.march.ns_per_term": "ns", "relaxation.taylor.s": "s",
    "subdiffusion.march.s": "s", "subdiffusion.march.slope": "1",
    "subdiffusion.march.levels": "count",
    "subdiffusion.march.history_terms": "count",
    "subdiffusion.thomas.us_per_level": "us",
    "harness.study.s": "s", "harness.self_s": "s", "harness.render.us": "us",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.import.scipy_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead": "1",
}
# self time of each layer as a share of the traced pass; "startup" is the
# self time of a CLI subprocess outside fracsolve.cli.run (interpreter
# start, imports, exit) and "bench" the benchmark's own code
SHARES = ("specfun", "problems", "relaxation", "subdiffusion", "harness",
          "cli", "startup", "bench")
SERIES_FAMILY = (0.5, 1.0)
SPECTRAL_FAMILY = (0.3, 10.0)


def _slope(points):
    """Log-log slope of per-solve time against size over the three largest
    sizes, each taken at its median time."""
    by_size = {}
    for size, dt in points:
        by_size.setdefault(size, []).append(dt)
    top = sorted(by_size)[-3:]
    if len(top) < 2:
        return 0.0
    xs = [math.log(s) for s in top]
    ys = [math.log(statistics.median(by_size[s])) for s in top]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _share_layer(name):
    if name == "cli.process":
        return "startup"
    return name.split(".", 1)[0]


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Per-pass layer figures from the spans of len(traced_walls) passes."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    n = len(traced_walls)
    total, own, count = {}, {}, {}
    share = dict.fromkeys(SHARES, 0.0)
    ml = {SERIES_FAMILY: [], SPECTRAL_FAMILY: []}
    relax_pts, pde_pts = [], []
    relax_terms = pde_terms = levels = 0
    for (name, start, end, _, attrs), st in zip(spans, selfs):
        dt = end - start
        total[name] = total.get(name, 0.0) + dt
        own[name] = own.get(name, 0.0) + st
        count[name] = count.get(name, 0) + 1
        if _share_layer(name) in share:
            share[_share_layer(name)] += st
        if name == "specfun.ml_exact":
            key = (attrs["alpha"], attrs["B"])
            if key in ml:
                ml[key].append(dt)
        elif name == "relaxation.march":
            N = attrs["N"]
            relax_pts.append((N, dt))
            relax_terms += N * (N - 1) // 2
        elif name == "subdiffusion.march":
            N, M = attrs["N"], attrs["M"]
            pde_pts.append((M, dt))
            pde_terms += (N - 1) * M * (M - 1) // 2
            levels += M
    per = {k: v / n for k, v in total.items()}
    pass_wall = statistics.fmean(traced_walls)
    points = tracer.points / n
    march_s = per.get("relaxation.march", 0.0)
    out = {
        "specfun.ml_exact.calls": count.get("specfun.ml_exact", 0) / n,
        "specfun.ml_exact.s": per.get("specfun.ml_exact", 0.0),
        "specfun.ml_exact.series_us": (statistics.median(ml[SERIES_FAMILY]) * 1e6
                                       if ml[SERIES_FAMILY] else 0.0),
        "specfun.ml_exact.spectral_us": (statistics.median(ml[SPECTRAL_FAMILY]) * 1e6
                                         if ml[SPECTRAL_FAMILY] else 0.0),
        "problems.exact.points": points,
        # every traced pass evaluates the same points, so the distinct set
        # of all passes is the distinct set of one
        "problems.exact.distinct_ratio": (len(tracer.distinct) / points
                                          if points else 0.0),
        "problems.exact.self_s": own.get("problems.exact", 0.0) / n,
        "relaxation.march.s": march_s,
        "relaxation.march.slope": _slope(relax_pts),
        "relaxation.march.history_terms": relax_terms / n,
        "relaxation.march.ns_per_term": (march_s / (relax_terms / n) * 1e9
                                         if relax_terms else 0.0),
        "relaxation.taylor.s": per.get("relaxation.taylor", 0.0),
        "subdiffusion.march.s": per.get("subdiffusion.march", 0.0),
        "subdiffusion.march.slope": _slope(pde_pts),
        "subdiffusion.march.levels": levels / n,
        "subdiffusion.march.history_terms": pde_terms / n,
        "harness.study.s": per.get("harness.study", 0.0),
        "harness.self_s": own.get("harness.study", 0.0) / n,
        "cli.run.self_s": own.get("cli.run", 0.0) / n,
        "trace.overhead": (statistics.median(traced_walls)
                           / statistics.median(untraced_walls) - 1.0),
    }
    shares = {f"share.{k}": v / n / pass_wall for k, v in share.items()}
    return out, shares


# ---- main ------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import fracsolve
    if args.workload == "cli":
        import fracsolve.cli  # noqa: F401  (the console script's import)
    if ROOT / "src" not in Path(fracsolve.__file__).resolve().parents:
        sys.exit(f"fracsolve imported from {fracsolve.__file__}, not from {ROOT / 'src'}")
    workload = workloads.build(args.workload, args.seed, args.out_dir, BENCH_DIR)
    if args.setup_only:
        return 0

    tally = Tally(workload)
    _, results = run_pass(workload)  # warm-up
    tally.add(results)
    walls, traced_walls = [], []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        wall, results = run_pass(workload)
        walls.append(wall)
        tally.add(results)
        if tracer:
            wall, results = run_pass(workload, tracer)
            traced_walls.append(wall)
            tally.add(results)
        # stop before a pass that would end past the window, once the
        # minimum is met, so a run's length does not depend on pass size
        done = len(traced_walls) >= MIN_TRACED if tracer else len(walls) >= MIN_PASSES
        step = statistics.median(walls) + (statistics.median(traced_walls) if tracer else 0.0)
        if done and time.perf_counter() - start + step > args.seconds:
            break

    out = {"walls": walls, "attempted": tally.attempted,
           "failures": tally.failures, "child_rss_kb": tally.child_rss_kb,
           "machine": machine_info(), "inputs": workload.inputs}
    if tracer:
        layers, shares = layer_metrics(tracer, traced_walls, walls)
        layers.update(microbenchmarks(workload, _report_of(workload, results)))
        layers.update(startup_probes())
        problems = tracing.check_spans(tracer.spans)
        tracer.dump(args.out_dir / "spans.jsonl")
        table = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        table.update({k: {"value": v, "unit": "1"} for k, v in shares.items()})
        (args.out_dir / "layers.json").write_text(json.dumps(
            {"layers": table, "traced_walls": traced_walls,
             "untraced_walls": walls, "span_problems": problems[:20]},
            indent=1) + "\n")
        out.update(traced_walls=traced_walls, layers=table,
                   span_problems=len(problems))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
