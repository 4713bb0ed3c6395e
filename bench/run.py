"""fracsolve benchmark: one workload, end-to-end or per-layer.

    python3 bench/run.py --workload {ode-march,reference,pde,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  Each workload runs in a child process with one sequential caller.
--trace 0 reports wall_s (median pass, tracing off, after a warm-up pass),
setup_s (median of fresh-interpreter set-ups) and peak_rss_mb.  --trace 1
reports the per-layer table and writes spans to .bench_out/.  The last
stdout line is one JSON object; the exit status is non-zero when any
operation fails its correctness check.  See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ode-march", "reference", "pde", "cli")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# every child runs with this BLAS thread count so that two commits compared
# on one machine run alike; the passes are single-caller anyway
BLAS_THREADS = "1"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(cmd, env, stdout):
    """Run a child to completion; returns (exit code, wall s, ru_maxrss KB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - t0, usage.ru_maxrss


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fracsolve" / "__init__.py").is_file():
        print(f"bench: no fracsolve source under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2

    env = child_env()
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(BENCH_DIR / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(out_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            rc, wall, _ = run_child([*worker, "--setup-only"], env, subprocess.DEVNULL)
            if rc != 0:
                print(f"bench: set-up failed with status {rc}", file=sys.stderr)
                return 1
            setups.append(wall)

    result_file = out_dir / "worker.json"
    with open(result_file, "wb") as out:
        rc, _, rss_kb = run_child(
            [*worker, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, out)
    if rc != 0:
        print(f"bench: worker failed with status {rc}", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text().strip().splitlines()[-1])

    failed = len(res["failures"])
    attempted = res["attempted"]
    print("machine " + json.dumps(res["machine"]))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"one process, one sequential caller, {len(res['walls'])} timed passes"
          + (f" + {len(res['traced_walls'])} traced" if args.trace else ""))
    if res["inputs"]:
        print("inputs " + json.dumps(res["inputs"]))
    for failure in res["failures"][:10]:
        print(f"FAILED {failure}")
    print(f"  fail_ratio   {failed / attempted:.4g}  ({failed} of {attempted} operations)")

    if args.trace:
        metrics = res["layers"]
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        print(f"  spans and layer table in {out_dir.relative_to(ROOT)}; "
              f"{res['span_problems']} span inconsistencies")
    else:
        walls = res["walls"]
        wall = statistics.median(walls)
        q1, q3 = quartiles(walls)
        peak = max(rss_kb, res["child_rss_kb"]) / 1024.0
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak, "unit": "MB"}}
        print(f"  wall_s       {wall:.4f} s  (quartiles {q1:.4f} .. {q3:.4f}, "
              f"n={len(walls)} passes)")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  "
              f"(median of {len(setups)} fresh interpreters)")
        print(f"  peak_rss_mb  {peak:.1f} MB")

    correct = failed == 0 and res.get("span_problems", 0) == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
