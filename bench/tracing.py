"""In-memory spans recorded from the benchmark's own files.

`install` wraps the public functions of each fracsolve module at every name
a caller looks them up by (``problems.ml_relaxation_exact``,
``relaxation.solve_ml1``, ``cli.run_relaxation_study`` and so on) and
`uninstall` puts the originals back, so untraced passes run the program
untouched.  A span is ``[name, start, end, parent, attrs]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared by every process, so
spans written by a traced CLI subprocess nest inside the span that launched
it).  Self time is a span's duration minus the part its children cover.
"""

import dataclasses
import json
import sys
import time

import numpy as np

__all__ = ["Tracer", "install", "uninstall", "self_times", "check_spans"]


class Tracer:
    """Span list plus per-boundary counters, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []
        self.points = 0
        self.distinct = set()
        self._stack = []

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def export(self):
        return {"spans": self.spans, "points": self.points,
                "distinct": sorted(self.distinct)}

    def absorb(self, doc):
        """Add a trace exported by another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p, attrs in doc["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else p + base, attrs])
        self.points += doc["points"]
        self.distinct.update(tuple(k) for k in doc["distinct"])

    def dump(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "attrs": attrs}) + "\n")


def _wrap(tracer, func, name, attrs_of):
    def traced(*args, **kwargs):
        tracer.begin(name, attrs_of(*args, **kwargs) if attrs_of else None)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end()
    return traced


def _ml_key(alpha, B, x, *rest, **kw):
    return {"alpha": alpha, "B": B}


def _relax_size(problem):
    return {"N": problem.n_steps}


def _pde_size(problem):
    return {"N": problem.N, "M": problem.M}


def _traced_exact(tracer, family, relaxation_curve):
    exact = family.exact
    # family names carry their parameters, e.g. "relax-mlexact(alpha=0.3, B=10.0)"
    if relaxation_curve:
        def keys(x):
            return [(family.name, v) for v in np.ravel(x).tolist()]
    else:
        # a profile at time t needs one reference value, E_alpha(-k^2 t^alpha)
        def keys(x, t):
            return [(family.name, float(t))]

    def traced(*args):
        k = keys(*args)
        tracer.points += len(k)
        tracer.distinct.update(k)
        tracer.begin("problems.exact")
        try:
            return exact(*args)
        finally:
            tracer.end()
    return traced


def _family_wrapper(tracer, func, relaxation_curve):
    def traced(*args, **kwargs):
        family = func(*args, **kwargs)
        return dataclasses.replace(
            family, exact=_traced_exact(tracer, family, relaxation_curve))
    return traced


def install(tracer):
    """Wrap every lookup site of the traced functions; returns the undo list."""
    from fracsolve import harness, problems, relaxation, specfun, subdiffusion
    plan = {
        specfun.ml_relaxation_exact: _wrap(tracer, specfun.ml_relaxation_exact,
                                           "specfun.ml_exact", _ml_key),
        relaxation.solve_l1: _wrap(tracer, relaxation.solve_l1,
                                   "relaxation.march", _relax_size),
        relaxation.solve_ml1: _wrap(tracer, relaxation.solve_ml1,
                                    "relaxation.march", _relax_size),
        relaxation.solve_corrected: _wrap(tracer, relaxation.solve_corrected,
                                          "relaxation.corrected", None),
        relaxation.taylor_poly: _wrap(tracer, relaxation.taylor_poly,
                                      "relaxation.taylor", None),
        subdiffusion.solve_l1: _wrap(tracer, subdiffusion.solve_l1,
                                     "subdiffusion.march", _pde_size),
        subdiffusion.solve_ml1: _wrap(tracer, subdiffusion.solve_ml1,
                                      "subdiffusion.march", _pde_size),
        subdiffusion.solve_corrected: _wrap(tracer, subdiffusion.solve_corrected,
                                            "subdiffusion.corrected", None),
        harness.run_relaxation_study: _wrap(tracer, harness.run_relaxation_study,
                                            "harness.study", None),
        harness.run_subdiffusion_study: _wrap(tracer, harness.run_subdiffusion_study,
                                              "harness.study", None),
        problems.relaxation_family: _family_wrapper(
            tracer, problems.relaxation_family, True),
        problems.subdiffusion_family: _family_wrapper(
            tracer, problems.subdiffusion_family, False),
    }
    cli = sys.modules.get("fracsolve.cli")
    if cli is not None:
        plan[cli.run] = _wrap(tracer, cli.run, "cli.run", None)
    by_id = {id(func): wrapper for func, wrapper in plan.items()}
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "fracsolve" or n.startswith("fracsolve.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
                undo.append((module, attr, value))
    return undo


def uninstall(undo):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def check_spans(spans):
    """Problems found in a span list: open spans, children outside their
    parent, negative self time.  Empty when the trace is consistent."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} is open or reversed")
            continue
        if parent >= 0:
            pstart, pend = spans[parent][1], spans[parent][2]
            if start < pstart or end > pend:
                problems.append(f"span {i} {name} lies outside parent {parent}")
    if problems:
        return problems
    for i, st in enumerate(self_times(spans)):
        if st < 0.0:
            problems.append(f"span {i} {spans[i][0]} has self time {st}")
    return problems
