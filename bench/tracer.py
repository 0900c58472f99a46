"""Span tracing around the public functions of the entot modules.

Used only by the benchmark's traced run. Every wrapped call records one span
(start and end wall time, start and end CPU time of its own thread, parent
span) in a list owned by the calling thread; nothing is shared between
threads until :meth:`Tracer.summary` folds the spans once the run is over.

A span's parent is the innermost open span of the same thread. A span opened
in a thread with no open span (a harness pool worker) takes as parent the
innermost open span of the thread that installed the tracer, which is the
harness function that fanned the replicates out.

Per wrapped function the summary reports calls, self time (wall time minus
the union of its children's intervals) and wait time (self wall time minus
self CPU time of its thread: time spent runnable but waiting for the GIL or
a core, or blocked). Self and wait times add up across functions without
double counting.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

# (module, attribute) -> metric name. ``Class.method`` attributes are patched
# on the class. Several attributes may share one metric name.
WRAPPED = {
    ("cli", "run"): "cli.run",
    ("harness", "run_experiment"): "harness.run_experiment",
    ("harness", "run_coverage"): "harness.run_coverage",
    ("harness", "run_bias_rate"): "harness.run_bias_rate",
    ("harness", "run_potential_rate"): "harness.run_potential_rate",
    ("harness", "run_divergence_rate"): "harness.run_divergence_rate",
    ("harness", "load_config"): "harness.load_config",
    ("harness", "emit"): "harness.emit",
    ("inference", "ci_two_sample"): "inference.ci_two_sample",
    ("inference", "ci_one_sample"): "inference.ci_one_sample",
    ("inference", "sinkhorn_divergence"): "inference.sinkhorn_divergence",
    ("inference", "variance_two_sample"): "inference.variance_two_sample",
    ("inference", "variance_one_sample"): "inference.variance_one_sample",
    ("inference", "normal_quantile"): "inference.normal_quantile",
    ("sinkhorn", "solve"): "sinkhorn.solve",
    ("sinkhorn", "cost"): "sinkhorn.cost",
    ("sinkhorn", "dual_objective"): "sinkhorn.dual_objective",
    ("sinkhorn", "half_sq_cost"): "sinkhorn.half_sq_cost",
    ("measures", "sample_gaussian"): "measures.sample",
    ("measures", "sample_empirical"): "measures.sample",
    ("potentials", "f_extension"): "potentials.f_extension",
    ("potentials", "holder_norm"): "potentials.holder_norm",
    ("potentials", "ExtendedPotential.evaluate"): "potentials.evaluate",
    ("oracle", "gaussian_cost"): "oracle.gaussian_cost",
}

MODULES = ("cli", "harness", "inference", "sinkhorn", "measures",
           "potentials", "oracle")


def _solve_counts(args, result, exc):
    """(sweeps, sweep entries, not converged) of one ``solve`` call."""
    P, Q = args[0], args[1]
    report = getattr(exc, "report", None) if exc is not None else result[1]
    if report is None:
        return None
    return (report.iterations, 2 * P.n * Q.n * report.iterations,
            1 if exc is not None else 0)


def _cost_entries(args, result, exc):
    return (args[0].shape[0] * args[1].shape[0],)


def _grid_entries(args, result, exc):
    pot, points = args[0], args[1]
    rows = points.shape[0] if getattr(points, "ndim", 1) == 2 else 1
    return (rows * pot.opposite.n,)


_COUNTERS = {
    "sinkhorn.solve": _solve_counts,
    "sinkhorn.half_sq_cost": _cost_entries,
    "potentials.evaluate": _grid_entries,
}


class Tracer:
    """Installs span-recording wrappers into the imported entot modules."""

    def __init__(self):
        self._local = threading.local()
        self._lists: list[list] = []
        self._stacks: dict[int, list] = {}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._next_id = iter(range(1, 1 << 62)).__next__

    def _thread_state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            spans, stack = [], []
            with self._lock:
                self._lists.append(spans)
                self._stacks[threading.get_ident()] = stack
            st = self._local.state = (spans, stack)
        return st

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        perf, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            if stack:
                parent = stack[-1][0]
            else:
                owner = self._stacks.get(self._owner)
                parent = owner[-1][0] if owner else 0
            span = [self._next_id(), parent, name, perf(), cpu()]
            stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span += (perf(), cpu(), threading.get_ident())
                stack.pop()
                extra = counter(args, result, exc) if counter else None
                span.append(extra)
                spans.append(span)

        return traced

    def install(self):
        """Patch every wrapped function wherever an entot module bound it."""
        mods = {m: importlib.import_module(f"entot.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("entot")
        for (mod_name, attr), name in WRAPPED.items():
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Per-function calls, self_s, wait_s and counter totals."""
        spans = [s for lst in self._lists for s in lst]
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[1] in by_id:
                children[s[1]].append(s)
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wait_s": 0.0,
                                   "counts": None})
        for s in spans:
            sid, _, name, t0, c0, t1, c1, tid, extra = s
            kids = children.get(sid, ())
            covered = _union_length([(max(k[3], t0), min(k[5], t1)) for k in kids])
            self_wall = (t1 - t0) - covered
            self_cpu = (c1 - c0) - sum(k[6] - k[4] for k in kids if k[7] == tid)
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_wall
            row["wait_s"] += max(0.0, self_wall - self_cpu)
            if extra is not None:
                prev = row["counts"] or (0,) * len(extra)
                row["counts"] = tuple(a + b for a, b in zip(prev, extra))
        return dict(out)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
