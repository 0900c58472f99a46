"""Projected wall time of ``configs/coverage_full.txt``; on demand only.

    python3 bench/project_full.py

The projection is for ``--threads nproc``, the thread count users run.
Cells at or below ``DENSE_ENTRY_LIMIT`` cost-matrix entries are measured:
``REPLICATES`` replicates per cell through ``entot.harness.run_coverage``
(the function behind ``entot coverage``) at ``nproc`` threads, scaled to the
config's replicate count. Sweep counts vary widely between replicates at
eps=0.5, so a few replicates give a rough projection, not a bound.

Cells above the limit (n=5000: 25M entries) take the blocked path, which
rebuilds cost rows on every half-step. One replicate there takes many
minutes and about 0.5 GB, so these cells are estimated instead:

    seconds per replicate = (sweeps + 2) * entries * blocked seconds per entry / nproc

- sweeps: the mean per solve measured on the largest measured n of the same
  (d, eps); the extra 2 sweeps stand for the blocked passes of
  ``dual_objective`` and the residual check in ``cost()``;
- blocked seconds per entry: one f+g sweep timed on an n=m=2000 problem of
  the same d (once per d; eps does not change the work of a sweep), forced
  onto the blocked path with ``dense_entry_limit``, so its blocks outgrow
  every cache as the n=5000 blocks do;
- / nproc: replicates are independent and the harness runs ``nproc`` of them
  at once; this assumes they scale perfectly, which the measured cells show
  only roughly, so the estimate leans low.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_N = 2000
PROBE_LIMIT = PROBE_N * 640  # blocks of 640 x 2000 entries, ~10 MB each
REPLICATES = 2


def blocked_s_per_entry(d: int, eps: float) -> float:
    """Seconds per cost entry of one blocked f+g sweep at dimension d."""
    import numpy as np

    from entot.errors import NotConverged
    from entot.measures import SplitMix64, sample_gaussian
    from entot.sinkhorn import SolverConfig, solve

    stream = SplitMix64(0xB10C + d)
    P = sample_gaussian(np.zeros(d), 1.0, PROBE_N, stream)
    Q = sample_gaussian(np.full(d, math.sqrt(2.0)), 1.0, PROBE_N, stream)

    def timed(sweeps):
        cfg = SolverConfig(eps=eps, tol=1e-300, max_iter=sweeps)
        t0 = time.perf_counter()
        try:
            solve(P, Q, cfg, dense_entry_limit=PROBE_LIMIT)
        except NotConverged:
            pass
        return time.perf_counter() - t0

    per_sweep = (timed(5) - timed(1)) / 4
    return per_sweep / (PROBE_N * PROBE_N)


def main() -> int:
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    from entot import harness
    from entot.sinkhorn import DENSE_ENTRY_LIMIT

    tracer = Tracer()
    tracer.install()
    cfg = harness.load_config(ROOT / "configs" / "coverage_full.txt")
    target = cfg.replicates
    hours_by = {"measured": 0.0, "estimated": 0.0}
    per_entry_at = {}
    for d in cfg.dims:
        for eps in cfg.eps_list:
            sweeps_at = {}
            for n in cfg.n_list:
                if n * n > DENSE_ENTRY_LIMIT:
                    base_n = max(sweeps_at)
                    sweeps = sweeps_at[base_n]
                    if d not in per_entry_at:
                        per_entry_at[d] = blocked_s_per_entry(d, eps)
                    per_entry = per_entry_at[d]
                    per_rep = (sweeps + 2) * n * n * per_entry / threads
                    kind = "estimated"
                    how = (f"{sweeps:.0f} sweeps (n={base_n}) x "
                           f"{per_entry * 1e9:.2f} ns/entry blocked / {threads}")
                else:
                    before = tracer.summary().get("sinkhorn.solve")
                    cell = replace(cfg, dims=(d,), eps_list=(eps,), n_list=(n,),
                                   replicates=REPLICATES)
                    t0 = time.perf_counter()
                    harness.run_coverage(cell, threads=threads)
                    per_rep = (time.perf_counter() - t0) / REPLICATES
                    after = tracer.summary()["sinkhorn.solve"]
                    calls = after["calls"] - (before["calls"] if before else 0)
                    swept = after["counts"][0] - (before["counts"][0] if before else 0)
                    sweeps_at[n] = swept / calls
                    kind = "measured"
                    how = f"{REPLICATES} replicates, {sweeps_at[n]:.0f} sweeps each"
                hours = per_rep * target / 3600.0
                hours_by[kind] += hours
                print(f"d={d:<3d} eps={eps:<4g} n={n:<5d} {per_rep:9.3f} s/rep "
                      f"{hours:9.2f} h  {kind}: {how}", flush=True)
    print(json.dumps({"projection": "configs/coverage_full.txt",
                      "replicates": target, "threads": threads,
                      "measured_cells_hours": hours_by["measured"],
                      "estimated_cells_hours": hours_by["estimated"],
                      "total_hours": sum(hours_by.values())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
