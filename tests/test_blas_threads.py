"""Results do not depend on the BLAS thread count.

BLAS products (``x @ w``, ``K @ v``) change their summation order, and so
their last bits, with ``OPENBLAS_NUM_THREADS`` once vectors reach about 10k
entries. The same script runs at one and two BLAS threads on a problem with
more than 10,000 atoms and must print the same bits.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import numpy as np
from entot import inference, measures, potentials, sinkhorn

stream = measures.SplitMix64(0xB1A5)
n = 10_001
w = stream.uniforms(n) + 0.1
P = measures.DiscreteMeasure(stream.uniforms(2 * n).reshape(n, 2), w / w.sum())
Q = measures.uniform_on(stream.uniforms(8).reshape(4, 2))
cfg = sinkhorn.SolverConfig(eps=1.0)
pair, report = sinkhorn.solve(P, Q, cfg)
ci = inference.ci_one_sample(P, Q, cfg, 0.05)
values = [*pair.f, *pair.g, report.dual_value, sinkhorn.cost(P, Q, pair),
          sinkhorn.dual_objective(P, Q, pair), ci.center, ci.half_width]
grid = potentials.GridSpec(measures.CompactDomain.unit_box(2), 101).points()
tables = potentials.f_extension(pair, Q).evaluate(grid, potentials.multi_indices(2, 2))
for table in tables.values():
    values.extend(table)
print(len(grid), " ".join(float(v).hex() for v in values))
"""


def _run(blas_threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads), "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def test_bits_do_not_depend_on_blas_threads():
    one = _run(1)
    assert int(one.split()[0]) > 10_000
    assert one == _run(2)
