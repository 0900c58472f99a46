"""Results do not depend on the BLAS thread count.

BLAS products (``x @ w``, ``K @ v``) change their summation order, and so
their last bits, with ``OPENBLAS_NUM_THREADS`` once vectors reach about 10k
entries. The same script runs at one and two BLAS threads on a problem with
more than 10,000 atoms and must print the same bits; and a scan of the
library's source finds no call that may dispatch to BLAS at any size.
"""

import ast
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


# numpy functions and methods that may dispatch to BLAS
_BLAS_NAMES = {"dot", "matmul", "vecdot", "tensordot", "inner"}


def test_library_source_has_no_call_that_may_reach_blas():
    # the runtime test sees only a problem above 10k atoms; this scan covers
    # every size: no ``@``, no BLAS-backed name as a call, attribute or
    # import, and no ``einsum(..., optimize=...)``, which may hand a
    # contraction to tensordot
    found = []
    for path in sorted((_SRC / "entot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if isinstance(getattr(node, "op", None), ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif name in _BLAS_NAMES:
                found.append((path.name, getattr(node, "lineno", None), name))
            elif (isinstance(node, ast.Call) and "einsum" in ast.unparse(node.func)
                  and any(k.arg == "optimize" for k in node.keywords)):
                found.append((path.name, node.lineno, "einsum optimize"))
    assert found == []
