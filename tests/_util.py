"""Test-suite helpers: seeded instances, oracle closures and a forced harness pool."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from entot import harness as hz
from entot import measures as ms

SUITE_SEED = 20250808


def random_instance(stream, d, max_atoms=10, uniform_weights=False):
    """Random discrete pair with supports in [0,1]^d, 2..max_atoms atoms."""
    n = 2 + int(stream.next_float() * (max_atoms - 1))
    m = 2 + int(stream.next_float() * (max_atoms - 1))
    X = stream.uniforms(n * d).reshape(n, d)
    Y = stream.uniforms(m * d).reshape(m, d)
    if uniform_weights:
        return ms.uniform_on(X), ms.uniform_on(Y)
    wa = stream.uniforms(n) + 0.1
    wb = stream.uniforms(m) + 0.1
    return (
        ms.DiscreteMeasure(X, wa / wa.sum()),
        ms.DiscreteMeasure(Y, wb / wb.sum()),
    )


def longdouble_f_extension(pair, Q):
    """Extended-precision f-side extension, independent of the library path.

    Returns a closure computing the log-integral extension in 80-bit floats;
    used as the function handle for finite-difference derivative checks,
    where float64 roundoff at small steps would swamp the comparison.
    """
    g_hi = pair.g.astype(np.longdouble)
    y_hi = Q.points.astype(np.longdouble)
    log_b_hi = np.log(Q.weights.astype(np.longdouble))
    eps_hi = np.longdouble(pair.eps)

    def fn(x):
        x_hi = np.asarray(x, dtype=np.longdouble)
        s = log_b_hi + (g_hi - 0.5 * np.sum((x_hi[None, :] - y_hi) ** 2, axis=1)) / eps_hi
        peak = s.max()
        return -eps_hi * (peak + np.log(np.sum(np.exp(s - peak))))

    return fn


def all_derivative_indices(d, max_order):
    """Multi-indices with 1 <= |alpha| <= max_order, graded lexicographic."""
    import itertools

    out = [
        a
        for a in itertools.product(range(max_order + 1), repeat=d)
        if 1 <= sum(a) <= max_order
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def force_pool(monkeypatch, workers=3):
    """Make the harness fan every cell out to a real pool of ``workers``
    threads, whatever the cell size or the number of usable CPUs.

    Returns the list of the pool's ``map`` calls, one worker count each, so a
    test can check that its run really went through the pool.
    """
    calls = []

    class CountingPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kw):
            calls.append(self._max_workers)
            return super().map(fn, *iterables, **kw)

    monkeypatch.setattr(hz, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(hz, "ThreadPoolExecutor", CountingPool)
    return calls
