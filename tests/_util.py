"""Test-suite helpers: seeded instances, oracle closures and a forced harness pool."""

from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

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


def block_rows(block):
    """The measures of a ``(points, weights)`` block, one per weights row, as
    row views with ``points`` and ``weights`` (not copies)."""
    points, weights = block
    return [SimpleNamespace(points=points if points.ndim == 2 else points[r], weights=w)
            for r, w in enumerate(weights)]


def block_measures(block):
    """The measures of a ``(points, weights)`` block, one per weights row."""
    return [ms.DiscreteMeasure(m.points, m.weights) for m in block_rows(block)]


def as_block(measures):
    """Measures of one size as a ``(points, weights)`` block: their support
    when they all hold the same points array, else one row of points each."""
    points = [m.points for m in measures]
    shared = all(p is points[0] for p in points)
    return (points[0] if shared else np.stack(points)), np.stack([m.weights for m in measures])


def exact_gibbs_kernel(X, Y, eps):
    """``exp(-|x - y|^2/(2 eps))`` in 80-bit floats, for the float64 points
    as given: a reference whose own rounding is far below a double's."""
    X_hi, Y_hi = X.astype(np.longdouble), Y.astype(np.longdouble)
    sq = np.sum((X_hi[:, None, :] - Y_hi[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / (2 * np.longdouble(eps)))


def gram_spread(X, Y, eps):
    """``max hx + max hy`` of ``sinkhorn._gibbs_kernel``'s Gram form: the
    largest half squared distances to the midpoint c of the two supports'
    means, over eps."""
    c = (X.sum(0) / len(X) + Y.sum(0) / len(Y)) / 2
    return sum(np.max(np.sum((Z - c) ** 2, axis=1)) for Z in (X, Y)) / (2 * eps)


def gram_bound(X, Y, eps):
    """The relative error bound ``_gibbs_kernel`` documents for its Gram form:
    ``3 (d + 3) u (1 + max hx + max hy)``, with u = 2^-53."""
    return 3 * (X.shape[1] + 3) * 2.0 ** -53 * (1 + gram_spread(X, Y, eps))
