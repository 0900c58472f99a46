"""Property tests for the soft c-transform and the blocked half-steps.

``scipy.special.logsumexp`` is the independent oracle for ``_soft_min``; a
dense solve forced onto the kernel-underflow fallback is the reference for
the blocked solve, bit for bit.
"""

import numpy as np
import pytest

from entot import measures as ms
from entot import sinkhorn as sk
from entot.sinkhorn import SolverConfig

hypothesis = pytest.importorskip("hypothesis")
special = pytest.importorskip("scipy.special")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                                database=None)


@st.composite
def _support(draw, n, d):
    points = draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0)))
    # about a third of the atoms carry no weight; at least one carries some
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.1, 1.0))))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return points, w / w.sum()


@st.composite
def _transform_case(draw):
    d = draw(st.integers(1, 3))
    X, a = draw(_support(draw(st.integers(1, 8)), d))
    Y, b = draw(_support(draw(st.integers(1, 8)), d))
    f = draw(arrays(np.float64, X.shape[0], elements=st.floats(-5.0, 5.0)))
    g = draw(arrays(np.float64, Y.shape[0], elements=st.floats(-5.0, 5.0)))
    eps = 10.0 ** draw(st.floats(-3.0, 1.0))
    return X, Y, a, b, f, g, eps


@_SETTINGS
@hypothesis.given(_transform_case())
def test_soft_min_matches_scipy_logsumexp(case):
    X, Y, a, b, f, g, eps = case
    C = sk.half_sq_cost(X, Y)
    # relative to the size of the terms: the result itself may be near zero
    atol = 1e-12 * (1.0 + np.max(np.abs(C)) + max(np.max(np.abs(f)), np.max(np.abs(g))))
    for axis, pot, w, shape in ((1, g, b, (1, -1)), (0, f, a, (-1, 1))):
        logits = (pot.reshape(shape) - C) / eps
        want = -eps * special.logsumexp(logits, axis=axis,
                                        b=np.broadcast_to(w.reshape(shape), C.shape))
        out = C.copy()
        view = out if axis == 1 else out.T  # columns reduce as rows of the transpose
        got = sk._soft_min(pot, sk._log_weights(w), view, eps)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        # what is left in ``out`` normalises to the conditional weights
        weights = out / out.sum(axis=axis, keepdims=True)
        np.testing.assert_allclose(
            weights, special.softmax(logits + sk._log_weights(w).reshape(shape), axis=axis),
            rtol=0, atol=1e-12)


@st.composite
def _solve_case(draw):
    d = draw(st.integers(1, 2))
    # Nine atoms in P: the g step sums at least 8 terms per row, where a
    # strided column reduction and a contiguous row reduction round apart.
    X, a = draw(_support(9, d))
    Y, b = draw(_support(6, d))
    eps = 10.0 ** draw(st.floats(-0.7, 0.5))
    return ms.DiscreteMeasure(X, a), ms.DiscreteMeasure(Y, b), eps


@_SETTINGS
@hypothesis.given(_solve_case())
def test_blocked_solve_matches_dense_log_solve(case):
    P, Q, eps = case
    # A budget so a regression fails fast instead of shrinking through
    # 100k-sweep solves; the 20 fixed examples need at most 43 sweeps. It does
    # not bound the strategy: of 3000 cases drawn from it (hypothesis' generate
    # phase, seeds 0-2), one needed 2827 sweeps and the others at most 256.
    cfg = SolverConfig(eps=eps, tol=1e-11, max_iter=1_000)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        dense, dense_report = sk.solve(P, Q, cfg)
    assert dense_report.path == "kernel+log"
    # 9 x 6 entries. Limit 1: single-row and single-column slabs. 18: row
    # slabs of 3 and column slabs of 2, both exact. 40: row slabs 6 + 3 and
    # column slabs 4 + 2, each with a short last slab.
    for limit in (1, 18, 40):
        blocked, report = sk.solve(P, Q, cfg, dense_entry_limit=limit)
        assert report.path == "blocked"
        # The fallback runs the blocked path's slab loop: the same bits.
        assert blocked.f.tobytes() == dense.f.tobytes()
        assert blocked.g.tobytes() == dense.g.tobytes()
        for field in ("iterations", "final_residual", "dual_value",
                      "optimality_residual", "relaxation"):
            assert getattr(report, field) == getattr(dense_report, field), field
