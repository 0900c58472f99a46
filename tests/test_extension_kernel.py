"""Property tests for potential extensions evaluated on the Gibbs kernel.

``ExtendedPotential.evaluate`` takes the extension values and the conditional
moments from the kernel ``exp(-C/eps)`` between the points and the opposite
support, and redoes the evaluation in the log domain when a kernel row sum
falls below ``_KERNEL_FLOOR``. Setting that floor to infinity forces the log
domain, as ``test_solver_invariants`` does for solves.
"""

import numpy as np
import pytest

from entot import measures as ms
from entot import potentials as pot
from entot import sinkhorn as sk
from entot.sinkhorn import Normalization, SolverConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                                database=None)


def _log_domain_tables(fe, points, alphas):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        return fe.evaluate(points, alphas)


@st.composite
def _measure(draw, d):
    n = draw(st.integers(1, 8))
    points = draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0)))
    # about a third of the atoms carry no weight; at least one carries some
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.1, 1.0))))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return ms.DiscreteMeasure(points, w / w.sum())


@st.composite
def _extension_problem(draw):
    d = draw(st.integers(1, 3))
    P, Q = draw(_measure(d)), draw(_measure(d))
    points = draw(arrays(np.float64, (draw(st.integers(1, 30)), d),
                         elements=st.floats(-3.0, 3.0)))
    return P, Q, points, draw(st.integers(1, 3))


@_SETTINGS
@hypothesis.given(_extension_problem())
def test_kernel_tables_match_log_domain_tables(problem):
    P, Q, points, max_order = problem
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, max_iter=10_000))
    pair = sk.normalize(pair, P, Q, Normalization.ZERO_G_MEAN)
    alphas = pot.multi_indices(P.dim, max_order)
    for fe in (pot.f_extension(pair, Q), pot.g_extension(pair, P)):
        kernel = fe.evaluate(points, alphas)
        log = _log_domain_tables(fe, points, alphas)
        assert list(kernel) == list(log) == alphas
        for alpha in alphas:
            assert np.max(np.abs(kernel[alpha] - log[alpha])) <= 1e-12


@pytest.mark.parametrize("far_rows", ["all", "one"])
def test_underflowing_rows_give_the_log_domain_tables(far_rows):
    # cost 0.5 * 31**2 = 480.5 > -log(1e-200) = 460.5 to every atom of Q
    stream = ms.SplitMix64(0xF10)
    P = ms.uniform_on(stream.uniforms(10).reshape(5, 2))
    Q = ms.DiscreteMeasure(stream.uniforms(8).reshape(4, 2), np.full(4, 0.25))
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0))
    points = stream.uniforms(12).reshape(6, 2)
    points[:6 if far_rows == "all" else 1] += 31.0
    alphas = pot.multi_indices(2, 2)
    fe = pot.f_extension(pair, Q)
    step = sk._kernel_soft_min(pot._kernel_tables(points, Q, 1.0, 2).K, pair.g,
                               sk._log_weights(Q.weights), 1.0)
    assert step is None  # the kernel path gives way
    kernel = fe.evaluate(points, alphas)
    log = _log_domain_tables(fe, points, alphas)
    assert list(kernel) == list(log) == alphas
    for alpha in alphas:
        assert np.array_equal(kernel[alpha], log[alpha])
        assert np.all(np.isfinite(kernel[alpha]))
