"""Property tests for the solver's invariants on each of its three paths.

Small problems run on the Gibbs kernel by default; the log path is forced by
setting ``_KERNEL_FLOOR`` to infinity, and the blocked path by a
``dense_entry_limit`` below the number of cost entries. One test reaches the
log path without forcing, through a kernel that underflows at small eps.
"""

import contextlib

import numpy as np
import pytest

from entot import measures as ms
from entot import sinkhorn as sk
from entot.sinkhorn import PotentialPair, SolverConfig

from _util import SUITE_SEED

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                                database=None)
_TOL = 1e-9
# A few times the most sweeps any of 1000 drawn problems needed (1984), so a
# regression fails fast instead of shrinking through 100k-sweep solves.
_MAX_ITER = 10_000
_PATHS = ("kernel", "log", "blocked")


@contextlib.contextmanager
def _on_path(path):
    """Dense solves and checks inside run in the log domain on the log path."""
    with pytest.MonkeyPatch.context() as m:
        if path == "log":
            m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        yield


def _solve(P, Q, eps, path):
    limit = P.n * Q.n // 2 if path == "blocked" else sk.DENSE_ENTRY_LIMIT
    pair, report = sk.solve(P, Q, SolverConfig(eps=eps, tol=_TOL, max_iter=_MAX_ITER),
                            dense_entry_limit=limit)
    assert report.path == {"kernel": "kernel", "log": "kernel+log", "blocked": "blocked"}[path]
    return pair, report


@st.composite
def _measure(draw, d):
    n = draw(st.integers(2, 8))
    points = draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0)))
    # about a third of the atoms carry no weight; at least one carries some
    w = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.1, 1.0))))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return ms.DiscreteMeasure(points, w / w.sum())


@st.composite
def _problem(draw):
    d = draw(st.integers(1, 2))
    return draw(_measure(d)), draw(_measure(d)), 10.0 ** draw(st.floats(-1.0, 0.5))


@pytest.mark.parametrize("path", _PATHS)
@_SETTINGS
@hypothesis.given(_problem(), st.randoms(use_true_random=False))
def test_permuting_atoms_permutes_potentials(path, problem, rnd):
    P, Q, eps = problem
    p, q = rnd.sample(range(P.n), P.n), rnd.sample(range(Q.n), Q.n)
    with _on_path(path):
        pair, _ = _solve(P, Q, eps, path)
        permuted, _ = _solve(ms.DiscreteMeasure(P.points[p], P.weights[p]),
                             ms.DiscreteMeasure(Q.points[q], Q.weights[q]), eps, path)
    assert np.max(np.abs(permuted.f - pair.f[p])) <= 1e-12
    assert np.max(np.abs(permuted.g - pair.g[q])) <= 1e-12


@pytest.mark.parametrize("path", _PATHS)
@_SETTINGS
@hypothesis.given(_problem(), st.floats(-10.0, 10.0))
def test_shift_leaves_dual_and_cost_unchanged(path, problem, c):
    P, Q, eps = problem
    with _on_path(path):
        pair, _ = _solve(P, Q, eps, path)
        shifted = PotentialPair(pair.f + c, pair.g - c, eps)
        assert sk.dual_objective(P, Q, shifted) == pytest.approx(
            sk.dual_objective(P, Q, pair), abs=1e-13 * (1.0 + abs(c)) / eps)
        assert sk.cost(P, Q, shifted) == pytest.approx(
            sk.cost(P, Q, pair), abs=1e-13 * (1.0 + abs(c)))


@pytest.mark.parametrize("path", _PATHS)
@_SETTINGS
@hypothesis.given(_problem())
def test_exchanging_the_measures_keeps_the_cost(path, problem):
    P, Q, eps = problem
    with _on_path(path):
        pq, _ = _solve(P, Q, eps, path)
        qp, _ = _solve(Q, P, eps, path)
        assert sk.cost(Q, P, qp) == pytest.approx(sk.cost(P, Q, pq), abs=100 * _TOL)


@pytest.mark.parametrize("path", _PATHS)
@_SETTINGS
@hypothesis.given(_problem())
def test_plan_marginals_within_tol(path, problem):
    P, Q, eps = problem
    with _on_path(path):
        pair, _ = _solve(P, Q, eps, path)
    pi = sk.plan(P, Q, pair).entries
    assert np.max(np.abs(pi.sum(axis=1) - P.weights)) <= _TOL
    assert np.max(np.abs(pi.sum(axis=0) - Q.weights)) <= _TOL


@st.composite
def _underflow_problem(draw):
    """A :func:`_problem` moved to eps in [1e-4, 1e-2], with Q far enough off
    that every cost entry is at least 470 * eps: the first kernel half-step
    underflows. Scaling the points by sqrt(eps'/eps) keeps the problem's
    conditioning (the scaling identity); moving Q adds only row and column
    constants to the cost."""
    P, Q, eps = draw(_problem())
    small = 10.0 ** draw(st.floats(-4.0, -2.0))
    c = np.sqrt(small / eps)
    gap = 4.0 * c * np.sqrt(P.dim) + np.sqrt(2.0 * draw(st.floats(470.0, 1000.0)) * small)
    shift = np.eye(P.dim)[0] * gap
    return (ms.DiscreteMeasure(c * P.points, P.weights),
            ms.DiscreteMeasure(c * Q.points + shift, Q.weights), small)


@_SETTINGS
@hypothesis.given(_underflow_problem())
def test_kernel_underflow_keeps_marginals_and_residual_bound(problem):
    P, Q, eps = problem
    pair, report = sk.solve(P, Q, SolverConfig(eps=eps, tol=_TOL, max_iter=_MAX_ITER))
    assert report.path == "kernel+log"
    assert report.optimality_residual <= report.final_residual + 1e-12
    pi = sk.plan(P, Q, pair).entries
    assert np.max(np.abs(pi.sum(axis=1) - P.weights)) <= _TOL
    assert np.max(np.abs(pi.sum(axis=0) - Q.weights)) <= _TOL


def _relaxing_problem():
    """8 atoms a side in [-2, 2]^2 at eps=0.2: the solve relaxes (w about 1.37)."""
    stream = ms.SeedSpec(SUITE_SEED, 62).stream()
    X, Y = (4.0 * stream.uniforms(16).reshape(8, 2) - 2.0 for _ in range(2))
    return ms.uniform_on(X), ms.uniform_on(Y), 0.2


@pytest.mark.parametrize("path", _PATHS)
def test_optimality_residual_at_most_final_residual(path):
    # g is g_from(f), so its side is exact; the f side is bounded by the
    # stop rule for any overrelaxation factor. Some examples must relax.
    relaxations = []

    @_SETTINGS
    @hypothesis.given(_problem())
    @hypothesis.example(_relaxing_problem())
    def check(problem):
        P, Q, eps = problem
        with _on_path(path):
            _, report = _solve(P, Q, eps, path)
        relaxations.append(report.relaxation)
        assert report.optimality_residual <= report.final_residual + 1e-12

    check()
    assert max(relaxations) > 1.0
