"""Every row of a stack's record is its lone problem's results, as a property.

``sinkhorn._solve_stack`` takes a stack as blocks: points ``(R, n, d)`` or one
support for every row, weights ``(R, n)`` or one vector for every row. Its
record's row r, and the row of ``inference._ci_two_sample_stack``, must equal
the lone ``solve``, ``_solved_cost`` and ``ci_two_sample`` of problem r bit
for bit, on every layout and half-step path: supports shared, per row or
mixed, rows that run out of maps, a row whose kernel sum underflows (the
stack is then solved again one problem at a time), blocked stacks of one, and
a stack of one, which runs on a 2-d kernel whatever its layout.
"""

import numpy as np
import pytest

from entot import inference as inf
from entot import measures as ms
from entot import sinkhorn as sk
from entot.errors import NotConverged
from entot.sinkhorn import SolverConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                                database=None)


@st.composite
def _weights(draw, rows, k):
    """``rows`` weight rows of k atoms, some weights zero, each summing to 1."""
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
                               min_size=rows * k, max_size=rows * k))).reshape(rows, k)
    w[np.arange(rows), draw(st.lists(st.integers(0, k - 1), min_size=rows,
                                     max_size=rows))] = 1.0
    return w / w.sum(axis=1, keepdims=True)


@st.composite
def _support(draw, rows, k, d, shared):
    """One support of k atoms in [0, 1]^d, or one per row."""
    shape = (k, d) if shared else (rows, k, d)
    return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def _stacks(draw):
    rows, d = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    X = draw(_support(rows, n, d, draw(st.booleans())))
    Y = draw(_support(rows, m, d, draw(st.booleans())))
    if draw(st.booleans()):  # an atom of one row's P far from every atom of Q
        X = X.copy() if X.ndim == 3 else np.stack([X] * rows)
        X[0, 0] += 50.0  # a kernel sum of 0 at every eps here
    a = draw(_weights(rows, n))
    one_b = Y.ndim == 2 and draw(st.booleans())  # one weight vector for every row
    b = draw(_weights(1, m))[0] if one_b else draw(_weights(rows, m))
    eps = draw(st.sampled_from([0.1, 0.5, 2.0]))
    cfg = SolverConfig(eps=eps, max_iter=draw(st.sampled_from([2, 5, 100_000])))
    return X, a, Y, b, cfg, draw(st.sampled_from([sk.DENSE_ENTRY_LIMIT, 1]))


def _result(fn, *args):
    try:
        return fn(*args)
    except NotConverged as exc:
        return exc


@_SETTINGS
@hypothesis.given(_stacks())
def test_each_row_of_a_stack_is_its_lone_solve_cost_and_interval(stack):
    X, a, Y, b, cfg, limit = stack
    b_rows = sk._rows(b, len(a))
    with pytest.MonkeyPatch.context() as mp:  # the lone and stacked solves at this limit
        mp.setattr(sk, "DENSE_ENTRY_LIMIT", limit)
        solved = sk._solve_stack(X, a, Y, b, cfg)
        centers, half_widths, converged = inf._ci_two_sample_stack(X, a, Y, b_rows, cfg, 0.05)
        assert converged.tolist() == solved.converged.tolist()
        for r in range(len(a)):
            P = ms.DiscreteMeasure(sk._support(X, r), a[r])
            Q = ms.DiscreteMeasure(sk._support(Y, r), b_rows[r])
            stacked, lone = _result(sk._row_result, solved, r, cfg), _result(sk.solve, P, Q, cfg)
            assert type(stacked) is type(lone)
            if isinstance(lone, NotConverged):
                assert str(stacked) == str(lone)
                stacked, lone = (stacked.pair, stacked.report), (lone.pair, lone.report)
            (pair, report), (lone_pair, lone_report) = stacked, lone
            assert report == lone_report
            assert pair.f.tobytes() == lone_pair.f.tobytes()
            assert pair.g.tobytes() == lone_pair.g.tobytes()
            if report.converged:
                assert solved.cost[r] == sk._solved_cost(P, Q, cfg)[2]
                ci = inf.ci_two_sample(P, Q, cfg, 0.05)
                assert (centers[r], half_widths[r]) == (ci.center, ci.half_width)
    if len(a) == 1 and a.shape[1] * b_rows.shape[1] <= limit:
        assert sk._Updates(X, a, Y, b, cfg.eps)._ops[0].ndim == 2
