"""Property tests for the Gibbs kernel build.

``sinkhorn._gibbs_kernel`` builds ``exp(-|x - y|^2/(2 eps))`` as one einsum of
centred, norm-augmented coordinates (the Gram form) on a kernel of more than
one cost slab whose ``max hx + max hy`` is within ``_GRAM_LIMIT``, and from
the per-axis difference slabs otherwise. An 80-bit reference is the oracle
for the first (the documented relative bound), the difference slabs
themselves for the second (bit for bit). Supports sit far from the origin,
scaled so that each case lands on the side of the limit it names, with room
to spare.
"""

import numpy as np
import pytest

from entot import measures as ms
from entot import sinkhorn as sk
from entot.errors import NotConverged
from entot.sinkhorn import SolverConfig

from _util import as_block, exact_gibbs_kernel, gram_bound, gram_spread

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                                database=None)


def _difference_build(X, Y, eps):
    """The kernel from the half-cost slabs, scaled and exponentiated in place."""
    K = np.empty((X.shape[0], Y.shape[0]))
    for _, slab in sk._cost_slabs(X, Y, K, -0.5 / eps):
        np.exp(slab, out=slab)
    return K


@st.composite
def _pair(draw, d, n, m, eps, trips, over=40.0, near=False):
    """Supports of n and m points around a common far shift, scaled so that
    ``max hx + max hy`` is at most 0.9 of the limit, or from 1.1 to ``over``
    times it when ``trips``. Two clouds apart, or when ``near`` (n == m) a
    cloud and its points each moved by at most a twentieth of its width."""
    shift = draw(arrays(np.float64, d, elements=st.floats(-1e4, 1e4)))
    unit = st.floats(-1.0, 1.0)
    X0, Y0 = (draw(arrays(np.float64, (k, d), elements=unit)) for k in (n, m))
    if near:
        Y0 = X0 + 0.05 * Y0
    else:
        Y0 += draw(arrays(np.float64, d, elements=unit))
    spread = sk._GRAM_LIMIT * (draw(st.floats(1.1, over)) if trips
                               else draw(st.floats(0.0, 0.9)))
    c0 = (X0.mean(0) + Y0.mean(0)) / 2
    base = sum(np.max(np.sum((Z - c0) ** 2, axis=1)) for Z in (X0, Y0)) / (2 * eps)
    scale = np.sqrt(spread / base) if base > 0 else 1.0
    X, Y = shift + scale * X0, shift + scale * Y0
    ratio = gram_spread(X, Y, eps) / sk._GRAM_LIMIT
    hypothesis.assume(ratio > 1.05 if trips else ratio < 0.95)
    return X, Y


@st.composite
def _kernel_case(draw, case):
    """Supports and eps: over one slab within the limit ("gram") or beyond it
    ("spread"), or at most one slab on either side ("one-slab"); skinny
    either way round."""
    d, n = draw(st.integers(1, 15)), draw(st.integers(1, 12))
    eps = 10.0 ** draw(st.floats(-2.0, 1.0))
    if case == "one-slab":
        m, trips = draw(st.integers(1, 12)), draw(st.booleans())
    else:
        m, trips = sk._COST_SLAB_ENTRIES // n + draw(st.integers(1, 64)), case == "spread"
    X, Y = draw(_pair(d, n, m, eps, trips))
    return (Y, X, eps) if draw(st.booleans()) else (X, Y, eps)


@pytest.mark.parametrize("case", ["gram", "spread", "one-slab"])
@_SETTINGS
@hypothesis.given(data=st.data())
def test_gibbs_kernel_is_the_gram_form_or_else_the_difference_build(case, data):
    X, Y, eps = data.draw(_kernel_case(case))
    K = sk._gibbs_kernel(X, Y, eps)
    if case == "gram":
        exact = exact_gibbs_kernel(X, Y, eps)
        assert np.all(exact > 0)  # no entry near underflow within the limit
        assert np.max(np.abs(K - exact) / exact) <= gram_bound(X, Y, eps)
    else:
        assert K.tobytes() == _difference_build(X, Y, eps).tobytes()


@st.composite
def _stack_case(draw):
    # n * n is just over one slab, so every problem can take the Gram form
    d, n = draw(st.integers(1, 15)), draw(st.integers(182, 190))
    eps = 10.0 ** draw(st.floats(-2.0, 1.0))
    trips = [False, True] + draw(st.lists(st.booleans(), max_size=2))
    # near supports just over the limit keep most stacks on their kernels
    pairs = [draw(_pair(d, n, n, eps, t, over=1.5, near=True))
             for t in draw(st.permutations(trips))]
    return pairs, eps


def _result(call):
    try:
        return call()
    except NotConverged as exc:
        return exc


def _parts(result):
    return (result.pair, result.report) if isinstance(result, NotConverged) else result


@_SETTINGS
@hypothesis.given(_stack_case())
def test_stack_of_gram_and_difference_kernels_matches_lone_solves(case):
    pairs, eps = case
    Ps = [ms.uniform_on(X) for X, _ in pairs]
    Qs = [ms.uniform_on(Y) for _, Y in pairs]
    cfg = SolverConfig(eps=eps, max_iter=100)
    solved = sk._solve_stack(*as_block(Ps), *as_block(Qs), cfg)
    for r, (P, Q) in enumerate(zip(Ps, Qs)):
        stacked = _result(lambda: sk._row_result(solved, r, cfg))
        lone = _result(lambda: sk.solve(P, Q, cfg))
        assert type(stacked) is type(lone)
        (a, ra), (b, rb) = _parts(stacked), _parts(lone)
        assert a.f.tobytes() == b.f.tobytes() and a.g.tobytes() == b.g.tobytes()
        assert ra == rb
