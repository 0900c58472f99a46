"""A rate replicate's empirical measure, drawn on the population's own atoms.

``harness._empirical`` draws n atoms of P with the uniforms of
``sample_empirical`` and, when P has at most n atoms, returns P's atoms
weighted by their counts over n. That is the same measure on a smaller
support: its weights are the histogram of the drawn atoms, it leaves the
stream where ``sample_empirical`` does, and every transport value the rate
statistics read from it is the one the drawn atoms give, up to the solve's
tolerance and rounding.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from entot import harness as hz
from entot import measures as ms
from entot import sinkhorn as sk
from entot.sinkhorn import SolverConfig

from _util import block_measures

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                                database=None)

# tight enough that g, which agrees to about the tol, agrees to 1e-12 too;
# costs agree to about 1e-14 at any tol
_TIGHT = 1e-13


@st.composite
def _population(draw, d=None, max_atoms=8):
    """A measure of 1 to max_atoms atoms in [0, 1]^d, d <= 3 unless given,
    some of whose weights may be zero."""
    k, d = draw(st.integers(1, max_atoms)), d or draw(st.integers(1, 3))
    points = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k * d, max_size=k * d)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
                                     min_size=k, max_size=k)))
    weights[draw(st.integers(0, k - 1))] = 1.0
    return ms.DiscreteMeasure(points.reshape(k, d), weights / weights.sum())


def _atom_counts(P, sample):
    """How many of ``sample``'s points are each atom of P (P's atoms distinct)."""
    counts = np.zeros(P.n, dtype=np.int64)
    for point in sample.points:
        counts[np.flatnonzero((P.points == point).all(axis=1))[0]] += 1
    return counts


def _close(value, reference, scale, eps):
    """``|value - reference| <= 1e-12 * scale``, with the scale at least eps:
    costs of coinciding supports are 0 up to the rounding of potentials of
    size eps."""
    return abs(value - reference) <= 1e-12 * max(scale, eps)


@_SETTINGS
@hypothesis.given(_population(), st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_count_weights_are_the_histogram_of_the_drawn_atoms(P, n, seed):
    hypothesis.assume(len(np.unique(P.points, axis=0)) == P.n)
    s1, s2 = ms.SplitMix64(seed), ms.SplitMix64(seed)
    [counted], drawn = block_measures(hz._empirical(P, n, [s1])), ms.sample_empirical(P, n, s2)
    assert s1.next_u64() == s2.next_u64()  # the stream ends at the same count
    if P.n > n:  # more atoms than draws: the drawn atoms themselves
        assert counted.points.tobytes() == drawn.points.tobytes()
        assert counted.weights.tobytes() == drawn.weights.tobytes()
        return
    assert counted.points.tobytes() == P.points.tobytes()
    assert np.all(drawn.weights == 1.0 / n)
    assert counted.weights.tobytes() == (_atom_counts(P, drawn) / n).tobytes()


def _cost(P, Q, cfg):
    return sk._solved_cost(P, Q, cfg)[2]


@_SETTINGS
@hypothesis.given(st.integers(1, 3).flatmap(lambda d: st.tuples(_population(d), _population(d))),
                  st.integers(1, 40), st.integers(0, 2**64 - 1), st.sampled_from([0.5, 1.0, 2.0]))
def test_rate_values_on_count_weights_are_those_of_the_drawn_atoms(PQ, n, seed, eps):
    P, Q = PQ
    cfg = SolverConfig(eps=eps, tol=_TIGHT)
    [counted] = block_measures(hz._empirical(P, n, [ms.SplitMix64(seed)]))
    drawn = ms.sample_empirical(P, n, ms.SplitMix64(seed))
    (pair_c, _, cost_c), (pair_d, _, cost_d) = (sk._solved_cost(X, Q, cfg)
                                                for X in (counted, drawn))
    assert _close(cost_c, cost_d, abs(cost_d), eps)
    assert _close(np.max(np.abs(pair_c.g - pair_d.g)), 0.0, np.max(np.abs(pair_d.g)), eps)

    # the bias and divergence statistics, against the same values on the drawn
    # atoms; as differences of costs they agree to 1e-12 of those costs
    truth = _cost(P, Q, cfg)
    scenario = SimpleNamespace(pair=lambda d: (P, Q), truth=lambda d, eps: truth)
    values, converged = hz._bias_statistic(scenario, P.dim, cfg)([ms.SplitMix64(seed)], [n])
    assert converged.tolist() == [True]
    [[bias]] = values.tolist()
    assert _close(bias, cost_d - truth, max(abs(cost_d), abs(truth)), eps)

    stream = ms.SplitMix64(seed)
    P_n, P2_n = ms.sample_empirical(P, n, stream), ms.sample_empirical(P, n, stream)
    c = {name: _cost(X, Y, cfg) for name, (X, Y) in {
        "nn": (P_n, P_n), "np": (P_n, P), "pp": (P, P), "22": (P2_n, P2_n),
        "12": (P_n, P2_n)}.items()}
    values, converged = hz._divergence_statistic(scenario, P.dim, cfg)(
        [ms.SplitMix64(seed)], [n])
    assert converged.tolist() == [True]
    [[one, two]] = values.tolist()
    scale = max(map(abs, c.values()))
    assert _close(one, c["np"] - 0.5 * (c["nn"] + c["pp"]), scale, eps)
    assert _close(two, c["12"] - 0.5 * (c["nn"] + c["22"]), scale, eps)
