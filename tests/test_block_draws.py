"""Replicate draws taken as blocks, one array row per stream.

A block serves several streams at once: row r holds stream r's next draws,
and the stream advances as if it had drawn alone. Each row must equal the
draws of its stream taken one at a time, bit for bit, and leave the stream at
the same counter, whatever the streams' counters before the block and the
number of streams. A block's measures are C-contiguous row views, so the
solver's row sums, which depend on operand strides, give each of them the
values of a lone measure.
"""

import itertools

import numpy as np
import pytest

from entot import harness as hz
from entot import measures as ms
from entot import sinkhorn as sk
from entot.inference import _ci_two_sample_stack, ci_two_sample
from entot.sinkhorn import SolverConfig

from _util import block_rows

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                                database=None)


@st.composite
def _streams(draw):
    """Paired lists of 1 to 13 streams, equal stream by stream, each at a
    counter of its own."""
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=13))
    ahead = draw(st.lists(st.integers(0, 40), min_size=len(seeds), max_size=len(seeds)))
    pairs = []
    for seed, skip in zip(seeds, ahead):
        a, b = ms.SplitMix64(seed), ms.SplitMix64(seed)
        for s in (a, b):
            for _ in range(skip):
                s.next_u64()
        pairs.append((a, b))
    return [a for a, _ in pairs], [b for _, b in pairs]


@st.composite
def _population(draw):
    """A measure of 1 to 12 atoms in [0, 1]^2, some weights zero."""
    k = draw(st.integers(1, 12))
    points = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),
                                     min_size=k, max_size=k)))
    weights[draw(st.integers(0, k - 1))] = 1.0
    return ms.DiscreteMeasure(points.reshape(k, 2), weights / weights.sum())


def _same_counters(block, alone):
    assert [s._count for s in block] == [s._count for s in alone]


def _same_measures(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.points.tobytes() == y.points.tobytes()
        assert x.weights.tobytes() == y.weights.tobytes()
        assert x.points.shape == y.points.shape


@_SETTINGS
@hypothesis.given(_streams(), st.integers(0, 70))
def test_u64_and_uniform_rows_are_each_streams_scalar_draws(streams, count):
    block, alone = streams
    bits = ms._u64_rows(block, count)
    assert bits.shape == (len(block), count) and bits.flags.c_contiguous
    assert bits.tolist() == [[s.next_u64() for _ in range(count)] for s in alone]
    _same_counters(block, alone)
    us = ms._uniform_rows(block, count)
    assert us.tolist() == [[s.next_float() for _ in range(count)] for s in alone]
    _same_counters(block, alone)


@_SETTINGS
@hypothesis.given(_streams(), st.integers(1, 9), st.integers(1, 4),
                  st.sampled_from([0.25, 1.0, 3.0]))
def test_gaussian_rows_are_each_streams_lone_sample(streams, n, d, scale):
    # n * d odd leaves the second output of the last Box-Muller pair unused
    block, alone = streams
    mean = np.linspace(-1.0, 2.0, d)
    _same_measures(block_rows(ms._gaussian_rows(mean, scale, n, block)),
                   [ms.sample_gaussian(mean, scale, n, s) for s in alone])
    _same_counters(block, alone)


@_SETTINGS
@hypothesis.given(_streams(), _population(), st.integers(1, 16))
def test_count_weights_and_drawn_atoms_are_each_streams_lone_draws(streams, P, n):
    # P with more atoms than draws keeps the drawn atoms; otherwise count
    # weights on P's atoms. Each stream draws twice, as the divergence does.
    block, alone = streams
    first, second = (block_rows(hz._empirical(P, n, block)) for _ in range(2))
    lone = [[block_rows(hz._empirical(P, n, [s]))[0] for _ in range(2)] for s in alone]
    _same_measures(first, [a for a, _ in lone])
    _same_measures(second, [b for _, b in lone])
    _same_counters(block, alone)
    _same_measures(block_rows(ms._empirical_rows(P, n, block)),
                   [ms.sample_empirical(P, n, s) for s in alone])
    _same_counters(block, alone)


@_SETTINGS
@hypothesis.given(_streams(), _population(), st.lists(st.integers(1, 16), min_size=13,
                                                     max_size=13), st.integers(0, 40))
def test_drawn_chunks_cut_into_blocks_are_each_streams_lone_draws(streams, P, ns, budget):
    # a chunk of several sample sizes draws one block per run of one n, cut to
    # at most _CHUNK_ENTRIES // n streams; as _run does, a chunk holds the
    # replicates of one operator shape: drawn atoms of one n, or count
    # weights on P's atoms, which span every n >= |P|
    block, alone = streams
    ns = sorted(ns)[:len(block)]
    drawn = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hz, "_CHUNK_ENTRIES", budget)
        for _, run in itertools.groupby(zip(block, ns), key=lambda job: min(job[1], P.n)):
            chunk, chunk_ns = zip(*run)
            drawn += block_rows(hz._drawn(lambda n, streams: hz._empirical(P, n, streams),
                                          chunk, chunk_ns))
    _same_measures(drawn, [block_rows(hz._empirical(P, n, [s]))[0] for s, n in zip(alone, ns)])
    _same_counters(block, alone)


def _unmix64(z: int) -> int:
    """Inverse of ``ms.mix64``."""
    mask = (1 << 64) - 1
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z ^= (z >> 30) ^ (z >> 60)
    return z


def _stream_drawing(u: float) -> ms.SplitMix64:
    """A stream whose first uniform is u (a multiple of 2**-53 in [0, 1))."""
    first = int(u * 2.0**53) << 11
    seed = (_unmix64(first) - ms._GAMMA) % (1 << 64)
    check = ms.SplitMix64(seed)
    assert check.next_float() == u
    return ms.SplitMix64(seed)


def test_largest_uniform_never_draws_a_weightless_last_atom():
    # the cumulative weights end at 1 - 2**-53, the largest uniform: the
    # search lands past the last atom, and the draw must fall on the last atom
    # with weight, not on the weightless one after it
    P = ms.DiscreteMeasure(np.arange(11.0)[:, None], np.array([0.1] * 10 + [0.0]))
    top = 1.0 - 2.0**-53
    assert np.cumsum(P.weights)[-1] == top
    assert ms._draw_rows(P, 1, [_stream_drawing(top)]).tolist() == [[9]]
    assert ms.sample_empirical(P, 1, _stream_drawing(top)).points.tolist() == [[9.0]]
    [counted] = block_rows(hz._empirical(P, 11, [_stream_drawing(top)]))
    assert counted.weights[10] == 0.0 and counted.weights[9] > 0.0


def _fresh(measure):
    return ms.DiscreteMeasure(measure.points.copy(), measure.weights.copy())


def test_block_rows_are_c_contiguous_and_solve_as_lone_measures():
    # einsum's row sums depend on operand strides: rows of a Fortran-ordered
    # weights block changed most 100-atom dot products in the last bits.
    # Block rows are C-contiguous, and a stack of them gives each problem the
    # values of a lone solve on freshly built measures.
    streams = [ms.SplitMix64(ms.derived_seed(5, r)) for r in range(7)]
    P_block = ms._gaussian_rows(np.zeros(2), 1.0, 100, streams)
    Q_block = ms._gaussian_rows(np.full(2, np.sqrt(2.0)), 1.0, 100, streams)
    Ps, Qs = block_rows(P_block), block_rows(Q_block)
    pop = ms.DiscreteMeasure(np.linspace(0.0, 1.0, 20).reshape(10, 2), np.full(10, 0.1))
    blocks = hz._empirical(pop, 50, streams), hz._empirical(pop, 6, streams)
    counted, drawn = (block_rows(b) for b in blocks)
    for m in Ps + Qs + counted + drawn:
        assert m.points.flags.c_contiguous and m.weights.flags.c_contiguous
        assert not m.points.flags.writeable and not m.weights.flags.writeable
    cfg = SolverConfig(eps=2.0)
    for center, half_width, P, Q in zip(*_ci_two_sample_stack(*P_block, *Q_block, cfg, 0.05)[:2],
                                        Ps, Qs):
        lone = ci_two_sample(_fresh(P), _fresh(Q), cfg, 0.05)
        assert (center, half_width) == (lone.center, lone.half_width)
    for block, Xs in zip(blocks, (counted, drawn)):
        solved = sk._solve_stack(*block, pop.points, pop.weights, cfg)
        for r, X in enumerate(Xs):
            (pair, report), cost = sk._row_result(solved, r, cfg), solved.cost[r]
            lone_pair, lone_report, lone_cost = sk._solved_cost(_fresh(X), pop, cfg)
            assert cost == lone_cost and report == lone_report
            assert pair.f.tobytes() == lone_pair.f.tobytes()
            assert pair.g.tobytes() == lone_pair.g.tobytes()
