import concurrent.futures

import numpy as np
import pytest

from entot import measures as ms
from entot.errors import EmptySupport, MalformedFile, NonPositiveEps, NonSimplexWeights

from _util import SUITE_SEED


def test_parse_two_atom_uniform():
    m = ms.parse_measure("w,x1\n0.5,0.0\n0.5,1.0\n")
    assert m.n == 2 and m.dim == 1
    assert np.array_equal(m.points, np.array([[0.0], [1.0]]))
    assert np.array_equal(m.weights, np.array([0.5, 0.5]))


def test_parse_rejects_non_simplex_weights():
    with pytest.raises(NonSimplexWeights):
        ms.parse_measure("w,x1\n0.3,0.0\n0.3,1.0\n")


def test_parse_renormalizes_within_band():
    m = ms.parse_measure(f"w,x1\n{0.5 + 3e-10},0.0\n{0.5 - 3e-10},1.0\n")
    assert abs(m.weights.sum() - 1.0) <= 1e-12
    assert np.allclose(m.weights, 0.5, atol=1e-9)


@pytest.mark.parametrize("text,exc", [
    ("", MalformedFile),
    ("weight,x1\n1.0,0.0\n", MalformedFile),          # bad header name
    ("w,x2\n1.0,0.0\n", MalformedFile),               # bad column label
    ("w,x1\n1.0\n", MalformedFile),                   # row arity
    ("w,x1\n1.0,zero\n", MalformedFile),              # unparseable number
    ("w,x1\n1.0,inf\n", MalformedFile),               # non-finite coordinate
    ("w,x1\n", EmptySupport),                         # header only
    ("w,x1\n-0.5,0.0\n1.5,1.0\n", NonSimplexWeights),  # negative weight
])
def test_parse_error_cases(text, exc):
    with pytest.raises(exc):
        ms.parse_measure(text)


def test_parse_accepts_exponent_notation():
    m = ms.parse_measure("w,x1,x2\n5e-1,1e0,-2.5e-1\n0.5,0,3\n")
    assert m.points[0, 1] == -0.25


def test_write_load_roundtrip(tmp_path):
    stream = ms.SeedSpec(SUITE_SEED, 0).stream()
    w = stream.uniforms(5) + 0.1
    m = ms.DiscreteMeasure(stream.uniforms(15).reshape(5, 3), w / w.sum())
    path = tmp_path / "m.csv"
    ms.write_measure(m, path)
    back = ms.load_measure(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_measure_invariants_enforced():
    with pytest.raises(NonSimplexWeights):
        ms.DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.6]))
    with pytest.raises(NonSimplexWeights):
        ms.DiscreteMeasure(np.zeros((2, 1)), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError):
        ms.DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        ms.DiscreteMeasure(np.zeros((0, 1)), np.array([]))


def test_measure_arrays_frozen():
    m = ms.dirac([1.0, 2.0])
    with pytest.raises(ValueError):
        m.points[0, 0] = 3.0


def test_splitmix_block_matches_scalar():
    a = ms.SplitMix64(987654321)
    b = ms.SplitMix64(987654321)
    assert np.array_equal(a.uniforms(257), np.array([b.next_float() for _ in range(257)]))


def test_seedspec_streams_are_pure():
    s1 = ms.SeedSpec(SUITE_SEED, 5).stream().uniforms(10)
    s2 = ms.SeedSpec(SUITE_SEED, 5).stream().uniforms(10)
    assert np.array_equal(s1, s2)
    s3 = ms.SeedSpec(SUITE_SEED, 6).stream().uniforms(10)
    assert not np.array_equal(s1, s3)


def test_seedspec_validation():
    with pytest.raises(ValueError):
        ms.SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        ms.SeedSpec(0, -2)


def test_sample_empirical_single_atom():
    out = ms.sample_empirical(ms.dirac([0.0]), 5, ms.SeedSpec(1, 0))
    assert out.n == 5
    assert np.all(out.points == 0.0)
    assert np.all(out.weights == 0.2)


def test_sample_empirical_deterministic():
    src = ms.uniform_on(np.array([[0.0], [1.0], [2.0]]))
    a = ms.sample_empirical(src, 100, ms.SeedSpec(3, 7))
    b = ms.sample_empirical(src, 100, ms.SeedSpec(3, 7))
    assert np.array_equal(a.points, b.points)


def test_sample_empirical_weights_and_counts():
    src = ms.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    out = ms.sample_empirical(src, 1000, ms.SeedSpec(5, 0))
    assert np.all(out.weights == 1.0 / 1000)
    counts = [int(np.sum(out.points == v)) for v in (0.0, 1.0)]
    assert sum(counts) == 1000


def test_sample_empirical_binomial_concentration():
    # uniform on {0, 1}: fraction of ones within 4 sigma = 0.02 of one half
    src = ms.uniform_on(np.array([[0.0], [1.0]]))
    out = ms.sample_empirical(src, 10_000, ms.SeedSpec(SUITE_SEED, 2))
    frac = float(np.mean(out.points))
    assert abs(frac - 0.5) < 0.02


def test_sample_gaussian_clt_band():
    # 4 sigma / sqrt(n) band with variance one half
    out = ms.sample_gaussian([0.0], 0.5, 10_000, ms.SeedSpec(SUITE_SEED, 3))
    assert abs(float(out.points.mean())) < 0.03


def test_sample_gaussian_single_point():
    out = ms.sample_gaussian([2.0, -1.0], 1.0, 1, ms.SeedSpec(1, 1))
    assert out.n == 1 and out.weights[0] == 1.0


def test_sample_gaussian_replicates_differ():
    a = ms.sample_gaussian([0.0], 1.0, 50, ms.SeedSpec(9, 0))
    b = ms.sample_gaussian([0.0], 1.0, 50, ms.SeedSpec(9, 1))
    assert not np.array_equal(a.points, b.points)


def test_sample_gaussian_validation():
    with pytest.raises(ValueError):
        ms.sample_gaussian([0.0], 0.0, 5, ms.SeedSpec(1, 0))
    with pytest.raises(ValueError):
        ms.sample_gaussian([0.0], 1.0, 0, ms.SeedSpec(1, 0))
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="variance_scale"):
            ms.sample_gaussian([0.0], scale, 5, ms.SeedSpec(1, 0))


def test_sampling_pure_across_thread_schedules():
    # identical outputs no matter which thread runs the draw
    src = ms.uniform_on(np.arange(6, dtype=float))
    serial = [ms.sample_empirical(src, 40, ms.SeedSpec(11, r)).points for r in range(8)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda r: ms.sample_empirical(src, 40, ms.SeedSpec(11, r)).points,
            range(8),
        ))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_rescale_identity_and_values():
    m = ms.uniform_on(np.array([[0.0], [1.0]]))
    assert np.array_equal(ms.rescale_measure(m, 1.0).points, m.points)
    d2 = ms.rescale_measure(ms.dirac([2.0]), 4.0)
    assert np.allclose(d2.points, [[1.0]])
    quarter = ms.rescale_measure(m, 0.25)
    assert np.allclose(quarter.points, [[0.0], [2.0]])


def test_rescale_roundtrip():
    stream = ms.SeedSpec(SUITE_SEED, 4).stream()
    m = ms.uniform_on(stream.uniforms(12).reshape(6, 2))
    for eps in (0.5, 2.0, 7.3):
        back = ms.rescale_measure(ms.rescale_measure(m, eps), 1.0 / eps)
        assert np.max(np.abs(back.points - m.points)) <= 1e-12


def test_rescale_rejects_nonpositive_eps():
    for eps in (0.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveEps):
            ms.rescale_measure(ms.dirac([0.0]), eps)


def test_compact_domain():
    dom = ms.CompactDomain(np.zeros(2), np.ones(2))
    assert dom.diameter == pytest.approx(np.sqrt(2.0))
    assert dom.contains(np.array([[0.5, 0.5]]))
    assert not dom.contains(np.array([[1.5, 0.5]]))
    with pytest.raises(ValueError):
        ms.CompactDomain(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        ms.CompactDomain(np.zeros(2), np.zeros(2))


def test_compact_domain_enclosing():
    m1 = ms.dirac([0.0, 3.0])
    m2 = ms.dirac([2.0, -1.0])
    dom = ms.CompactDomain.enclosing(m1, m2)
    assert np.array_equal(dom.lower, [0.0, -1.0])
    assert np.array_equal(dom.upper, [2.0, 3.0])
