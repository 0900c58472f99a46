import math

import numpy as np
import pytest

from entot import inference as inf
from entot import measures as ms
from entot import sinkhorn as sk
from entot.errors import DimensionMismatch, OutOfRange
from entot.inference import VarianceKind
from entot.sinkhorn import PotentialPair, SolverConfig

from _util import SUITE_SEED, random_instance


def _pair(f, g, eps=1.0):
    return PotentialPair(np.asarray(f, dtype=float), np.asarray(g, dtype=float), eps)


def test_variance_constant_potential_is_zero():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    est = inf.variance_one_sample(P, _pair([3.0, 3.0], [0.0, 0.0]))
    assert est.value == 0.0
    assert est.kind is VarianceKind.ONE_SAMPLE and est.n == 2 and est.m == 0


def test_row_variance_propagates_nan_instead_of_clamping_it():
    # a NaN potential gives a NaN variance, not 0 and so a zero-width
    # interval; the other rows keep their own values
    f = np.array([[np.nan, 1.0], [0.0, 1.0], [3.0, 3.0]])
    var = inf._weighted_variance(f, np.full((3, 2), 0.5))
    assert np.isnan(var[0]) and var[1:].tolist() == [0.25, 0.0]


def test_variance_bernoulli_quarter():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    est = inf.variance_one_sample(P, _pair([0.0, 1.0], [0.0, 0.0]))
    assert est.value == pytest.approx(0.25)


def test_variance_matches_direct_atom_computation():
    stream = ms.SeedSpec(SUITE_SEED, 60).stream()
    P, Q = random_instance(stream, 2)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    mean = float(pair.f @ P.weights)
    direct = float(((pair.f - mean) ** 2) @ P.weights)
    assert inf.variance_one_sample(P, pair).value == pytest.approx(direct, abs=1e-10)


def test_variance_two_sample_values():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    Q = ms.uniform_on(np.array([[0.0], [1.0]]))
    est = inf.variance_two_sample(P, Q, _pair([0.0, 1.0], [0.0, 3.0]))
    assert est.value == pytest.approx(0.5 * 0.25 + 0.5 * 2.25)
    assert est.kind is VarianceKind.TWO_SAMPLE and (est.n, est.m) == (2, 2)
    zero = inf.variance_two_sample(P, Q, _pair([5.0, 5.0], [-1.0, -1.0]))
    assert zero.value == 0.0


def test_variance_equal_sizes_average():
    stream = ms.SeedSpec(SUITE_SEED, 61).stream()
    n = 6
    P = ms.uniform_on(stream.uniforms(n).reshape(n, 1))
    Q = ms.uniform_on(stream.uniforms(n).reshape(n, 1))
    f = stream.uniforms(n)
    g = stream.uniforms(n)
    pair = _pair(f, g)
    var_f = inf.variance_one_sample(P, pair).value
    var_g = float(((g - g.mean()) ** 2).mean())
    combined = inf.variance_two_sample(P, Q, pair).value
    assert combined == pytest.approx(0.5 * var_f + 0.5 * var_g, abs=1e-12)


def test_variance_shift_invariance():
    stream = ms.SeedSpec(SUITE_SEED, 62).stream()
    P, Q = random_instance(stream, 2)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-10))
    base_one = inf.variance_one_sample(P, pair).value
    base_two = inf.variance_two_sample(P, Q, pair).value
    for c in (-7.0, 0.3):
        shifted = PotentialPair(pair.f + c, pair.g - c, pair.eps)
        assert inf.variance_one_sample(P, shifted).value == pytest.approx(
            base_one, rel=1e-12, abs=1e-15)
        assert inf.variance_two_sample(P, Q, shifted).value == pytest.approx(
            base_two, rel=1e-12, abs=1e-15)


def test_variance_dimension_mismatch():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    with pytest.raises(DimensionMismatch):
        inf.variance_one_sample(P, _pair([1.0], [0.0]))
    with pytest.raises(DimensionMismatch):
        inf.variance_two_sample(P, P, _pair([1.0, 2.0], [0.0]))


def test_normal_quantile_values():
    assert abs(inf.normal_quantile(0.5)) <= 1e-9
    assert inf.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert inf.normal_quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-8)


def test_normal_quantile_symmetry():
    for beta in (0.6, 0.9, 0.99, 0.999999):
        assert abs(inf.normal_quantile(beta) + inf.normal_quantile(1 - beta)) <= 1e-9


def test_normal_quantile_out_of_range():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(OutOfRange):
            inf.normal_quantile(bad)


def test_normal_cdf_against_stdlib_erf():
    xs = np.linspace(-8.0, 8.0, 3203)
    worst = max(
        abs(inf.normal_cdf(float(x)) - 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2.0))))
        for x in xs
    )
    assert worst <= 1e-13


def test_normal_quantile_roundtrip():
    for beta in (0.025, 0.31, 0.5, 0.84, 0.975, 0.999):
        z = inf.normal_quantile(beta)
        assert inf.normal_cdf(z) == pytest.approx(beta, abs=1e-9)


def test_half_width_scaling_identity():
    z = inf.normal_quantile(0.975)
    for n in (10, 500, 4096):
        a = inf.one_sample_half_width(1.7, n, z)
        b = inf.one_sample_half_width(1.7, 2 * n, z)
        assert a == pytest.approx(b * math.sqrt(2.0), rel=1e-12)
    # two-sample formula reduces to sqrt(2/n) at equal sizes
    hw = inf.two_sample_half_width(1.7, 100, 100, z)
    assert hw == pytest.approx(z * math.sqrt(1.7 * 2 / 100), rel=1e-12)


def test_ci_one_sample_degenerate():
    P = ms.dirac([0.4])
    sample = ms.sample_empirical(P, 5, ms.SeedSpec(1, 0))
    ci = inf.ci_one_sample(sample, P, SolverConfig(eps=1.0, tol=1e-10), 0.05)
    assert ci.center == pytest.approx(0.0, abs=1e-12)
    assert ci.half_width == pytest.approx(0.0, abs=1e-12)
    assert ci.contains(0.0)


def test_ci_width_shrinks_as_alpha_grows():
    stream = ms.SeedSpec(SUITE_SEED, 63).stream()
    P, Q = random_instance(stream, 2)
    P_n = ms.sample_empirical(P, 60, ms.SeedSpec(SUITE_SEED, 64))
    cfg = SolverConfig(eps=1.0, tol=1e-9)
    wide = inf.ci_one_sample(P_n, Q, cfg, 0.05)
    narrow = inf.ci_one_sample(P_n, Q, cfg, 0.9999)
    assert narrow.center == pytest.approx(wide.center, abs=1e-12)
    assert narrow.half_width < 1e-3 * max(wide.half_width, 1e-30) or wide.half_width == 0.0


def test_ci_one_sample_coverage_band():
    # fixed discrete pair, n=500, 300 replicates, nominal 0.95
    stream = ms.SeedSpec(SUITE_SEED, 100).stream()
    P = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    Q = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    cfg = SolverConfig(eps=1.0, tol=1e-9)
    truth_pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12, max_iter=10**6))
    truth = sk.cost(P, Q, truth_pair, tol=1e-12)
    hits = 0
    for r in range(300):
        P_n = ms.sample_empirical(P, 500, ms.SeedSpec(SUITE_SEED, 1000 + r))
        hits += inf.ci_one_sample(P_n, Q, cfg, 0.05).contains(truth)
    assert 0.90 <= hits / 300 <= 0.98


def test_ci_two_sample_degenerate():
    P = ms.dirac([0.0])
    a = ms.sample_empirical(P, 4, ms.SeedSpec(2, 0))
    b = ms.sample_empirical(P, 4, ms.SeedSpec(2, 1))
    ci = inf.ci_two_sample(a, b, SolverConfig(eps=1.0, tol=1e-10), 0.05)
    assert ci.center == 0.0 and ci.half_width == 0.0
    assert ci.contains(0.0)


def test_ci_alpha_validation():
    P = ms.dirac([0.0])
    cfg = SolverConfig(eps=1.0)
    for bad in (0.0, 1.0):
        with pytest.raises(OutOfRange):
            inf.ci_one_sample(P, P, cfg, bad)
        with pytest.raises(OutOfRange):
            inf.ci_two_sample(P, P, cfg, bad)


def test_two_sample_variance_estimator_consistency():
    # the plug-in estimate from one large empirical solve approaches the
    # population value, computed exactly from the tight population pair
    stream = ms.SeedSpec(SUITE_SEED, 200).stream()
    P = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    Q = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    pop_pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-13, max_iter=10**6))
    population = inf.variance_two_sample(P, Q, pop_pair).value
    s = ms.SeedSpec(SUITE_SEED, 300).stream()
    P_n = ms.sample_empirical(P, 3000, s)
    Q_m = ms.sample_empirical(Q, 3000, s)
    pair, _ = sk.solve(P_n, Q_m, SolverConfig(eps=1.0, tol=1e-9))
    estimate = inf.variance_two_sample(P_n, Q_m, pair).value
    assert estimate == pytest.approx(population, rel=0.10)


def test_divergence_zero_on_equal():
    stream = ms.SeedSpec(SUITE_SEED, 65).stream()
    P, _ = random_instance(stream, 2)
    cfg = SolverConfig(eps=1.0, tol=1e-9)
    div = inf.sinkhorn_divergence(P, P, cfg)
    assert abs(div.value) <= 100 * cfg.tol


def test_divergence_symmetry():
    stream = ms.SeedSpec(SUITE_SEED, 66).stream()
    P, Q = random_instance(stream, 2)
    cfg = SolverConfig(eps=1.0, tol=1e-10)
    d_pq = inf.sinkhorn_divergence(P, Q, cfg)
    d_qp = inf.sinkhorn_divergence(Q, P, cfg)
    assert abs(d_pq.value - d_qp.value) <= 100 * cfg.tol


def test_divergence_nonnegative():
    stream = ms.SeedSpec(SUITE_SEED, 67).stream()
    cfg = SolverConfig(eps=1.0, tol=1e-10)
    for d in (1, 2, 3):
        P, Q = random_instance(stream, d)
        assert inf.sinkhorn_divergence(P, Q, cfg).value >= -100 * cfg.tol


def test_divergence_dirac_pair():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    for eps in (0.5, 1.0, 4.0):
        div = inf.sinkhorn_divergence(P, Q, SolverConfig(eps=eps, tol=1e-12))
        assert div.value == pytest.approx(4.5, abs=1e-11)
        assert div.parts[0] == pytest.approx(4.5, abs=1e-11)
        assert div.parts[1] == pytest.approx(0.0, abs=1e-12)
        assert div.parts[2] == pytest.approx(0.0, abs=1e-12)
        assert div.value == div.parts[0] - 0.5 * (div.parts[1] + div.parts[2])


def test_normal_quantile_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    for beta in (1e-12, 1e-6, 0.025, 0.3, 0.5, 0.84, 0.975, 1 - 1e-6, 1 - 1e-12):
        assert inf.normal_quantile(beta) == pytest.approx(stats.norm.ppf(beta), rel=1e-12)
        z = float(stats.norm.ppf(beta))
        assert inf.normal_cdf(z) == pytest.approx(stats.norm.cdf(z), rel=1e-12)
