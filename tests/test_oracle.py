import math

import numpy as np
import pytest

from entot import measures as ms
from entot import oracle as orc
from entot import sinkhorn as sk
from entot.errors import NotConverged, UnsupportedOrder
from entot.oracle import GaussianPairSpec
from entot.sinkhorn import SolverConfig

from _util import SUITE_SEED, random_instance


def test_gaussian_cost_printed_value():
    # independent arithmetic with frozen constants sqrt(2) and log(1+sqrt(2))
    expected = 2 * 2 - (2 / 2) * (
        2 * 1.4142136 - 2 * 0.8813736 + 2 * math.log(2.0) - 2
    )
    value = orc.gaussian_cost(GaussianPairSpec(2, 2.0))
    assert value == pytest.approx(expected, abs=1e-6)
    assert value == pytest.approx(3.548026, abs=1e-6)


def test_gaussian_cost_linear_in_dimension():
    assert orc.gaussian_cost(GaussianPairSpec(1, 2.0)) == pytest.approx(1.774013, abs=1e-6)
    for eps in (0.5, 2.0, 10.0):
        one = orc.gaussian_cost(GaussianPairSpec(1, eps))
        for d in (2, 3, 7):
            assert orc.gaussian_cost(GaussianPairSpec(d, eps)) == pytest.approx(
                d * one, rel=1e-14)
        assert orc.gaussian_cost(GaussianPairSpec(6, eps)) == pytest.approx(
            2 * orc.gaussian_cost(GaussianPairSpec(3, eps)), rel=1e-15)


def test_gaussian_cost_monotone_in_eps():
    # the relative-entropy penalty grows with eps, so the optimal value rises
    # from the unregularized cost d toward the product-coupling cost 2d
    grid = [0.5, 1.0, 2.0, 5.0, 10.0]
    for d in (1, 2, 10):
        values = [orc.gaussian_cost(GaussianPairSpec(d, e)) for e in grid]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi
        assert d < values[0] and values[-1] < 2 * d


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianPairSpec(0, 1.0)
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GaussianPairSpec(2, eps)


def test_brute_force_dirac_pair_exact():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    pair = orc.brute_force_potentials(P, Q, 1.0)
    assert pair.f[0] == pytest.approx(2.25, abs=1e-15)
    assert pair.g[0] == pytest.approx(2.25, abs=1e-15)


def test_brute_force_reaches_machine_residual():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    Q = ms.uniform_on(np.array([[0.3], [0.9]]))
    pair = orc.brute_force_potentials(P, Q, 0.5)
    assert sk.optimality_residual(P, Q, pair) <= 1e-13


def test_brute_force_agrees_with_solver():
    stream = ms.SeedSpec(SUITE_SEED, 70).stream()
    P, Q = random_instance(stream, 2)
    solved, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    bf = orc.brute_force_potentials(P, Q, 1.0)
    assert np.max(np.abs(solved.f - bf.f)) <= 1e-10
    assert np.max(np.abs(solved.g - bf.g)) <= 1e-10


def test_brute_force_support_cap():
    big = ms.uniform_on(np.arange(11, dtype=float))
    with pytest.raises(ValueError):
        orc.brute_force_potentials(big, big, 1.0)


def test_brute_force_iteration_cap():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    Q = ms.uniform_on(np.array([[0.25], [0.75]]))
    with pytest.raises(NotConverged):
        orc.brute_force_potentials(P, Q, 0.05, max_iter=1)


def test_finite_difference_quadratic():
    fn = lambda x: 0.5 * float(x[0]) ** 2
    for x0 in (-1.3, 0.0, 2.7):
        val = orc.finite_difference(fn, np.array([x0]), (2,), 1e-4)
        assert val == pytest.approx(1.0, abs=1e-6)
        grad = orc.finite_difference(fn, np.array([x0]), (1,), 1e-4)
        assert grad == pytest.approx(x0, abs=1e-8)


def test_finite_difference_constant():
    fn = lambda x: 4.25
    assert orc.finite_difference(fn, np.array([0.3]), (1,), 1e-4) == pytest.approx(0.0, abs=1e-8)
    assert orc.finite_difference(fn, np.array([0.3]), (3,), 1e-4) == pytest.approx(0.0, abs=1e-4)


def test_finite_difference_mixed_partials():
    fn = lambda x: float(x[0]) ** 2 * float(x[1])
    val = orc.finite_difference(fn, np.array([0.7, -0.2]), (2, 1), 1e-4)
    assert val == pytest.approx(2.0, abs=1e-4)
    val = orc.finite_difference(fn, np.array([0.7, -0.2]), (1, 1), 1e-4)
    assert val == pytest.approx(2 * 0.7, abs=1e-6)


def test_finite_difference_order_zero_and_limits():
    fn = lambda x: float(x[0])
    assert orc.finite_difference(fn, np.array([1.5]), (0,), 1e-4) == 1.5
    with pytest.raises(UnsupportedOrder):
        orc.finite_difference(fn, np.array([1.5]), (4,), 1e-4)
    with pytest.raises(UnsupportedOrder):
        orc.finite_difference(fn, np.array([1.5]), (-1,), 1e-4)
    with pytest.raises(ValueError):
        orc.finite_difference(fn, np.array([1.5]), (1,), 0.0)


def test_finite_difference_preserves_longdouble():
    fn = lambda x: x[0] ** 3
    x = np.array([0.5], dtype=np.longdouble)
    out = orc.finite_difference(fn, x, (2,), np.longdouble(1e-5))
    assert isinstance(out, np.longdouble)
    assert float(out) == pytest.approx(3.0, abs=1e-8)
