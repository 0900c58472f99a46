import math

import numpy as np
import pytest

from entot import measures as ms
from entot import oracle as orc
from entot import potentials as pot
from entot import sinkhorn as sk
from entot.errors import DimensionMismatch, UnsupportedOrder, WrongNormalization
from entot.potentials import GridSpec, HolderOrder, PotentialDifference, Side
from entot.sinkhorn import Normalization, SolverConfig

from _util import SUITE_SEED, all_derivative_indices, longdouble_f_extension, random_instance


def _solved(stream, d, eps=1.0, tol=1e-12):
    P, Q = random_instance(stream, d)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=eps, tol=tol))
    return P, Q, pair


def test_extension_reproduces_support_values():
    stream = ms.SeedSpec(SUITE_SEED, 40).stream()
    for d in (1, 2, 3):
        P, Q, pair = _solved(stream, d)
        fe = pot.f_extension(pair, Q)
        f_vals = np.array([fe.extend(x) for x in P.points])
        assert np.max(np.abs(f_vals - pair.f)) <= 1e-10
        ge = pot.g_extension(pair, P)
        g_vals = np.array([ge.extend(y) for y in Q.points])
        assert np.max(np.abs(g_vals - pair.g)) <= 1e-10


def test_extension_single_atom_value():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    fe = pot.f_extension(pair, Q)
    # one-atom log-sum-exp collapses to 0.5*(1-3)^2 - 2.25
    assert fe.extend([1.0]) == pytest.approx(-0.25, abs=1e-12)


def test_extension_matches_naive_summation():
    stream = ms.SeedSpec(SUITE_SEED, 41).stream()
    P, Q, pair = _solved(stream, 2)
    fe = pot.f_extension(pair, Q)
    for _ in range(5):
        x = stream.uniforms(2)
        naive = -math.log(sum(
            b * math.exp(g - 0.5 * float(np.sum((x - y) ** 2)))
            for b, g, y in zip(Q.weights, pair.g, Q.points)
        ))
        assert fe.extend(x) == pytest.approx(naive, abs=1e-12)


def test_extension_refuses_points_of_other_dimensions():
    stream = ms.SeedSpec(SUITE_SEED, 42).stream()
    _, Q, pair = _solved(stream, 2)
    fe = pot.f_extension(pair, Q)
    with pytest.raises(DimensionMismatch):
        fe.evaluate([[0.2, 0.3, 5.0]], [(0, 0)])
    with pytest.raises(DimensionMismatch):
        fe.extend([0.2])


def test_conditional_moments_single_atom():
    P, Q = ms.dirac([1.0]), ms.dirac([3.0])
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    fe = pot.f_extension(pair, Q)
    table = pot.conditional_moments(fe, [0.7], 3)
    assert table[(0,)] == 1.0
    for k in (1, 2, 3):
        assert table[(k,)] == pytest.approx(3.0**k, rel=1e-12)


def test_conditional_moments_two_atoms_hand_computed():
    P = ms.dirac([0.0])
    Q = ms.DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    fe = pot.f_extension(pair, Q)
    x = np.array([0.2])
    logits = np.log(Q.weights) + pair.g - 0.5 * (x - Q.points[:, 0]) ** 2
    w = np.exp(logits - logits.max())
    w /= w.sum()
    table = pot.conditional_moments(fe, x, 2)
    assert table[(1,)] == pytest.approx(float(w @ Q.points[:, 0]), rel=1e-12)
    assert table[(2,)] == pytest.approx(float(w @ Q.points[:, 0] ** 2), rel=1e-12)


def test_cumulants_of_exact_normal_moments():
    mu, var = 0.7, 1.9
    moments = {
        (0,): 1.0,
        (1,): mu,
        (2,): mu**2 + var,
        (3,): mu**3 + 3 * mu * var,
        (4,): mu**4 + 6 * mu**2 * var + 3 * var**2,
    }
    kappa = pot.cumulants_from_moments(moments)
    assert kappa[(1,)] == pytest.approx(mu)
    assert kappa[(2,)] == pytest.approx(var)
    assert kappa[(3,)] == pytest.approx(0.0, abs=1e-12)
    assert kappa[(4,)] == pytest.approx(0.0, abs=1e-12)


def test_cumulants_independent_components_have_zero_cross_terms():
    # moments of a product law factorize; mixed cumulants must vanish
    m1 = {0: 1.0, 1: 0.3, 2: 0.3**2 + 0.5, 3: 0.3**3 + 3 * 0.3 * 0.5}
    m2 = {0: 1.0, 1: -1.1, 2: 1.1**2 + 2.0, 3: -(1.1**3) - 3 * 1.1 * 2.0}
    moments = {
        (i, j): m1[i] * m2[j]
        for i in range(4) for j in range(4) if i + j <= 3
    }
    kappa = pot.cumulants_from_moments(moments)
    for alpha, value in kappa.items():
        if alpha[0] >= 1 and alpha[1] >= 1:
            assert value == pytest.approx(0.0, abs=1e-12)


def test_cumulant_order_one_is_mean_and_order_two_nonnegative():
    stream = ms.SeedSpec(SUITE_SEED, 42).stream()
    P, Q, pair = _solved(stream, 2)
    fe = pot.f_extension(pair, Q)
    x = stream.uniforms(2)
    table = pot.conditional_moments(fe, x, 2)
    kappa = pot.cumulants_from_moments(table)
    assert kappa[(1, 0)] == pytest.approx(table[(1, 0)])
    assert kappa[(0, 1)] == pytest.approx(table[(0, 1)])
    assert kappa[(2, 0)] >= 0.0 and kappa[(0, 2)] >= 0.0


def test_derivative_single_atom_degenerate():
    P, Q = ms.dirac([1.0]), ms.dirac([3.0])
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    fe = pot.f_extension(pair, Q)
    assert pot.derivative(fe, [1.0], (1,)) == pytest.approx(-2.0, abs=1e-12)
    assert pot.derivative(fe, [1.0], (2,)) == pytest.approx(1.0, abs=1e-12)
    assert pot.derivative(fe, [1.0], (3,)) == pytest.approx(0.0, abs=1e-12)


def test_second_derivative_bounded_by_one():
    # d2f/dx1^2 = 1 - var of the conditional law <= 1
    stream = ms.SeedSpec(SUITE_SEED, 43).stream()
    for d in (1, 2):
        P, Q, pair = _solved(stream, d)
        fe = pot.f_extension(pair, Q)
        x = stream.uniforms(d)
        alpha = (2,) + (0,) * (d - 1)
        assert pot.derivative(fe, x, alpha) <= 1.0 + 1e-12


def test_derivative_matches_finite_differences():
    stream = ms.SeedSpec(SUITE_SEED, 44).stream()
    P, Q, pair = _solved(stream, 2)
    fe = pot.f_extension(pair, Q)
    fn = longdouble_f_extension(pair, Q)
    x = stream.uniforms(2)
    for alpha in all_derivative_indices(2, 3):
        exact = pot.derivative(fe, x, alpha)
        approx = float(orc.finite_difference(fn, x.astype(np.longdouble), alpha, 1e-4))
        assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))


def test_derivative_requires_unit_eps():
    stream = ms.SeedSpec(SUITE_SEED, 45).stream()
    P, Q, pair = _solved(stream, 1, eps=2.0, tol=1e-10)
    fe = pot.f_extension(pair, Q)
    with pytest.raises(ValueError):
        pot.derivative(fe, [0.5], (1,))
    # the extension itself is fine at any eps
    fe.extend([0.5])


def test_extension_tables_refuse_more_entries_than_the_dense_limit(monkeypatch):
    P, Q, pair = _solved(ms.SeedSpec(SUITE_SEED, 48).stream(), 2)
    fe = pot.f_extension(pair, Q)
    zero = (0, 0)
    monkeypatch.setattr(sk, "DENSE_ENTRY_LIMIT", 3 * Q.n)
    assert fe.evaluate(np.zeros((3, 2)), [zero])[zero].shape == (3,)
    with pytest.raises(ValueError, match=f"{4 * Q.n} entries"):
        fe.evaluate(np.zeros((4, 2)), [zero])
    with pytest.raises(ValueError, match="DENSE_ENTRY_LIMIT"):
        pot.check_potential_bounds(sk.normalize(pair, P, Q, Normalization.ZERO_G_MEAN), P, Q,
                                   ms.CompactDomain.enclosing(P, Q))


def test_derivative_order_limits():
    stream = ms.SeedSpec(SUITE_SEED, 46).stream()
    P, Q, pair = _solved(stream, 1)
    fe = pot.f_extension(pair, Q)
    with pytest.raises(UnsupportedOrder):
        pot.derivative(fe, [0.5], (7,))
    with pytest.raises(UnsupportedOrder):
        pot.derivative(fe, [0.5], (0,))
    with pytest.raises(UnsupportedOrder):
        pot.conditional_moments(fe, [0.5], 7)


def test_holder_order_defaults():
    assert HolderOrder.for_dimension(1).s == 1
    assert HolderOrder.for_dimension(2).s == 2
    assert HolderOrder.for_dimension(3).s == 2
    assert HolderOrder.for_dimension(4).s == 3
    with pytest.raises(ValueError):
        HolderOrder(0)


def test_grid_spec_points():
    dom = ms.CompactDomain(np.zeros(2), np.array([1.0, 2.0]))
    grid = GridSpec(dom, 3)
    pts = grid.points()
    assert pts.shape == (9, 2)
    assert pts.min(axis=0) == pytest.approx([0.0, 0.0])
    assert pts.max(axis=0) == pytest.approx([1.0, 2.0])
    assert GridSpec.default(dom).points_per_axis == 41
    dom3 = ms.CompactDomain(np.zeros(3), np.ones(3))
    assert GridSpec.default(dom3).points_per_axis == 21
    with pytest.raises(ValueError):
        GridSpec(dom, 1)


def test_holder_norm_zero_for_identical_sides():
    stream = ms.SeedSpec(SUITE_SEED, 47).stream()
    P, Q, pair = _solved(stream, 2)
    fe = pot.f_extension(pair, Q)
    grid = GridSpec(ms.CompactDomain.unit_box(2), 9)
    est = pot.holder_norm(PotentialDifference(fe, fe), HolderOrder(2), grid)
    assert est.value == 0.0
    assert est.order_terms == (0.0, 0.0, 0.0)


def test_holder_norm_constant_shift():
    stream = ms.SeedSpec(SUITE_SEED, 48).stream()
    P, Q, pair = _solved(stream, 2)
    c = 0.75
    shifted = sk.PotentialPair(pair.f + c, pair.g - c, pair.eps)
    # shifting g by -c lifts the f-side extension by +c everywhere
    delta = PotentialDifference(pot.f_extension(shifted, Q), pot.f_extension(pair, Q))
    grid = GridSpec(ms.CompactDomain.unit_box(2), 9)
    est = pot.holder_norm(delta, HolderOrder(2), grid)
    assert est.order_terms[0] == pytest.approx(c, abs=1e-12)
    assert est.value == pytest.approx(c, abs=1e-10)


def test_holder_norm_solver_self_consistency():
    stream = ms.SeedSpec(SUITE_SEED, 49).stream()
    P, Q = random_instance(stream, 2)
    loose, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-9))
    tight, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12))
    loose = sk.normalize(loose, P, Q, Normalization.ZERO_G_MEAN)
    tight = sk.normalize(tight, P, Q, Normalization.ZERO_G_MEAN)
    delta = PotentialDifference(pot.f_extension(loose, Q), pot.f_extension(tight, Q))
    grid = GridSpec(ms.CompactDomain.unit_box(2), 21)
    est = pot.holder_norm(delta, HolderOrder(2), grid)
    assert est.value <= 1e-6


class _Scaled:
    def __init__(self, inner, factor):
        self.inner = inner
        self.factor = factor

    def evaluate(self, points, alphas):
        table = self.inner.evaluate(points, alphas)
        return {a: self.factor * v for a, v in table.items()}


class _Sum:
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, points, alphas):
        lt = self.left.evaluate(points, alphas)
        rt = self.right.evaluate(points, alphas)
        return {a: lt[a] + rt[a] for a in lt}


def test_holder_norm_is_a_norm_on_grid_values():
    stream = ms.SeedSpec(SUITE_SEED, 50).stream()
    P, Q, pair1 = _solved(stream, 2)
    P2, Q2, pair2 = _solved(stream, 2)
    grid = GridSpec(ms.CompactDomain.unit_box(2), 9)
    order = HolderOrder(2)
    d1 = PotentialDifference(pot.f_extension(pair1, Q), pot.f_extension(pair2, Q2))
    d2 = PotentialDifference(pot.f_extension(pair2, Q2), pot.f_extension(pair1, Q))
    n1 = pot.holder_norm(d1, order, grid).value
    # absolute homogeneity, exact for a power-of-two factor
    assert pot.holder_norm(_Scaled(d1, -2.0), order, grid).value == 2.0 * n1
    # triangle inequality up to per-point rounding in the sum
    n2 = pot.holder_norm(d2, order, grid).value
    n_sum = pot.holder_norm(_Sum(d1, d2), order, grid).value
    assert n_sum <= n1 + n2 + 1e-15 * (n1 + n2)


def test_check_potential_bounds_dirac():
    P = ms.dirac([0.0])
    pair, _ = sk.solve(P, P, SolverConfig(eps=1.0, tol=1e-12))
    pair = sk.normalize(pair, P, P, Normalization.ZERO_G_MEAN)
    dom = ms.CompactDomain(np.zeros(1), np.ones(1))
    report = pot.check_potential_bounds(pair, P, P, dom)
    assert report.max_abs_f <= 0.5 * dom.diameter**2 + 1e-6
    assert report.sup_ok and report.lipschitz_ok


def test_check_potential_bounds_two_atoms():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    pair, _ = sk.solve(P, P, SolverConfig(eps=1.0, tol=1e-10))
    pair = sk.normalize(pair, P, P, Normalization.ZERO_G_MEAN)
    dom = ms.CompactDomain(np.zeros(1), np.ones(1))
    report = pot.check_potential_bounds(pair, P, P, dom)
    assert max(report.max_abs_f, report.max_abs_g) <= 0.5 + 1e-6
    assert report.lipschitz_ratio <= 1.0 + 1e-6


def test_check_potential_bounds_normalization_gate():
    stream = ms.SeedSpec(SUITE_SEED, 51).stream()
    P, Q, pair = _solved(stream, 2)
    dom = ms.CompactDomain.unit_box(2)
    with pytest.raises(WrongNormalization):
        pot.check_potential_bounds(pair, P, Q, dom)  # pair is EQUAL_MEANS
    g0 = sk.normalize(pair, P, Q, Normalization.ZERO_G_MEAN)
    pot.check_potential_bounds(g0, P, Q, dom)


def test_check_potential_bounds_preconditions():
    P = ms.dirac([2.0])
    pair, _ = sk.solve(P, P, SolverConfig(eps=1.0, tol=1e-12))
    pair = sk.normalize(pair, P, P, Normalization.ZERO_G_MEAN)
    dom = ms.CompactDomain(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        pot.check_potential_bounds(pair, P, P, dom)  # support outside domain
    P2 = ms.dirac([0.5])
    pair2, _ = sk.solve(P2, P2, SolverConfig(eps=2.0, tol=1e-12))
    pair2 = sk.normalize(pair2, P2, P2, Normalization.ZERO_G_MEAN)
    with pytest.raises(ValueError):
        pot.check_potential_bounds(pair2, P2, P2, dom)  # eps != 1


def test_multi_indices_graded_lex():
    idx = pot.multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_side_enum_roundtrip():
    stream = ms.SeedSpec(SUITE_SEED, 52).stream()
    P, Q, pair = _solved(stream, 1)
    assert pot.f_extension(pair, Q).side is Side.F
    assert pot.g_extension(pair, P).side is Side.G
