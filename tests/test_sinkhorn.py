import numpy as np
import pytest

from entot import measures as ms
from entot import oracle as orc
from entot import sinkhorn as sk
from entot.errors import DimensionMismatch, NegativeEntry, NotConverged, NotOptimal
from entot.sinkhorn import Normalization, PotentialPair, SolverConfig

from _util import SUITE_SEED, random_instance


def _dirac_pair(z=3.0, eps=1.0, tol=1e-12):
    P, Q = ms.dirac([0.0]), ms.dirac([z])
    pair, report = sk.solve(P, Q, SolverConfig(eps=eps, tol=tol))
    return P, Q, pair, report


def test_dirac_pair_split_evenly():
    P, Q, pair, report = _dirac_pair()
    assert pair.f[0] == pytest.approx(2.25, abs=1e-12)
    assert pair.g[0] == pytest.approx(2.25, abs=1e-12)
    assert sk.cost(P, Q, pair, tol=1e-12) == pytest.approx(4.5, abs=1e-12)
    assert report.converged and report.final_residual <= 1e-12


def test_identical_diracs_zero():
    P = ms.dirac([0.0])
    pair, _ = sk.solve(P, P, SolverConfig(eps=1.0, tol=1e-12))
    assert pair.f[0] == 0.0 and pair.g[0] == 0.0
    assert sk.cost(P, P, pair, tol=1e-12) == 0.0


def test_two_atom_self_transport_matches_brute_force():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    pair, _ = sk.solve(P, P, SolverConfig(eps=1.0, tol=1e-12))
    bf = orc.brute_force_potentials(P, P, 1.0)
    assert np.max(np.abs(pair.f - bf.f)) <= 1e-8
    assert np.max(np.abs(pair.g - bf.g)) <= 1e-8
    primal = sk.primal_cost(P, P, sk.plan(P, P, pair), 1.0)
    assert sk.cost(P, P, pair, tol=1e-12) == pytest.approx(primal, abs=1e-8)


def test_dual_objective_equals_cost_at_optimum():
    stream = ms.SeedSpec(SUITE_SEED, 20).stream()
    P, Q = random_instance(stream, 2)
    pair, report = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-10))
    assert report.dual_value == pytest.approx(sk.cost(P, Q, pair), abs=1e-8)


def test_dual_objective_shift_invariance():
    stream = ms.SeedSpec(SUITE_SEED, 21).stream()
    P, Q = random_instance(stream, 2)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=0.7, tol=1e-10))
    base = sk.dual_objective(P, Q, pair)
    for c in (-3.0, 0.125, 11.0):
        shifted = PotentialPair(pair.f + c, pair.g - c, pair.eps)
        assert sk.dual_objective(P, Q, shifted) == pytest.approx(base, abs=1e-12)


def test_dual_objective_zero_potentials_on_diracs():
    P = ms.dirac([0.0])
    pair = PotentialPair(np.zeros(1), np.zeros(1), 1.0)
    assert sk.dual_objective(P, P, pair) == pytest.approx(0.0, abs=1e-15)


def test_cost_rejects_non_optimal_pair():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    junk = PotentialPair(np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(NotOptimal):
        sk.cost(P, Q, junk, tol=1e-9)


def test_cost_accepts_shifted_optimal_pair():
    P, Q, pair, _ = _dirac_pair()
    shifted = PotentialPair(pair.f + 5.0, pair.g - 5.0, pair.eps)
    assert sk.cost(P, Q, shifted, tol=1e-12) == pytest.approx(4.5, abs=1e-11)


def test_plan_single_atom():
    P, Q, pair, _ = _dirac_pair()
    assert sk.plan(P, Q, pair).entries == pytest.approx(np.array([[1.0]]), abs=1e-12)


def test_plan_large_eps_approaches_product():
    P = ms.uniform_on(np.array([[0.0], [1.0]]))
    pair, _ = sk.solve(P, P, SolverConfig(eps=100.0, tol=1e-12))
    entries = sk.plan(P, P, pair).entries
    assert np.max(np.abs(entries - 0.25)) <= 1e-3
    bf = orc.brute_force_potentials(P, P, 100.0)
    assert np.max(np.abs(pair.f - bf.f)) <= 1e-10


def test_plan_marginals_within_tol():
    stream = ms.SeedSpec(SUITE_SEED, 22).stream()
    for d, eps in [(1, 0.5), (2, 1.0), (3, 2.0)]:
        P, Q = random_instance(stream, d)
        tol = 1e-9
        pair, _ = sk.solve(P, Q, SolverConfig(eps=eps, tol=tol))
        entries = sk.plan(P, Q, pair).entries
        assert np.all(entries >= 0)
        assert np.max(np.abs(entries.sum(axis=1) - P.weights)) <= tol
        assert np.max(np.abs(entries.sum(axis=0) - Q.weights)) <= tol


def test_plan_matches_the_log_plan_formula():
    # plan() reads the coupling off an f half-step; this is the entrywise
    # formula it replaced, on pairs with g = g_from(f) (f is not f_from(g)).
    stream = ms.SeedSpec(SUITE_SEED, 34).stream()
    for _ in range(200):
        d = 1 + int(3 * stream.next_float())
        n, m = (1 + int(8 * stream.next_float()) for _ in range(2))
        X, Y = (4.0 * stream.uniforms(k * d).reshape(k, d) - 2.0 for k in (n, m))
        # about a third of the atoms carry no weight; at least one carries some
        a, b = (np.where(stream.uniforms(k) < 0.3, 0.0, stream.uniforms(k) + 0.1)
                for k in (n, m))
        a[0] = b[-1] = 1.0
        P, Q = ms.DiscreteMeasure(X, a / a.sum()), ms.DiscreteMeasure(Y, b / b.sum())
        eps = 0.05 * 40.0 ** stream.next_float()
        f = 2.0 * stream.uniforms(n) - 1.0
        g = sk._Updates(P, Q, eps).g_from(f)
        C = 0.5 * np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)
        with np.errstate(divide="ignore"):
            want = np.exp(np.log(P.weights)[:, None] + np.log(Q.weights)[None, :]
                          + (f[:, None] + g[None, :] - C) / eps)
        got = sk.plan(P, Q, sk.PotentialPair(f, g, eps)).entries
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(want))


def test_primal_cost_product_plan():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    product = sk.TransportPlan(np.array([[1.0]]))
    assert sk.primal_cost(P, Q, product, 1.0) == pytest.approx(4.5)


def test_primal_cost_product_of_marginals_has_no_entropy():
    stream = ms.SeedSpec(SUITE_SEED, 23).stream()
    P, Q = random_instance(stream, 2)
    product = sk.TransportPlan(P.weights[:, None] * Q.weights[None, :])
    C = sk.half_sq_cost(P.points, Q.points)
    expected = float(np.sum(product.entries * C))
    # entropy term vanishes, so the value must not depend on eps
    assert sk.primal_cost(P, Q, product, 1.0) == pytest.approx(expected, abs=1e-12)
    assert sk.primal_cost(P, Q, product, 9.0) == pytest.approx(expected, abs=1e-12)


def test_strong_duality_on_random_instances():
    stream = ms.SeedSpec(SUITE_SEED, 24).stream()
    for d, eps in [(1, 1.0), (2, 0.5), (3, 2.0)]:
        P, Q = random_instance(stream, d)
        tol = 1e-10
        pair, _ = sk.solve(P, Q, SolverConfig(eps=eps, tol=tol))
        primal = sk.primal_cost(P, Q, sk.plan(P, Q, pair), eps)
        dual = sk.dual_objective(P, Q, pair)
        assert abs(primal - dual) <= 100 * tol
        # solve-plan primal matches the potential cost tightly
        assert primal == pytest.approx(sk.cost(P, Q, pair, tol=tol), abs=1e-7)


def test_primal_cost_rejects_negative_entries():
    P, Q = ms.dirac([0.0]), ms.dirac([3.0])
    with pytest.raises(NegativeEntry):
        sk.TransportPlan(np.array([[-1e-3]]))
    good = sk.TransportPlan(np.array([[1.0]]))
    bad = np.array([[-1e-3]])
    bad_plan = object.__new__(sk.TransportPlan)
    object.__setattr__(bad_plan, "entries", bad)
    with pytest.raises(NegativeEntry):
        sk.primal_cost(P, Q, bad_plan, 1.0)
    assert sk.primal_cost(P, Q, good, 1.0) == pytest.approx(4.5)


def test_normalize_equal_means():
    P = ms.dirac([0.0])
    pair = PotentialPair(np.array([1.0]), np.array([0.0]), 1.0)
    out = sk.normalize(pair, P, P, Normalization.EQUAL_MEANS)
    assert out.f[0] == pytest.approx(0.5) and out.g[0] == pytest.approx(0.5)


def test_normalize_zero_g_mean():
    P = ms.dirac([0.0])
    pair = PotentialPair(np.array([0.0]), np.array([2.0]), 1.0)
    out = sk.normalize(pair, P, P, Normalization.ZERO_G_MEAN)
    assert out.g[0] == 0.0 and out.f[0] == pytest.approx(2.0)


def test_normalize_preserves_dual_value():
    stream = ms.SeedSpec(SUITE_SEED, 25).stream()
    P, Q = random_instance(stream, 2)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-10))
    base = sk.dual_objective(P, Q, pair)
    for conv in Normalization:
        out = sk.normalize(pair, P, Q, conv)
        assert sk.dual_objective(P, Q, out) == pytest.approx(base, abs=1e-12)


def test_normalization_identities_hold():
    stream = ms.SeedSpec(SUITE_SEED, 26).stream()
    P, Q = random_instance(stream, 3)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-10))
    eq = sk.normalize(pair, P, Q, Normalization.EQUAL_MEANS)
    assert abs(eq.f @ P.weights - eq.g @ Q.weights) <= 1e-10
    g0 = sk.normalize(pair, P, Q, Normalization.ZERO_G_MEAN)
    assert abs(g0.g @ Q.weights) <= 1e-10


def test_exchange_symmetry():
    stream = ms.SeedSpec(SUITE_SEED, 27).stream()
    P, Q = random_instance(stream, 2)
    tol = 1e-10
    pair_pq, _ = sk.solve(P, Q, SolverConfig(eps=1.3, tol=tol))
    pair_qp, _ = sk.solve(Q, P, SolverConfig(eps=1.3, tol=tol))
    assert abs(sk.cost(P, Q, pair_pq, tol=tol) - sk.cost(Q, P, pair_qp, tol=tol)) <= 100 * tol
    plan_pq = sk.plan(P, Q, pair_pq).entries
    plan_qp = sk.plan(Q, P, pair_qp).entries
    assert np.max(np.abs(plan_pq - plan_qp.T)) <= 100 * tol


def test_cost_nonnegative():
    stream = ms.SeedSpec(SUITE_SEED, 28).stream()
    tol = 1e-10
    for d in (1, 2, 3):
        P, Q = random_instance(stream, d)
        pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=tol))
        assert sk.cost(P, Q, pair, tol=tol) >= -100 * tol


def test_scaling_identity_smoke():
    stream = ms.SeedSpec(SUITE_SEED, 29).stream()
    P, Q = random_instance(stream, 2)
    tol = 1e-10
    for eps in (0.5, 2.0):
        pair, _ = sk.solve(P, Q, SolverConfig(eps=eps, tol=tol))
        native = sk.cost(P, Q, pair, tol=tol)
        Ps, Qs = ms.rescale_measure(P, eps), ms.rescale_measure(Q, eps)
        pair1, _ = sk.solve(Ps, Qs, SolverConfig(eps=1.0, tol=tol))
        assert native == pytest.approx(eps * sk.cost(Ps, Qs, pair1, tol=tol), abs=100 * tol)


def test_blocked_cost_path_matches_dense():
    stream = ms.SeedSpec(SUITE_SEED, 30).stream()
    P, Q = random_instance(stream, 2, max_atoms=9)
    dense_pair, dense_report = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-11))
    blocked_pair, blocked_report = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-11),
                                            dense_entry_limit=4)
    assert (dense_report.path, blocked_report.path) == ("kernel", "blocked")
    assert blocked_report.optimality_residual <= 10 * 1e-11
    assert np.max(np.abs(dense_pair.f - blocked_pair.f)) <= 1e-12
    assert np.max(np.abs(dense_pair.g - blocked_pair.g)) <= 1e-12
    assert blocked_report.dual_value == pytest.approx(dense_report.dual_value, abs=1e-12)


def test_not_converged_carries_report_and_pair():
    stream = ms.SeedSpec(SUITE_SEED, 31).stream()
    P, Q = random_instance(stream, 2)
    with pytest.raises(NotConverged) as info:
        sk.solve(P, Q, SolverConfig(eps=0.05, tol=1e-12, max_iter=2))
    err = info.value
    assert err.report is not None and not err.report.converged
    assert err.report.iterations == 2
    assert err.report.final_residual > 1e-12
    assert err.pair is not None and err.pair.f.shape[0] == P.n


def test_dimension_mismatch_raises():
    P = ms.dirac([0.0])
    Q2 = ms.dirac([0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        sk.solve(P, Q2, SolverConfig(eps=1.0))
    pair = PotentialPair(np.zeros(2), np.zeros(1), 1.0)
    with pytest.raises(DimensionMismatch):
        sk.cost(P, P, pair)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=1.0, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=1.0, max_iter=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(eps=bad)
        with pytest.raises(ValueError):
            SolverConfig(eps=1.0, tol=bad)
        with pytest.raises(ValueError):
            PotentialPair(np.zeros(1), np.zeros(1), bad)


def test_solve_report_defaults_keep_positional_construction():
    report = sk.SolveReport(3, 1e-10, 0.5, True)
    assert report.path == "log" and report.optimality_residual == np.inf
    assert report.relaxation == 1.0


@pytest.mark.parametrize("n", [1, 64, 65, 130])
def test_half_sq_cost_slabs_match_per_axis_sum(n):
    # 512 columns make 64-row slabs: row counts below, at, just above and at
    # twice the slab height. The transposed build (n columns, the g step's
    # blocked slabs) has one slab of 512 rows at n <= 64, two at 65, three at 130.
    stream = ms.SeedSpec(SUITE_SEED, 61).stream()
    X = stream.uniforms(n * 3).reshape(n, 3)
    Y = stream.uniforms(512 * 3).reshape(512, 3)
    assert sk._COST_SLAB_ENTRIES // 512 == 64
    want = np.zeros((n, 512))
    for k in range(3):
        want += (X[:, k, None] - Y[None, :, k]) ** 2
    want *= 0.5
    assert sk.half_sq_cost(X, Y).tobytes() == want.tobytes()
    out = np.full((n, 512), np.nan)
    assert sk.half_sq_cost(X, Y, out=out) is out and out.tobytes() == want.tobytes()
    assert sk.half_sq_cost(Y, X).tobytes() == np.ascontiguousarray(want.T).tobytes()


# Sweeps the plain iteration needed on the pair below (measured before
# overrelaxation was added).
_PLAIN_SWEEPS = 51


def _small_eps_gaussian_solve(tol=1e-9):
    """Solve of one seeded d=2 Gaussian pair at eps=0.5, n=m=250."""
    stream = ms.SeedSpec(SUITE_SEED, 60).stream()
    P = ms.sample_gaussian(np.zeros(2), 1.0, 250, stream)
    Q = ms.sample_gaussian(np.full(2, np.sqrt(2.0)), 1.0, 250, stream)
    return sk.solve(P, Q, SolverConfig(eps=0.5, tol=tol))


def test_overrelaxation_engages_at_small_eps():
    _, report = _small_eps_gaussian_solve()
    assert report.relaxation > 1.0


def test_overrelaxation_cuts_sweeps_by_a_quarter():
    _, report = _small_eps_gaussian_solve()
    assert report.iterations <= 0.75 * _PLAIN_SWEEPS


def test_relaxed_stop_rule_bounds_the_two_sided_residual():
    _, report = _small_eps_gaussian_solve()
    assert report.relaxation > 1.0
    assert report.optimality_residual <= report.final_residual <= 1e-9


def test_relaxed_solve_matches_a_tight_solve():
    pair, report = _small_eps_gaussian_solve()
    tight, _ = _small_eps_gaussian_solve(tol=1e-13)
    assert report.relaxation > 1.0
    assert np.max(np.abs(pair.f - tight.f)) <= 1e-8
    assert np.max(np.abs(pair.g - tight.g)) <= 1e-8


def _stalling_problem(index):
    """Problem ``index`` of a seeded set: 2-3 atoms against 5-8 in [-2, 2]^3,
    about 30% zero weights, eps in [0.05, 0.075)."""
    rng = np.random.default_rng(11)
    for _ in range(index + 1):
        n, m = rng.integers(2, 4), rng.integers(5, 9)
        X, Y = (4 * rng.random((k, 3)) - 2 for k in (n, m))
        a, b = (np.where(rng.random(k) < 0.3, 0.0, rng.random(k) + 0.1) for k in (n, m))
        a[0] = b[-1] = 1.0
        eps = 0.05 * 1.5 ** rng.random()
    return ms.DiscreteMeasure(X, a / a.sum()), ms.DiscreteMeasure(Y, b / b.sum()), eps


@pytest.mark.parametrize("index", [95, 263])
def test_relaxation_does_not_stall_a_solve_plain_sweeps_finish(index, monkeypatch):
    # On a residual plateau rho reads near 1 and w near 2. Without the stall
    # test these two problems run out of 100k sweeps; plain sweeps need 595
    # and 246.
    P, Q, eps = _stalling_problem(index)
    with monkeypatch.context() as m:
        m.setattr(sk._Relaxation, "update", lambda self, residual: None)
        _, plain = sk.solve(P, Q, SolverConfig(eps=eps))
    _, report = sk.solve(P, Q, SolverConfig(eps=eps, max_iter=2 * plain.iterations))
    assert report.converged


def _with_zero_weights(P):
    w = P.weights.copy()
    w[0] = 0.0
    return ms.DiscreteMeasure(P.points, w / w.sum())


def _log_path_solve(monkeypatch, P, Q, cfg):
    # An infinite floor sends the first half-step, and so the whole solve,
    # to the log domain.
    with monkeypatch.context() as m:
        m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        return sk.solve(P, Q, cfg)


def test_kernel_and_log_paths_agree(monkeypatch):
    stream = ms.SeedSpec(SUITE_SEED, 32).stream()
    for k, (d, eps) in enumerate([(1, 0.5), (2, 1.0), (3, 2.0), (2, 0.2), (1, 5.0), (2, 0.7)]):
        P, Q = random_instance(stream, d)
        if k % 2:
            P, Q = _with_zero_weights(P), _with_zero_weights(Q)
        cfg = SolverConfig(eps=eps, tol=1e-11)
        pair_k, rep_k = sk.solve(P, Q, cfg)
        pair_l, rep_l = _log_path_solve(monkeypatch, P, Q, cfg)
        assert (rep_k.path, rep_l.path) == ("kernel", "kernel+log")
        assert rep_k.iterations == rep_l.iterations
        assert np.max(np.abs(pair_k.f - pair_l.f)) <= 1e-12
        assert np.max(np.abs(pair_k.g - pair_l.g)) <= 1e-12


def _fallback_instances():
    # eps = 1e-3 on [0, 2]: the kernel sums underflow once g spreads out.
    stream = ms.SeedSpec(SUITE_SEED, 41).stream()
    P, Q = random_instance(stream, 1, max_atoms=5)
    yield (ms.DiscreteMeasure(2.0 * P.points, P.weights),
           ms.DiscreteMeasure(2.0 * Q.points, Q.weights), 1e-3)
    # Supports 30 apart at eps = 0.05: the whole kernel is zero.
    stream = ms.SeedSpec(SUITE_SEED, 50).stream()
    P, Q = random_instance(stream, 2, max_atoms=4)
    yield P, ms.DiscreteMeasure(Q.points + 30.0 / np.sqrt(2.0), Q.weights), 0.05


@pytest.mark.parametrize("case", [0, 1])
def test_kernel_underflow_falls_back_to_log_domain(case, monkeypatch):
    P, Q, eps = list(_fallback_instances())[case]
    cfg = SolverConfig(eps=eps, tol=1e-12)
    pair, report = sk.solve(P, Q, cfg)
    assert report.path == "kernel+log"
    bf = orc.brute_force_potentials(P, Q, eps)
    assert np.max(np.abs(pair.f - bf.f)) <= 1e-10
    assert np.max(np.abs(pair.g - bf.g)) <= 1e-10
    pair_l, report_l = _log_path_solve(monkeypatch, P, Q, cfg)
    assert report_l.iterations == report.iterations
    assert np.max(np.abs(pair.f - pair_l.f)) <= 1e-12
    assert np.max(np.abs(pair.g - pair_l.g)) <= 1e-12


def test_report_residual_and_dual_match_public_checks():
    stream = ms.SeedSpec(SUITE_SEED, 33).stream()
    for d, eps in [(1, 0.5), (2, 1.0), (3, 2.0)]:
        P, Q = random_instance(stream, d)
        cfg = SolverConfig(eps=eps, tol=1e-10)
        pair, report, value = sk._solved_cost(P, Q, cfg)
        assert value == sk.cost(P, Q, pair, tol=cfg.tol)
        assert report.optimality_residual == pytest.approx(
            sk.optimality_residual(P, Q, pair), abs=1e-12)
        assert report.dual_value == pytest.approx(sk.dual_objective(P, Q, pair), abs=1e-12)


def test_solved_cost_applies_the_cost_gate(monkeypatch):
    P, Q, pair, report = _dirac_pair()
    stale = sk.SolveReport(report.iterations, report.final_residual, report.dual_value,
                           True, optimality_residual=1e-6, path=report.path)
    monkeypatch.setattr(sk, "solve", lambda *args: (pair, stale))
    with pytest.raises(NotOptimal):
        sk._solved_cost(P, Q, SolverConfig(eps=1.0, tol=1e-9))
