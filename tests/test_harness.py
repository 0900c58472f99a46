from pathlib import Path

import numpy as np
import pytest

from entot import harness as hz
from entot import measures as ms
from entot import potentials as pot
from entot import sinkhorn as sk
from entot.errors import ConfigError
from entot.harness import EmitFormat, ExperimentConfig, ExperimentKind, ScenarioKind
from entot.sinkhorn import Normalization, SolverConfig

from _util import SUITE_SEED

CONFIG_TEXT = """
# smoke sweep
kind = coverage
scenario = gaussian
dims = 2
eps_list = 2, 5
n_list = 30, 60
replicates = 10
alpha = 0.05
seed = 31
tol = 1e-9
max_iter = 100000
"""


def _tiny_coverage(seed=31, replicates=10, scenario=ScenarioKind.GAUSSIAN_PAIR, **kw):
    return ExperimentConfig(
        kind=ExperimentKind.COVERAGE, scenario=scenario,
        dims=(2,), eps_list=(2.0,), n_list=(30,),
        replicates=replicates, alpha=0.05, seed=seed,
        solver=SolverConfig(eps=2.0, tol=1e-9), **kw,
    )


def test_parse_config_roundtrip():
    cfg = hz.parse_config(CONFIG_TEXT)
    assert cfg.kind is ExperimentKind.COVERAGE
    assert cfg.scenario is ScenarioKind.GAUSSIAN_PAIR
    assert cfg.dims == (2,) and cfg.eps_list == (2.0, 5.0) and cfg.n_list == (30, 60)
    assert cfg.replicates == 10 and cfg.alpha == 0.05 and cfg.seed == 31
    assert cfg.solver.tol == 1e-9 and cfg.solver.max_iter == 100_000
    assert cfg.atoms == 10


def test_parse_config_defaults_and_errors():
    minimal = (
        "kind=bias_rate\nscenario=discrete\ndims=2\neps_list=1\n"
        "n_list=10,20\nreplicates=5\nalpha=0.1\nseed=3\n"
    )
    cfg = hz.parse_config(minimal)
    assert cfg.solver.tol == 1e-9 and cfg.solver.max_iter == 100_000

    with pytest.raises(ConfigError, match="unknown key"):
        hz.parse_config(minimal + "bogus=1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        hz.parse_config(minimal + "alpha=0.2\n")
    with pytest.raises(ConfigError, match="missing"):
        hz.parse_config("kind=coverage\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        hz.parse_config(minimal + "justtext\n")
    with pytest.raises(ConfigError, match="unknown kind"):
        hz.parse_config(minimal.replace("bias_rate", "mystery"))
    with pytest.raises(ConfigError, match="unknown scenario"):
        hz.parse_config(minimal.replace("discrete", "cauchy"))
    for line in ("tol=nan", "tol=-1", "max_iter=0"):
        with pytest.raises(ConfigError):
            hz.parse_config(minimal + line + "\n")


def test_experiment_config_validation():
    base = dict(
        kind=ExperimentKind.BIAS_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(1.0,), n_list=(10, 20), replicates=3,
        alpha=0.05, seed=1, solver=SolverConfig(eps=1.0),
    )
    ExperimentConfig(**base)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "n_list": (20, 10)})  # not increasing
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "n_list": ()})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "replicates": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "alpha": 1.0})
    for eps_list in ((0.0,), (1.0, float("nan")), (float("inf"),)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{**base, "eps_list": eps_list})
    # coverage runs may repeat n values
    ExperimentConfig(**{**base, "kind": ExperimentKind.COVERAGE,
                        "scenario": ScenarioKind.GAUSSIAN_PAIR,
                        "n_list": (10, 10)})


def test_derived_seed_deterministic():
    a = hz.derived_seed(5, 1, 2)
    assert a == hz.derived_seed(5, 1, 2)
    assert a != hz.derived_seed(5, 2, 1)
    assert 0 <= a < 2**64
    for master, index in [(0, 0), (5, 3), (2**64 - 1, 7), (SUITE_SEED, 2**40)]:
        assert np.array_equal(ms.SeedSpec(master, index).stream().u64_block(4),
                              ms.SplitMix64(hz.derived_seed(master, index)).u64_block(4))


def test_gaussian_truth_matches_closed_form():
    from entot.oracle import GaussianPairSpec, gaussian_cost
    cfg = _tiny_coverage()
    scenario = hz._scenario_for(cfg)
    assert scenario.truth(2, 2.0) == gaussian_cost(GaussianPairSpec(2, 2.0))


def test_discrete_truth_is_cached_tight_solve():
    cfg = ExperimentConfig(
        kind=ExperimentKind.BIAS_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(1.0,), n_list=(10, 20), replicates=2,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0),
    )
    scenario = hz._scenario_for(cfg)
    P, Q = scenario.pair(2)
    assert P.n == 10 and Q.n == 10 and P.dim == 2
    t1 = scenario.truth(2, 1.0)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12, max_iter=10**6))
    assert t1 == pytest.approx(sk.cost(P, Q, pair, tol=1e-12), abs=1e-10)
    assert scenario.truth(2, 1.0) == t1  # cached value identical


def test_coverage_degenerate_dirac_files(tmp_path):
    path_p = tmp_path / "p.csv"
    path_q = tmp_path / "q.csv"
    ms.write_measure(ms.dirac([0.0]), path_p)
    ms.write_measure(ms.dirac([0.0]), path_q)
    cfg = ExperimentConfig(
        kind=ExperimentKind.COVERAGE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(1,), eps_list=(1.0,), n_list=(5,), replicates=8,
        alpha=0.05, seed=2, solver=SolverConfig(eps=1.0),
        p_file=str(path_p), q_file=str(path_q),
    )
    res = hz.run_coverage(cfg)
    cell = res.cells[0]
    assert cell.coverage == 1.0
    assert cell.hits == cell.evaluated == cell.attempted == 8
    assert cell.mean_half_width == 0.0


def test_file_scenario_validation(tmp_path):
    path_p = tmp_path / "p.csv"
    path_q = tmp_path / "q.csv"
    ms.write_measure(ms.dirac([0.0]), path_p)
    ms.write_measure(ms.dirac([0.0, 1.0]), path_q)
    base = dict(
        kind=ExperimentKind.COVERAGE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(1,), eps_list=(1.0,), n_list=(5,), replicates=2,
        alpha=0.05, seed=2, solver=SolverConfig(eps=1.0),
    )
    with pytest.raises(ConfigError, match="dimension"):
        hz.run_coverage(ExperimentConfig(**base, p_file=str(path_p), q_file=str(path_q)))
    with pytest.raises(ConfigError, match="together"):
        hz.run_coverage(ExperimentConfig(**base, p_file=str(path_p)))


def test_kind_gates():
    cov = _tiny_coverage()
    with pytest.raises(ConfigError):
        hz.run_bias_rate(cov)
    rate = ExperimentConfig(
        kind=ExperimentKind.BIAS_RATE, scenario=ScenarioKind.GAUSSIAN_PAIR,
        dims=(2,), eps_list=(1.0,), n_list=(10, 20), replicates=2,
        alpha=0.05, seed=1, solver=SolverConfig(eps=1.0),
    )
    with pytest.raises(ConfigError):
        hz.run_coverage(rate)
    with pytest.raises(ConfigError, match="discrete"):
        hz.run_bias_rate(rate)  # gaussian scenario lacks exact discrete truth
    pot_bad_dim = ExperimentConfig(
        kind=ExperimentKind.POTENTIAL_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(3,), eps_list=(1.0,), n_list=(10, 20), replicates=2,
        alpha=0.05, seed=1, solver=SolverConfig(eps=1.0),
    )
    with pytest.raises(ConfigError, match="d <= 2"):
        hz.run_potential_rate(pot_bad_dim)
    pot_bad_eps = ExperimentConfig(
        kind=ExperimentKind.POTENTIAL_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(2.0,), n_list=(10, 20), replicates=2,
        alpha=0.05, seed=1, solver=SolverConfig(eps=1.0),
    )
    with pytest.raises(ConfigError, match="eps = 1"):
        hz.run_potential_rate(pot_bad_eps)
    div_bad_eps = ExperimentConfig(
        kind=ExperimentKind.DIVERGENCE_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(0.5,), n_list=(10, 20), replicates=2,
        alpha=0.05, seed=1, solver=SolverConfig(eps=1.0),
    )
    with pytest.raises(ConfigError, match="eps = 1"):
        hz.run_divergence_rate(div_bad_eps)


def test_run_experiment_dispatch():
    res = hz.run_experiment(_tiny_coverage(replicates=3))
    assert isinstance(res, hz.CoverageResult)


def _tiny_rate(kind, d=1):
    return ExperimentConfig(
        kind=kind, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(d,), eps_list=(1.0,), n_list=(10, 20), replicates=6,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0),
    )


# every kind at d=1; potential-rate also at d=2, where its grid has 41 x 41 points
@pytest.mark.parametrize("kind, d", [
    *(pytest.param(k, 1, id=k.value) for k in ExperimentKind),
    pytest.param(ExperimentKind.POTENTIAL_RATE, 2, id="potential_rate-d2"),
])
def test_determinism_across_threads_and_runs(kind, d):
    if kind is ExperimentKind.COVERAGE:
        cfg = _tiny_coverage(replicates=12)
    else:
        cfg = _tiny_rate(kind, d)
    r1 = hz.run_experiment(cfg, threads=1)
    r2 = hz.run_experiment(cfg, threads=3)
    r3 = hz.run_experiment(cfg, threads=1)
    for fmt in EmitFormat:
        assert hz.render(r1, fmt) == hz.render(r2, fmt) == hz.render(r3, fmt)


def test_fan_out_workers_are_capped(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(hz, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(hz.os, "cpu_count", lambda: 1)
    serial = hz.run_coverage(_tiny_coverage(replicates=12), threads=1)
    assert requested == []  # one thread runs in the calling thread
    capped = hz.run_coverage(_tiny_coverage(replicates=12), threads=10**6)
    assert requested == [4]  # 4 * cpu_count
    hz.run_coverage(_tiny_coverage(replicates=3), threads=10**6)
    assert requested == [4, 3]  # replicates
    assert hz.render(capped, EmitFormat.PLOT_DATA) == hz.render(serial, EmitFormat.PLOT_DATA)


def test_excluded_replicates_are_counted():
    # an iteration budget of one forces every replicate to fail
    cfg = ExperimentConfig(
        kind=ExperimentKind.COVERAGE, scenario=ScenarioKind.GAUSSIAN_PAIR,
        dims=(2,), eps_list=(0.5,), n_list=(25,), replicates=6,
        alpha=0.05, seed=4, solver=SolverConfig(eps=0.5, tol=1e-12, max_iter=1),
    )
    res = hz.run_coverage(cfg)
    cell = res.cells[0]
    assert cell.excluded == 6 and cell.evaluated == 0 and cell.hits == 0
    assert cell.attempted == cell.evaluated + cell.excluded
    assert np.isnan(cell.coverage) and np.isnan(cell.mean_half_width)
    text = hz.render(res, EmitFormat.CSV_TABLE)
    assert "nan" in text


def test_coverage_discrete_scenario_covers_tight_truth():
    # default generated 10-atom populations; truth from the tight solve
    cfg = ExperimentConfig(
        kind=ExperimentKind.COVERAGE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(1.0,), n_list=(150,), replicates=40,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0, tol=1e-9),
    )
    res = hz.run_coverage(cfg, threads=2)
    cell = res.cells[0]
    assert cell.excluded == 0
    assert 0.8 <= cell.coverage <= 1.0  # loose band at 40 replicates
    assert len(res.populations) == 1
    text = hz.render(res, EmitFormat.CSV_TABLE)
    assert "# population_p_d2=" in text and "# population_q_d2=" in text


def test_bias_replicate_population_self_test():
    stream = ms.SeedSpec(SUITE_SEED, 80).stream()
    P = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    Q = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    solver = SolverConfig(eps=1.0, tol=1e-11)
    pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-12, max_iter=10**6))
    truth = sk.cost(P, Q, pair, tol=1e-12)
    # using the population itself as the "empirical" measure gives zero bias
    assert hz.bias_replicate(P, Q, solver, truth) == pytest.approx(0.0, abs=1e-8)


def test_bias_rate_shapes_and_sign_clause():
    cfg = ExperimentConfig(
        kind=ExperimentKind.BIAS_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(2,), eps_list=(1.0,), n_list=(20, 40), replicates=25,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0),
    )
    res = hz.run_bias_rate(cfg, threads=2)
    assert len(res.curves) == 1
    curve = res.curves[0]
    assert curve.label == "bias" and len(curve.points) == 2
    assert np.isfinite(curve.slope)
    for p in curve.points:
        assert p.evaluated == 25 and p.excluded == 0
        assert p.mean >= -10 * p.sd / np.sqrt(p.evaluated)
    assert len(res.populations) == 1


def test_bias_rate_controlled_companion():
    """Variance-reduced check that the empirical-cost bias decays like 1/n.

    The plain replicate mean is dominated by the linear sampling term at
    feasible replicate counts (see notes in the acceptance suite); centering
    each replicate by <f*, a_n - a>, which has exact mean zero, exposes the
    O(1/n) bias itself. The controlled means must be positive and their
    log-log slope close to -1.
    """
    stream = ms.SeedSpec(SUITE_SEED, 81).stream()
    P = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    Q = ms.uniform_on(stream.uniforms(20).reshape(10, 2))
    solver = SolverConfig(eps=1.0, tol=1e-10)
    pop_pair, _ = sk.solve(P, Q, SolverConfig(eps=1.0, tol=1e-13, max_iter=10**6))
    truth = sk.cost(P, Q, pop_pair, tol=1e-13)
    f_star = pot.f_extension(pop_pair, Q)
    f_star_mean = float(pop_pair.f @ P.weights)

    ns = (50, 200, 800)
    means = []
    for cell, n in enumerate(ns):
        vals = []
        for r in range(150):
            stream_r = ms.SplitMix64(hz.derived_seed(SUITE_SEED ^ 0xB1A5, cell, r))
            P_n = ms.sample_empirical(P, n, stream_r)
            raw = hz.bias_replicate(P_n, Q, solver, truth)
            zero_idx = (0,) * P.dim
            f_star_on_sample = f_star.evaluate(P_n.points, [zero_idx])[zero_idx]
            control = float(np.mean(f_star_on_sample)) - f_star_mean
            vals.append(raw - control)
        arr = np.array(vals)
        se = arr.std(ddof=1) / np.sqrt(len(arr))
        means.append(arr.mean())
        assert arr.mean() > 5 * se  # bias is strictly positive and resolved
    slope, _, _ = hz._fit_loglog(ns, means)
    assert -1.3 <= slope <= -0.7


def test_potential_rate_smoke():
    cfg = ExperimentConfig(
        kind=ExperimentKind.POTENTIAL_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(1,), eps_list=(1.0,), n_list=(20, 40), replicates=8,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0),
    )
    res = hz.run_potential_rate(cfg, threads=2)
    labels = [c.label for c in res.curves]
    assert labels == ["holder_sq", "sup_sq"]
    for curve in res.curves:
        for p in curve.points:
            assert p.mean >= 0.0
        assert np.isfinite(curve.slope)


def test_potential_statistic_matches_holder_norm_bit_for_bit():
    # f*'s grid tables are evaluated once per (d, eps) and shared by the
    # replicates; each replicate must read what holder_norm gives for it.
    cfg = hz.load_config(Path(__file__).parents[1] / "configs" / "potential_rate_desk.txt")
    scenario = hz._scenario_for(cfg)
    P, Q = scenario.pair(2)
    stat = hz._potential_statistic(scenario, 2, cfg.solver)
    pop, _ = sk.solve(P, Q, hz._tight_solver(cfg, 1.0))
    f_star = pot.f_extension(sk.normalize(pop, P, Q, Normalization.ZERO_G_MEAN), Q)
    grid = pot.GridSpec.default(ms.CompactDomain.enclosing(P, Q))
    order = pot.HolderOrder.for_dimension(2)
    for n in (50, 800):
        for r in range(3):
            seed = ms.derived_seed(cfg.seed, n, r)
            P_n = ms.sample_empirical(P, n, ms.SplitMix64(seed))
            pair, _ = sk.solve(P_n, Q, cfg.solver)
            pair = sk.normalize(pair, P_n, Q, Normalization.ZERO_G_MEAN)
            delta = pot.PotentialDifference(pot.f_extension(pair, Q), f_star)
            est = pot.holder_norm(delta, order, grid)
            assert stat(ms.SplitMix64(seed), n) == (est.value**2, est.order_terms[0] ** 2)


def test_potential_statistic_shares_a_read_only_grid_kernel(monkeypatch):
    # the grid kernel and Q's monomials are built once per (d, eps) and read by
    # every replicate thread; a replicate whose kernel rows underflow redoes
    # its evaluation on its own cost and leaves them as they are
    cfg = hz.load_config(Path(__file__).parents[1] / "configs" / "potential_rate_desk.txt")
    built = []

    def kernel_tables(*args):
        built.append(pot._kernel_tables(*args))
        return built[-1]

    monkeypatch.setattr(hz, "_kernel_tables", kernel_tables)
    stat = hz._potential_statistic(hz._scenario_for(cfg), 2, cfg.solver)
    assert len(built) == 1
    K, M = built[0]
    assert K.shape == (41 * 41, 10) and M.shape == (10, 5)
    assert not K.flags.writeable and not M.flags.writeable
    before = K.copy(), M.copy()
    kernel = stat(ms.SplitMix64(7), 50)
    with monkeypatch.context() as m:
        m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        log = stat(ms.SplitMix64(7), 50)
    assert log == pytest.approx(kernel, rel=1e-12)
    assert np.array_equal(K, before[0]) and np.array_equal(M, before[1])


def test_divergence_rate_smoke():
    cfg = ExperimentConfig(
        kind=ExperimentKind.DIVERGENCE_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(1,), eps_list=(1.0,), n_list=(15, 30), replicates=8,
        alpha=0.05, seed=SUITE_SEED, solver=SolverConfig(eps=1.0),
    )
    res = hz.run_divergence_rate(cfg, threads=2)
    labels = [c.label for c in res.curves]
    assert labels == ["one_sample", "two_sample"]
    for curve in res.curves:
        for p in curve.points:
            assert p.mean >= -100 * cfg.solver.tol


def test_emit_coverage_shapes(tmp_path):
    cfg = ExperimentConfig(
        kind=ExperimentKind.COVERAGE, scenario=ScenarioKind.GAUSSIAN_PAIR,
        dims=(1, 2), eps_list=(2.0, 5.0), n_list=(20, 30), replicates=4,
        alpha=0.05, seed=9, solver=SolverConfig(eps=2.0),
    )
    res = hz.run_coverage(cfg)
    path = tmp_path / "cov.csv"
    hz.emit(res, path, EmitFormat.CSV_TABLE)
    lines = path.read_text(encoding="utf-8").splitlines()
    data_rows = [ln for ln in lines if ln and not ln.startswith(("#", "n,"))]
    # one row per (d, n); one proportion per eps column
    assert len(data_rows) == len(cfg.dims) * len(cfg.n_list)
    assert all(len(row.split(",")) == 1 + len(cfg.eps_list) for row in data_rows)

    hz.emit(res, path, EmitFormat.PLOT_DATA)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("curve,d,eps,n,coverage")
    assert len(lines) == 1 + len(res.cells)


def test_emit_rate_plot_shape(tmp_path):
    cfg = ExperimentConfig(
        kind=ExperimentKind.BIAS_RATE, scenario=ScenarioKind.DISCRETE_PAIR,
        dims=(1,), eps_list=(1.0,), n_list=(10, 20, 40), replicates=4,
        alpha=0.05, seed=12, solver=SolverConfig(eps=1.0),
    )
    res = hz.run_bias_rate(cfg)
    path = tmp_path / "rate.csv"
    hz.emit(res, path, EmitFormat.PLOT_DATA)
    lines = path.read_text(encoding="utf-8").splitlines()
    # per curve: one row per n plus exactly one fit row
    assert len(lines) == 1 + len(res.curves) * (len(cfg.n_list) + 1)
    fit_rows = [ln for ln in lines if ",fit," in ln]
    assert len(fit_rows) == len(res.curves)

    hz.emit(res, path, EmitFormat.CSV_TABLE)
    text = path.read_text(encoding="utf-8")
    assert "# population_p_d1=" in text  # scenario atoms frozen for provenance
    assert "slope," in text


def test_emit_empty_result_header_only(tmp_path):
    cfg = _tiny_coverage()
    empty = hz.CoverageResult(kind=cfg.kind, config=cfg, cells=())
    path = tmp_path / "empty.csv"
    hz.emit(empty, path, EmitFormat.CSV_TABLE)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines and all(ln.startswith("#") for ln in lines)
    hz.emit(empty, path, EmitFormat.PLOT_DATA)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["curve,d,eps,n,coverage,mean_half_width,hits,evaluated,excluded,attempted"]


def test_fit_loglog_recovers_power_law():
    ns = [10, 20, 40, 80]
    means = [100.0 * n**-1.0 for n in ns]
    slope, se, intercept = hz._fit_loglog(ns, means)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)
    assert intercept == pytest.approx(np.log(100.0), abs=1e-12)


def test_resolve_threads(monkeypatch):
    assert hz.resolve_threads(3) == 3
    assert hz.resolve_threads(0) == 1
    monkeypatch.setenv("EOT_THREADS", "5")
    assert hz.resolve_threads(None) == 5
    monkeypatch.delenv("EOT_THREADS")
    assert hz.resolve_threads(None) >= 1
