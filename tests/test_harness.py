import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entot import harness as hz
from entot import inference as inf
from entot import measures as ms
from entot import potentials as pot
from entot import sinkhorn as sk
from entot.errors import ConfigError
from entot.harness import EmitFormat, ExperimentConfig, ExperimentKind, ScenarioKind
from entot.sinkhorn import Normalization, SolverConfig

from _util import SUITE_SEED, block_measures, force_pool, random_instance, spy_stacks

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


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Experiment configs", 1)[1].split("```")[1]
    cfg = hz.parse_config(block)  # inline comments included
    assert cfg.kind is ExperimentKind.COVERAGE
    assert cfg.scenario is ScenarioKind.GAUSSIAN_PAIR
    assert cfg.eps_list == (2.0, 5.0) and cfg.n_list == (100, 250)
    assert cfg.solver.tol == 1e-9 and cfg.solver.max_iter == 100_000 and cfg.atoms == 10


def test_measure_files_come_together_and_only_with_the_discrete_scenario():
    discrete = CONFIG_TEXT.replace("gaussian", "discrete")
    for text, match in ((CONFIG_TEXT + "p_file = p.csv\nq_file = q.csv\n", "discrete"),
                        (discrete + "p_file = p.csv\n", "together"),
                        (discrete + "q_file = q.csv\n", "together")):
        with pytest.raises(ConfigError, match=match):
            hz.parse_config(text)
    cfg = hz.parse_config(discrete + "p_file = p.csv  # fixed populations\nq_file = q.csv\n")
    assert (cfg.p_file, cfg.q_file) == ("p.csv", "q.csv")


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
    # coverage runs may list n values in any order, but repeat none
    coverage = {**base, "kind": ExperimentKind.COVERAGE, "scenario": ScenarioKind.GAUSSIAN_PAIR}
    ExperimentConfig(**{**coverage, "n_list": (20, 10)})
    with pytest.raises(ConfigError, match="repeat no value"):
        ExperimentConfig(**{**coverage, "n_list": (10, 20, 10)})


# the csv renderers key a cell by (d, eps, n), so a repeated value would print
# one cell's numbers for two cells
@pytest.mark.parametrize("key, values", [("dims", "2, 3, 2"), ("eps_list", "2, 5, 2.0"),
                                         ("n_list", "30, 60, 30")],
                         ids=["dims", "eps_list", "n_list"])
def test_repeated_values_of_a_cell_key_are_rejected(key, values):
    line = next(row for row in CONFIG_TEXT.splitlines() if row.startswith(key + " "))
    with pytest.raises(ConfigError, match="repeat no value"):
        hz.parse_config(CONFIG_TEXT.replace(line, f"{key} = {values}"))


def test_sample_coordinates_are_bounded_at_the_config():
    text = CONFIG_TEXT.replace("dims = 2", "dims = 2, 15")
    full = hz.parse_config(text.replace("n_list = 30, 60", "n_list = 30, 5000"))
    assert full.n_list[-1] == 5000  # coverage_full.txt's largest sample
    limit = sk.DENSE_ENTRY_LIMIT
    for line in (f"n_list = 30, {limit // 15 + 1}", "n_list = 1000000000000"):
        with pytest.raises(ConfigError, match="DENSE_ENTRY_LIMIT"):
            hz.parse_config(text.replace("n_list = 30, 60", line))
    with pytest.raises(ConfigError, match="coordinates"):
        hz.parse_config(text + f"atoms = {limit // 15 + 1}\n")


def test_one_patch_of_the_dense_limit_reaches_every_reader(monkeypatch):
    stream = ms.SeedSpec(SUITE_SEED, 63).stream()
    P, Q = random_instance(stream, 2)
    limit = P.n * Q.n - 1
    monkeypatch.setattr(sk, "DENSE_ENTRY_LIMIT", limit)
    cfg = SolverConfig(eps=1.0)
    pair, report = sk.solve(P, Q, cfg)
    assert report.path == "blocked"
    assert sk._solve_stack(*sk._problem(P, Q), cfg).path.tolist() == ["blocked"]
    with pytest.raises(ValueError, match="DENSE_ENTRY_LIMIT"):
        sk.plan(P, Q, pair)
    with pytest.raises(ConfigError, match="DENSE_ENTRY_LIMIT"):  # 2 * limit coordinates
        hz.parse_config(CONFIG_TEXT.replace("n_list = 30, 60", f"n_list = {limit}"))


def test_every_full_table_cell_runs_on_the_kernel():
    cfg = hz.load_config(Path(__file__).parents[1] / "configs" / "coverage_full.txt")
    assert max(cfg.n_list) ** 2 <= sk.DENSE_ENTRY_LIMIT


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
def test_determinism_across_threads_and_runs(monkeypatch, kind, d):
    if kind is ExperimentKind.COVERAGE:
        cfg = _tiny_coverage(replicates=12)
    else:
        cfg = _tiny_rate(kind, d)
    r1 = hz.run_experiment(cfg, threads=1)
    pool_maps = force_pool(monkeypatch)  # these cells are below the size gate
    r2 = hz.run_experiment(cfg, threads=3)
    assert pool_maps == [3]  # one map per run of cells of one shape: here the row
    r3 = hz.run_experiment(cfg, threads=1)
    for fmt in EmitFormat:
        assert hz.render(r1, fmt) == hz.render(r2, fmt) == hz.render(r3, fmt)


def _spy_statistic(monkeypatch, kind, wrap):
    """Route every chunk ``_run`` hands the statistic of ``kind`` through
    ``wrap(stat, streams, ns)``."""
    statistic, labels, shape = hz._KINDS[kind]

    def spy(scenario, d, solver):
        stat = statistic(scenario, d, solver)
        return lambda streams, ns: wrap(stat, streams, ns)

    monkeypatch.setitem(hz._KINDS, kind, (spy, labels, shape))


# the solver's stack budgets: stacks of one, of a few, the default, the whole block
_STACK_BUDGETS = (0, 2_000, sk._STACK_ENTRIES, 1 << 62)


@pytest.mark.parametrize("kind, d", [
    *(pytest.param(k, 1, id=k.value) for k in ExperimentKind),
    pytest.param(ExperimentKind.POTENTIAL_RATE, 2, id="potential_rate-d2"),
])
def test_output_bytes_do_not_depend_on_the_chunk_size(monkeypatch, kind, d):
    cfg = _tiny_coverage(replicates=12) if kind is ExperimentKind.COVERAGE else _tiny_rate(kind, d)
    chunks = []

    def record(stat, streams, ns):
        chunks.append(tuple(ns))
        return stat(streams, ns)

    _spy_statistic(monkeypatch, kind, record)
    stacks = spy_stacks(monkeypatch)
    texts, chunkings, stackings = set(), set(), set()
    # chunks of one, of a few replicates, the default budget, one chunk per row
    for budget, stack in itertools.product(
            (0, 400, 500, 1_000, 2_000, 5_000, 50_000, hz._CHUNK_ENTRIES, 1 << 62),
            _STACK_BUDGETS):
        monkeypatch.setattr(hz, "_CHUNK_ENTRIES", budget)
        monkeypatch.setattr(sk, "_STACK_ENTRIES", stack)
        chunks.clear()
        stacks.clear()
        result = hz.run_experiment(cfg, threads=1)
        chunkings.add(tuple(chunks))
        stackings.add(max(stacks))
        texts.add(tuple(hz.render(result, fmt) for fmt in EmitFormat))
    row = cfg.replicates * len(cfg.n_list)  # one (d, eps) row; the rate cells share a shape
    sizes = {tuple(map(len, chunking)) for chunking in chunkings}
    assert (1,) * row in sizes and (row,) in sizes and len(sizes) >= 3
    assert {1, row} < stackings  # stacks of one, of a few, and the whole row
    # some budget ends a chunk of several replicates inside a cell
    assert any(len(c) > 1 and end % cfg.replicates
               for chunking in chunkings
               for c, end in zip(chunking, itertools.accumulate(map(len, chunking))))
    if kind is not ExperimentKind.COVERAGE:  # and some chunk spans both cells
        assert any(len(set(c)) > 1 for chunking in chunkings for c in chunking)
    pool_maps = force_pool(monkeypatch)  # every cell to the pool, as chunks of one
    chunks.clear()
    result = hz.run_experiment(cfg, threads=3)
    assert pool_maps == [3] and set(map(len, chunks)) == {1}  # one map per row
    texts.add(tuple(hz.render(result, fmt) for fmt in EmitFormat))
    assert len(texts) == 1


@pytest.mark.parametrize("kind", [k for k in ExperimentKind if k is not ExperimentKind.COVERAGE],
                         ids=lambda k: k.value)
def test_rate_chunks_span_only_cells_of_one_operator_shape(monkeypatch, tmp_path, kind):
    # a 15-atom P: at n = 10 a replicate keeps its 10 drawn atoms, at n = 20
    # and 30 it is count-weighted on P's 15, so only those two cells share
    # operators of one shape and may share a chunk
    stream = ms.SeedSpec(SUITE_SEED, 95).stream()
    for name, k in (("p", 15), ("q", 8)):
        ms.write_measure(ms.uniform_on(stream.uniforms(2 * k).reshape(k, 2)),
                         tmp_path / f"{name}.csv")
    cfg = replace(_tiny_rate(kind, 2), n_list=(10, 20, 30), replicates=5,
                  p_file=str(tmp_path / "p.csv"), q_file=str(tmp_path / "q.csv"))
    chunks = []

    def record(stat, streams, ns):
        chunks.append(tuple(ns))
        return stat(streams, ns)

    _spy_statistic(monkeypatch, kind, record)
    texts, chunkings = set(), set()
    # 400 entries hold the draws and pairs of 3 or 4 replicates on P's 15 atoms
    for budget, stack in itertools.product((0, 400, 1 << 62), _STACK_BUDGETS):
        monkeypatch.setattr(hz, "_CHUNK_ENTRIES", budget)
        monkeypatch.setattr(sk, "_STACK_ENTRIES", stack)
        chunks.clear()
        result = hz.run_experiment(cfg, threads=1)
        assert all(set(c) <= {10} or set(c) <= {20, 30} for c in chunks)
        chunkings.add(tuple(chunks))
        texts.add(tuple(hz.render(result, fmt) for fmt in EmitFormat))
    assert ((10,) * 5, (20,) * 5 + (30,) * 5) in chunkings
    assert any(set(c) == {20, 30} and len(c) < 10 for chunking in chunkings for c in chunking)
    assert len(texts) == 1


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ThreadPoolExecutor: maps in the calling thread and records
    each pool's worker count (``requested``) and each map call's (``mapped``)."""

    class SerialPool:
        requested: list = []
        mapped: list = []

        def __init__(self, max_workers):
            self.workers = max_workers
            self.requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.mapped.append(self.workers)
            return map(fn, items)

    monkeypatch.setattr(hz, "ThreadPoolExecutor", SerialPool)
    return SerialPool


def test_fan_out_workers_are_capped(monkeypatch, serial_pool):
    monkeypatch.setattr(hz, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(hz.os, "sched_getaffinity", lambda pid: {0, 2, 5, 7, 9}, raising=False)
    monkeypatch.setattr(hz.os, "cpu_count", lambda: 64)  # the affinity set wins
    serial = hz.run_coverage(_tiny_coverage(replicates=12), threads=1)
    assert serial_pool.requested == []  # one thread runs in the calling thread
    capped = hz.run_coverage(_tiny_coverage(replicates=12), threads=10**6)
    assert serial_pool.requested == [5]  # usable CPUs
    hz.run_coverage(_tiny_coverage(replicates=3), threads=10**6)
    assert serial_pool.requested == [5, 3]  # replicates
    assert hz.render(capped, EmitFormat.PLOT_DATA) == hz.render(serial, EmitFormat.PLOT_DATA)


def test_fan_out_workers_fit_the_worker_budget(monkeypatch, serial_pool):
    # workers x 8 x min(largest operator entries, DENSE_ENTRY_LIMIT) <= _WORKER_BYTES
    monkeypatch.setattr(hz, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 5)
    cfg = replace(_tiny_coverage(replicates=12), n_list=(20, 30))  # largest operator: 900
    serial = hz.run_coverage(cfg, threads=1)
    monkeypatch.setattr(hz, "_WORKER_BYTES", 2 * 900 * 8)
    capped = hz.run_coverage(cfg)
    assert serial_pool.requested == [2]
    monkeypatch.setattr(sk, "DENSE_ENTRY_LIMIT", 450)  # the blocked operator counts 450
    hz.run_coverage(cfg)
    assert serial_pool.requested == [2, 4]
    monkeypatch.setattr(hz, "_WORKER_BYTES", 450 * 8 - 1)  # not even one: a serial run
    hz.run_coverage(cfg)
    assert serial_pool.requested == [2, 4]
    assert hz.render(capped, EmitFormat.PLOT_DATA) == hz.render(serial, EmitFormat.PLOT_DATA)


def test_no_thread_count_means_the_usable_cpus(monkeypatch, serial_pool):
    # one worker per usable CPU, counted from the affinity set, else every CPU
    # where the OS has no affinity call, else one
    monkeypatch.setattr(hz, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(hz.os, "sched_getaffinity", lambda pid: {3, 4}, raising=False)
    monkeypatch.setattr(hz.os, "cpu_count", lambda: 64)  # the affinity set wins
    hz.run_coverage(_tiny_coverage(replicates=12))
    assert serial_pool.requested == [2]
    monkeypatch.delattr(hz.os, "sched_getaffinity")
    monkeypatch.setattr(hz.os, "cpu_count", lambda: 6)
    hz.run_coverage(_tiny_coverage(replicates=12))
    assert serial_pool.requested == [2, 6]
    monkeypatch.setattr(hz.os, "cpu_count", lambda: None)
    hz.run_coverage(_tiny_coverage(replicates=12))
    assert serial_pool.requested == [2, 6]  # one worker: a serial run


def test_thread_counts_below_one_are_refused_before_any_run(monkeypatch):
    monkeypatch.setattr(hz, "_scenario_for", lambda cfg: pytest.fail("ran"))
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            hz.run_coverage(_tiny_coverage(), threads=threads)


# kind -> largest transport operator entries of its two cells: n = 10 and 20
# for coverage, n = 5 and 20 for the rate kinds, whose empirical P has
# min(n, |P|) atoms (10 atoms, and |Q| = 10)
@pytest.mark.parametrize("kind, entries", [
    (ExperimentKind.COVERAGE, (100, 400)),  # n*n
    (ExperimentKind.BIAS_RATE, (50, 100)),  # min(n, |P|)*|Q|
    (ExperimentKind.POTENTIAL_RATE, (50, 100)),
    (ExperimentKind.DIVERGENCE_RATE, (50, 100)),  # min(n, |P|)*|P|
], ids=["coverage", "bias_rate", "potential_rate", "divergence_rate"])
def test_only_cells_at_or_above_the_gate_use_the_pool(monkeypatch, serial_pool, kind, entries):
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 2)
    if kind is ExperimentKind.COVERAGE:
        cfg = replace(_tiny_coverage(), n_list=(10, 20))
    else:
        cfg = replace(_tiny_rate(kind), n_list=(5, 20))
    small, large = entries
    for gate, pooled in [(large + 1, 0), (large, 1), (small + 1, 1), (small, 2)]:
        monkeypatch.setattr(hz, "_POOL_MIN_ENTRIES", gate)
        serial_pool.mapped.clear()
        hz.run_experiment(cfg, threads=2)
        assert len(serial_pool.mapped) == pooled, gate


def test_default_gate_pools_n_by_n_cells_from_n_363(monkeypatch, serial_pool):
    # 362**2 < 2**17 <= 363**2
    monkeypatch.setattr(hz, "_usable_cpus", lambda: 2)
    cfg = replace(_tiny_coverage(replicates=2, seed=5), n_list=(362, 363))
    hz.run_experiment(cfg, threads=2)
    assert serial_pool.mapped == [2]


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


def _map_counts(monkeypatch, stat, streams, ns):
    """Per replicate of a chunk, the most maps any of its solves took."""
    counts = []

    def spy(*problem):
        solved = sk._solve_stack(*problem)
        counts.append(solved.iterations)
        return solved

    with monkeypatch.context() as m:
        for module in (hz, inf):
            m.setattr(module, "_solve_stack", spy)
        stat(streams, ns)
    return np.max(counts, axis=0)


@pytest.mark.parametrize("kind", ExperimentKind, ids=lambda k: k.value)
def test_chunks_in_which_only_some_replicates_converge(monkeypatch, kind):
    # one cell, one chunk, and a map budget between its replicates' smallest
    # and largest map counts: the converged rows are their lone runs' bit for
    # bit, and the cell's reductions read those rows only
    if kind is ExperimentKind.COVERAGE:
        cfg = replace(_tiny_coverage(replicates=8), eps_list=(0.5,), solver=SolverConfig(eps=0.5))
    else:  # 5 or 6 maps a replicate
        cfg = replace(_tiny_rate(kind, 2), n_list=(20,), replicates=8,
                      solver=SolverConfig(eps=1.0, tol=1e-13))
    (d,), (n,), reps = cfg.dims, cfg.n_list, cfg.replicates
    statistic, scenario = hz._KINDS[kind][0], hz._scenario_for(cfg)

    def streams():  # the cell's, as _run derives them
        return [ms.SplitMix64(ms.derived_seed(cfg.seed, 0, r)) for r in range(reps)]

    maps = _map_counts(monkeypatch, statistic(scenario, d, cfg.solver), streams(), [n] * reps)
    budget = int(np.median(maps))
    cfg = replace(cfg, solver=replace(cfg.solver, max_iter=budget))
    stat = statistic(scenario, d, cfg.solver)
    values, converged = stat(streams(), [n] * reps)
    assert converged.tolist() == (maps <= budget).tolist()
    assert 2 <= np.count_nonzero(converged) < reps
    for stream, row, ok in zip(streams(), values.tolist(), converged.tolist()):
        lone, lone_ok = stat([stream], [n])
        assert lone_ok.tolist() == [ok]
        if ok:
            assert lone.tolist() == [row]

    chunks = []

    def record(stat, streams, ns):
        chunks.append(len(streams))
        return stat(streams, ns)

    _spy_statistic(monkeypatch, kind, record)
    result = hz.run_experiment(cfg, threads=1)
    assert chunks == [reps]
    kept = [row for row, ok in zip(values.tolist(), converged.tolist()) if ok]
    columns = [np.array(column) for column in zip(*kept)]  # contiguous, as reduced
    counts = (len(kept), reps - len(kept))
    if kind is ExperimentKind.COVERAGE:
        [cell] = result.cells
        assert (cell.evaluated, cell.excluded, cell.attempted) == (*counts, reps)
        assert cell.hits == int(columns[0].sum()) and cell.coverage == cell.hits / len(kept)
        assert cell.mean_half_width == float(np.mean(columns[1]))
    else:
        assert len(result.curves) == len(columns)
        for curve, column in zip(result.curves, columns):
            [point] = curve.points
            assert (point.evaluated, point.excluded) == counts
            assert point.mean == float(column.mean())
            assert point.sd == float(column.std(ddof=1))


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
    assert sk._solved_cost(P, Q, solver)[2] - truth == pytest.approx(0.0, abs=1e-8)


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
            raw = sk._solved_cost(P_n, Q, solver)[2] - truth
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


def _converged_rows(stat, seeds, n) -> list:
    """The value rows of a chunk of one stream per seed, all at n, each as a
    list of floats; every replicate of the chunk must converge."""
    values, converged = stat([ms.SplitMix64(seed) for seed in seeds], [n] * len(seeds))
    assert values.shape[0] == len(seeds) and converged.all()
    return values.tolist()


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
        seeds = [ms.derived_seed(cfg.seed, n, r) for r in range(3)]
        for seed in seeds:
            # the replicate's own measure
            [P_n] = block_measures(hz._empirical(P, n, [ms.SplitMix64(seed)]))
            pair, _ = sk.solve(P_n, Q, cfg.solver)
            pair = sk.normalize(pair, P_n, Q, Normalization.ZERO_G_MEAN)
            delta = pot.PotentialDifference(pot.f_extension(pair, Q), f_star)
            est = pot.holder_norm(delta, order, grid)
            assert _converged_rows(stat, [seed], n) == [[est.value**2, est.order_terms[0] ** 2]]
        # a chunk of replicates gives each one's lone value, also when every
        # kernel sum underflows and the stack of extensions redoes each alone
        for floor in (sk._KERNEL_FLOOR, np.inf):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(sk, "_KERNEL_FLOOR", floor)
                chunk = _converged_rows(stat, seeds, n)
                assert chunk == [_converged_rows(stat, [seed], n)[0] for seed in seeds]


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
    K, M = built[0].K, built[0].M
    assert K.shape == (41 * 41, 10) and M.shape == (10, 5)
    assert not K.flags.writeable and not M.flags.writeable
    before = K.copy(), M.copy()
    [kernel] = _converged_rows(stat, [7], 50)
    with monkeypatch.context() as m:
        m.setattr(sk, "_KERNEL_FLOOR", np.inf)
        [log] = _converged_rows(stat, [7], 50)
    assert log == pytest.approx(kernel, rel=1e-12)
    assert np.array_equal(K, before[0]) and np.array_equal(M, before[1])


def _check_potential_rate_chunks(monkeypatch, **cells):
    """Run the potential-rate desk config with ``cells`` replaced; check that
    every chunk's traced peak, samples and solves included, stays below the
    chunk budget in float64 bytes plus a quarter, and that the shared grid
    kernel and monomials stay read-only and unwritten."""
    cfg = replace(hz.load_config(Path(__file__).parents[1] / "configs" / "potential_rate_desk.txt"),
                  **cells)
    built = []

    def kernel_tables(*args):
        built.append(pot._kernel_tables(*args))
        built.append(tuple(table.copy() for table in built[-1][:2]))
        return built[0]

    monkeypatch.setattr(hz, "_kernel_tables", kernel_tables)
    sizes, peaks = [], []

    def traced(stat, streams, ns):
        tracemalloc.start()
        try:
            out = stat(streams, ns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(streams))
        return out

    _spy_statistic(monkeypatch, ExperimentKind.POTENTIAL_RATE, traced)
    hz.run_potential_rate(cfg, threads=1)
    assert min(sizes) > 1 and sum(sizes) == len(cfg.n_list) * cfg.replicates
    assert max(peaks) < 1.25 * hz._CHUNK_ENTRIES * 8
    (K, M), (K0, M0) = built[0][:2], built[1]
    assert not K.flags.writeable and not M.flags.writeable
    assert np.array_equal(K, K0) and np.array_equal(M, M0)


def test_potential_rate_chunks_stay_within_the_entry_budget(monkeypatch):
    # _run sizes a chunk so that its replicates' draws and pairs (10 x 10, on
    # the population's atoms) fit _CHUNK_ENTRIES entries, the solver stacks
    # their problems within a budget of its own, and the statistic evaluates
    # their extensions in groups whose twelve 41 x 41 grid tables each fit it
    # too; the traced peak stays below that budget plus a quarter (0.79 of it
    # measured at n = 50 and 800, in one chunk of 24 across both cells and
    # groups of 6)
    _check_potential_rate_chunks(monkeypatch, n_list=(50, 800), replicates=12)


def test_potential_rate_desk_row_chunks_stay_within_the_entry_budget(monkeypatch):
    # the desk row, five cells of 200 count-weighted replicates on one 10 x 10
    # kernel, runs as one chunk of 1000 whose problems the solver cuts into
    # stacks of 451, 451 and 98 (each problem's map state outweighs its share
    # of the kernel); it peaks at 1.14 of the budget, in the second stack,
    # beside the first stack's rows (the statistic drops the record before it
    # builds grid tables: with it, 1.20)
    _check_potential_rate_chunks(monkeypatch)


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

