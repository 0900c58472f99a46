"""Deterministic Monte Carlo experiments over the solver and inference stack.

Four experiment kinds: interval coverage against a known population cost,
the bias of the empirical cost, the squared grid-norm error of empirical
potentials, and the decay of the debiased divergence. Each replicate draws
its randomness from a stream derived by hashing (master seed, cell index,
replicate index), so every cell is independently reproducible and results
are byte-identical across thread counts.

One replicate loop runs every kind. It walks the (d, eps) rows of cells,
builds the kind's statistic once per row, and hands the row's replicates to it
in chunks, in cell and replicate order. A chunk may run across the cells of a
row whose replicates' transport operators have one shape (``_KINDS``): every
rate cell with n at least the population's size, while coverage cells of
different n keep chunks of their own. A statistic maps a chunk (one stream and
one n per replicate) to ``(values, converged)``: an ``(R, k)`` array with one
row per replicate and one column per value, and the mask of the replicates
whose solves converged. It keeps the chunk as arrays from the draw to its
values: it draws the chunk's samples as one block of measures (``_drawn``),
points ``(R, n, d)`` or one support shared by every row, and weights
``(R, n)``; it solves their transport problems as one block
(``sinkhorn._solve_stack``, which cuts the block into kernel stacks within the
solver's own budget), whose record holds one row per problem; and it reduces
the record's rows to values, with its converged mask. So small problems share
each draw's and each half-step's numpy calls, and each converged replicate's
values are those of a lone run bit for bit. The rate kinds draw an empirical
measure of n points from a population of at most n atoms on the population's
own atoms, with count weights (``_empirical``), so a stack of their problems
shares one support and one Gibbs kernel of the population's size. A chunk
holds as many replicates as ``_CHUNK_ENTRIES`` entries hold of their draws and
pairs, d + 2 entries per atom of each side of their largest transport
operators. A cell whose replicates' largest transport operator has at least
``_POOL_MIN_ENTRIES`` entries runs chunks of one instead, fanned out to a
thread pool of at most one worker per usable CPU, and of no more workers than
``_WORKER_BYTES`` hold of the run's largest operator (as float64, and at most
``sinkhorn.DENSE_ENTRY_LIMIT`` entries of it); smaller replicates are mostly
GIL-held numpy calls on short vectors, so their cells run in the calling
thread, where a second thread would only slow them down. No chunk size or
thread count changes an output byte. The loop joins the chunks' rows into one
``(cells, replicates, k)`` block and mask, cells in
``itertools.product(dims, eps_list, n_list)`` order, and two reductions turn
them into results: coverage cells (hit rate and mean half-width) and rate
curves (one curve per value column, with a log-log slope fit), each over a
cell's converged rows. A new experiment kind is one statistic plus one
reduction.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import sinkhorn
from .errors import ConfigError
from .inference import _ci_two_sample_stack
from .measures import (
    _MASK64,
    CompactDomain,
    DiscreteMeasure,
    SplitMix64,
    _block,
    _draw_rows,
    _empirical_rows,
    _gaussian_rows,
    derived_seed,
    fmt17,
    load_measure,
)
from .oracle import GaussianPairSpec, gaussian_cost
from .potentials import (GridSpec, HolderOrder, _extensions, _kernel_tables, _order_terms,
                         f_extension, multi_indices)
from .sinkhorn import (Normalization, SolverConfig, _shift, _solve_stack, _solved_cost,
                       normalize, solve)

_POPULATION_TAG = 0x504F50  # distinguishes population draws from replicate draws

_TRUTH_TOL = 1e-12  # population problems are solved well below replicate tol

# A cell fans its replicates out to the pool, as chunks of one, only when one
# replicate's largest transport operator has at least this many entries. The
# break-even was measured on replicates run one at a time, before stacks (d=2
# on 2 cores: 20-replicate coverage cells near n = 362, n*n = 2**17, at eps 2
# and 0.5). Stacked chunks below it gain less still from a second thread:
# with every coverage-desk chunk in the pool at two threads a round call took
# 1.1x the wall time and 1.5x the CPU time.
_POOL_MIN_ENTRIES = 1 << 17

# The pool's workers together hold at most this many bytes of the run's
# largest transport operator, one each: five n = 5000 kernels. A blocked
# operator counts as DENSE_ENTRY_LIMIT entries, the most a solve holds.
_WORKER_BYTES = 1 << 30

# A smaller cell runs its replicates in chunks of as many as fit this many
# entries (1 MB of float64) of what a statistic holds for them: their draws'
# coordinates and weights and their pairs' potentials, d + 2 entries per atom
# of each side of their transport operators. A chunk of same-shaped operators
# may span the cells of its (d, eps) row. The solver cuts a chunk's problems
# into kernel stacks within a budget of its own, so a chunk's peak is one
# kernel stack plus the chunk's rows. A chunk's draws come in blocks
# (_drawn), and the potential-rate statistic evaluates its extensions in
# stacks, that each fit this budget. At 20 replicates a cell, drawing the
# chunks as blocks took 0.85 of the wall time of per-replicate draws, and one
# chunk per row instead of per cell 0.84 of the rest.
_CHUNK_ENTRIES = 1 << 17


class ExperimentKind(enum.Enum):
    COVERAGE = "coverage"
    BIAS_RATE = "bias_rate"
    POTENTIAL_RATE = "potential_rate"
    DIVERGENCE_RATE = "divergence_rate"


class ScenarioKind(enum.Enum):
    GAUSSIAN_PAIR = "gaussian"
    DISCRETE_PAIR = "discrete"


class EmitFormat(enum.Enum):
    CSV_TABLE = "csv"
    PLOT_DATA = "plot"


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description; see :func:`parse_config` for the file form."""

    kind: ExperimentKind
    scenario: ScenarioKind
    dims: tuple[int, ...]
    eps_list: tuple[float, ...]
    n_list: tuple[int, ...]
    replicates: int
    alpha: float
    seed: int
    solver: SolverConfig
    atoms: int = 10
    p_file: str | None = None
    q_file: str | None = None

    def __post_init__(self):
        for key, conv in (("dims", int), ("eps_list", float), ("n_list", int)):
            object.__setattr__(self, key, tuple(conv(v) for v in getattr(self, key)))
        if not self.dims or not self.eps_list or not self.n_list:
            raise ConfigError("dims, eps_list, and n_list must be nonempty")
        if any(d < 1 for d in self.dims):
            raise ConfigError("dimensions must be >= 1")
        if not all(0.0 < e < math.inf for e in self.eps_list):
            raise ConfigError("eps values must be positive and finite")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("sample sizes must be >= 1")
        # each (d, eps, n) names one cell of the emitted tables
        if any(len(set(v)) < len(v) for v in (self.dims, self.eps_list, self.n_list)):
            raise ConfigError("dims, eps_list and n_list must repeat no value")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly in (0, 1)")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.atoms < 1:
            raise ConfigError("atoms must be >= 1")
        coords = max(max(self.n_list), self.atoms) * max(self.dims)
        if coords > sinkhorn.DENSE_ENTRY_LIMIT:
            raise ConfigError(f"a sample of {coords} coordinates exceeds "
                              f"DENSE_ENTRY_LIMIT = {sinkhorn.DENSE_ENTRY_LIMIT}")
        if self.kind is not ExperimentKind.COVERAGE:
            if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly increasing for rate runs")
        if (self.p_file is None) != (self.q_file is None):
            raise ConfigError("p_file and q_file must be given together")
        if self.p_file is not None and self.scenario is not ScenarioKind.DISCRETE_PAIR:
            raise ConfigError("p_file and q_file need the discrete scenario")


@dataclass(frozen=True)
class CoverageCell:
    d: int
    eps: float
    n: int
    hits: int
    evaluated: int
    excluded: int
    attempted: int
    coverage: float
    mean_half_width: float


@dataclass(frozen=True)
class CoverageResult:
    kind: ExperimentKind
    config: ExperimentConfig
    cells: tuple[CoverageCell, ...]
    populations: tuple = ()


@dataclass(frozen=True)
class RatePoint:
    n: int
    mean: float
    sd: float
    evaluated: int
    excluded: int


@dataclass(frozen=True)
class RateCurve:
    label: str
    d: int
    eps: float
    points: tuple[RatePoint, ...]
    slope: float
    slope_se: float
    intercept: float


@dataclass(frozen=True)
class RateResult:
    kind: ExperimentKind
    config: ExperimentConfig
    curves: tuple[RateCurve, ...]
    populations: tuple = ()


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tight_solver(cfg: ExperimentConfig, eps: float) -> SolverConfig:
    """Solver for population problems, which stand in for exact truths."""
    return SolverConfig(eps=eps, tol=_TRUTH_TOL,
                        max_iter=max(cfg.solver.max_iter, 10**6))


class _GaussianScenario:
    """Isotropic Gaussian pair with closed-form population cost.

    The reference pair is N(0, I_d/2) against N(1, I_d/2) under the full
    squared-distance convention of the closed form. Scaling space by sqrt(2)
    maps that cost, at the same eps, onto this library's half-squared-distance
    convention, so replicates draw from N(0, I_d) and N(sqrt(2)*1, I_d).
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def samplers(self, d: int) -> tuple:
        """The draws ``(n, streams) -> block`` of P_n and of Q_n."""
        return (partial(_gaussian_rows, np.zeros(d), 1.0),
                partial(_gaussian_rows, np.full(d, math.sqrt(2.0)), 1.0))

    def truth(self, d: int, eps: float) -> float:
        return gaussian_cost(GaussianPairSpec(d, eps))

    def populations(self) -> tuple:
        return ()


class _DiscreteScenario:
    """Finitely supported pair; population cost from a tight solve."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._pairs: dict[int, tuple[DiscreteMeasure, DiscreteMeasure]] = {}
        if cfg.p_file is not None:
            P = load_measure(cfg.p_file)
            Q = load_measure(cfg.q_file)
            if P.dim != Q.dim:
                raise ConfigError("measure files disagree on dimension")
            if cfg.dims != (P.dim,):
                raise ConfigError(
                    f"dims must equal ({P.dim},) when measure files are given"
                )
            self._pairs[P.dim] = (P, Q)
        else:
            for d in cfg.dims:
                stream = SplitMix64(derived_seed(cfg.seed, _POPULATION_TAG, d))
                pts_p = stream.uniforms(cfg.atoms * d).reshape(cfg.atoms, d)
                pts_q = stream.uniforms(cfg.atoms * d).reshape(cfg.atoms, d)
                w = np.full(cfg.atoms, 1.0 / cfg.atoms)
                self._pairs[d] = (DiscreteMeasure(pts_p, w), DiscreteMeasure(pts_q, w))

    def pair(self, d: int) -> tuple[DiscreteMeasure, DiscreteMeasure]:
        return self._pairs[d]

    def samplers(self, d: int) -> tuple:
        """The draws ``(n, streams) -> block`` of P_n and of Q_n."""
        return tuple(partial(_empirical_rows, M) for M in self._pairs[d])

    def truth(self, d: int, eps: float) -> float:
        P, Q = self._pairs[d]
        return _solved_cost(P, Q, _tight_solver(self.cfg, eps))[2]

    def populations(self) -> tuple:
        return tuple((d, pq[0], pq[1]) for d, pq in sorted(self._pairs.items()))


def _scenario_for(cfg: ExperimentConfig):
    if cfg.scenario is ScenarioKind.GAUSSIAN_PAIR:
        return _GaussianScenario(cfg)
    return _DiscreteScenario(cfg)


# ---------------------------------------------------------------------------
# statistics: (scenario, d, solver) -> stat; stat maps (streams, ns), one
# stream and one sample size per replicate, to (values, converged): an (R, k)
# array of values and the mask of the rows whose solves converged (where a
# lone solve does not raise NotConverged)


def _drawn(draw, streams, ns) -> tuple:
    """``draw(n, block)`` over a chunk's replicates, in order, as one block
    ``(points, weights)`` (``measures._block``): one draw per run of
    consecutive replicates of one n, cut to at most ``_CHUNK_ENTRIES // (2 *
    n)`` streams, so that a block of n uniforms per stream and its one
    temporary fit ``_CHUNK_ENTRIES`` entries. A chunk's replicates share one
    operator shape (``_run``), so their draws share a support or a shape."""
    blocks = []
    for n, run in itertools.groupby(zip(ns, streams), key=lambda job: job[0]):
        run = [stream for _, stream in run]
        size = max(1, _CHUNK_ENTRIES // (2 * n))
        blocks += [draw(n, run[start:start + size]) for start in range(0, len(run), size)]
    if len(blocks) == 1:
        return blocks[0]
    points, weights = zip(*blocks)
    return (points[0] if points[0].ndim == 2 else np.concatenate(points),
            np.concatenate(weights))


def _empirical(P: DiscreteMeasure, n: int, streams) -> tuple:
    """The block of empirical measures of n draws from P, one per stream,
    from the uniforms and in the stream position of :func:`sample_empirical`.
    When P has at most n atoms they are given on P's own atoms, weighted by
    their counts of draws over n (a never-drawn atom weighs 0): the same
    measures with the smaller support, one shared by the block, so each of
    their transport problems is one on P's support."""
    if P.n > n:
        return _empirical_rows(P, n, streams)
    idx = _draw_rows(P, n, streams)
    idx += P.n * np.arange(len(streams))[:, None]  # row r counts into its own |P| bins
    counts = np.bincount(idx.ravel(), minlength=len(streams) * P.n)
    return _block(P.points, counts.reshape(len(streams), P.n) / n)


def _coverage_statistic(scenario, d: int, solver: SolverConfig):
    """(hit, half_width) of one n-and-n two-sample interval."""
    truth = scenario.truth(d, solver.eps)
    alpha = scenario.cfg.alpha

    def stat(streams, ns):
        # every stream draws P_n, then Q_n
        (X, a), (Y, b) = (_drawn(draw, streams, ns) for draw in scenario.samplers(d))
        centers, half_widths, converged = _ci_two_sample_stack(X, a, Y, b, solver, alpha)
        hits = (centers - half_widths <= truth) & (truth <= centers + half_widths)
        return np.stack((hits, half_widths), axis=1, dtype=np.float64), converged

    return stat


def _bias_statistic(scenario, d: int, solver: SolverConfig):
    """(bias,) of one empirical-versus-population problem."""
    P, Q = scenario.pair(d)
    truth = scenario.truth(d, solver.eps)

    def stat(streams, ns):
        solved = _solve_stack(*_drawn(partial(_empirical, P), streams, ns),
                              Q.points, Q.weights, solver)
        return (solved.cost - truth)[:, None], solved.converged

    return stat


def _potential_statistic(scenario, d: int, solver: SolverConfig):
    """(holder_sq, sup_sq): the squared grid norm of (empirical minus
    population) f potentials, and its squared sup-norm term alone.

    The grid-to-Q tables (``_kernel_tables``), and the population side f*'s
    grid tables, are fixed per (d, eps): they are built here once and
    shared, read-only, by every replicate. A chunk's transport problems,
    which span the cells of a row when the population has at most n atoms,
    are solved as one block; its converged extensions are evaluated on those
    tables in one run of stacks of as many replicates as fit
    ``_CHUNK_ENTRIES`` entries of grid tables, and f*'s tables are
    subtracted as :class:`PotentialDifference` does, so each value is
    bit-identical to ``holder_norm(PotentialDifference(f_n, f*), ...)``."""
    P, Q = scenario.pair(d)
    pts = GridSpec.default(CompactDomain.enclosing(P, Q)).points()
    s = HolderOrder.for_dimension(d).s
    alphas = multi_indices(d, s)
    tables = _kernel_tables(pts, Q, solver.eps, s)
    pop_pair, _ = solve(P, Q, _tight_solver(scenario.cfg, solver.eps))
    star = f_extension(normalize(pop_pair, P, Q, Normalization.ZERO_G_MEAN), Q)._evaluate(
        tables, alphas)
    for table in star.values():
        table.flags.writeable = False
    # values, raw moments, cumulants and derivatives on the grid, with their
    # temporaries: 10.4 grid tables per replicate at d = 2 (tracemalloc)
    group = max(1, _CHUNK_ENTRIES // (12 * len(pts)))

    def holder_terms(g):
        lt = _extensions(g, tables, alphas)
        for a in lt:
            lt[a] -= star[a]
        terms = _order_terms(lt, alphas, s)
        return [(sum(t) ** 2, t[0] ** 2) for t in zip(*(term.tolist() for term in terms))]

    def stat(streams, ns):
        X, a = _drawn(partial(_empirical, P), streams, ns)
        solved = _solve_stack(X, a, Q.points, Q.weights, solver)
        kept = solved.converged
        _, g = _shift(solved.f[kept], solved.g[kept], a[kept], Q.weights,
                      Normalization.ZERO_G_MEAN)
        del solved  # its pairs are not held beside the grid tables
        values, rows = np.full((len(streams), 2), np.nan), np.flatnonzero(kept)
        for start in range(0, len(g), group):
            values[rows[start:start + group]] = holder_terms(g[start:start + group])
        return values, kept

    return stat


def _divergence_statistic(scenario, d: int, solver: SolverConfig):
    """(one_sample, two_sample) debiased divergences.

    The population self-transport term is solved once per (d, eps); the
    empirical self term is shared between the two statistics.
    """
    P, _ = scenario.pair(d)
    s_pop_self = _solved_cost(P, P, solver)[2]

    def stat(streams, ns):
        # every stream draws P_n, then its second sample
        (X, a), (X2, a2) = (_drawn(partial(_empirical, P), streams, ns) for _ in range(2))
        nn, np_, s22, s12 = (_solve_stack(*problem, solver) for problem in (
            (X, a, X, a), (X, a, P.points, P.weights), (X2, a2, X2, a2), (X, a, X2, a2)))
        return (np.stack((np_.cost - 0.5 * (nn.cost + s_pop_self),
                          s12.cost - 0.5 * (nn.cost + s22.cost)), axis=1),
                nn.converged & np_.converged & s22.converged & s12.converged)

    return stat


# ---------------------------------------------------------------------------
# reductions over _run's (cells, replicates, k) values and their converged
# mask; each reduces a cell's column j over its converged rows as the 1-D copy
# v[ok, j], since a mean along an axis of a 2-D block sums in another order


def _coverage_result(cfg, scenario, values, converged) -> CoverageResult:
    out = []
    cells = itertools.product(cfg.dims, cfg.eps_list, cfg.n_list)
    for (d, eps, n), v, ok in zip(cells, values, converged):
        kept, hits = int(np.count_nonzero(ok)), int(np.count_nonzero(v[ok, 0]))
        out.append(CoverageCell(
            d=d, eps=eps, n=n, hits=hits, evaluated=kept,
            excluded=len(ok) - kept, attempted=len(ok),
            coverage=hits / kept if kept else math.nan,
            mean_half_width=float(np.mean(v[ok, 1])) if kept else math.nan,
        ))
    return CoverageResult(kind=cfg.kind, config=cfg, cells=tuple(out),
                          populations=scenario.populations())


def _fit_loglog(ns, means):
    """OLS of log |mean| on log n; returns (slope, slope_se, intercept)."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.maximum(np.abs(np.asarray(means, dtype=np.float64)), 1e-300))
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:  # a single sample size admits no slope
        return math.nan, math.nan, float(ybar)
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    k = len(x)
    if k > 2:
        resid = y - (intercept + slope * x)
        se = math.sqrt(float(np.sum(resid**2)) / (k - 2) / sxx)
    else:
        se = math.nan
    return slope, se, float(intercept)


def _rate_result(cfg, scenario, values, converged, labels) -> RateResult:
    """One curve per (d, eps, label); value column j feeds labels[j]."""
    rows = (len(cfg.dims) * len(cfg.eps_list), len(cfg.n_list), cfg.replicates)
    curves = []
    for (d, eps), v, ok in zip(itertools.product(cfg.dims, cfg.eps_list),
                               values.reshape(*rows, -1), converged.reshape(rows)):
        for j, label in enumerate(labels):
            points = []
            for n, v_n, ok_n in zip(cfg.n_list, v, ok):
                kept = v_n[ok_n, j]
                points.append(RatePoint(
                    n=n, mean=float(kept.mean()) if kept.size else math.nan,
                    sd=float(kept.std(ddof=1)) if kept.size > 1 else 0.0,
                    evaluated=kept.size, excluded=len(ok_n) - kept.size,
                ))
            slope, se, intercept = _fit_loglog(cfg.n_list, [p.mean for p in points])
            curves.append(RateCurve(label=label, d=d, eps=eps, points=tuple(points),
                                    slope=slope, slope_se=se, intercept=intercept))
    return RateResult(kind=cfg.kind, config=cfg, curves=tuple(curves),
                      populations=scenario.populations())


# kind -> (statistic, rate-curve labels or None for coverage cells, shape of
# one replicate's largest transport operator as a function of (scenario, d, n),
# which fixes the shapes of all its operators); a rate replicate's empirical P
# has min(n, |P|) atoms (_empirical)
_KINDS = {
    ExperimentKind.COVERAGE: (_coverage_statistic, None, lambda sc, d, n: (n, n)),
    ExperimentKind.BIAS_RATE: (
        _bias_statistic, ("bias",),
        lambda sc, d, n: (min(n, sc.pair(d)[0].n), sc.pair(d)[1].n)),
    ExperimentKind.POTENTIAL_RATE: (
        _potential_statistic, ("holder_sq", "sup_sq"),
        lambda sc, d, n: (min(n, sc.pair(d)[0].n), sc.pair(d)[1].n)),
    ExperimentKind.DIVERGENCE_RATE: (
        _divergence_statistic, ("one_sample", "two_sample"),
        lambda sc, d, n: (min(n, sc.pair(d)[0].n), sc.pair(d)[0].n)),
}


def _check_kind(cfg: ExperimentConfig, kind: ExperimentKind) -> None:
    if cfg.kind is not kind:
        raise ConfigError(f"config kind is {cfg.kind.value}, expected {kind.value}")
    if kind is ExperimentKind.COVERAGE:
        return
    what = kind.value.replace("_", "-")
    if cfg.scenario is not ScenarioKind.DISCRETE_PAIR:
        raise ConfigError(f"{what} runs need the discrete scenario (exact truth)")
    if kind is ExperimentKind.POTENTIAL_RATE and any(d > 2 for d in cfg.dims):
        raise ConfigError("potential-rate runs support d <= 2")
    if kind is not ExperimentKind.BIAS_RATE and any(e != 1.0 for e in cfg.eps_list):
        raise ConfigError(f"{what} runs require eps = 1")


def _run(cfg: ExperimentConfig, kind: ExperimentKind, threads: int | None):
    """Every replicate of every cell, reduced to the result of ``kind``.

    ``threads`` bounds the pool's workers; None means the usable CPUs, and a
    value below 1 raises :class:`ValueError` before anything runs.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_kind(cfg, kind)
    scenario = _scenario_for(cfg)
    statistic, labels, operator_shape = _KINDS[kind]
    # at most one worker per replicate and per usable CPU, whatever threads
    # asks, and as many as _WORKER_BYTES hold of the largest operator
    largest = max(math.prod(operator_shape(scenario, d, n))
                  for d, n in itertools.product(cfg.dims, cfg.n_list))
    cpus = _usable_cpus()
    workers = min(cpus if threads is None else threads, cfg.replicates, cpus,
                  max(1, _WORKER_BYTES // (8 * min(largest, sinkhorn.DENSE_ENTRY_LIMIT))))
    reps = cfg.replicates
    outcomes = []  # each chunk's (values, converged), in cell and replicate order
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # one statistic per (d, eps) row; one chunking per run of the row's
        # cells whose operators have one shape
        for (d, eps), row in itertools.groupby(
                enumerate(itertools.product(cfg.dims, cfg.eps_list, cfg.n_list)),
                key=lambda cell: cell[1][:2]):
            stat = statistic(scenario, d, replace(cfg.solver, eps=eps))
            for shape, run in itertools.groupby(
                    row, key=lambda cell, d=d: operator_shape(scenario, d, cell[1][2])):
                entries = math.prod(shape)
                if entries >= _POOL_MIN_ENTRIES:
                    size, fan_out = 1, map if pool is None else pool.map
                else:
                    size = max(1, _CHUNK_ENTRIES // ((d + 2) * sum(shape)))
                    fan_out = map
                jobs = [(index, n, r) for index, (_, _, n) in run for r in range(reps)]

                def run_chunk(chunk, stat=stat):
                    return stat([SplitMix64(derived_seed(cfg.seed, index, r))
                                 for index, _, r in chunk], [n for _, n, _ in chunk])

                chunks = [jobs[start:start + size] for start in range(0, len(jobs), size)]
                outcomes += fan_out(run_chunk, chunks)
    # (cells, replicates, k) values and a (cells, replicates) mask
    values, converged = (np.concatenate(part).reshape(-1, reps, *part[0].shape[1:])
                         for part in zip(*outcomes))
    if labels is None:
        return _coverage_result(cfg, scenario, values, converged)
    return _rate_result(cfg, scenario, values, converged, labels)


def run_coverage(cfg: ExperimentConfig, threads: int | None = None) -> CoverageResult:
    """Per cell: draw n-and-n samples, build the two-sample interval, and
    count how often it contains the population cost. Non-converged
    replicates are excluded and counted, never silently dropped."""
    return _run(cfg, ExperimentKind.COVERAGE, threads)


def run_bias_rate(cfg: ExperimentConfig, threads: int | None = None) -> RateResult:
    """Mean of (empirical cost - population cost) per sample size, with a
    log-log slope fit of the absolute mean bias."""
    return _run(cfg, ExperimentKind.BIAS_RATE, threads)


def run_potential_rate(cfg: ExperimentConfig, threads: int | None = None) -> RateResult:
    """Mean squared grid norm of (empirical minus population) f potentials.

    Fits the slope of the squared derivative-sum norm and, as a
    sub-statistic of the same runs, of the squared sup-norm term alone.
    """
    return _run(cfg, ExperimentKind.POTENTIAL_RATE, threads)


def run_divergence_rate(cfg: ExperimentConfig, threads: int | None = None) -> RateResult:
    """Mean one-sample and two-sample divergences per sample size."""
    return _run(cfg, ExperimentKind.DIVERGENCE_RATE, threads)


def run_experiment(cfg: ExperimentConfig, threads: int | None = None):
    return _run(cfg, cfg.kind, threads)


# ---------------------------------------------------------------------------
# config file parsing


def _enum(cls, what: str):
    def conv(text: str):
        try:
            return cls(text.lower())
        except ValueError as exc:
            raise ConfigError(f"unknown {what} {text!r}") from exc
    return conv


def _comma_list(conv):
    return lambda text: tuple(conv(tok.strip()) for tok in text.split(","))


# key -> converter of its value text, in conversion order. tol and max_iter go
# to SolverConfig; the rest are ExperimentConfig fields, required without a default.
_CONFIG_KEYS = {
    "kind": _enum(ExperimentKind, "kind"),
    "scenario": _enum(ScenarioKind, "scenario"),
    "eps_list": _comma_list(float),
    "tol": float,
    "max_iter": int,
    "dims": _comma_list(int),
    "n_list": _comma_list(int),
    "replicates": int,
    "alpha": float,
    "seed": int,
    "atoms": int,
    "p_file": str,
    "q_file": str,
}

_REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                       if f.default is MISSING and f.name != "solver")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented ``key = value`` experiment description.

    ``#`` starts a comment that runs to the end of its line, so no value, a
    ``p_file`` path included, can contain ``#``. Blank lines are skipped;
    list values are comma separated; unknown or duplicate keys are rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values = {}
    for key, conv in _CONFIG_KEYS.items():
        if key in entries:
            try:
                values[key] = conv(entries[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
    try:
        solver = SolverConfig(eps=values["eps_list"][0],
                              **{k: values.pop(k) for k in ("tol", "max_iter") if k in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(solver=solver, **values)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# emission


def _header_comments(result) -> list[str]:
    cfg = result.config
    lines = [
        f"# kind={cfg.kind.value},scenario={cfg.scenario.value},"
        f"seed={cfg.seed},alpha={fmt17(cfg.alpha)},replicates={cfg.replicates},"
        f"tol={fmt17(cfg.solver.tol)},max_iter={cfg.solver.max_iter}"
    ]
    for d, P, Q in result.populations:
        for name, m in (("p", P), ("q", Q)):
            atoms = ";".join(
                ",".join(fmt17(v) for v in (w, *pt))
                for w, pt in zip(m.weights, m.points)
            )
            lines.append(f"# population_{name}_d{d}={atoms}")
    return lines


def _eps_table(cfg, heading: str, rows) -> list[str]:
    """A heading comment, an eps header, and one row per (name, value per eps)."""
    lines = [heading, "n," + ",".join(f"eps={fmt17(e)}" for e in cfg.eps_list)]
    lines += [",".join([str(name)] + [fmt17(v) for v in values]) for name, values in rows]
    return lines


def _render_coverage_csv(result: CoverageResult) -> str:
    lines = _header_comments(result)
    cfg = result.config
    by_key = {(c.d, c.eps, c.n): c for c in result.cells}
    for d in cfg.dims:
        if not any(c.d == d for c in result.cells):
            continue
        lines += _eps_table(cfg, f"# d={d}", [
            (n, [by_key[d, e, n].coverage for e in cfg.eps_list]) for n in cfg.n_list
        ])
    return "\n".join(lines) + "\n"


def _render_coverage_plot(result: CoverageResult) -> str:
    lines = ["curve,d,eps,n,coverage,mean_half_width,hits,evaluated,excluded,attempted"]
    for c in result.cells:
        lines.append(",".join([
            "coverage", str(c.d), fmt17(c.eps), str(c.n), fmt17(c.coverage),
            fmt17(c.mean_half_width), str(c.hits), str(c.evaluated),
            str(c.excluded), str(c.attempted),
        ]))
    return "\n".join(lines) + "\n"


def _render_rate_csv(result: RateResult) -> str:
    lines = _header_comments(result)
    cfg = result.config
    by_key = {(c.label, c.d, c.eps): c for c in result.curves}
    labels = dict.fromkeys(c.label for c in result.curves)
    for d in cfg.dims:
        for label in labels:
            if not any(c.d == d and c.label == label for c in result.curves):
                continue
            curves = [by_key[label, d, e] for e in cfg.eps_list]
            rows = [(n, [c.points[i].mean for c in curves])
                    for i, n in enumerate(cfg.n_list)]
            rows += [(fit, [getattr(c, fit) for c in curves])
                     for fit in ("slope", "slope_se", "intercept")]
            lines += _eps_table(cfg, f"# d={d},label={label}", rows)
    return "\n".join(lines) + "\n"


def _render_rate_plot(result: RateResult) -> str:
    lines = ["curve,d,eps,row,x,y"]
    for c in result.curves:
        for p in c.points:
            x = math.log(p.n)
            y = math.log(max(abs(p.mean), 1e-300))
            lines.append(",".join([
                c.label, str(c.d), fmt17(c.eps), "point", fmt17(x), fmt17(y),
            ]))
        lines.append(",".join([
            c.label, str(c.d), fmt17(c.eps), "fit", fmt17(c.slope), fmt17(c.intercept),
        ]))
    return "\n".join(lines) + "\n"


def render(result, fmt: EmitFormat) -> str:
    if isinstance(result, CoverageResult):
        if fmt is EmitFormat.CSV_TABLE:
            return _render_coverage_csv(result)
        return _render_coverage_plot(result)
    if isinstance(result, RateResult):
        if fmt is EmitFormat.CSV_TABLE:
            return _render_rate_csv(result)
        return _render_rate_plot(result)
    raise TypeError(f"cannot render {type(result).__name__}")


def emit(result, path, fmt: EmitFormat) -> None:
    """Write a result to disk; identical results produce identical bytes."""
    text = render(result, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
