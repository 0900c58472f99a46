"""Deterministic Monte Carlo experiments over the solver and inference stack.

Four experiment kinds: interval coverage against a known population cost,
the bias of the empirical cost, the squared grid-norm error of empirical
potentials, and the decay of the debiased divergence. Each replicate draws
its randomness from a stream derived by hashing (master seed, cell index,
replicate index), so every cell is independently reproducible and results
are byte-identical across thread counts.

One replicate loop runs every kind. It walks the (d, eps, n) cells, builds
the kind's per-replicate statistic once per (d, eps), and fans each cell's
replicates out to a thread pool. A statistic maps (stream, n) to a tuple of
values; a replicate whose solve did not converge is recorded as None. Two
reductions turn the loop's output into results: coverage cells (hit rate
and mean half-width) and rate curves (one curve per tuple position, with a
log-log slope fit). A new experiment kind is one statistic plus one
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
from pathlib import Path

import numpy as np

from .errors import ConfigError, NotConverged
from .inference import ci_two_sample
from .measures import (
    _MASK64,
    CompactDomain,
    DiscreteMeasure,
    SplitMix64,
    derived_seed,
    fmt17,
    load_measure,
    sample_empirical,
    sample_gaussian,
)
from .oracle import GaussianPairSpec, gaussian_cost
from .potentials import (GridSpec, HolderOrder, _kernel_tables, _order_terms, f_extension,
                         multi_indices)
from .sinkhorn import Normalization, SolverConfig, _solved_cost, normalize, solve

_POPULATION_TAG = 0x504F50  # distinguishes population draws from replicate draws

_TRUTH_TOL = 1e-12  # population problems are solved well below replicate tol


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
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if not self.dims or not self.eps_list or not self.n_list:
            raise ConfigError("dims, eps_list, and n_list must be nonempty")
        if any(d < 1 for d in self.dims):
            raise ConfigError("dimensions must be >= 1")
        if not all(0.0 < e < math.inf for e in self.eps_list):
            raise ConfigError("eps values must be positive and finite")
        if any(n < 1 for n in self.n_list):
            raise ConfigError("sample sizes must be >= 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly in (0, 1)")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.atoms < 1:
            raise ConfigError("atoms must be >= 1")
        if self.kind is not ExperimentKind.COVERAGE:
            if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly increasing for rate runs")


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


def resolve_threads(requested: int | None = None) -> int:
    """Thread count from an explicit value, EOT_THREADS, or the machine."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("EOT_THREADS")
    if env:
        return max(1, int(env))
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

    def sample_pair(self, stream: SplitMix64, d: int, n: int):
        P_n = sample_gaussian(np.zeros(d), 1.0, n, stream)
        Q_n = sample_gaussian(np.full(d, math.sqrt(2.0)), 1.0, n, stream)
        return P_n, Q_n

    def truth(self, d: int, eps: float) -> float:
        return gaussian_cost(GaussianPairSpec(d, eps))

    def populations(self) -> tuple:
        return ()


class _DiscreteScenario:
    """Finitely supported pair; population cost from a tight solve."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._pairs: dict[int, tuple[DiscreteMeasure, DiscreteMeasure]] = {}
        if cfg.p_file is not None or cfg.q_file is not None:
            if cfg.p_file is None or cfg.q_file is None:
                raise ConfigError("p_file and q_file must be given together")
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

    def sample_pair(self, stream: SplitMix64, d: int, n: int):
        P, Q = self._pairs[d]
        return sample_empirical(P, n, stream), sample_empirical(Q, n, stream)

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
# per-replicate statistics: (scenario, d, solver) -> ((stream, n) -> tuple)


def _coverage_statistic(scenario, d: int, solver: SolverConfig):
    """(hit, half_width) of one n-and-n two-sample interval."""
    truth = scenario.truth(d, solver.eps)
    alpha = scenario.cfg.alpha

    def stat(stream, n):
        P_n, Q_n = scenario.sample_pair(stream, d, n)
        ci = ci_two_sample(P_n, Q_n, solver, alpha)
        return (1 if ci.contains(truth) else 0, ci.half_width)

    return stat


def _bias_statistic(scenario, d: int, solver: SolverConfig):
    """(bias,) of one empirical-versus-population problem."""
    P, Q = scenario.pair(d)
    truth = scenario.truth(d, solver.eps)

    def stat(stream, n):
        return (bias_replicate(sample_empirical(P, n, stream), Q, solver, truth),)

    return stat


def bias_replicate(P_emp: DiscreteMeasure, Q: DiscreteMeasure,
                   solver: SolverConfig, truth: float) -> float:
    """Cost of one empirical problem minus the population cost."""
    return _solved_cost(P_emp, Q, solver)[2] - truth


def _potential_statistic(scenario, d: int, solver: SolverConfig):
    """(holder_sq, sup_sq): the squared grid norm of (empirical minus
    population) f potentials, and its squared sup-norm term alone.

    The grid-to-Q kernel and Q's monomials, and the population side f*'s
    grid tables, are fixed per (d, eps): they are built here once and
    shared, read-only, by every replicate, which evaluates its extension on
    them and subtracts f*'s tables as :class:`PotentialDifference` does, so
    each value is bit-identical to
    ``holder_norm(PotentialDifference(f_n, f*), ...)``."""
    P, Q = scenario.pair(d)
    pts = GridSpec.default(CompactDomain.enclosing(P, Q)).points()
    s = HolderOrder.for_dimension(d).s
    alphas = multi_indices(d, s)
    tables = _kernel_tables(pts, Q.points, solver.eps, s)
    pop_pair, _ = solve(P, Q, _tight_solver(scenario.cfg, solver.eps))
    star = f_extension(normalize(pop_pair, P, Q, Normalization.ZERO_G_MEAN), Q)._evaluate(
        pts, alphas, *tables)
    for table in star.values():
        table.flags.writeable = False

    def stat(stream, n):
        P_n = sample_empirical(P, n, stream)
        pair, _ = solve(P_n, Q, solver)
        pair = normalize(pair, P_n, Q, Normalization.ZERO_G_MEAN)
        lt = f_extension(pair, Q)._evaluate(pts, alphas, *tables)
        terms = _order_terms({a: lt[a] - star[a] for a in lt}, alphas, s)
        return sum(terms) ** 2, terms[0] ** 2

    return stat


def _divergence_statistic(scenario, d: int, solver: SolverConfig):
    """(one_sample, two_sample) debiased divergences.

    The population self-transport term is solved once per (d, eps); the
    empirical self term is shared between the two statistics.
    """
    P, _ = scenario.pair(d)
    s_pop_self = _solved_cost(P, P, solver)[2]

    def stat(stream, n):
        P_n = sample_empirical(P, n, stream)
        P2_n = sample_empirical(P, n, stream)
        s_nn = _solved_cost(P_n, P_n, solver)[2]
        s_np = _solved_cost(P_n, P, solver)[2]
        s_22 = _solved_cost(P2_n, P2_n, solver)[2]
        s_12 = _solved_cost(P_n, P2_n, solver)[2]
        return s_np - 0.5 * (s_nn + s_pop_self), s_12 - 0.5 * (s_nn + s_22)

    return stat


# ---------------------------------------------------------------------------
# reductions over _run's [((d, eps, n), outcomes)] list


def _coverage_result(cfg, scenario, cells) -> CoverageResult:
    out = []
    for (d, eps, n), outcomes in cells:
        kept = [o for o in outcomes if o is not None]
        hits = sum(o[0] for o in kept)
        out.append(CoverageCell(
            d=d, eps=eps, n=n, hits=hits, evaluated=len(kept),
            excluded=len(outcomes) - len(kept), attempted=len(outcomes),
            coverage=hits / len(kept) if kept else math.nan,
            mean_half_width=float(np.mean([o[1] for o in kept])) if kept else math.nan,
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


def _rate_result(cfg, scenario, cells, labels) -> RateResult:
    """One curve per (d, eps, label); tuple position j feeds labels[j]."""
    by_cell = dict(cells)
    curves = []
    for d in cfg.dims:
        for eps in cfg.eps_list:
            for j, label in enumerate(labels):
                points = []
                for n in cfg.n_list:
                    outcomes = by_cell[d, eps, n]
                    kept = np.asarray([o[j] for o in outcomes if o is not None],
                                      dtype=np.float64)
                    points.append(RatePoint(
                        n=n, mean=float(kept.mean()) if kept.size else math.nan,
                        sd=float(kept.std(ddof=1)) if kept.size > 1 else 0.0,
                        evaluated=kept.size, excluded=len(outcomes) - kept.size,
                    ))
                slope, se, intercept = _fit_loglog(cfg.n_list, [p.mean for p in points])
                curves.append(RateCurve(label=label, d=d, eps=eps, points=tuple(points),
                                        slope=slope, slope_se=se, intercept=intercept))
    return RateResult(kind=cfg.kind, config=cfg, curves=tuple(curves),
                      populations=scenario.populations())


# kind -> (statistic, rate-curve labels; None reduces to coverage cells)
_KINDS = {
    ExperimentKind.COVERAGE: (_coverage_statistic, None),
    ExperimentKind.BIAS_RATE: (_bias_statistic, ("bias",)),
    ExperimentKind.POTENTIAL_RATE: (_potential_statistic, ("holder_sq", "sup_sq")),
    ExperimentKind.DIVERGENCE_RATE: (_divergence_statistic, ("one_sample", "two_sample")),
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


def _run(cfg: ExperimentConfig, kind: ExperimentKind, threads: int):
    """Every replicate of every cell, reduced to the result of ``kind``."""
    _check_kind(cfg, kind)
    scenario = _scenario_for(cfg)
    statistic, labels = _KINDS[kind]
    # at most one worker per replicate and four per core, whatever --threads asks
    workers = min(threads, cfg.replicates, 4 * (os.cpu_count() or 1))
    stats: dict = {}
    cells = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        fan_out = pool.map if pool is not None else map
        for index, (d, eps, n) in enumerate(
                itertools.product(cfg.dims, cfg.eps_list, cfg.n_list)):
            if (d, eps) not in stats:
                stats[d, eps] = statistic(scenario, d, replace(cfg.solver, eps=eps))

            def one(r, stat=stats[d, eps], index=index, n=n):
                try:
                    return stat(SplitMix64(derived_seed(cfg.seed, index, r)), n)
                except NotConverged:
                    return None

            cells.append(((d, eps, n), list(fan_out(one, range(cfg.replicates)))))
    if labels is None:
        return _coverage_result(cfg, scenario, cells)
    return _rate_result(cfg, scenario, cells, labels)


def run_coverage(cfg: ExperimentConfig, threads: int = 1) -> CoverageResult:
    """Per cell: draw n-and-n samples, build the two-sample interval, and
    count how often it contains the population cost. Non-converged
    replicates are excluded and counted, never silently dropped."""
    return _run(cfg, ExperimentKind.COVERAGE, threads)


def run_bias_rate(cfg: ExperimentConfig, threads: int = 1) -> RateResult:
    """Mean of (empirical cost - population cost) per sample size, with a
    log-log slope fit of the absolute mean bias."""
    return _run(cfg, ExperimentKind.BIAS_RATE, threads)


def run_potential_rate(cfg: ExperimentConfig, threads: int = 1) -> RateResult:
    """Mean squared grid norm of (empirical minus population) f potentials.

    Fits the slope of the squared derivative-sum norm and, as a
    sub-statistic of the same runs, of the squared sup-norm term alone.
    """
    return _run(cfg, ExperimentKind.POTENTIAL_RATE, threads)


def run_divergence_rate(cfg: ExperimentConfig, threads: int = 1) -> RateResult:
    """Mean one-sample and two-sample divergences per sample size."""
    return _run(cfg, ExperimentKind.DIVERGENCE_RATE, threads)


def run_experiment(cfg: ExperimentConfig, threads: int = 1):
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

    Blank lines and ``#`` comments are skipped; list values are comma
    separated; unknown or duplicate keys are rejected.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
