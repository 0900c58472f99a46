"""Plug-in variance estimates, confidence intervals, and the divergence.

The asymptotic variance of the empirical transport cost is the variance of
the empirical potential under the sampled measure, so the interval half-width
is ``z * sqrt(var/n)`` (one sample) or ``z * sqrt(var * (n+m)/(n*m))`` (two
samples). The normal CDF and quantile come from the standard library.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .measures import DiscreteMeasure
from .sinkhorn import (PotentialPair, SolverConfig, _check_pair_dims, _dot, _solve_stack,
                       _solved_cost)

_SQRT_2 = math.sqrt(2.0)


class VarianceKind(enum.Enum):
    ONE_SAMPLE = "one_sample"
    TWO_SAMPLE = "two_sample"


@dataclass(frozen=True)
class VarianceEstimate:
    value: float
    kind: VarianceKind
    n: int
    m: int = 0


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    level: float
    variance: VarianceEstimate

    @property
    def low(self) -> float:
        return self.center - self.half_width

    @property
    def high(self) -> float:
        return self.center + self.half_width

    def contains(self, x: float) -> bool:
        return self.low <= x <= self.high


@dataclass(frozen=True)
class DivergenceValue:
    """Debiased cost: cross term minus half the two self terms."""

    value: float
    eps: float
    parts: tuple[float, float, float]  # (S_PQ, S_PP, S_QQ)


def _weighted_variance(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Variance of each row of ``values`` under its row of ``weights``; a
    rounding below 0 is clamped to 0, and a NaN stays NaN."""
    centered = values - _dot(values, weights)[:, None]
    return np.maximum(0.0, _dot(centered * centered, weights))


def _two_sample_variance(f, a, g, b) -> np.ndarray:
    """``m/(n+m) * Var(f) + n/(n+m) * Var(g)`` of each row pair."""
    n, m = f.shape[-1], g.shape[-1]
    return (m / (n + m)) * _weighted_variance(f, a) + (n / (n + m)) * _weighted_variance(g, b)


def variance_one_sample(P_n: DiscreteMeasure, pair: PotentialPair) -> VarianceEstimate:
    """Variance of the f potential under the first (sampled) measure."""
    if pair.f.shape[0] != P_n.n:
        raise DimensionMismatch(
            f"f has {pair.f.shape[0]} entries but the measure has {P_n.n} atoms"
        )
    return VarianceEstimate(
        value=float(_weighted_variance(pair.f[None], P_n.weights[None])[0]),
        kind=VarianceKind.ONE_SAMPLE,
        n=P_n.n,
    )


def variance_two_sample(P_n: DiscreteMeasure, Q_m: DiscreteMeasure,
                        pair: PotentialPair) -> VarianceEstimate:
    """Convex combination m/(n+m) * Var(f) + n/(n+m) * Var(g)."""
    _check_pair_dims(P_n, Q_m, pair)
    value = _two_sample_variance(pair.f[None], P_n.weights[None], pair.g[None], Q_m.weights[None])
    return VarianceEstimate(value=float(value[0]), kind=VarianceKind.TWO_SAMPLE, n=P_n.n, m=Q_m.n)


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to relative rounding in both tails."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def normal_quantile(beta: float) -> float:
    """beta quantile of the standard normal."""
    if not 0.0 < beta < 1.0:
        raise OutOfRange(f"beta must lie strictly in (0, 1), got {beta!r}")
    # Imported here: statistics pulls in fractions and decimal, a few ms.
    from statistics import NormalDist

    return NormalDist().inv_cdf(beta)


def one_sample_half_width(variance_value: float, n: int, z: float) -> float:
    return z * math.sqrt(variance_value / n)


def two_sample_half_width(variance_value: float, n: int, m: int, z: float) -> float:
    return z * math.sqrt(variance_value * (n + m) / (n * m))


def _two_sided_z(alpha: float) -> float:
    """Normal quantile for a level ``1 - alpha`` two-sided interval."""
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return normal_quantile(1.0 - alpha / 2.0)


def ci_one_sample(P_n: DiscreteMeasure, Q: DiscreteMeasure, cfg: SolverConfig,
                  alpha: float) -> ConfidenceInterval:
    """Interval for the population cost from one empirical measure."""
    z = _two_sided_z(alpha)
    pair, _, center = _solved_cost(P_n, Q, cfg)
    var = variance_one_sample(P_n, pair)
    return ConfidenceInterval(
        center=center,
        half_width=one_sample_half_width(var.value, var.n, z),
        level=1.0 - alpha,
        variance=var,
    )


def ci_two_sample(P_n: DiscreteMeasure, Q_m: DiscreteMeasure, cfg: SolverConfig,
                  alpha: float) -> ConfidenceInterval:
    """Interval for the population cost from two empirical measures."""
    z = _two_sided_z(alpha)
    pair, _, center = _solved_cost(P_n, Q_m, cfg)
    var = variance_two_sample(P_n, Q_m, pair)
    return ConfidenceInterval(center, two_sample_half_width(var.value, var.n, var.m, z),
                              1.0 - alpha, var)


def _ci_two_sample_stack(X, a, Y, b, cfg: SolverConfig, alpha: float) -> tuple:
    """:func:`ci_two_sample` of each problem of a block, solved as one
    (``sinkhorn._solve_stack``; ``a`` and ``b`` are weight rows), as rows
    ``(centers, half_widths, converged)``. Row r is problem r's lone interval
    where ``converged`` is True, which is where its lone solve does not raise
    :class:`NotConverged`."""
    z = _two_sided_z(alpha)
    solved = _solve_stack(X, a, Y, b, cfg)
    n, m = a.shape[1], b.shape[1]
    var = _two_sample_variance(solved.f, a, solved.g, b)
    return solved.cost, z * np.sqrt(var * (n + m) / (n * m)), solved.converged


def sinkhorn_divergence(P: DiscreteMeasure, Q: DiscreteMeasure,
                        cfg: SolverConfig) -> DivergenceValue:
    """Three solves at one configuration, assembled into the divergence."""
    s_pq = _solved_cost(P, Q, cfg)[2]
    s_pp = _solved_cost(P, P, cfg)[2]
    s_qq = _solved_cost(Q, Q, cfg)[2]
    return DivergenceValue(
        value=s_pq - 0.5 * (s_pp + s_qq),
        eps=cfg.eps,
        parts=(s_pq, s_pp, s_qq),
    )
