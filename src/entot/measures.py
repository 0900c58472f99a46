"""Discrete probability measures, compact domains, and deterministic sampling.

The sampling primitives are built on a splitmix-style 64-bit generator so that
every draw is a pure function of a :class:`SeedSpec`. No global RNG state is
consulted anywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptySupport,
    MalformedFile,
    NonPositiveEps,
    NonSimplexWeights,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of the splitmix64 stream

# Weight sums further than this from 1 are rejected instead of renormalized.
RENORMALIZATION_BAND = 1e-9


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise NonPositiveEps(f"eps must be positive and finite, got {eps!r}")


def fmt17(x) -> str:
    """17 significant digits: enough for a float64 to round-trip bit for bit."""
    return "%.17g" % float(x)


def mix64(z: int) -> int:
    """Splitmix64 finalizer: a bijective 64-bit hash with good avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derived_seed(master: int, *indices: int) -> int:
    """Fold indices into a master seed; pure and order-sensitive."""
    s = master & _MASK64
    for ix in indices:
        s = mix64((s + _GAMMA * (ix + 1)) & _MASK64)
    return s


class SplitMix64:
    """Deterministic 64-bit stream: output k is ``mix64(seed + (k+1)*GAMMA)``.

    The closed form over the draw counter means a block of outputs equals the
    same draws taken one at a time, so vectorized and scalar callers are
    byte-identical.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._seed + self._count * _GAMMA) & _MASK64)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def u64_block(self, count: int) -> np.ndarray:
        """Next `count` raw outputs as uint64, advancing the stream."""
        idx = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        z = np.uint64(self._seed) + np.uint64(_GAMMA) * idx  # wraps mod 2**64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int) -> np.ndarray:
        """Block of `count` uniforms in [0, 1), advancing the stream."""
        return (self.u64_block(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class SeedSpec:
    """Names one reproducible stream: (master seed, replicate index)."""

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be nonnegative")

    def stream(self) -> SplitMix64:
        """Stream seeded by hashing (master_seed, replicate_index)."""
        return SplitMix64(derived_seed(self.master_seed, self.replicate_index))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on R^d.

    points : (n, d) array of support points.
    weights : (n,) array of nonnegative weights summing to one.

    Arrays are copied and frozen at construction; instances are safe to share
    across threads.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        w = np.array(self.weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise ValueError("weights length must match the number of points")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("points and weights must be finite")
        if np.any(w < 0):
            raise NonSimplexWeights("negative weight")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise NonSimplexWeights(
                f"weights sum to {w.sum()!r}, more than 1e-12 away from 1"
            )
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def dirac(point) -> DiscreteMeasure:
    """Unit mass at a single point."""
    pt = np.atleast_1d(np.asarray(point, dtype=np.float64))
    return DiscreteMeasure(pt[None, :], np.array([1.0]))


def uniform_on(points) -> DiscreteMeasure:
    """Uniform measure on the given support points."""
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class CompactDomain:
    """Axis-aligned bounding box with its Euclidean diameter."""

    lower: np.ndarray
    upper: np.ndarray
    diameter: float = field(init=False)

    def __post_init__(self):
        lo = np.array(self.lower, dtype=np.float64).reshape(-1)
        hi = np.array(self.upper, dtype=np.float64).reshape(-1)
        if lo.shape != hi.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(lo > hi):
            raise ValueError("lower must be <= upper componentwise")
        diam = float(np.sqrt(np.sum((hi - lo) ** 2)))
        if diam <= 0.0:
            raise ValueError("domain must have positive diameter")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "diameter", diam)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return bool(np.all(pts >= self.lower) and np.all(pts <= self.upper))

    @staticmethod
    def unit_box(dim: int) -> "CompactDomain":
        return CompactDomain(np.zeros(dim), np.ones(dim))

    @staticmethod
    def enclosing(*measures: DiscreteMeasure) -> "CompactDomain":
        pts = np.vstack([m.points for m in measures])
        return CompactDomain(pts.min(axis=0), pts.max(axis=0))


def load_measure(path) -> DiscreteMeasure:
    """Read a measure file: header ``w,x1,...,xd`` then one atom per line.

    Weight sums within ``RENORMALIZATION_BAND`` of 1 are renormalized;
    anything further off (or any negative weight) raises
    :class:`NonSimplexWeights`.
    """
    text = Path(path).read_text(encoding="utf-8")
    return parse_measure(text)


def parse_measure(text: str) -> DiscreteMeasure:
    """Parse measure file content; see :func:`load_measure`."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MalformedFile("empty file")
    header = [tok.strip() for tok in lines[0].split(",")]
    if len(header) < 2 or header[0] != "w":
        raise MalformedFile(f"bad header: {lines[0]!r}")
    d = len(header) - 1
    for k, name in enumerate(header[1:], start=1):
        if name != f"x{k}":
            raise MalformedFile(f"bad header column {k}: {name!r}")
    rows = lines[1:]
    if not rows:
        raise EmptySupport("measure file has a header but no atoms")
    weights = np.empty(len(rows))
    points = np.empty((len(rows), d))
    for i, row in enumerate(rows):
        toks = [tok.strip() for tok in row.split(",")]
        if len(toks) != d + 1:
            raise MalformedFile(f"row {i + 2} has {len(toks)} fields, expected {d + 1}")
        try:
            vals = [float(tok) for tok in toks]
        except ValueError as exc:
            raise MalformedFile(f"row {i + 2}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise MalformedFile(f"row {i + 2} contains a non-finite value")
        weights[i] = vals[0]
        points[i] = vals[1:]
    if np.any(weights < 0):
        raise NonSimplexWeights("negative weight in measure file")
    total = float(weights.sum())
    if abs(total - 1.0) > RENORMALIZATION_BAND:
        raise NonSimplexWeights(
            f"weights sum to {total!r}, outside the {RENORMALIZATION_BAND} band"
        )
    if abs(total - 1.0) > 1e-12:  # renormalize only when actually off
        weights = weights / total
    return DiscreteMeasure(points, weights)


def write_measure(measure: DiscreteMeasure, path) -> None:
    """Write a measure in the file format accepted by :func:`load_measure`."""
    header = "w," + ",".join(f"x{k}" for k in range(1, measure.dim + 1))
    rows = [header]
    for w, pt in zip(measure.weights, measure.points):
        rows.append(",".join(fmt17(v) for v in (w, *pt)))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _resolve_stream(seed) -> SplitMix64:
    if isinstance(seed, SplitMix64):
        return seed
    if isinstance(seed, SeedSpec):
        return seed.stream()
    raise TypeError("seed must be a SeedSpec or a SplitMix64 stream")


def sample_empirical(source: DiscreteMeasure, n: int, seed) -> DiscreteMeasure:
    """n i.i.d. draws from a discrete measure, each with weight 1/n.

    Inverse-CDF sampling over the cumulative weights, one uniform per draw,
    so output is deterministic and order-stable given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    stream = _resolve_stream(seed)
    cum = np.cumsum(source.weights)
    us = stream.uniforms(n)
    idx = np.searchsorted(cum, us, side="right")
    idx = np.minimum(idx, source.n - 1)  # guards u >= cum[-1] roundoff
    return DiscreteMeasure(source.points[idx], np.full(n, 1.0 / n))


def sample_gaussian(mean, variance_scale: float, n: int, seed) -> DiscreteMeasure:
    """n i.i.d. draws from N(mean, variance_scale * I_d), uniform weights.

    Box-Muller on the seeded stream; both outputs of each pair are consumed.
    """
    if not (math.isfinite(variance_scale) and variance_scale > 0):
        raise ValueError("variance_scale must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    d = mu.shape[0]
    stream = _resolve_stream(seed)
    total = n * d
    pairs = (total + 1) // 2
    bits = stream.u64_block(2 * pairs)
    # u1 in (0, 1] so the log is finite; u2 in [0, 1)
    u1 = ((bits[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    vals = np.empty(2 * pairs)
    vals[0::2] = radius * np.cos(angle)
    vals[1::2] = radius * np.sin(angle)
    pts = mu[None, :] + math.sqrt(variance_scale) * vals[:total].reshape(n, d)
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def rescale_measure(measure: DiscreteMeasure, eps: float) -> DiscreteMeasure:
    """Push the support through x -> x / sqrt(eps); weights unchanged."""
    _check_eps(eps)
    return DiscreteMeasure(measure.points * eps**-0.5, measure.weights)
