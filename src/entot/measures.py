"""Discrete probability measures, compact domains, and deterministic sampling.

The sampling primitives are built on a splitmix-style 64-bit generator so that
every draw is a pure function of a :class:`SeedSpec`. No global RNG state is
consulted anywhere in the library.

Draws come in blocks: one array serves several streams, row r holding stream
r's next draws, and the one-stream samplers (:meth:`SplitMix64.u64_block`,
:func:`sample_gaussian`, :func:`sample_empirical`) are blocks of one row. The
arithmetic is elementwise, so every row equals its stream's draws taken
alone, bit for bit. A block of measures is a ``(points, weights)`` pair of
frozen, C-contiguous float64 arrays, checked once for the whole block:
weights ``(R, n)``, one row per stream, and points ``(R, n, d)``, or one
``(n, d)`` support that every row weights; no per-measure object is built.
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
        return _u64_rows((self,), count)[0]

    def uniforms(self, count: int) -> np.ndarray:
        """Block of `count` uniforms in [0, 1), advancing the stream."""
        return _uniform_rows((self,), count)[0]


def _u64_rows(streams, count: int) -> np.ndarray:
    """``(len(streams), count)`` uint64 block whose row r is the next `count`
    raw outputs of ``streams[r]``; advances every stream by `count`."""
    z = np.array([s._count for s in streams], dtype=np.uint64)[:, None] + np.arange(
        1, count + 1, dtype=np.uint64)
    for s in streams:
        s._count += count
    # in place, so the block has one temporary of its size: seed + k * GAMMA
    # (wrapping mod 2**64), then the three rounds of mix64
    z *= np.uint64(_GAMMA)
    z += np.array([s._seed for s in streams], dtype=np.uint64)[:, None]
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    return z


def _uniform_rows(streams, count: int) -> np.ndarray:
    """:func:`_u64_rows` as uniforms in [0, 1) with 53 random bits."""
    z = _u64_rows(streams, count)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


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
        _check_measures(pts, w)
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


def _check_measures(points: np.ndarray, weights: np.ndarray) -> None:
    """Finite points and weights, and each row of weights nonnegative and
    summing to 1 within 1e-12."""
    if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
        raise ValueError("points and weights must be finite")
    if np.any(weights < 0):
        raise NonSimplexWeights("negative weight")
    sums = np.atleast_1d(weights.sum(axis=-1))
    off = sums[np.abs(sums - 1.0) > 1e-12]
    if off.size:
        raise NonSimplexWeights(f"weights sum to {off[0]!r}, more than 1e-12 away from 1")


def _block(points: np.ndarray, weights: np.ndarray) -> tuple:
    """A block of measures, ``(points, weights)``: ``weights`` is ``(R, n)``
    and ``points`` ``(R, n, d)``, or one ``(n, d)`` support for every row, all
    C-contiguous float64 (``sinkhorn._dot`` sums rows by their strides). The
    block is checked once (:func:`_check_measures`) and frozen."""
    _check_measures(points, weights)
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


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
    Path(path).write_text("\n".join([header, *_atom_rows(measure)]) + "\n", encoding="utf-8")


def _atom_rows(measure: DiscreteMeasure) -> list[str]:
    """One ``w,x1,...,xd`` line per atom, each value at :func:`fmt17`."""
    return [",".join(fmt17(v) for v in (w, *pt))
            for w, pt in zip(measure.weights, measure.points)]


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
    points, weights = _empirical_rows(source, n, (_resolve_stream(seed),))
    return DiscreteMeasure(points[0], weights[0])


def _empirical_rows(source: DiscreteMeasure, n: int, streams) -> tuple:
    """:func:`sample_empirical` of each stream, as one block."""
    idx = _draw_rows(source, n, streams)
    return _block(source.points[idx], np.full(idx.shape, 1.0 / n))


def _draw_rows(source: DiscreteMeasure, n: int, streams) -> np.ndarray:
    """``(len(streams), n)`` block of atom indices: row r is the atoms of
    :func:`sample_empirical`'s draws from ``streams[r]``, in draw order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cum = np.cumsum(source.weights)
    idx = np.searchsorted(cum, _uniform_rows(streams, n), side="right")
    # u >= cum[-1] by roundoff lands past the end: take the last atom with
    # weight, never a weightless one after it
    return np.minimum(idx, np.flatnonzero(source.weights)[-1], out=idx)


def sample_gaussian(mean, variance_scale: float, n: int, seed) -> DiscreteMeasure:
    """n i.i.d. draws from N(mean, variance_scale * I_d), uniform weights.

    Box-Muller on the seeded stream; both outputs of each pair are consumed.
    """
    points, weights = _gaussian_rows(mean, variance_scale, n, (_resolve_stream(seed),))
    return DiscreteMeasure(points[0], weights[0])


def _gaussian_rows(mean, variance_scale: float, n: int, streams) -> tuple:
    """:func:`sample_gaussian` of each stream, as one block."""
    if not (math.isfinite(variance_scale) and variance_scale > 0):
        raise ValueError("variance_scale must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    d = mu.shape[0]
    total = n * d
    pairs = (total + 1) // 2
    u = _uniform_rows(streams, 2 * pairs)
    # u1 = u + 2**-53 in (0, 1], exactly, so the log is finite; u2 in [0, 1)
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2] + 2.0**-53))
    angle = 2.0 * math.pi * u[:, 1::2]
    vals = np.empty((len(streams), 2 * pairs))
    vals[:, 0::2] = radius * np.cos(angle)
    vals[:, 1::2] = radius * np.sin(angle)
    pts = mu + math.sqrt(variance_scale) * vals[:, :total].reshape(len(streams), n, d)
    return _block(pts, np.full((len(streams), n), 1.0 / n))


def rescale_measure(measure: DiscreteMeasure, eps: float) -> DiscreteMeasure:
    """Push the support through x -> x / sqrt(eps); weights unchanged."""
    _check_eps(eps)
    return DiscreteMeasure(measure.points * eps**-0.5, measure.weights)
