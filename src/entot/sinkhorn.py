"""Solver for the entropically regularized transport dual.

The ground cost is the half squared Euclidean distance between support
points. Below a configurable entry budget a solve holds one dense operator:
the Gibbs kernel ``K = exp(-C/eps)``, on which a half-step is one
matrix-vector product of max-shifted scalings. When a kernel row or column
sum falls below ``_KERNEL_FLOOR`` (``K`` has underflowed where it matters),
the solve drops the kernel and runs that half-step, and every later one, as
a blocked solve does. Above the budget every half-step builds row slabs of
the cost within it and runs on log-scale quantities with max-shifted
log-sum-exp. The g step is the f step on the transposed operator. Every
kernel half-step is ``_kernel_soft_min`` and every log-domain one
``_soft_min``, on the rows of one cost slab at a time; the potential
extension runs the same pair, on a kernel from ``_gibbs_kernel``. Weighted
sums use ``einsum``, never BLAS, so no result depends on the BLAS thread
count.

:func:`solve` overrelaxes the alternating half-steps, with a factor set from
the observed contraction rate (Young's SOR factor), and stops on a residual
bound that holds for any factor; see its docstring.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, NotConverged, NotOptimal
from .measures import DiscreteMeasure, _check_eps

# Above this many cost-matrix entries each half-step builds cost slabs of at
# most this size instead (16M entries ~ 128 MB of float64).
DENSE_ENTRY_LIMIT = 16_000_000

# A kernel sum at or above this floor is exact to double precision: terms
# lost to underflow are each below 2.3e-308, so even 16M of them amount to
# less than 1e-100 of the sum. Below it the half-step is redone in the log
# domain.
_KERNEL_FLOOR = 1e-200

# half_sq_cost builds the cost in row slabs of about this many entries, with
# one slab-sized temporary (256 KB, so it stays in L2). Measured fastest
# among 16K-256K entries from 1681 x 10 to 5000 x 5000 costs; fixed 64-row
# slabs cost skinny grids (m = 10) one numpy call per 640 entries.
_COST_SLAB_ENTRIES = 1 << 15


class Normalization(enum.Enum):
    """Constant-shift conventions pinning an otherwise shift-free pair."""

    EQUAL_MEANS = "equal_means"  # <f, a> == <g, b>
    ZERO_G_MEAN = "zero_g_mean"  # <g, b> == 0
    RAW = "raw"


@dataclass(frozen=True)
class SolverConfig:
    """Regularization strength and stopping rule for :func:`solve`."""

    eps: float
    tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        _check_eps(self.eps)
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class PotentialPair:
    """Dual potential values on the two supports.

    f lives on the first measure's support, g on the second's. The
    normalization tag records which shift convention the pair satisfies.
    """

    f: np.ndarray
    g: np.ndarray
    eps: float
    normalization: Normalization = Normalization.RAW

    def __post_init__(self):
        f = np.array(self.f, dtype=np.float64).reshape(-1)
        g = np.array(self.g, dtype=np.float64).reshape(-1)
        _check_eps(self.eps)
        f.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling matrix between two discrete supports."""

    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=np.float64)
        if ent.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if np.any(ent < 0):
            raise NegativeEntry("transport plan has a negative entry")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)


@dataclass(frozen=True)
class SolveReport:
    """What one :func:`solve` did.

    Only :func:`solve` builds reports. ``optimality_residual`` is the
    two-sided residual of the returned pair, as :func:`optimality_residual`
    defines it. ``path`` names the half-step arithmetic: ``"kernel"``,
    ``"kernel+log"`` (a kernel sum underflowed and the rest of the solve ran
    on cost slabs, log domain) or ``"blocked"`` (cost rebuilt in slabs, log
    domain, from the first half-step). ``relaxation`` is the overrelaxation
    factor of the last sweep (1 for a plain sweep).
    """

    iterations: int
    final_residual: float
    dual_value: float
    converged: bool
    optimality_residual: float
    path: str
    relaxation: float


def _log_weights(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(w > 0, np.log(np.maximum(w, np.finfo(np.float64).tiny)), -np.inf)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp along the last axis; overwrites ``a`` with exponentials."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(np.subtract(a, m, out=a), out=a)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(e, axis=-1)) + m[..., 0]
    return out


def _dot(x: np.ndarray, w: np.ndarray) -> float:
    """``sum_i x_i w_i`` by ``einsum``: BLAS ``x @ w`` changes its bits with the
    BLAS thread count from about 10k entries up."""
    return float(np.einsum("i,i->", x, w))


def _soft_min(pot: np.ndarray, log_w: np.ndarray, C: np.ndarray, eps: float) -> np.ndarray:
    """Soft c-transform ``-eps * log sum_j w_j exp((pot_j - C_ij)/eps)`` of each row.

    ``pot`` and ``log_w`` index the columns of ``C`` (pass ``C.T`` to reduce
    along columns). Works in place: ``C`` is overwritten with the max-shifted
    exponentials.
    """
    np.subtract(pot, C, out=C)
    np.divide(C, eps, out=C)
    np.add(C, log_w, out=C)
    return -eps * _logsumexp(C)


def _kernel_soft_min(K: np.ndarray, pot: np.ndarray, log_w: np.ndarray, eps: float):
    """:func:`_soft_min` of each row on the Gibbs kernel ``K = exp(-C/eps)``.

    Returns ``(values, u, s)``: the scalings ``u = exp(log_w + pot/eps - top)``,
    max-shifted by ``top = max(log_w + pot/eps)``, the row sums ``s = K u`` and
    ``values = -eps * (log s + top)``; or ``None`` when a row sum is below
    ``_KERNEL_FLOOR``, where the caller redoes the step in the log domain.
    """
    t = pot / eps
    t += log_w
    top = t.max()
    u = np.exp(np.subtract(t, top, out=t), out=t)
    s = np.einsum("ij,j->i", K, u)
    if not s.min() >= _KERNEL_FLOOR:
        return None
    v = np.log(s)
    v += top
    v *= -eps
    return v, u, s


def half_sq_cost(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Half squared Euclidean distances, accumulated per axis.

    Avoids BLAS so the summation order (and hence the bit pattern) does not
    depend on the thread count of the underlying library. Built in row slabs
    of about ``_COST_SLAB_ENTRIES`` entries, so the only temporary is one
    slab.
    """
    n, m = X.shape[0], Y.shape[0]
    rows = max(1, _COST_SLAB_ENTRIES // max(m, 1))
    C = np.empty((n, m))
    diff = np.empty((min(n, rows), m))
    for start in range(0, n, rows):
        slab = C[start:start + rows]
        tmp = diff[:slab.shape[0]]
        slab.fill(0.0)
        for k in range(X.shape[1]):
            np.subtract(X[start:start + rows, k, None], Y[None, :, k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            slab += tmp
        slab *= 0.5
    return C


def _gibbs_kernel(X: np.ndarray, Y: np.ndarray, eps: float) -> np.ndarray:
    """``exp(-C/eps)`` for the half squared cost between the rows of X and Y."""
    K = half_sq_cost(X, Y)
    np.divide(K, -eps, out=K)
    return np.exp(K, out=K)


class _Updates:
    """Half-step maps of the dual iteration.

    A dense problem holds one n x m operator, the kernel ``exp(-C/eps)``. A
    blocked problem rebuilds cost slabs of at most ``dense_entry_limit``
    entries on every half-step, and so does a dense one from its first kernel
    sum below ``_KERNEL_FLOOR`` on, with the kernel dropped. ``path`` is the
    :class:`SolveReport` path so far.
    """

    def __init__(self, P: DiscreteMeasure, Q: DiscreteMeasure, eps: float,
                 dense_entry_limit: int = DENSE_ENTRY_LIMIT):
        if P.dim != Q.dim:
            raise DimensionMismatch(f"ambient dimensions differ: {P.dim} vs {Q.dim}")
        self.log_a, self.log_b = _log_weights(P.weights), _log_weights(Q.weights)
        self.eps = eps
        self._limit = dense_entry_limit
        self._points = ((P.points, Q.points), (Q.points, P.points))
        self._ops, self.path = None, "blocked"
        if P.n * Q.n <= dense_entry_limit:
            K = _gibbs_kernel(P.points, Q.points, eps)
            self._ops, self.path = (K, K.T), "kernel"

    def _half_step(self, pot: np.ndarray, log_w: np.ndarray, side: int) -> np.ndarray:
        """:func:`_soft_min` of ``pot`` along rows of the cost (side 0) or its transpose (1)."""
        if self._ops is not None:
            step = _kernel_soft_min(self._ops[side], pot, log_w, self.eps)
            if step is not None:
                return step[0]
            self._ops, self.path = None, "kernel+log"  # blocked from here on
        rows, cols = self._points[side]
        step = max(1, self._limit // cols.shape[0])
        out = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], step):
            k = slice(start, start + step)
            C = half_sq_cost(rows[k], cols)
            out[k] = _soft_min(pot, log_w, C, self.eps)
        return out

    def f_from(self, g: np.ndarray) -> np.ndarray:
        return self._half_step(g, self.log_b, 0)

    def g_from(self, f: np.ndarray) -> np.ndarray:
        return self._half_step(f, self.log_a, 1)


def _check_pair_dims(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair):
    if pair.f.shape[0] != P.n or pair.g.shape[0] != Q.n:
        raise DimensionMismatch(
            f"pair sized ({pair.f.shape[0]}, {pair.g.shape[0]}) does not match "
            f"supports sized ({P.n}, {Q.n})"
        )


def normalize(pair: PotentialPair, P: DiscreteMeasure, Q: DiscreteMeasure,
              convention: Normalization) -> PotentialPair:
    """Shift (f + c, g - c) so the requested convention holds exactly.

    The shift leaves the plan, the dual objective, and all marginals
    unchanged.
    """
    _check_pair_dims(P, Q, pair)
    f_mean = _dot(pair.f, P.weights)
    g_mean = _dot(pair.g, Q.weights)
    if convention is Normalization.EQUAL_MEANS:
        c = 0.5 * (g_mean - f_mean)
    elif convention is Normalization.ZERO_G_MEAN:
        c = g_mean
    elif convention is Normalization.RAW:
        c = 0.0
    else:  # pragma: no cover
        raise ValueError(f"unknown convention {convention!r}")
    return PotentialPair(pair.f + c, pair.g - c, pair.eps, convention)


class _Relaxation:
    """Overrelaxation factor ``w`` of :func:`solve`, updated after each sweep.

    ``w`` is 1 until three consecutive ratios ``rho`` of the sweep residual
    lie in (0, 1) and agree to within ``0.1 * (1 - rho)``; then it is Young's
    SOR factor ``2 / (1 + sqrt(1 - rho))``. It returns to 1, and ``rho`` is
    estimated again, when a relaxed residual exceeds ``1 / (2 - w)`` times the
    first one at that ``w`` (more than the transient growth of SOR near its
    optimal factor), or when relaxed ratios settle above ``rho`` (the rate was
    estimated in a fast transient and relaxation is slower than plain sweeps).
    It also returns to 1 when a relaxed stretch has run as many sweeps as the
    solve ran before it and its residual is still not below the stretch's
    first (on a residual plateau rho reads near 1, ``w`` near 2, and the
    growth bound ``1 / (2 - w)`` never fires); then ``w`` stays 1 for at
    least as many sweeps as that stretch ran, so a stalled stretch never
    outlasts the plain sweeps after it.
    """

    def __init__(self):
        self.w = 1.0
        self._rho = 0.0
        self._ratios: list[float] = []  # residual ratios at the current w
        self._last = math.inf  # previous residual at the current w
        self._first = math.inf  # first residual at the current w
        self._sweeps = 0  # updates so far
        self._start = 0  # updates before the current w was set
        self._hold = 0  # no relaxing before this many updates

    def update(self, residual: float) -> None:
        self._sweeps += 1
        if self._last == math.inf:
            self._first = residual
        elif self._last > 0.0:
            self._ratios = (self._ratios + [residual / self._last])[-3:]
        self._last = residual
        ratios = self._ratios
        rate = ratios[-1] if ratios else 0.0
        steady = (len(ratios) == 3 and 0.0 < min(ratios) and max(ratios) < 1.0
                  and max(ratios) - min(ratios) <= 0.1 * (1.0 - rate))
        w = self.w
        if w == 1.0 and steady and self._sweeps >= self._hold:
            self._rho = rate
            w = 2.0 / (1.0 + math.sqrt(1.0 - rate))
        elif w > 1.0 and (residual > self._first / (2.0 - w) or steady and rate > self._rho):
            w = 1.0
        elif w > 1.0 and self._sweeps >= 2 * self._start and residual >= self._first:
            w, self._hold = 1.0, 2 * self._sweeps - self._start
        if w != self.w:
            self.w, self._ratios, self._last = w, [], math.inf
            self._start = self._sweeps


def solve(P: DiscreteMeasure, Q: DiscreteMeasure, cfg: SolverConfig,
          dense_entry_limit: int = DENSE_ENTRY_LIMIT):
    """Run overrelaxed alternating dual updates until the marginal residual is met.

    One iteration (sweep) moves f toward ``f_from(g)``, then g toward
    ``g_from(f)``: ``f <- f + w*(f_from(g) - f)``, ``g <- g + w*(g_from(f) - g)``.
    The sweep residual is ``max |g_from(f) - g| / eps``. The factor ``w`` is 1
    until three consecutive ratios ``rho`` of the sweep residual lie in (0, 1)
    and agree to within ``0.1 * (1 - rho)``; then ``w = 2 / (1 + sqrt(1 - rho))``
    (Young's SOR factor, with ``rho`` the Gauss-Seidel rate ``mu**2``). If the
    relaxed residual grows past its transient bound, settles to a rate no
    better than ``rho``, or is no lower after as many sweeps as the solve ran
    before relaxing, ``w`` returns to 1 and ``rho`` is estimated again
    (:class:`_Relaxation`); after that last case, a stall, ``w`` stays 1 for
    at least as many sweeps as the stalled stretch ran.

    The solve stops once ``(max |g_from(f) - g| + (1 - 1/w) * max |f - f_prev|)
    / eps <= cfg.tol`` and returns ``(f, g_from(f))``. At ``w = 1`` this is the
    change in g over the sweep. For any ``w`` it bounds the two-sided residual
    of the returned pair: its column marginals are exact, and since the soft
    c-transform is 1-Lipschitz in the sup norm, ``|f - f_from(g_from(f))|`` is
    at most ``|f_from(g_prev) - f| + |g_from(f) - g_prev|``, where
    ``f_from(g_prev) - f = (1/w - 1) * (f - f_prev)``. The report's dual value
    and two-sided optimality residual are computed on the operator the
    iteration used; its ``relaxation`` is the factor of the last sweep.

    Returns ``(pair, report)`` with the pair normalized to equal means.
    Raises :class:`NotConverged` (with the report and pair attached) if the
    iteration budget runs out first.
    """
    upd = _Updates(P, Q, cfg.eps, dense_entry_limit)
    g = np.zeros(Q.n)
    f = np.zeros(P.n)
    relax = _Relaxation()
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        w = relax.w
        f_hat = upd.f_from(g)
        if w == 1.0:  # plain sweeps keep the unrelaxed arithmetic bit for bit
            f, f_move = f_hat, 0.0
        else:
            step = f_hat - f
            f = f + w * step
            f_move = (w - 1.0) * float(np.abs(step).max())
        g_hat = upd.g_from(f)
        step = g_hat - g
        moved = float(np.abs(step).max()) / cfg.eps
        residual = moved + f_move / cfg.eps
        if residual <= cfg.tol:
            converged = True
            break
        g = g_hat if w == 1.0 else g + w * step
        relax.update(moved)
    pair = normalize(PotentialPair(f, g_hat, cfg.eps), P, Q, Normalization.EQUAL_MEANS)
    optimality, f_hat = _two_sided_residual(upd, pair)
    dual = _dual_value(P, Q, pair, upd.log_a, f_hat)
    report = SolveReport(iterations, residual, dual, converged, optimality, upd.path, w)
    if not converged:
        raise NotConverged(
            f"residual {residual:.3e} above tol {cfg.tol:.3e} "
            f"after {iterations} iterations",
            report=report,
            pair=pair,
        )
    return pair, report


def _two_sided_residual(upd: _Updates, pair: PotentialPair):
    """``(residual, f_from(g))`` of a pair against the held operator."""
    f_hat = upd.f_from(pair.g)
    rf = float(np.max(np.abs(pair.f - f_hat))) / pair.eps
    rg = float(np.max(np.abs(pair.g - upd.g_from(pair.f)))) / pair.eps
    return max(rf, rg), f_hat


def optimality_residual(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Sup norm of both sides' log marginal ratios for the implied plan."""
    _check_pair_dims(P, Q, pair)
    return _two_sided_residual(_Updates(P, Q, pair.eps), pair)[0]


def dual_objective(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Value of the regularized dual functional at an arbitrary pair.

    ``<f, a> + <g, b> - eps * sum_ij a_i b_j exp((f_i + g_j - C_ij)/eps) + eps``
    """
    _check_pair_dims(P, Q, pair)
    upd = _Updates(P, Q, pair.eps)
    return _dual_value(P, Q, pair, upd.log_a, upd.f_from(pair.g))


def _dual_value(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair,
                log_a: np.ndarray, f_hat: np.ndarray) -> float:
    """Dual functional at ``pair`` given ``f_hat``, the f half-step of ``pair.g``.

    ``sum_j b_j exp((g_j - C_ij)/eps) = exp(-f_hat_i/eps)``, so the plan's
    total mass is ``sum_i a_i exp((f_i - f_hat_i)/eps)``.
    """
    mass = float(np.exp(_logsumexp(log_a + (pair.f - f_hat) / pair.eps)))
    return _dot(pair.f, P.weights) + _dot(pair.g, Q.weights) - pair.eps * mass + pair.eps


def _require_optimal(residual: float, tol: float) -> None:
    if not residual <= 10.0 * tol:
        raise NotOptimal(
            f"marginal residual {residual:.3e} exceeds 10*tol = {10 * tol:.3e}"
        )


def cost(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair,
         tol: float = SolverConfig.tol) -> float:
    """Transport cost ``<f, a> + <g, b>`` of a pair satisfying optimality.

    Raises :class:`NotOptimal` when the pair's marginal residual exceeds
    ``10 * tol``; use the tolerance the pair was solved at.
    """
    _require_optimal(optimality_residual(P, Q, pair), tol)
    return _dot(pair.f, P.weights) + _dot(pair.g, Q.weights)


def _solved_cost(P: DiscreteMeasure, Q: DiscreteMeasure, cfg: SolverConfig):
    """:func:`solve`, then :func:`cost` without rebuilding the operator.

    The ``10 * tol`` gate of :func:`cost` is applied to the residual the
    solve measured. Returns ``(pair, report, cost)``.
    """
    pair, report = solve(P, Q, cfg)
    _require_optimal(report.optimality_residual, cfg.tol)
    return pair, report, _dot(pair.f, P.weights) + _dot(pair.g, Q.weights)


def plan(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> TransportPlan:
    """Entropic coupling ``pi_ij = a_i b_j exp((f_i + g_j - C_ij)/eps)``.

    The plan is a dense n x m array, so above ``DENSE_ENTRY_LIMIT`` entries
    this raises :class:`ValueError` before allocating anything.
    """
    _check_pair_dims(P, Q, pair)
    if P.n * Q.n > DENSE_ENTRY_LIMIT:
        raise ValueError(f"plan of {P.n} x {Q.n} = {P.n * Q.n} entries exceeds "
                         f"DENSE_ENTRY_LIMIT = {DENSE_ENTRY_LIMIT}")
    E = half_sq_cost(P.points, Q.points)
    # row i is a_i exp((f_i - f_hat_i)/eps) times the f half-step's exponentials, normalised
    f_hat = _soft_min(pair.g, _log_weights(Q.weights), E, pair.eps)
    E /= E.sum(axis=1, keepdims=True)
    E *= np.exp(_log_weights(P.weights) + (pair.f - f_hat) / pair.eps)[:, None]
    return TransportPlan(E)


def primal_cost(P: DiscreteMeasure, Q: DiscreteMeasure, transport: TransportPlan,
                eps: float) -> float:
    """Transport term plus eps times relative entropy to the product weights.

    Zero entries contribute zero to the entropy term. Both terms accumulate
    over row slabs of the plan, each against its own :func:`half_sq_cost`
    slab, so memory is the plan plus one slab.
    """
    pi = transport.entries
    if pi.shape != (P.n, Q.n):
        raise DimensionMismatch(
            f"plan shaped {pi.shape} does not match supports ({P.n}, {Q.n})"
        )
    log_a, log_b = _log_weights(P.weights), _log_weights(Q.weights)
    rows = max(1, _COST_SLAB_ENTRIES // max(Q.n, 1))
    transport_term = entropy_term = 0.0
    for start in range(0, P.n, rows):
        k = slice(start, start + rows)
        p = pi[k]
        if (p < 0).any():
            raise NegativeEntry("transport plan has a negative entry")
        E = half_sq_cost(P.points[k], Q.points)
        E *= p
        transport_term += float(E.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(p, out=E)
            E -= log_a[k, None]
            E -= log_b
            E *= p
        entropy_term += float(E.sum(where=p > 0))
    return transport_term + eps * entropy_term
