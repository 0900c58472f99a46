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
bound that holds for any factor; see its docstring. :func:`_solve_stack`
runs the sweeps of several problems of one size together: each kernel
half-step is one ``einsum`` over the stacked kernels, which gives every
problem the sums of its own call, while each problem keeps its own factor,
residual and sweep count. A problem's pair is copied out at the sweep where
it meets tol; it keeps its row, and no longer moves, until the stack is
done. So each result is that of a lone solve, bit for bit, and
:func:`solve` is a stack of one. Only a lone problem leaves its kernel; a
stack that would leave its kernels is solved again one problem at a time.
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

_TINY = np.finfo(np.float64).tiny


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

    Only :func:`_solve_stack` builds reports. ``optimality_residual`` is the
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
    return np.where(w > 0, np.log(np.maximum(w, _TINY)), -np.inf)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp along the last axis; overwrites ``a`` with exponentials."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(np.subtract(a, m, out=a), out=a)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(e, axis=-1)) + m[..., 0]
    return out


def _dot(x: np.ndarray, w: np.ndarray):
    """``sum_i x_i w_i`` by ``einsum``: BLAS ``x @ w`` changes its bits with the
    BLAS thread count from about 10k entries up. A float for 1-d ``x``; for a
    stack of rows, each row's sum (with ``w``'s matching row, or ``w``), bit
    for bit as alone."""
    out = np.einsum("...i,...i->...", x, w)
    return float(out) if out.ndim == 0 else out


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

    Leading axes of ``pot`` and ``log_w`` stack problems, each with its own
    kernel (the leading axes of ``K``) or all on one 2-d ``K``; each
    problem's results are those of its own call, bit for bit. Returns
    ``(values, u, s)``: the scalings ``u = exp(log_w + pot/eps - top)``,
    max-shifted by ``top = max(log_w + pot/eps)`` per problem, the row sums
    ``s = K u`` and ``values = -eps * (log s + top)``; or ``None`` when a row
    sum of any problem is below ``_KERNEL_FLOOR``. Then a stack redoes each
    problem alone; a lone caller redoes the step in the log domain.
    """
    t = pot / eps
    t += log_w
    top = np.maximum.reduce(t, axis=-1, keepdims=t.ndim > 1)  # a scalar for one problem
    u = np.exp(np.subtract(t, top, out=t), out=t)
    s = np.einsum("...ij,...j->...i", K, u)
    if not np.minimum.reduce(s, axis=None) >= _KERNEL_FLOOR:
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
    slab; the first axis squares in the slab itself, and Y's coordinates are
    read from a contiguous copy of each axis (a 250 x 250 cost at d = 2 took
    a quarter less time than with a zeroed slab and strided columns).
    """
    n, m = X.shape[0], Y.shape[0]
    if X.shape[1] == 0:
        return np.zeros((n, m))
    rows = max(1, _COST_SLAB_ENTRIES // max(m, 1))
    C = np.empty((n, m))
    diff = np.empty((min(n, rows), m))
    Y_axes = np.ascontiguousarray(Y.T)
    for start in range(0, n, rows):
        slab = C[start:start + rows]
        tmp = diff[:slab.shape[0]]
        for k in range(X.shape[1]):
            term = tmp if k else slab
            np.subtract(X[start:start + rows, k, None], Y_axes[k], out=term)
            np.multiply(term, term, out=term)
            if k:
                slab += term
        slab *= 0.5
    return C


def _gibbs_kernel(X: np.ndarray, Y: np.ndarray, eps: float) -> np.ndarray:
    """``exp(-C/eps)`` for the half squared cost between the rows of X and Y."""
    K = half_sq_cost(X, Y)
    np.divide(K, -eps, out=K)
    return np.exp(K, out=K)


class _Unstackable(Exception):
    """A stack of more than one problem cannot stay on its kernels."""


class _Updates:
    """Half-step maps of the dual iteration, over a stack of problems.

    The problems share their sizes (n x m) and eps; a lone problem may be
    given as its two measures. A stack holds each problem's Gibbs kernel
    ``exp(-C/eps)`` in one array and runs a half-step as one kernel product
    over it; row r of a half-step's argument and result belongs to problem
    r, and a stack of one may also run 1-d rows. Only a lone problem leaves
    its kernel (:func:`_kernel_soft_min`): above ``dense_entry_limit``
    entries, or from its first kernel sum below ``_KERNEL_FLOOR`` on, it
    rebuilds cost slabs of at most that many entries on every half-step.
    ``path`` is its :class:`SolveReport` path so far.
    """

    def __init__(self, Ps, Qs, eps: float, dense_entry_limit: int = DENSE_ENTRY_LIMIT):
        if isinstance(Ps, DiscreteMeasure):
            Ps, Qs = (Ps,), (Qs,)
        for P, Q in zip(Ps, Qs):
            if P.dim != Q.dim:
                raise DimensionMismatch(f"ambient dimensions differ: {P.dim} vs {Q.dim}")
        self.a = np.array([P.weights for P in Ps])
        self.b = np.array([Q.weights for Q in Qs])
        self.log_a, self.log_b = _log_weights(self.a), _log_weights(self.b)
        self.eps = eps
        self._limit = dense_entry_limit
        dense = self.a.shape[1] * self.b.shape[1] <= dense_entry_limit
        if not dense and len(Ps) > 1:
            raise _Unstackable
        self.path = "kernel" if dense else "blocked"
        one = 0 if len(Ps) == 1 else slice(None)  # a stack of one runs as its lone problem
        self._log_w = (self.log_b[one], self.log_a[one])
        self._points = ((Ps[0].points, Qs[0].points), (Qs[0].points, Ps[0].points))  # lone only
        if dense and len(Ps) == 1:
            K = _gibbs_kernel(Ps[0].points, Qs[0].points, eps)
        elif dense:
            K = np.empty((len(Ps), self.a.shape[1], self.b.shape[1]))
            for k, P, Q in zip(K, Ps, Qs):
                k[...] = _gibbs_kernel(P.points, Q.points, eps)
        self._ops = (K, K.swapaxes(-1, -2)) if dense else None

    def _half_step(self, pot: np.ndarray, side: int) -> np.ndarray:
        """:func:`_soft_min` of each row of ``pot`` along the rows of its
        problem's cost (side 0) or of its transpose (side 1)."""
        if self._ops is not None:
            step = _kernel_soft_min(self._ops[side], pot, self._log_w[side], self.eps)
            if step is not None:
                return step[0]
            if len(self.a) > 1:
                raise _Unstackable
            self._ops, self.path = None, "kernel+log"
        rows, cols = self._points[side]
        out = np.empty(pot.shape[:-1] + rows.shape[:1])
        step = max(1, self._limit // cols.shape[0])
        for start in range(0, rows.shape[0], step):
            k = slice(start, start + step)
            out[..., k] = _soft_min(pot, self._log_w[side], half_sq_cost(rows[k], cols), self.eps)
        return out

    def f_from(self, g: np.ndarray) -> np.ndarray:
        return self._half_step(g, 0)

    def g_from(self, f: np.ndarray) -> np.ndarray:
        return self._half_step(f, 1)


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
    f, g = _shift(pair.f[None], pair.g[None], P.weights, Q.weights, convention)
    return PotentialPair(f[0], g[0], pair.eps, convention)


def _shift(f: np.ndarray, g: np.ndarray, a: np.ndarray, b: np.ndarray,
           convention: Normalization):
    """``(f + c, g - c)`` for a stack of pairs (one per row) on weights ``a``
    and ``b`` (one row per pair, or one for all), with the shift ``c`` of
    each row that makes ``convention`` hold."""
    if convention is Normalization.EQUAL_MEANS:
        c = 0.5 * (_dot(g, b) - _dot(f, a))
    elif convention is Normalization.ZERO_G_MEAN:
        c = _dot(g, b)
    elif convention is Normalization.RAW:
        c = np.zeros(len(f))
    else:  # pragma: no cover
        raise ValueError(f"unknown convention {convention!r}")
    return f + c[:, None], g - c[:, None]


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
    iteration budget runs out first. This is :func:`_solve_stack` on a stack
    of one.
    """
    return _lone(_solve_stack((P,), (Q,), cfg, dense_entry_limit))


def _lone(results: list):
    """The one result of a stack of one; an error result is raised."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _solve_stack(Ps, Qs, cfg: SolverConfig, dense_entry_limit: int = DENSE_ENTRY_LIMIT) -> list:
    """:func:`solve` of each problem ``(Ps[r], Qs[r])`` of a stack, in one sweep loop.

    The problems share their sizes. Each keeps its own relaxation, residual
    and sweep count. At the sweep where it meets tol its pair is copied out;
    from then on its factor is 0 and its g row that sweep's ``g_from(f)``, so
    its later half-steps are those of a lone solve's post-solve checks (up to
    their shift) and its result is that of a lone :func:`solve`, bit for bit,
    path included: ``(pair, report)``, or the :class:`NotConverged` a lone
    solve raises (returned, not raised). A stack of more than one that would
    leave its kernels (:class:`_Updates`) is solved again one problem at a time.
    """
    try:
        return _sweep_stack(Ps, Qs, cfg, dense_entry_limit)
    except _Unstackable:
        pass  # leaving the handler drops the traceback, and the stack's kernels with it
    return [_sweep_stack((P,), (Q,), cfg, dense_entry_limit)[0] for P, Q in zip(Ps, Qs)]


def _sweep_stack(Ps, Qs, cfg: SolverConfig, dense_entry_limit: int) -> list:
    """The sweep loop of :func:`_solve_stack`; raises :class:`_Unstackable`."""
    upd = _Updates(Ps, Qs, cfg.eps, dense_entry_limit)
    eps, tol, count = cfg.eps, cfg.tol, len(Ps)
    f, g = np.zeros((count, Ps[0].n)), np.zeros((count, Qs[0].n))
    F, G = np.empty_like(f), np.empty_like(g)  # each problem's pair as it left
    if count == 1:  # a stack of one sweeps its 1-d rows: fewer cycles per numpy call
        f, g = f[0], g[0]
    relax = [_Relaxation() for _ in range(count)]
    sweeps, factors, residuals, converged = ([None] * count for _ in range(4))
    for iterations in range(1, cfg.max_iter + 1):
        w = [r.w if k is None else 0.0 for r, k in zip(relax, sweeps)]  # 0: problem has left
        relaxed = w.count(1.0) < count
        # plain sweeps (w = 1) keep the unrelaxed arithmetic bit for bit, also
        # as rows of a relaxed stack
        plain = [i for i, x in enumerate(w) if x == 1.0] if relaxed else []
        f_hat = upd.f_from(g)
        if relaxed:
            w_col = w[0] if count == 1 else np.array(w)[:, None]  # same bits; a float is cheaper
            step = f_hat - f
            f = f + w_col * step
            f_move = [0.0 if x == 1.0 else (x - 1.0) * m for x, m in zip(w, _row_max(step))]
            if plain:
                f[plain] = f_hat[plain]
        else:
            f, f_move = f_hat, [0.0] * count
        g_hat = upd.g_from(f)
        step = g_hat - g
        left = []
        for i, (x, f_m, g_m) in enumerate(zip(w, f_move, _row_max(step))):
            if not x:
                continue
            moved = g_m / eps
            residual = moved + f_m / eps
            if residual <= tol or iterations == cfg.max_iter:  # problem i leaves
                sweeps[i], factors[i], residuals[i] = iterations, x, residual
                converged[i] = residual <= tol
                left.append(i)
            else:
                relax[i].update(moved)
        if left:
            F[left] = f.reshape(count, -1)[left]
            G[left] = g_hat.reshape(count, -1)[left]
            if None not in sweeps:
                break
        if relaxed:
            g = g + w_col * step
            plain += left
            if plain:
                g[plain] = g_hat[plain]
        else:
            g = g_hat
    F, G = _shift(F, G, upd.a, upd.b, Normalization.EQUAL_MEANS)
    optimality, f_hat = _two_sided_residual(upd, F, G)
    dual = _dual_values(upd, F, G, f_hat).tolist()
    out = []
    for r in range(count):
        pair = PotentialPair(F[r], G[r], eps, Normalization.EQUAL_MEANS)
        report = SolveReport(sweeps[r], residuals[r], dual[r], converged[r], optimality[r],
                             upd.path, factors[r])
        out.append((pair, report) if report.converged else NotConverged(
            f"residual {report.final_residual:.3e} above tol {cfg.tol:.3e} "
            f"after {report.iterations} iterations",
            report=report,
            pair=pair,
        ))
    return out


def _row_max(x: np.ndarray) -> list:
    """``max |x_i|`` of each row (of a 1-d ``x``, its one row), as floats."""
    top = np.maximum.reduce(np.abs(x), axis=-1)
    return top.tolist() if x.ndim > 1 else [float(top)]


def _two_sided_residual(upd: _Updates, f: np.ndarray, g: np.ndarray):
    """``(residuals, f_from(g))`` of a stack of pairs against the held operators."""
    f_hat = upd.f_from(g)
    rf = [x / upd.eps for x in _row_max(f - f_hat)]
    rg = [x / upd.eps for x in _row_max(g - upd.g_from(f))]
    return [max(x, y) for x, y in zip(rf, rg)], f_hat


def optimality_residual(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Sup norm of both sides' log marginal ratios for the implied plan."""
    _check_pair_dims(P, Q, pair)
    return _two_sided_residual(_Updates(P, Q, pair.eps), pair.f[None], pair.g[None])[0][0]


def dual_objective(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Value of the regularized dual functional at an arbitrary pair.

    ``<f, a> + <g, b> - eps * sum_ij a_i b_j exp((f_i + g_j - C_ij)/eps) + eps``
    """
    _check_pair_dims(P, Q, pair)
    upd = _Updates(P, Q, pair.eps)
    f, g = pair.f[None], pair.g[None]
    return float(_dual_values(upd, f, g, upd.f_from(g))[0])


def _dual_values(upd: _Updates, f: np.ndarray, g: np.ndarray, f_hat: np.ndarray) -> np.ndarray:
    """Dual functional at each pair of a stack (every problem of ``upd``),
    given ``f_hat``, the f half-steps of ``g``.

    ``sum_j b_j exp((g_j - C_ij)/eps) = exp(-f_hat_i/eps)``, so the plan's
    total mass is ``sum_i a_i exp((f_i - f_hat_i)/eps)``.
    """
    mass = np.exp(_logsumexp(upd.log_a + (f - f_hat) / upd.eps))
    return _dot(f, upd.a) + _dot(g, upd.b) - upd.eps * mass + upd.eps


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


def _priced(P: DiscreteMeasure, Q: DiscreteMeasure, result, tol: float):
    """``(pair, report, cost)`` from a solve's ``(pair, report)``, without
    rebuilding the operator: the ``10 * tol`` gate of :func:`cost` is applied
    to the residual the solve measured. An error result, or the
    :class:`NotOptimal` of the gate, is returned, not raised."""
    if isinstance(result, Exception):
        return result
    pair, report = result
    try:
        _require_optimal(report.optimality_residual, tol)
    except NotOptimal as exc:
        return exc
    return pair, report, _dot(pair.f, P.weights) + _dot(pair.g, Q.weights)


def _solved_cost(P: DiscreteMeasure, Q: DiscreteMeasure, cfg: SolverConfig):
    """:func:`solve`, then :func:`cost` without rebuilding the operator
    (:func:`_priced`). Returns ``(pair, report, cost)``."""
    return _lone([_priced(P, Q, solve(P, Q, cfg), cfg.tol)])


def _solved_costs(Ps, Qs, cfg: SolverConfig) -> list:
    """:func:`_solved_cost` of each problem of a stack, its error returned, not raised."""
    return [_priced(P, Q, result, cfg.tol)
            for P, Q, result in zip(Ps, Qs, _solve_stack(Ps, Qs, cfg))]


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
