"""Solver for the entropically regularized transport dual.

The ground cost is the half squared Euclidean distance between support
points. ``DENSE_ENTRY_LIMIT`` bounds the largest array the library holds,
and is read at call time. Up to that many entries a solve holds one dense
operator: the Gibbs kernel ``K = exp(-C/eps)``, on which a half-step is one
matrix-vector product of max-shifted scalings. A kernel is built in place
(``_gibbs_kernel``), one cache-resident row slab at a time: one ``einsum`` of
centred coordinates augmented by their half squared norms, within a stated
relative bound, or for a kernel of one slab, or supports too spread for that
bound (``_GRAM_LIMIT``), the per-axis cost slabs; each is exponentiated.
When a kernel row or column sum falls below ``_KERNEL_FLOOR`` (``K`` has
underflowed where it matters), the solve drops the kernel and runs that
half-step, and every later one, as a blocked solve does. Above the limit
every half-step builds cost row slabs of about ``_COST_SLAB_ENTRIES``
entries (``_cost_slabs``, as every cost build) and runs on log-scale
quantities with max-shifted log-sum-exp. The g step is the f step on the
transposed operator. Every kernel half-step is ``_kernel_soft_min`` and
every log-domain one ``_soft_min``, on the rows of one cost slab at a time;
the potential extension runs the same pair, on a kernel from
``_gibbs_kernel``. Weighted sums use ``einsum``, never BLAS, so no result
depends on the BLAS thread count; the only LAPACK call solves 5 x 5 systems,
one at a time.

:func:`solve` iterates the map ``f -> f_from(g_from(f))`` with safeguarded
Anderson mixing and stops when the map moves f by at most ``tol * eps`` on
the atoms that carry weight, which is exactly the two-sided residual of the
pair it returns; see its docstring. :func:`_solve_stack` solves a block of
problems of one size, given as points ``(R, n, d)``, one row per problem, or
one ``(n, d)`` support shared by all, and weights ``(R, n)``, or one vector
for all. It cuts the block into stacks within ``_STACK_ENTRIES`` entries of
kernels or of map state (``_STATE_ROWS``), and runs each stack's maps
together. Each kernel half-step is one ``einsum`` over the stacked kernels,
or over the one kernel of a stack whose two supports are shared (and of a
stack of one), which gives every problem the sums of its own call, while
each problem keeps its own history, residual and map count. A problem that
meets tol keeps its point, which no longer moves, so the stack's last map
gives its pair bit for bit as the map where it met tol did. The block
returns one record of arrays (:class:`_Solved`), whose row r is what a lone
solve of problem r returns, bit for bit, and :func:`solve` is a block of
one. Only a lone problem leaves its kernel; a stack that would leave its
kernels is solved again one problem at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, NotConverged, NotOptimal
from .measures import DiscreteMeasure, _check_eps

# The largest n x m array the library holds: a Gibbs kernel or a plan (32M
# entries, 256 MB of float64, covers the 25M-entry n = 5000 cells). Above it
# a solve runs blocked, and a plan or extension tables are refused. Read at
# call time, so one patch of this name reaches every reader.
DENSE_ENTRY_LIMIT = 32_000_000

# A kernel sum at or above this floor is exact to double precision: terms
# lost to underflow are each below 2.3e-308, so even 32M of them amount to
# less than 1e-100 of the sum. Below it the half-step is redone in the log
# domain.
_KERNEL_FLOOR = 1e-200

# Every cost build (_cost_slabs) runs in row slabs of about this many entries,
# with one slab-sized temporary (256 KB, so it stays in L2). Measured fastest
# among 16K-256K entries from 1681 x 10 to 5000 x 5000 costs; fixed 64-row
# slabs cost skinny grids (m = 10) one numpy call per 640 entries.
_COST_SLAB_ENTRIES = 1 << 15

# _gibbs_kernel takes the Gram form up to this max hx + max hy: its rounding,
# 3 (d + 3) u (1 + 256), stays below the difference build's worst case above
# underflow, (d + 4) u 745, for d <= 25, and no entry is below exp(-512).
_GRAM_LIMIT = 256.0

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
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("potentials must be finite")
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
    on cost slabs, log domain) or ``"blocked"`` (more than
    ``DENSE_ENTRY_LIMIT`` cost entries: cost rebuilt in slabs, log domain,
    from the first half-step). ``iterations`` counts evaluations of
    the map ``f -> f_from(g_from(f))``, two half-steps each; the last one
    gives ``final_residual``, which is also ``optimality_residual``, and the
    dual value.
    """

    iterations: int
    final_residual: float
    dual_value: float
    converged: bool
    optimality_residual: float
    path: str


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
    for bit as alone. Bit for bit only on C-contiguous rows: einsum's sums
    depend on the operands' strides, and rows of a Fortran-ordered block give
    other last bits."""
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
    depend on the thread count of the underlying library. Built by
    :func:`_cost_slabs` in the rows of the result.
    """
    C = np.empty((X.shape[0], Y.shape[0]))
    for _ in _cost_slabs(X, Y, C):
        pass
    return C


def _cost_slabs(X: np.ndarray, Y: np.ndarray, C: np.ndarray | None = None,
                factor: float = 0.5):
    """The squared cost between the rows of X and Y times ``factor`` (the
    half squared cost by default), as ``(rows, slab)`` pairs in row order: a
    slice of X's rows and their cost rows, about ``_COST_SLAB_ENTRIES``
    entries. The slabs are written into ``C``'s rows when it is given, else
    into one buffer that every slab reuses, which the caller may overwrite.
    The only temporary is one slab; the first axis squares in the slab
    itself, and Y's coordinates are read from one contiguous copy of each
    axis (a 250 x 250 cost at d = 2 took a quarter less time than with a
    zeroed slab and strided columns). Each entry's bits are those of the
    per-axis sum times ``factor``, whatever the slab height. Raises
    :class:`DimensionMismatch` when X and Y differ in ambient dimension.
    """
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"ambient dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    n, m = X.shape[0], Y.shape[0]
    rows = max(1, _COST_SLAB_ENTRIES // max(m, 1))
    diff = np.empty((min(n, rows), m))
    buffer = np.empty_like(diff) if C is None else None
    Y_axes = np.ascontiguousarray(Y.T)
    for start in range(0, n, rows):
        k = slice(start, start + rows)
        slab = buffer[:min(rows, n - start)] if C is None else C[k]
        tmp = diff[:slab.shape[0]]
        for axis in range(X.shape[1]):
            term = tmp if axis else slab
            np.subtract(X[k, axis, None], Y_axes[axis], out=term)
            np.multiply(term, term, out=term)
            if axis:
                slab += term
        slab *= factor
        yield k, slab


def _gibbs_kernel(X: np.ndarray, Y: np.ndarray, eps: float, K: np.ndarray | None = None):
    """``exp(-C/eps)`` for the half squared cost C between the rows of X and
    Y, into ``K`` when it is given (an n x m array, such as a stack slot),
    else into a new array. With c the midpoint of the supports' means and
    ``hx = |x - c|^2/(2 eps)``, ``hy`` alike, the columns
    ``[(x - c)/eps; -hx; 1]`` of A and ``[y - c; 1; -hy]`` of B give
    ``A^T B = -C/eps`` (the Gram form). Each row slab of about
    ``_COST_SLAB_ENTRIES`` entries is one ``einsum`` of A and B (no BLAS),
    exponentiated in cache; every entry is within
    ``3 (d + 3) u (1 + max hx + max hy)`` of exact, relative (u = 2^-53).
    A kernel of one slab or less, whose set-up the Gram form would not repay,
    or with ``max hx + max hy > _GRAM_LIMIT``, exponentiates the slabs of
    :func:`_cost_slabs` times ``-0.5/eps`` instead (the difference build), each
    argument x within ``(d + 4) u |x|``; so do supports of other dimensions,
    which :func:`_cost_slabs` refuses."""
    (n, d), m = X.shape, Y.shape[0]
    K = np.empty((n, m)) if K is None else K
    if n * m > _COST_SLAB_ENTRIES and Y.shape[1] == d:
        c = (X.sum(0) / n + Y.sum(0) / m) / 2
        A, B = np.empty((d + 2, n)), np.empty((d + 2, m))
        np.subtract(X.T, c[:, None], out=A[:d])
        np.subtract(Y.T, c[:, None], out=B[:d])
        A[d] = np.einsum("ki,ki->i", A[:d], A[:d]) / (-2 * eps)  # -hx
        B[d + 1] = np.einsum("kj,kj->j", B[:d], B[:d]) / (-2 * eps)  # -hy
        A[d + 1] = B[d] = 1.0
        if -(A[d].min() + B[d + 1].min()) <= _GRAM_LIMIT:
            A[:d] /= eps
            rows = max(1, _COST_SLAB_ENTRIES // m)
            for i in range(0, n, rows):
                slab = np.einsum("ki,kj->ij", A[:, i:i + rows], B, out=K[i:i + rows])
                np.exp(slab, out=slab)
            return K
    for _, slab in _cost_slabs(X, Y, K, -0.5 / eps):
        np.exp(slab, out=slab)
    return K


class _Unstackable(Exception):
    """A stack of more than one problem cannot stay on its kernels."""


class _Updates:
    """Half-step maps of the dual iteration, over a stack of problems.

    The problems share their sizes (n x m) and eps. Problem r's supports are
    row r of ``X`` and ``Y``, ``(R, n, d)`` and ``(R, m, d)``, or the one
    ``(n, d)`` or ``(m, d)`` support of every problem; its weights are row r
    of ``a``, ``(R, n)``, and of ``b``, ``(R, m)`` or one vector for all. A
    stack holds each problem's Gibbs kernel ``exp(-C/eps)`` in one array, or
    one 2-d kernel when both supports are shared or the stack holds one
    problem, and runs a half-step as one kernel product over it; each kernel
    is built in its slot by :func:`_gibbs_kernel`, so the stack holds its
    kernels and one build's temporaries, never a kernel's copy. Row r of a
    half-step's argument and result belongs to problem r. Only a lone problem
    leaves its kernel (:func:`_kernel_soft_min`): above ``DENSE_ENTRY_LIMIT``
    entries, or from its first kernel sum below ``_KERNEL_FLOOR`` on, it
    rebuilds cost row slabs of about ``_COST_SLAB_ENTRIES`` entries on every
    half-step. ``path`` is its :class:`SolveReport` path so far.
    """

    def __init__(self, X, a, Y, b, eps: float):
        self.a, self.b = _rows(a, len(a)), _rows(b, len(a))
        self.log_a, self.log_b = _log_weights(self.a), _log_weights(self.b)
        self.eps = eps
        dense = self.a.shape[1] * self.b.shape[1] <= DENSE_ENTRY_LIMIT
        if not dense and len(a) > 1:
            raise _Unstackable
        self.path = "kernel" if dense else "blocked"
        self._log_w = (self.log_b, self.log_a)
        if len(a) == 1:  # a lone problem runs on its 2-d supports
            X, Y = _support(X, 0), _support(Y, 0)
            self._points = ((X, Y), (Y, X))
        if dense and X.ndim == Y.ndim == 2:
            K = _gibbs_kernel(X, Y, eps)
        elif dense:
            K = np.empty((len(a), self.a.shape[1], self.b.shape[1]))
            for r, k in enumerate(K):
                _gibbs_kernel(_support(X, r), _support(Y, r), eps, k)
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
        for k, C in _cost_slabs(rows, cols):
            out[..., k] = _soft_min(pot, self._log_w[side], C, self.eps)
        return out

    def f_from(self, g: np.ndarray) -> np.ndarray:
        return self._half_step(g, 0)

    def g_from(self, f: np.ndarray) -> np.ndarray:
        return self._half_step(f, 1)


def _support(points: np.ndarray, r: int | slice) -> np.ndarray:
    """Problem r's support: the one ``(n, d)`` support of every problem, or
    row r of a ``(R, n, d)`` block (rows r, for a slice)."""
    return points if points.ndim == 2 else points[r]


def _rows(w: np.ndarray, count: int) -> np.ndarray:
    """Weights as ``count`` C-contiguous rows: a C-contiguous block of rows as
    it is, any other block copied, one vector copied to each row (never left
    a stride-0 broadcast), as :func:`_dot`'s sums are bit for bit only on
    C-contiguous rows."""
    return np.ascontiguousarray(np.broadcast_to(w, (count, w.shape[-1])))


def _problem(P: DiscreteMeasure, Q: DiscreteMeasure) -> tuple:
    """``(X, a, Y, b)`` of one problem, a stack of one."""
    return P.points, P.weights[None], Q.points, Q.weights[None]


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
    a, b = _rows(a, len(f)), _rows(b, len(g))
    if convention is Normalization.EQUAL_MEANS:
        c = 0.5 * (_dot(g, b) - _dot(f, a))
    elif convention is Normalization.ZERO_G_MEAN:
        c = _dot(g, b)
    elif convention is Normalization.RAW:
        c = np.zeros(len(f))
    else:  # pragma: no cover
        raise ValueError(f"unknown convention {convention!r}")
    return f + c[:, None], g - c[:, None]


def solve(P: DiscreteMeasure, Q: DiscreteMeasure, cfg: SolverConfig):
    """Iterate the dual map with Anderson mixing until the marginal residual is met.

    The map is ``T(f) = f_from(g_from(f))``, one alternating sweep (two
    half-steps); ``report.iterations`` counts its evaluations. From ``f = 0``
    each step maps the current point ``x`` and mixes: with the differences
    ``dR`` of the residuals ``T(x) - x`` and ``dT`` of the images ``T(x)``
    between the last ``_DEPTH + 1`` kept points, the next point is
    ``T(x) - dT gamma``, where ``gamma`` minimises ``|T(x) - x - dR gamma|``
    (Anderson mixing; Walker & Ni, SIAM J. Numer. Anal. 2011). Without
    differences the step is the plain one, ``T(x)``. A mixed point is kept
    only if its residual is below ``_KEEP`` times the smallest so far;
    otherwise the history is cleared and the next point is ``T`` of the last
    kept point, which starts a new history.

    The residual of a point is ``max |T(x) - x| / eps`` over the atoms of P
    with weight. The others do not enter ``g_from``: they would only trail
    the map by one step, and a long mixed step would be rejected for them
    alone. The solve returns ``(x, g_from(x))`` with ``T(x)`` on those atoms,
    so the residual is exactly the two-sided residual of the returned pair,
    whose column marginals are exact. It stops once the residual is at most
    ``cfg.tol``; the report's residual, two-sided optimality residual and
    dual value are those of the last map.

    Returns ``(pair, report)`` with the pair normalized to equal means.
    Raises :class:`NotConverged` (with the report and the last mapped pair
    attached) if the map budget runs out first. This is :func:`_solve_stack`
    on a stack of one.
    """
    return _row_result(_solve_stack(*_problem(P, Q), cfg), 0, cfg)


class _Solved(NamedTuple):
    """:func:`_solve_stack`'s results, one entry or row per problem: what
    :func:`solve` returns or raises for it, as arrays (:func:`_row_result`),
    read off the stack's last map: a problem's row is that of the map where
    it met tol or ran out of maps, as it has not moved since."""

    f: np.ndarray  # (R, n): the pairs, normalized to equal means
    g: np.ndarray  # (R, m)
    cost: np.ndarray  # <f, a> + <g, b>, the cost() of each pair
    iterations: np.ndarray
    residual: np.ndarray  # the final and the two-sided optimality residual
    dual: np.ndarray
    path: np.ndarray
    converged: np.ndarray


def _row_result(solved: _Solved, r: int, cfg: SolverConfig):
    """``(pair, report)`` of problem r of a stack, as :func:`solve` returns
    it; raises its :class:`NotConverged`."""
    pair = PotentialPair(solved.f[r], solved.g[r], cfg.eps, Normalization.EQUAL_MEANS)
    residual = float(solved.residual[r])
    report = SolveReport(int(solved.iterations[r]), residual, float(solved.dual[r]),
                         bool(solved.converged[r]), residual, str(solved.path[r]))
    if not report.converged:
        raise NotConverged(f"residual {residual:.3e} above tol {cfg.tol:.3e} "
                           f"after {report.iterations} iterations", report=report, pair=pair)
    return pair, report


def _solve_stack(X, a, Y, b, cfg: SolverConfig) -> _Solved:
    """:func:`solve` of each problem of a block (:class:`_Updates` gives the
    layout), in stacks of as many problems as fit ``_STACK_ENTRIES`` entries
    of their kernels (none when both supports are shared) or of their map
    state (``_STATE_ROWS``), whichever is larger; each stack is one map loop.

    The problems share their sizes. Each keeps its own history, residual and
    map count, and row r of every array is problem r's alone: the Grams of
    all mixing problems are solved as one batch, each its own system. From
    the map where a problem meets tol its point no longer moves, so its later
    maps repeat that one bit for bit; the record is read off each stack's
    last map, and its row is that of a lone :func:`solve`, path and
    :class:`NotConverged` included. A stack of more than one that would
    leave its kernels is solved again one problem at a time. The weight
    rows, the equal-means shift, the costs and the dual values are computed
    once for the whole block.
    """
    a, b = _rows(a, len(a)), _rows(b, len(a))
    (count, n), m = a.shape, b.shape[1]
    kernels = 0 if X.ndim == Y.ndim == 2 else n * m
    size = max(1, _STACK_ENTRIES // max(kernels, _STATE_ROWS * max(n, m)))
    raw = []  # each stack's rows, or each problem's for a stack solved one at a time
    for start in range(0, count, size):
        k = slice(start, min(start + size, count))
        try:
            raw.append(_sweep_stack(_support(X, k), a[k], _support(Y, k), b[k], cfg))
            continue
        except _Unstackable:
            pass  # leaving the handler drops the traceback, and the stack's kernels with it
        raw += [_sweep_stack(_support(X, r), a[r:r + 1], _support(Y, r), b[r:r + 1], cfg)
                for r in range(k.start, k.stop)]
    rows = raw[0] if len(raw) == 1 else [np.concatenate(part) for part in zip(*raw)]
    F, g, f_hat, maps, residuals, paths = rows
    dual = _dual_values(F, g, f_hat, a, b, cfg.eps)
    F, G = _shift(F, g, a, b, Normalization.EQUAL_MEANS)
    return _Solved(F, G, _dot(F, a) + _dot(G, b), maps, residuals, dual, paths,
                   residuals <= cfg.tol)


# A stack holds at most this many entries (1 MB of float64) of its problems'
# kernels, or of their map state, whichever is larger. On a 2-vCPU VM, 100 x
# 100 coverage intervals at eps = 2 took 0.87 ms each in stacks of 13,
# against 1.50 ms one at a time; 250 x 250 ones about 4% less in stacks of 2.
_STACK_ENTRIES = 1 << 17

# Anderson mixing depth: the differences between the last this many + 1
# kept points of a problem are mixed.
_DEPTH = 5

# A stacked problem's map state, in float64 rows of its operator's longer
# side: the 2 _DEPTH + 1 rows of its mixing history, and 18 more of points,
# images, residuals, weights and half-step temporaries. A stack of problems on
# shared supports holds one kernel, so its state sets its size: 451
# count-weighted 10 x 10 problems, a stack of this budget, peaked at 1.08 of
# it traced with tracemalloc, and 1000 in one stack at 2.4 times.
_STATE_ROWS = 2 * _DEPTH + 19

# Each Gram of residual differences is solved with this fraction of its
# largest diagonal entry added to its diagonal, so a rank-deficient history
# (fewer atoms than differences) gives a bounded least-squares solution.
_RIDGE = 1e-12

# A mixed point is kept only below this fraction of the smallest residual so
# far. On a plateau, or after a step along the constant shift that T carries
# over, the residual equals the smallest up to rounding; a strict "below"
# would then keep or reject the point by its last bits, so the kernel and log
# half-steps of one problem would take different map counts.
_KEEP = 1 - 1e-9


def _sweep_stack(X, a, Y, b, cfg: SolverConfig) -> tuple:
    """The map loop of one stack of :func:`_solve_stack`; raises
    :class:`_Unstackable`. It ends at the map where the last problem leaves,
    and returns that map's raw rows: the points ``f`` (``tx`` on the atoms of
    P without weight), their images ``g`` and f half-steps ``tx``, and each
    problem's map count, residual and path."""
    upd = _Updates(X, a, Y, b, cfg.eps)
    eps, count = cfg.eps, len(upd.a)
    x = np.zeros(upd.a.shape)  # the points mapped next
    t = r = x  # T and the residual T - id at each problem's last kept point
    # their differences between consecutive kept points, map k's in slot
    # k % _DEPTH; the last slot of dR holds r when the points are mixed
    dT = np.zeros((count, _DEPTH, x.shape[1]))
    dR = np.zeros((count, _DEPTH + 1, x.shape[1]))
    recording = [False] * count  # whether the next kept point adds a difference
    mixed = [False] * count  # whether x is a mixed point
    best = [math.inf] * count  # smallest residual so far
    maps = [None] * count  # the map each problem left at
    unweighted = upd.a == 0  # the atoms of P that do not enter g_from
    for iterations in range(1, cfg.max_iter + 1):
        g = upd.g_from(x)
        tx = upd.f_from(g)
        rx = tx - x
        rx[unweighted] = 0.0
        res = [m / eps for m in _row_max(rx)]
        slot = iterations % _DEPTH
        np.subtract(tx, t, out=dT[:, slot])
        np.subtract(rx, r, out=dR[:, slot])
        keep, leave, mixing = [], [], []
        for i in range(count):
            if maps[i] is not None:
                continue
            if res[i] <= cfg.tol or iterations == cfg.max_iter:
                leave.append(i)
                maps[i] = iterations
            elif not mixed[i] or res[i] < best[i] * _KEEP:
                keep.append(i)
                if recording[i]:
                    mixing.append(i)
                else:  # x starts a history: no difference
                    dT[i, slot] = dR[i, slot] = 0.0
                mixed[i], recording[i], best[i] = recording[i], True, min(best[i], res[i])
            else:  # x is rejected: clear the history, map T at the last kept point
                dT[i] = dR[i] = 0.0
                mixed[i] = recording[i] = False
        if leave:
            if None not in maps:
                break
            keep += leave  # a problem that left keeps its point
            tx[leave] = x[leave]
        if len(keep) < count:
            kept = np.zeros((count, 1), dtype=bool)
            kept[keep] = True
            tx, rx = np.where(kept, tx, t), np.where(kept, rx, r)
        t, r, x = tx, rx, tx
        if mixing:
            rows = slice(None) if len(mixing) == count else mixing
            dR[:, _DEPTH] = r
            x = t.copy()
            x[rows] = _mixed(t[rows], dT[rows], dR[rows])
    # a problem that left before the last map has not moved since: the last
    # map's rows are its rows at the map it left at, bit for bit
    return (np.where(unweighted, tx, x), g, tx, np.array(maps), np.array(res),
            np.full(count, upd.path))


def _mixed(t: np.ndarray, dT: np.ndarray, dR: np.ndarray) -> np.ndarray:
    """Anderson-mixed points ``t - sum_k gamma_k dT_k`` of a stack of rows.

    Per row, ``gamma`` solves the normal equations of ``min |r - sum_k gamma_k
    dR_k|``, with ``r`` in the last slot of ``dR``, and ``_RIDGE`` times the
    Gram's largest diagonal entry added to its diagonal; empty slots are zero
    and get ``gamma_k = 0``. Every row's system is its own, so no row's Gram
    changes another row's result.
    """
    G = np.einsum("rkn,rln->rkl", dR, dR)  # the Gram, and the products with r in its last column
    diagonal = G.reshape(len(G), -1)[:, :_DEPTH * (_DEPTH + 2):_DEPTH + 2]  # a view
    diagonal += np.maximum(_RIDGE * np.maximum.reduce(diagonal, axis=1), _TINY)[:, None]
    gamma = np.linalg.solve(G[:, :_DEPTH, :_DEPTH], G[:, :_DEPTH, _DEPTH:])
    return t - np.einsum("rk,rkn->rn", gamma[..., 0], dT)


def _row_max(x: np.ndarray) -> list:
    """``max |x_i|`` of each row, as floats."""
    return np.maximum.reduce(np.abs(x), axis=-1).tolist()


def optimality_residual(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Sup norm of both sides' log marginal ratios for the implied plan."""
    _check_pair_dims(P, Q, pair)
    upd = _Updates(*_problem(P, Q), pair.eps)
    f, g = pair.f[None], pair.g[None]
    return max(*_row_max(f - upd.f_from(g)), *_row_max(g - upd.g_from(f))) / pair.eps


def dual_objective(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> float:
    """Value of the regularized dual functional at an arbitrary pair.

    ``<f, a> + <g, b> - eps * sum_ij a_i b_j exp((f_i + g_j - C_ij)/eps) + eps``
    """
    _check_pair_dims(P, Q, pair)
    upd = _Updates(*_problem(P, Q), pair.eps)
    f, g = pair.f[None], pair.g[None]
    return float(_dual_values(f, g, upd.f_from(g), upd.a, upd.b, pair.eps)[0])


def _dual_values(f: np.ndarray, g: np.ndarray, f_hat: np.ndarray, a: np.ndarray,
                 b: np.ndarray, eps: float) -> np.ndarray:
    """Dual functional at each pair of a block, on weight rows ``a`` and
    ``b``, given ``f_hat``, the f half-steps of ``g``.

    ``sum_j b_j exp((g_j - C_ij)/eps) = exp(-f_hat_i/eps)``, so the plan's
    total mass is ``sum_i a_i exp((f_i - f_hat_i)/eps)``.
    """
    mass = np.exp(_logsumexp(_log_weights(a) + (f - f_hat) / eps))
    return _dot(f, a) + _dot(g, b) - eps * mass + eps


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
    """:func:`solve`, then :func:`cost` without rebuilding the operator: the
    ``10 * tol`` gate is applied to the residual the solve measured. Returns
    ``(pair, report, cost)``. A stack's costs are its record's (a converged
    row meets tol, so it passes the gate)."""
    pair, report = solve(P, Q, cfg)
    _require_optimal(report.optimality_residual, cfg.tol)
    return pair, report, _dot(pair.f, P.weights) + _dot(pair.g, Q.weights)


def _require_dense(what: str, n: int, m: int) -> None:
    """Raise :class:`ValueError` when ``what``, a dense n x m array, would
    hold more than ``DENSE_ENTRY_LIMIT`` entries."""
    if n * m > DENSE_ENTRY_LIMIT:
        raise ValueError(f"{what} of {n} x {m} = {n * m} entries exceeds "
                         f"DENSE_ENTRY_LIMIT = {DENSE_ENTRY_LIMIT}")


def plan(P: DiscreteMeasure, Q: DiscreteMeasure, pair: PotentialPair) -> TransportPlan:
    """Entropic coupling ``pi_ij = a_i b_j exp((f_i + g_j - C_ij)/eps)``.

    The plan is a dense n x m array, so above ``DENSE_ENTRY_LIMIT`` entries
    this raises :class:`ValueError` before allocating anything.
    """
    _check_pair_dims(P, Q, pair)
    _require_dense("plan", P.n, Q.n)
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
    over row slabs of the plan, each against its own cost slab
    (:func:`_cost_slabs`), so memory is the plan plus two slabs.
    """
    _check_eps(eps)
    pi = transport.entries
    if pi.shape != (P.n, Q.n):
        raise DimensionMismatch(
            f"plan shaped {pi.shape} does not match supports ({P.n}, {Q.n})"
        )
    log_a, log_b = _log_weights(P.weights), _log_weights(Q.weights)
    transport_term = entropy_term = 0.0
    for k, E in _cost_slabs(P.points, Q.points):
        p = pi[k]
        if (p < 0).any():
            raise NegativeEntry("transport plan has a negative entry")
        E *= p
        transport_term += float(E.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(p, out=E)
            E -= log_a[k, None]
            E -= log_b
            E *= p
        entropy_term += float(E.sum(where=p > 0))
    return transport_term + eps * entropy_term
