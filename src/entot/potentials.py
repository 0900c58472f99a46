"""Off-support extension and differentiation of dual potentials.

A converged pair extends to all of R^d through the log-integral formulas,
and the derivatives of the extension (after removing the half squared norm)
are signed cumulants of a conditional law over the opposite support. That
turns differentiation into a moment computation plus the standard
moment-to-cumulant recursion, exact for discrete measures up to roundoff.

An evaluation runs on the Gibbs kernel ``exp(-C/eps)`` between the points
and the opposite support: one kernel half-step of the solver gives the
extension values, and one product of the kernel with the scaled monomials of
the opposite support gives every raw moment. Where a kernel row sum falls
below the solver's ``_KERNEL_FLOOR`` the evaluation is redone in the log
domain. Everything that does not depend on the potential (the kernel, the
monomials, the multi-indices, the quadratic terms and the cumulant recursion)
is built once per (points, support, eps, order) by ``_kernel_tables``.
``_extensions`` evaluates a stack of potentials on those tables, one row per
potential: their values as one half-step, and their raw moments as one
product of the kernel with every potential's scaled monomials.
:meth:`ExtendedPotential.evaluate` is a stack of one.

Derivatives are implemented at eps = 1 only; callers wanting other eps
rescale the measures first and use the scaling identity.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import comb, prod
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedOrder, WrongNormalization
from .measures import CompactDomain, DiscreteMeasure, SplitMix64
from .sinkhorn import (Normalization, PotentialPair, _gibbs_kernel, _kernel_soft_min,
                       _log_weights, _require_dense, _soft_min, half_sq_cost)

MAX_DERIVATIVE_ORDER = 6

_LIPSCHITZ_PAIR_SEED = 0x5EEDB0D5


class Side(enum.Enum):
    F = "f"
    G = "g"


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_order, graded lexicographic."""
    out = [
        alpha
        for alpha in itertools.product(range(max_order + 1), repeat=dim)
        if sum(alpha) <= max_order
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def cumulants_from_moments(moments: dict) -> dict:
    """Cumulants of every order >= 1 index present in a raw-moment table.

    ``moments`` maps multi-index tuples to raw moments (scalars or arrays of
    a common shape) and must contain the full downward-closed index set
    including the zero index (whose moment is 1). Uses the recursion obtained
    by Leibniz-expanding D^alpha exp(K): with alpha' = alpha - e_i for the
    first nonzero axis i,

        kappa_alpha = m_alpha - sum_{beta < alpha'} C(alpha', beta)
                      * kappa_{beta + e_i} * m_{alpha' - beta}.
    """
    orders = sorted((a for a in moments if sum(a) >= 1), key=lambda a: (sum(a), a))
    return _cumulants(moments, _cumulant_plan(orders))


def _cumulant_plan(orders) -> list:
    """The recursion of :func:`cumulants_from_moments` over ``orders`` (graded
    lexicographic, order >= 1): per alpha, its terms ``(C(alpha', beta),
    beta + e_i, alpha' - beta)`` in summation order."""
    plan = []
    for alpha in orders:
        axis = next(i for i, k in enumerate(alpha) if k > 0)
        ap = tuple(k - 1 if i == axis else k for i, k in enumerate(alpha))
        terms = [(prod(comb(k, b) for k, b in zip(ap, beta)),
                  tuple(b + 1 if i == axis else b for i, b in enumerate(beta)),
                  tuple(k - b for k, b in zip(ap, beta)))
                 for beta in itertools.product(*(range(k + 1) for k in ap)) if beta != ap]
        plan.append((alpha, terms))
    return plan


def _cumulants(moments: dict, plan: list) -> dict:
    """Cumulants from raw moments by a :func:`_cumulant_plan`."""
    cumulants: dict = {}
    for alpha, terms in plan:
        acc = moments[alpha]
        for coeff, kappa_idx, rem in terms:
            acc = acc - coeff * cumulants[kappa_idx] * moments[rem]
        cumulants[alpha] = acc
    return cumulants


def _quadratic_term(points: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """D^alpha of the half squared norm, evaluated on each row of points."""
    order = sum(alpha)
    k = points.shape[0]
    if order == 1:
        axis = alpha.index(1)
        return points[:, axis].copy()
    if order == 2 and max(alpha) == 2:
        return np.ones(k)
    return np.zeros(k)


def _check_order(order: int, eps: float) -> None:
    """Derivatives and moments: order at most ``MAX_DERIVATIVE_ORDER``, eps = 1."""
    if order > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrder(f"orders supported up to {MAX_DERIVATIVE_ORDER}, got {order}")
    if eps != 1.0:
        raise ValueError("derivatives are implemented at eps = 1; rescale first")


class _Tables(NamedTuple):
    """What every extension over one support at the same points and eps
    shares (:func:`_kernel_tables`); read-only, so one set serves them all."""

    K: np.ndarray  # Gibbs kernel, points x support, column-major
    M: np.ndarray  # y^beta on the support, one column per beta of order >= 1
    pts: np.ndarray
    Y: np.ndarray  # the support
    log_w: np.ndarray  # its log weights
    eps: float
    betas: list  # multi_indices(d, max_order)
    quad: dict  # beta -> D^beta of the half squared norm on pts, order >= 1
    plan: list  # the cumulant recursion (_cumulant_plan)


def _kernel_tables(points: np.ndarray, opposite: DiscreteMeasure, eps: float,
                   max_order: int) -> _Tables:
    """The :class:`_Tables` of extensions over ``opposite`` at ``points``,
    up to derivative order ``max_order``.

    ``K`` is stored column-major (built as the transpose), so the products
    with it run along the points: on a 1681 x 10 grid kernel the moment
    product took 29 us against 121 us row-major (2-vCPU VM). Above
    ``DENSE_ENTRY_LIMIT`` points x support entries this raises
    :class:`ValueError` before allocating anything."""
    Y = opposite.points
    _require_dense("kernel", len(points), len(Y))
    betas = multi_indices(Y.shape[1], max_order)
    M = np.empty((Y.shape[0], len(betas) - 1))
    for k, beta in enumerate(betas[1:]):
        M[:, k] = np.prod(Y ** np.array(beta), axis=1)
    quad = {beta: _quadratic_term(points, beta) for beta in betas[1:]}
    tables = _Tables(_gibbs_kernel(Y, points, eps).T, M, points, Y,
                     _log_weights(opposite.weights), eps, betas, quad, _cumulant_plan(betas[1:]))
    for table in (tables.K, M, tables.log_w, *quad.values()):
        table.flags.writeable = False
    return tables


@dataclass(frozen=True, eq=False)
class ExtendedPotential:
    """One side of a converged pair, as a function on all of R^d.

    ``side`` picks which stored potential is extended; ``opposite`` is the
    measure the extension integrates against (the second measure for the f
    side, the first for the g side). Evaluating at a support point of the
    extension's own measure reproduces the stored value, to within the
    residual the pair was solved at.
    """

    side: Side
    pair: PotentialPair
    opposite: DiscreteMeasure

    def _values(self) -> np.ndarray:
        """The stored potential the extension integrates, as a stack of one."""
        values = self.pair.g if self.side is Side.F else self.pair.f
        if values.shape[0] != self.opposite.n:
            raise ValueError("pair does not match the opposite measure's support")
        return values[None]

    def extend(self, x) -> float:
        """Extension value at a single point."""
        zero = (0,) * self.opposite.dim
        return float(self.evaluate(x, [zero])[zero][0])

    def evaluate(self, points: np.ndarray, alphas) -> dict:
        """Extension values and derivatives on a batch of points.

        Returns a dict mapping each requested multi-index (the zero index
        means the extension itself) to a vector over the rows of ``points``.
        Derivative indices require eps = 1.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        alphas = [tuple(int(v) for v in a) for a in alphas]
        max_order = max(map(sum, alphas), default=0)
        if max_order >= 1:
            _check_order(max_order, self.pair.eps)
        return self._evaluate(_kernel_tables(pts, self.opposite, self.pair.eps, max_order),
                              alphas)

    def _evaluate(self, tables: _Tables, alphas) -> dict:
        """:meth:`evaluate` on the :func:`_kernel_tables` of its points,
        built at the highest order in ``alphas``."""
        stack = _extensions(self._values(), tables, alphas)
        return {alpha: table[0] for alpha, table in stack.items()}


def _extension_tables(values: np.ndarray, t: _Tables):
    """Extension values at each point of ``t`` and the raw moments E[y^beta]
    of each point's conditional law over the support, for a stack of
    extensions over it: row r of ``values`` holds the r-th one's potential on
    the support, and every table has one row per extension.

    The values are one kernel half-step and the moments one product of ``K``
    with every extension's scaled monomials, divided by the row sums; the
    product's sums are those of one product per extension, bit for bit. A row
    sum below ``_KERNEL_FLOOR`` follows :func:`_kernel_soft_min`'s rule: an
    extension alone has both redone in the log domain, on a cost built here;
    ``K`` is never written. Each extension's tables are those of its own
    stack of one, bit for bit.
    """
    step = _kernel_soft_min(t.K, values, t.log_w, t.eps)
    if step is not None:
        ext, u, s = step
        scaled = t.M[:, :, None] * u.T[:, None, :]  # column (beta, r): y^beta u_r
        raw = np.einsum("ij,jc->ci", t.K, scaled.reshape(len(scaled), -1)).reshape(-1, *ext.shape)
    elif len(values) > 1:  # each extension alone, so only those underflowing leave K
        rows = [_extension_tables(v[None], t) for v in values]
        return (np.concatenate([ext for ext, _ in rows]),
                {beta: np.concatenate([m[beta] for _, m in rows]) for beta in rows[0][1]})
    else:
        E = half_sq_cost(t.pts, t.Y)
        ext = _soft_min(values[0], t.log_w, E, t.eps)[None]
        s = np.sum(E, axis=1)[None]
        raw = np.einsum("ij,jb->bi", E, t.M)[:, None]
    raw /= s
    return ext, {t.betas[0]: np.ones(t.pts.shape[0]), **dict(zip(t.betas[1:], raw))}


def _extensions(values: np.ndarray, t: _Tables, alphas) -> dict:
    """:meth:`ExtendedPotential.evaluate` of a stack of extensions on the
    tables ``t`` (see :func:`_extension_tables`): each table has one row per
    extension."""
    ext, moments = _extension_tables(values, t)
    out: dict = {}
    if t.betas[0] in alphas:
        out[t.betas[0]] = ext
    deriv_alphas = [a for a in alphas if sum(a) >= 1]
    if deriv_alphas:
        kappa = _cumulants(moments, t.plan)
        for alpha in dict.fromkeys(deriv_alphas):  # in place: each cumulant is its own
            out[alpha] = np.subtract(t.quad[alpha], kappa[alpha], out=kappa[alpha])
    return out


def f_extension(pair: PotentialPair, Q: DiscreteMeasure) -> ExtendedPotential:
    return ExtendedPotential(Side.F, pair, Q)


def g_extension(pair: PotentialPair, P: DiscreteMeasure) -> ExtendedPotential:
    return ExtendedPotential(Side.G, pair, P)


def conditional_moments(pot: ExtendedPotential, x, max_order: int) -> dict:
    """All mixed raw moments E[y^beta], |beta| <= max_order, at one point.

    The underlying law is the row-conditional distribution over the opposite
    support; the zero-order moment is exactly 1.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    _check_order(max_order, pot.pair.eps)
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    tables = _kernel_tables(pts, pot.opposite, pot.pair.eps, max_order)
    moments = _extension_tables(pot._values(), tables)[1]
    return {beta: float(np.ravel(m)[0]) for beta, m in moments.items()}


def derivative(pot: ExtendedPotential, x, alpha) -> float:
    """D^alpha of the extension at a point, via conditional cumulants."""
    alpha = tuple(int(v) for v in alpha)
    if sum(alpha) < 1:
        raise UnsupportedOrder("alpha must have order >= 1; use extend for order 0")
    vals = pot.evaluate(np.atleast_2d(np.asarray(x, dtype=np.float64)), [alpha])
    return float(vals[alpha][0])


@dataclass(frozen=True)
class HolderOrder:
    """Highest derivative order entering the grid norm."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")

    @staticmethod
    def for_dimension(d: int) -> "HolderOrder":
        return HolderOrder(d // 2 + 1)


@dataclass(frozen=True)
class GridSpec:
    """Regular inclusive grid over a compact domain's bounding box."""

    domain: CompactDomain
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")

    def points(self) -> np.ndarray:
        axes = [
            np.linspace(lo, hi, self.points_per_axis)
            for lo, hi in zip(self.domain.lower, self.domain.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @staticmethod
    def default(domain: CompactDomain) -> "GridSpec":
        if domain.dim <= 2:
            return GridSpec(domain, 41)
        if domain.dim == 3:
            return GridSpec(domain, 21)
        raise ValueError("default grids are provided for d <= 3 only")


@dataclass(frozen=True)
class HolderNormEstimate:
    """Grid estimate of the derivative-sum sup norm.

    ``order_terms[i]`` is the contribution of order i (sum over |alpha| = i
    of the grid max of |D^alpha|); ``value`` is their total.
    """

    value: float
    order: HolderOrder
    grid: GridSpec
    order_terms: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PotentialDifference:
    """Pointwise difference of two extended potentials of the same side."""

    left: ExtendedPotential
    right: ExtendedPotential

    def evaluate(self, points: np.ndarray, alphas) -> dict:
        lt = self.left.evaluate(points, alphas)
        rt = self.right.evaluate(points, alphas)
        return {a: lt[a] - rt[a] for a in lt}


def _order_terms(tables: dict, alphas, s: int) -> list:
    """Entry i, for i = 0..s: the sum over ``alphas`` with |alpha| = i, in
    their order, of the grid max of |tables[alpha]|; of each row, for a
    stack of tables."""
    terms = [0.0] * (s + 1)
    for alpha in alphas:
        terms[sum(alpha)] += np.max(np.abs(tables[alpha]), axis=-1)
    return terms


def holder_norm(delta, order: HolderOrder, grid: GridSpec) -> HolderNormEstimate:
    """Sum over orders 0..s of grid maxima of |D^alpha delta|.

    ``delta`` is any object with an ``evaluate(points, alphas)`` method, in
    particular a :class:`PotentialDifference`. The multi-index enumeration is
    graded lexicographic, so the assembly order is deterministic.
    """
    pts = grid.points()
    alphas = multi_indices(pts.shape[1], order.s)
    terms = [float(t) for t in _order_terms(delta.evaluate(pts, alphas), alphas, order.s)]
    return HolderNormEstimate(
        value=float(sum(terms)),
        order=order,
        grid=grid,
        order_terms=tuple(terms),
    )


@dataclass(frozen=True)
class PotentialBoundsReport:
    """Measured sup norms and Lipschitz ratio against their domain bounds."""

    max_abs_f: float
    max_abs_g: float
    lipschitz_ratio: float
    sup_bound: float
    lipschitz_bound: float
    sup_ok: bool
    lipschitz_ok: bool


def _lipschitz_ratio(points: np.ndarray, values: np.ndarray,
                     max_random_pairs: int) -> float:
    """Max |dv| / |dx| over seeded random point pairs plus consecutive points.

    Consecutive points of a :class:`GridSpec` grid are neighbours along the
    last axis only; the random pairs cover the other axes.
    """
    k = points.shape[0]
    best = 0.0
    stream = SplitMix64(_LIPSCHITZ_PAIR_SEED)
    n_random = min(max_random_pairs, k * k)
    us = stream.uniforms(2 * n_random)
    idx = np.minimum((us * k).astype(np.int64), k - 1).reshape(n_random, 2)
    keep = idx[:, 0] != idx[:, 1]
    ii, jj = idx[keep, 0], idx[keep, 1]
    dist = np.sqrt(np.sum((points[ii] - points[jj]) ** 2, axis=1))
    ok = dist > 0
    if np.any(ok):
        ratios = np.abs(values[ii][ok] - values[jj][ok]) / dist[ok]
        best = max(best, float(np.max(ratios)))
    # consecutive points: the closest pairs along the last grid axis
    diffs = np.abs(np.diff(values))
    steps = np.sqrt(np.sum(np.diff(points, axis=0) ** 2, axis=1))
    pos = steps > 0
    if np.any(pos):
        best = max(best, float(np.max(diffs[pos] / steps[pos])))
    return best


def check_potential_bounds(pair: PotentialPair, P: DiscreteMeasure,
                           Q: DiscreteMeasure, domain: CompactDomain,
                           max_random_pairs: int = 100_000) -> PotentialBoundsReport:
    """Check the uniform and Lipschitz bounds implied by a compact domain.

    Requires the zero-g-mean convention and eps = 1, with both supports
    inside the domain. The sup norms are taken over the stored values and a
    grid of extension values; the Lipschitz ratio is an empirical max over
    sampled grid pairs. Flags compare against half the squared diameter
    (plus 1e-6) and the diameter (times 1 + 1e-6).
    """
    if pair.normalization is not Normalization.ZERO_G_MEAN:
        raise WrongNormalization("bounds are stated under the zero-g-mean convention")
    if pair.eps != 1.0:
        raise ValueError("bounds are checked at eps = 1")
    if not domain.contains(P.points) or not domain.contains(Q.points):
        raise ValueError("both supports must lie inside the domain")
    pts = GridSpec.default(domain).points()
    zero = (0,) * pts.shape[1]
    f_vals = f_extension(pair, Q).evaluate(pts, [zero])[zero]
    g_vals = g_extension(pair, P).evaluate(pts, [zero])[zero]
    max_abs_f = max(float(np.max(np.abs(pair.f))), float(np.max(np.abs(f_vals))))
    max_abs_g = max(float(np.max(np.abs(pair.g))), float(np.max(np.abs(g_vals))))
    ratio = max(
        _lipschitz_ratio(pts, f_vals, max_random_pairs),
        _lipschitz_ratio(pts, g_vals, max_random_pairs),
    )
    diam = domain.diameter
    sup_bound = 0.5 * diam**2
    return PotentialBoundsReport(
        max_abs_f=max_abs_f,
        max_abs_g=max_abs_g,
        lipschitz_ratio=ratio,
        sup_bound=sup_bound,
        lipschitz_bound=diam,
        sup_ok=max(max_abs_f, max_abs_g) <= sup_bound + 1e-6,
        lipschitz_ok=ratio <= diam * (1.0 + 1e-6),
    )
