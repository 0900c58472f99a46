"""Ground-truth references used to test the main code paths.

The brute-force fixed point deliberately shares no code with the solver
module: costs, log-sum-exp, and normalization are all recomputed here with
plain Python arithmetic so the two implementations can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, UnsupportedOrder
from .measures import DiscreteMeasure, _check_eps
from .sinkhorn import Normalization, PotentialPair


@dataclass(frozen=True)
class GaussianPairSpec:
    """The isotropic Gaussian pair whose regularized cost has a closed form.

    First marginal N(0, I_d/2), second N(1, I_d/2), under the full squared
    distance. In this library's half-squared-distance convention the same
    value is attained, at the same eps, by the sqrt(2)-scaled pair N(0, I_d)
    and N(sqrt(2)*1, I_d); the Monte Carlo harness samples accordingly.
    """

    d: int
    eps: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        _check_eps(self.eps)


def gaussian_cost(spec: GaussianPairSpec) -> float:
    """Closed-form regularized cost for :class:`GaussianPairSpec`."""
    d, eps = spec.d, spec.eps
    root = math.sqrt(1.0 + 4.0 / eps**2)
    return 2.0 * d - 0.5 * eps * (
        d * root - d * math.log(1.0 + root) + d * math.log(2.0) - d
    )


def brute_force_potentials(P: DiscreteMeasure, Q: DiscreteMeasure, eps: float,
                           tol: float = 1e-14, max_iter: int = 10**6) -> PotentialPair:
    """Fixed-point iteration to near machine precision on tiny supports.

    Requires n*m <= 100. Alternates exact log-domain updates until the sweep
    increment (sup norm, divided by eps) is at most ``tol``; the returned
    pair is shifted to equal means.
    """
    _check_eps(eps)
    n, m = P.n, Q.n
    if n * m > 100:
        raise ValueError("brute force is restricted to n*m <= 100")
    X = [[float(v) for v in row] for row in P.points]
    Y = [[float(v) for v in row] for row in Q.points]
    a = [float(v) for v in P.weights]
    b = [float(v) for v in Q.weights]
    d = len(X[0])
    C = [[0.5 * sum((X[i][k] - Y[j][k]) ** 2 for k in range(d)) for j in range(m)]
         for i in range(n)]
    log_a = [math.log(w) if w > 0 else -math.inf for w in a]
    log_b = [math.log(w) if w > 0 else -math.inf for w in b]

    def lse(terms):
        peak = max(terms)
        if peak == -math.inf:
            return -math.inf
        return peak + math.log(sum(math.exp(t - peak) for t in terms))

    f = [0.0] * n
    g = [0.0] * m
    residual = math.inf
    for _ in range(max_iter):
        residual = 0.0
        for i in range(n):
            new_f = -eps * lse([log_b[j] + (g[j] - C[i][j]) / eps for j in range(m)])
            residual = max(residual, abs(new_f - f[i]) / eps)
            f[i] = new_f
        for j in range(m):
            new_g = -eps * lse([log_a[i] + (f[i] - C[i][j]) / eps for i in range(n)])
            residual = max(residual, abs(new_g - g[j]) / eps)
            g[j] = new_g
        if residual <= tol:
            break
    else:
        raise NotConverged(
            f"brute force stalled at residual {residual:.3e} after {max_iter} sweeps"
        )
    shift = 0.5 * (sum(gj * bj for gj, bj in zip(g, b))
                   - sum(fi * ai for fi, ai in zip(f, a)))
    f = [fi + shift for fi in f]
    g = [gj - shift for gj in g]
    return PotentialPair(np.array(f), np.array(g), eps, Normalization.EQUAL_MEANS)


def finite_difference(fn, x, alpha, h: float):
    """Nested central differences for the mixed partial D^alpha at step h.

    Each unit of each axis order applies one first-order central difference,
    so the truncation error is O(h^2) per axis. Supports |alpha| <= 3. The
    stencil arithmetic inherits the precision of the values returned by
    ``fn``, so an extended-precision ``fn`` yields an extended-precision
    difference quotient.
    """
    alpha = tuple(int(k) for k in alpha)
    if any(k < 0 for k in alpha):
        raise UnsupportedOrder("multi-index entries must be nonnegative")
    order = sum(alpha)
    if order > 3:
        raise UnsupportedOrder(f"finite differences support |alpha| <= 3, got {order}")
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x)
    if order == 0:
        return fn(x)
    axis = next(i for i, k in enumerate(alpha) if k > 0)
    lower = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
    x_plus = x.copy()
    x_plus[axis] = x_plus[axis] + h
    x_minus = x.copy()
    x_minus[axis] = x_minus[axis] - h
    upper_val = finite_difference(fn, x_plus, lower, h)
    lower_val = finite_difference(fn, x_minus, lower, h)
    return (upper_val - lower_val) / (2.0 * h)
