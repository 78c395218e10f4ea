"""Quadrature rules and adaptive oscillatory-integral evaluation.

All sphere-related 1-D integrals carry the Gegenbauer weight
``(1 - t^2)^((d-3)/2)`` on [-1, 1].  The rules below build that weight into
the nodes (Gauss-Jacobi), which reduces to Gauss-Legendre at d = 3 and to
Gauss-Chebyshev at d = 2 and keeps spectral convergence at even d, where a
plain Legendre rule on the weighted integrand would crawl.

The Gauss-Jacobi rules are built in numpy: Newton's method on the
orthonormal three-term recurrence, vectorized over the nodes, from asymptotic
initial guesses (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013) or, for
large Jacobi parameters, from bisection on the Sturm count.  scipy's
Gauss-Jacobi and Gauss-Legendre rules serve only as the test oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import _integer

__all__ = ["gegenbauer_rule", "gegenbauer_weight_mass", "radial_power_rule", "adaptive_levels"]

_MAX_RULE_SIZE = 1 << 17


# Above this value of a or b the interior asymptotics can seed Newton on the
# wrong zero near that endpoint; bisection seeds every node there instead.
_INTERIOR_SEEDS_MAX = 10.0


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of ``n`` nodes (ascending) for (1-x)^a (1+x)^b dx on [-1, 1].

    Newton runs in theta = arccos(x) on u = sin^(a+1/2)(theta/2)
    cos^(b+1/2)(theta/2) p_n(cos theta), whose zeros are spaced almost
    evenly.  It starts from the interior asymptotics of the zeros while a
    and b are at most ``_INTERIOR_SEEDS_MAX``.  Beyond that the asymptotic
    guesses near the endpoint of the large parameter miss by more than the
    spacing of the zeros, so each node is first bracketed by bisection on
    the Sturm count of the Jacobi matrix, to an eighth of pi / rho (about
    that spacing).  When a = b only the nonnegative half is solved.  The
    weights are (2n+a+b+1) / ((1-x^2) p_n'(x)^2), the Christoffel-Darboux
    weight 1 / (b_n p_(n-1) p_n') rewritten through the derivative
    identity; this form is the less sensitive of the two to the rounding of
    the node.  Nodes that fail to converge, or that are not strictly
    increasing with p_(n-1) alternating in sign over them (a repeated
    zero), raise RuntimeError.
    """
    rho = n + (a + b + 1) / 2.0
    # k-th zero in increasing theta, that is in decreasing x
    k = np.arange(1, (n + 1) // 2 + 1 if a == b else n + 1)
    # orthonormal recurrence b_(j+1) p_(j+1) = (x - alpha_j) p_j - b_j p_(j-1),
    # with alpha_0 written out: its general form is 0/0 when a + b = 0
    j = np.arange(1.0, n + 1)
    s = 2 * j + a + b
    alpha = np.concatenate([[(b - a) / (a + b + 2)], (b * b - a * a) / (s[:-1] * (s[:-1] + 2))])
    beta = np.sqrt(4 * j * (j + a) * (j + b) * (j + a + b) / (s * s * (s + 1) * (s - 1)))
    log_mass = (a + b + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    p_first, sn = math.exp(-log_mass / 2), s[-1]

    if max(a, b) <= _INTERIOR_SEEDS_MAX:
        phi = (k + a / 2.0 - 0.25) * np.pi / rho
        theta = phi + ((0.25 - a * a) / np.tan(phi / 2) - (0.25 - b * b) * np.tan(phi / 2)) / (4 * rho * rho)
    else:
        beta_sq = np.concatenate([[0.0], beta[:-1] ** 2])

        def zeros_above(x):
            # negative pivots of x I - J, J the n x n Jacobi matrix
            piv, count = np.full_like(x, np.inf), np.zeros(x.shape, np.intp)
            for al, bsq in zip(alpha, beta_sq):
                piv = (x - al) - bsq / piv
                count += piv < 0
            return count

        # the bracket of every node halves from [0, pi]; theta is its midpoint
        theta, half = np.full(k.size, np.pi / 2), np.pi / 4
        with np.errstate(divide="ignore"):
            for _ in range(math.ceil(math.log2(8 * rho))):
                theta += np.where(zeros_above(np.cos(theta)) >= k, -half, half)
                half /= 2

    def evaluate(x):
        prev, p, b_prev = np.zeros_like(x), np.full_like(x, p_first), 0.0
        for al, bj in zip(alpha, beta):
            prev, p, b_prev = p, ((x - al) * p - b_prev * prev) / bj, bj
        # (1 - x^2) s p_n' = n (a - b - s x) p_n + b_n s (s + 1) p_(n-1)
        dp = (n * (a - b - sn * x) * p + b_prev * sn * (sn + 1) * prev) / (sn * (1 - x) * (1 + x))
        return p, dp, prev

    for _ in range(16):
        p, dp, _ = evaluate(np.cos(theta))
        g = ((a + 0.5) / np.tan(theta / 2) - (b + 0.5) * np.tan(theta / 2)) / 2
        step = p / (g * p - np.sin(theta) * dp)
        theta = theta - step
        if np.max(np.abs(np.sin(theta) * step)) < 1e-14:
            break
    else:
        raise RuntimeError(f"Gauss-Jacobi nodes did not converge (n={n}, a={a}, b={b})")
    x = np.cos(theta)
    _, dp, prev = evaluate(x)
    w = (sn + 1) / ((1 - x) * (1 + x) * dp * dp)
    # ascending order; for a = b, mirror the nonnegative half (p_(n-1) has parity n - 1)
    h = n // 2 if a == b else 0
    x, w, prev = (np.concatenate([sign * v[:h], v[::-1]]) for v, sign in ((x, -1), (w, 1), (prev, (-1) ** (n - 1))))
    if not (np.all(np.diff(x) > 0) and np.all(prev[1:] * prev[:-1] < 0)):
        raise RuntimeError(f"Gauss-Jacobi nodes repeat a zero (n={n}, a={a}, b={b})")
    return x, w


@lru_cache(maxsize=256)
def gegenbauer_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrals against (1-t^2)^((d-3)/2) dt on [-1, 1]."""
    d, n = _integer(d, "sphere dimension d", 2), _integer(n, "rule size n", 1)
    if d == 2:
        i = np.arange(1, n + 1)
        t = np.cos((2 * i - 1) * np.pi / (2 * n))
        w = np.full(n, np.pi / n)
    else:
        t, w = _gauss_jacobi(n, (d - 3) / 2.0, (d - 3) / 2.0)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gegenbauer_weight_mass(d: int) -> float:
    """int_{-1}^{1} (1-t^2)^((d-3)/2) dt = sqrt(pi) Gamma((d-1)/2) / Gamma(d/2)."""
    d = _integer(d, "sphere dimension d", 2)
    return math.sqrt(math.pi) * math.gamma((d - 1) / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=256)
def radial_power_rule(n: int, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [0, 1] for the normalized measure kappa * rho^(kappa-1) drho.

    Built from Gauss-Jacobi with weight (1+t)^(kappa-1); the returned weights
    sum to 1, so they average a smooth integrand against the radial power
    exactly even when kappa is large and the mass piles up at rho = 1.
    """
    n, kappa = _integer(n, "rule size n", 1), _integer(kappa, "kappa", 1)
    t, w = _gauss_jacobi(n, 0.0, float(kappa - 1))
    rho = (t + 1.0) / 2.0
    weights = kappa * (0.5**kappa) * w
    rho.setflags(write=False)
    weights.setflags(write=False)
    return rho, weights


def adaptive_levels(max_arg: float) -> list[int]:
    """Doubling ladder of rule sizes seeded by the oscillation count of
    cos(2 pi s t) over [-1, 1] at the largest argument s."""
    n = 64
    seed = int(4 * max_arg) + 64
    while n < seed:
        n *= 2
    levels = []
    while n <= _MAX_RULE_SIZE:
        levels.append(n)
        n *= 2
    if not levels:
        raise ValueError(f"argument {max_arg} too large for the quadrature ladder")
    return levels


def refine_until_stationary(
    eval_with_rule: Callable[[int], np.ndarray], max_arg: float, tol: float = 1e-10
) -> np.ndarray:
    """Evaluate on a doubling ladder of rule sizes until values move by at
    most ``tol`` in absolute terms; return the first such level's values."""
    levels = adaptive_levels(max_arg)
    prev = eval_with_rule(levels[0])
    for n in levels[1:]:
        cur = eval_with_rule(n)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    raise RuntimeError(f"quadrature did not reach {tol} stationarity (max_arg={max_arg})")
