"""Quadrature rules and adaptive oscillatory-integral evaluation.

All sphere-related 1-D integrals carry the Gegenbauer weight
``(1 - t^2)^((d-3)/2)`` on [-1, 1].  The rules below build that weight into
the nodes (Gauss-Jacobi), which reduces to Gauss-Legendre at d = 3 and to
Gauss-Chebyshev at d = 2 and keeps spectral convergence at even d, where a
plain Legendre rule on the weighted integrand would crawl.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .grid import _integer

__all__ = ["gegenbauer_rule", "gegenbauer_weight_mass", "radial_power_rule", "adaptive_levels"]

_MAX_RULE_SIZE = 1 << 17


@lru_cache(maxsize=256)
def gegenbauer_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integrals against (1-t^2)^((d-3)/2) dt on [-1, 1]."""
    d = _integer(d, "sphere dimension d", 2)
    if d == 2:
        i = np.arange(1, n + 1)
        t = np.cos((2 * i - 1) * np.pi / (2 * n))
        w = np.full(n, np.pi / n)
    elif d == 3:
        t, w = roots_legendre(n)
    else:
        alpha = (d - 3) / 2.0
        t, w = roots_jacobi(n, alpha, alpha)
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
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    t, w = roots_jacobi(n, 0.0, float(kappa - 1))
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
