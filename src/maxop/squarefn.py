"""Square function over multiplicative dilations and its annulus L^2 bound.

The dilation integral int_0^inf |...|^2 dt/t is discretized by a log-midpoint
rule: nodes t_i = A exp((i + 1/2) du) with constant weight du, so the weights
over any subinterval resolved by the grid sum exactly to its log-length.  For
an annulus-supported profile the integrand vanishes for t outside
[a/s_max, b/s_min] (s ranging over the nonzero frequency radii of the grid),
which fixes the node range.

The builder additionally locks the step to an integer division of the
support's log-length log(b/a).  Every frequency s then sees exactly
floor(log(b/a)/du) in-support nodes, so for a sharp annulus cutoff the
discrete t-sum reproduces the exact continuum value C^2 log(b/a) for every s
simultaneously; that is what makes the Plancherel equality case below an
equality and not an O(1/n) approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, VectorField, _stack, _unstack
from .multiplier import RadialProfile, _dilation_sweep
from .norms import lp_norm, lq_pointwise

__all__ = ["TGrid", "default_tgrid", "sharp_annulus", "square_function", "prop2_check"]


def sharp_annulus(a: float, b: float, height: float = 1.0) -> RadialProfile:
    """Indicator-type profile height * chi_[a, b).

    Half-open membership: on a log-spaced dilation grid whose step divides
    log(b/a), every frequency then meets exactly log(b/a)/du in-support
    nodes even when a node ties with an edge, which keeps the Plancherel
    equality case exact.
    """
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"need 0 < a < b < inf, got ({a}, {b})")

    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where((s >= a) & (s < b), height, 0.0)

    return RadialProfile(fn=fn, support=(a, b), sup_bound=height)


@dataclass(frozen=True, eq=False)
class TGrid:
    """Log-spaced dilation nodes with dt/t weights."""

    ts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if ts.ndim != 1 or ts.size == 0 or w.shape != ts.shape:
            raise ValueError("TGrid needs matching nonempty 1-D nodes and weights")
        if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
            raise ValueError("TGrid nodes must be positive and increasing")
        if np.any(w <= 0):
            raise ValueError("TGrid weights must be positive")
        ts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.ts.size


def _require_annulus(profile: RadialProfile) -> tuple[float, float]:
    if not profile.is_annulus:
        raise ValueError(
            f"profile must be supported in an annulus 0 < a < b < inf, got {profile.support}"
        )
    return profile.support


def default_tgrid(profile: RadialProfile, spec: GridSpec, n: int = 128) -> TGrid:
    """Dilation grid covering [a/s_max, b/s_min] with du dividing log(b/a)."""
    if not (float(n).is_integer() and n >= 1):
        raise ValueError(f"dilation grid size must be an integer >= 1, got {n}")
    a, b = _require_annulus(profile)
    s_min = spec.freq_step
    s_max = spec.freq_extent * math.sqrt(spec.d)
    lo = a / s_max
    span = math.log((b / s_min) / lo)
    du0 = span / n
    m = max(1, round(math.log(b / a) / du0))
    du = math.log(b / a) / m
    count = math.ceil(span / du - 1e-12)
    ts = lo * np.exp((np.arange(count) + 0.5) * du)
    return TGrid(ts=ts, weights=np.full(count, du))


def square_function(f: GridFunction | VectorField, profile: RadialProfile, tgrid: TGrid):
    """g(x) = (sum_t |(fhat profile(t .))^v(x)|^2 w_t)^(1/2), of a real
    GridFunction or of each member of a VectorField; returns the same kind."""
    _require_annulus(profile)
    vals = _stack(f)
    acc = np.zeros_like(vals)
    for i, piece in _dilation_sweep(vals, f.spec, profile, tgrid.ts):
        acc += tgrid.weights[i] * piece**2
    return _unstack(f, np.sqrt(acc))


def prop2_check(F: VectorField, profile: RadialProfile) -> tuple[float, float]:
    """L^2 aggregate of member square functions vs the annulus bound.

    Returns (lhs, rhs) with lhs the L^2 norm of the l^2 aggregation of
    g(f_n) and rhs = C sqrt(log rho) times the same norm of the inputs,
    where C is the profile's recorded sup bound and rho its annulus ratio.
    The inequality lhs <= rhs holds up to the dilation-grid discretization.
    """
    a, b = _require_annulus(profile)
    if profile.sup_bound is None:
        raise ValueError("prop2_check needs a profile with a recorded sup_bound")
    tg = default_tgrid(profile, F.spec)
    lhs = lp_norm(lq_pointwise(square_function(F, profile, tg), 2.0), 2.0)
    rhs = profile.sup_bound * math.sqrt(math.log(b / a)) * lp_norm(lq_pointwise(F, 2.0), 2.0)
    return lhs, rhs
