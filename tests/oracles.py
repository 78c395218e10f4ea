"""Reference evaluations that only the tests read: the frequency radii of the
transform oracle's lattice, and the zonal inverse transform by direct
quadrature."""

import math

import numpy as np

from maxop.multiplier import RadialProfile, _m, sphere_area
from maxop.quadrature import gegenbauer_rule, refine_until_stationary


def frequency_radii(spec) -> np.ndarray:
    """|xi| on the ascending frequency lattice of ``maxop.grid.forward_transform``,
    whose per-axis frequencies are (j - N/2)/(2L) for j = 0..N-1."""
    ax = (np.arange(spec.N) - spec.N // 2) * spec.freq_step
    grids = np.meshgrid(*([ax] * spec.d), indexing="ij")
    return np.sqrt(sum(g**2 for g in grids))


def zonal_inverse(
    profile: RadialProfile, d: int, rho: np.ndarray, tol: float = 1e-10, m_tol: float = 1e-12
) -> np.ndarray:
    """Radial profile of the d-dim inverse transform of a compactly supported
    radial function: area(S^(d-1)) * int profile(s) m(s rho) s^(d-1) ds.

    Every m value is a direct Gegenbauer quadrature to ``m_tol`` stationarity
    (``maxop.multiplier._m``), point by point and never through the
    angle-addition sums of the production sweeps, so this is accurate but
    expensive; bulk sweeps go through ``maxop.multiplier._CosineTransform``
    instead, and the two paths cross-check each other in the test suite.
    """
    a, b = profile.support
    if not math.isfinite(b):
        raise ValueError("zonal inverse transform needs compact support")
    rho = np.asarray(rho, dtype=float)
    rmax = float(np.max(rho)) if rho.size else 0.0

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(3, n)  # plain Legendre nodes for the radial leg
        s = a + (b - a) * (t + 1.0) / 2.0
        dens = profile(s) * s ** (d - 1) * (w * (b - a) / 2.0)
        vals = _m(d, np.outer(rho.reshape(-1), s), tol=m_tol)
        return vals @ dens

    out = refine_until_stationary(with_rule, max_arg=(b - a) * max(rmax, 1.0), tol=tol)
    return sphere_area(d) * out.reshape(rho.shape)
