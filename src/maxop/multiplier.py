"""Radial Fourier multipliers: the sphere transform, dyadic pieces, maximal
multiplier operators, kernels, and decay-constant sweeps.

The central object is the radial profile of the normalized surface-measure
transform,

    m(s) = c_d * int_{-1}^{1} cos(2 pi s t) (1 - t^2)^((d-3)/2) dt,

normalized so that m(0) = 1.  Everything downstream (dyadic pieces, their
radial derivatives, zonal kernel evaluations) is built from this single 1-D
Gegenbauer-weight integral; no Bessel routines are used anywhere.  The same
weight appears in the Funk-Hecke reduction of zonal sphere integrals, which
is what the FFT-independent kernel oracle below exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.fft as _fft
from scipy.interpolate import CubicSpline

from .grid import (
    GridFunction,
    GridSpec,
    PreconditionError,
    _wrap,
    fft_workers,
    forward_transform,
    frequency_radii,
    inverse_transform,
    node_radii,
)
from .maximal import _as_radii
from .quadrature import gegenbauer_rule, gegenbauer_weight_mass, refine_until_stationary

__all__ = [
    "RadialProfile",
    "surface_multiplier",
    "bump",
    "dyadic_piece",
    "tilde_piece",
    "apply_multiplier",
    "maximal_multiplier",
    "spherical_maximal",
    "kernel",
    "funk_hecke_kernel",
    "decay_constants",
    "DecayRow",
    "decay_table_csv",
    "radial_majorant",
    "sphere_area",
]

_CHUNK = 1 << 22


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class RadialProfile:
    """A scalar profile of radius s >= 0 with support and bound metadata.

    ``fn`` must be vectorized over nonnegative arrays and vanish outside
    ``support``; ``sup_bound``, when present, bounds |fn| everywhere.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    sup_bound: float | None = None

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self.fn(arr), dtype=float)
        if arr.ndim == 0:
            return float(out)
        return out

    @property
    def is_annulus(self) -> bool:
        a, b = self.support
        return 0.0 < a < b < math.inf


_SPLINE_MIN_BATCH = 4097
_SPLINE_STEP = 5e-4


class _SurfaceTransform:
    """Adaptive evaluator for the sphere transform m and its derivative.

    Small batches are evaluated by the Gegenbauer quadrature directly (to
    1e-10 stationarity or tighter on request).  Bulk grid sweeps reuse a
    dense cubic-spline tabulation whose step keeps the interpolation error
    near 1e-12, far below any grid-level tolerance; the table grows on
    demand and is itself filled by the exact quadrature.
    """

    def __init__(self, d: int):
        if d < 2:
            raise PreconditionError(f"surface multiplier needs d >= 2, got {d}")
        self.d = d
        self.mass = gegenbauer_weight_mass(d)
        self._tables: dict[bool, tuple[float, object]] = {}

    def _quad(self, args: np.ndarray, n: int, deriv: bool) -> np.ndarray:
        t, w = gegenbauer_rule(self.d, n)
        out = np.empty(args.size)
        step = max(1, _CHUNK // n)
        for i in range(0, args.size, step):
            blk = 2.0 * np.pi * np.outer(args[i : i + step], t)
            if deriv:
                out[i : i + step] = np.sin(blk) @ (t * w)
            else:
                out[i : i + step] = np.cos(blk) @ w
        if deriv:
            out *= -2.0 * np.pi
        return out / self.mass

    def _bucketed(self, s, deriv: bool, tol: float) -> np.ndarray:
        arr = np.asarray(s, dtype=float)
        flat = np.abs(arr).reshape(-1)
        out = np.empty(flat.size)
        order = np.argsort(flat)
        sorted_args = flat[order]
        lo = 0
        edge = 16.0
        while lo < flat.size:
            hi = int(np.searchsorted(sorted_args, edge, side="right"))
            if hi > lo:
                args = sorted_args[lo:hi]
                vals = refine_until_stationary(
                    lambda n: self._quad(args, n, deriv),
                    max_arg=float(args[-1]),
                    tol=tol,
                    scale=1.0,
                )
                out[order[lo:hi]] = vals
                lo = hi
            edge *= 2.0
        return out.reshape(arr.shape)

    def _from_table(self, arr: np.ndarray, deriv: bool) -> np.ndarray:
        u_max = float(np.max(np.abs(arr)))
        cached = self._tables.get(deriv)
        if cached is None or u_max > cached[0]:
            u_hi = max(16.0, 1.5 * u_max)
            grid = np.arange(0.0, u_hi + 2 * _SPLINE_STEP, _SPLINE_STEP)
            vals = self._bucketed(grid, deriv=deriv, tol=1e-12)
            cached = (u_hi, CubicSpline(grid, vals))
            self._tables[deriv] = cached
        return cached[1](np.abs(arr))

    def _table_pays_off(self, arr: np.ndarray) -> bool:
        if arr.size < _SPLINE_MIN_BATCH:
            return False
        # building the table costs ~1.5 u_max / step exact evaluations; only
        # amortize it over batches much larger than that
        table_points = 1.5 * float(np.max(np.abs(arr))) / _SPLINE_STEP
        return arr.size >= table_points / 8.0

    def value(self, s, tol: float = 1e-10) -> np.ndarray:
        arr = np.asarray(s, dtype=float)
        if self._table_pays_off(arr):
            return self._from_table(arr, deriv=False)
        return self._bucketed(arr, deriv=False, tol=tol)

    def deriv(self, s, tol: float = 1e-10) -> np.ndarray:
        arr = np.asarray(s, dtype=float)
        if self._table_pays_off(arr):
            return self._from_table(arr, deriv=True)
        return self._bucketed(arr, deriv=True, tol=tol)


@lru_cache(maxsize=16)
def _surface(d: int) -> _SurfaceTransform:
    return _SurfaceTransform(d)


def surface_multiplier(d: int) -> RadialProfile:
    """Radial transform of the normalized surface measure on S^(d-1); m(0) = 1."""
    st = _surface(d)
    return RadialProfile(fn=st.value, support=(0.0, math.inf), sup_bound=1.0)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    out[inside] = a / (a + b)
    return out


def _smooth_step_deriv(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    out[inside] = a * b * (1.0 / ti**2 + 1.0 / (1.0 - ti) ** 2) / (a + b) ** 2
    return out


def _plateau(s) -> np.ndarray:
    # 1 on [0, 1], 0 beyond 2, e^(-1/t) splice between
    return 1.0 - _smooth_step(np.asarray(s, dtype=float) - 1.0)


def _plateau_deriv(s) -> np.ndarray:
    return -_smooth_step_deriv(np.asarray(s, dtype=float) - 1.0)


def _bump_support(l: int) -> tuple[float, float]:
    if l == 0:
        return (0.0, 2.0)
    return (2.0 ** (l - 1), 2.0 ** (l + 1))


def _check_dyadic(l: int) -> int:
    if int(l) != l or l < 0:
        raise ValueError(f"dyadic index must be a nonnegative integer, got {l}")
    return int(l)


def bump(l: int) -> RadialProfile:
    """Dyadic partition-of-unity bump: the unit plateau for l = 0, the
    difference of two dilates for l >= 1 (supported in [2^(l-1), 2^(l+1)])."""
    l = _check_dyadic(l)
    if l == 0:
        fn = _plateau
    else:
        here, prev = 2.0**-l, 2.0 ** (1 - l)
        fn = lambda s: _plateau(np.asarray(s, float) * here) - _plateau(np.asarray(s, float) * prev)
    return RadialProfile(fn=fn, support=_bump_support(l), sup_bound=1.0)


def _bump_deriv(l: int) -> Callable[[np.ndarray], np.ndarray]:
    if l == 0:
        return _plateau_deriv
    here, prev = 2.0**-l, 2.0 ** (1 - l)
    return lambda s: here * _plateau_deriv(np.asarray(s, float) * here) - prev * _plateau_deriv(
        np.asarray(s, float) * prev
    )


def _swept_bound(fn, support: tuple[float, float], npts: int = 8192) -> float:
    a, b = support
    return float(np.max(np.abs(fn(np.linspace(a, b, npts))))) * (1.0 + 1e-4)


def dyadic_piece(d: int, l: int) -> RadialProfile:
    """The multiplier piece bump_l * m; vanishes at 0 for l >= 1."""
    l = _check_dyadic(l)
    st = _surface(d)
    phi = bump(l)

    def fn(s):
        # m is a quadrature per point; only touch it inside the bump support
        s = np.asarray(s, dtype=float)
        cut = phi.fn(s)
        out = np.zeros_like(cut)
        mask = cut != 0.0
        if np.any(mask):
            out[mask] = cut[mask] * st.value(s[mask])
        return out

    support = _bump_support(l)
    return RadialProfile(fn=fn, support=support, sup_bound=_swept_bound(fn, support))


def tilde_piece(d: int, l: int) -> RadialProfile:
    """Radial form s * d/ds of the dyadic piece (the profile of the radial
    derivative field <x, grad> applied to it), via analytic derivatives of
    both factors."""
    l = _check_dyadic(l)
    st = _surface(d)
    phi, dphi = bump(l), _bump_deriv(l)

    def fn(s):
        s = np.asarray(s, dtype=float)
        cut, dcut = phi.fn(s), dphi(s)
        out = np.zeros_like(cut)
        mask = (cut != 0.0) | (dcut != 0.0)
        if np.any(mask):
            sm = s[mask]
            out[mask] = sm * (dcut[mask] * st.value(sm) + cut[mask] * st.deriv(sm))
        return out

    support = _bump_support(l)
    return RadialProfile(fn=fn, support=support, sup_bound=_swept_bound(fn, support))


def apply_multiplier(f: GridFunction, profile: RadialProfile, r: float) -> GridFunction:
    """(fhat(.) profile(r |.|)) back-transformed; real output for real input."""
    f.require("physical")
    if not (r > 0):
        raise ValueError(f"dilation must be positive, got {r}")
    fhat = forward_transform(f)
    mult = profile(r * frequency_radii(f.spec))
    out = inverse_transform(_wrap(f.spec, fhat.values * mult, "frequency"))
    vals = out.values.real if f.is_real else out.values
    return _wrap(f.spec, vals, "physical")


def maximal_multiplier(f: GridFunction, profile: RadialProfile, radii) -> GridFunction:
    """Node-wise max over dilations r of |(fhat profile(r .))^v|."""
    f.require("physical")
    rs = _as_radii(radii)
    fhat = forward_transform(f)
    freq = frequency_radii(f.spec)
    out = np.zeros(f.spec.shape)
    for r in rs:
        piece = inverse_transform(_wrap(f.spec, fhat.values * profile(r * freq), "frequency"))
        np.maximum(out, np.abs(piece.values.real if f.is_real else piece.values), out=out)
    return _wrap(f.spec, out, "physical")


def spherical_maximal(f: GridFunction, radii) -> GridFunction:
    """Spherical means maximized over radii, realized through the surface
    multiplier (requires d >= 2 and real input)."""
    if f.spec.d < 2:
        raise PreconditionError("spherical maximal operator needs d >= 2")
    if not f.is_real:
        raise ValueError("spherical maximal operator acts on real functions")
    return maximal_multiplier(f, surface_multiplier(f.spec.d), radii)


def kernel(profile: RadialProfile, spec: GridSpec) -> GridFunction:
    """Inverse transform of the profile sampled on the frequency grid.

    Rejects profiles whose radial support exceeds the per-axis frequency
    extent N/(4L): such samples would alias.  The result equals the
    periodization of the continuum kernel over the 2L-periodic lattice.
    """
    b = profile.support[1]
    if not math.isfinite(b):
        raise ValueError("kernel() needs a compactly supported profile (aliasing guard)")
    if b > spec.freq_extent * (1.0 + 1e-12):
        raise ValueError(
            f"profile support {b} exceeds the frequency extent {spec.freq_extent}; "
            "enlarge N or shrink L"
        )
    N, d = spec.N, spec.d
    # the spectrum is real and even, so build the half-spectrum and use
    # irfftn, provided the unpaired +-N/2 bins carry no weight
    k_full = np.concatenate([np.arange(0, N // 2), np.arange(-(N // 2), 0)])
    k_axes = [k_full] * (d - 1) + [np.arange(N // 2 + 1)]
    rad2 = np.zeros(tuple(ax.size for ax in k_axes))
    for ax_idx, ax in enumerate(k_axes):
        sh = [1] * d
        sh[ax_idx] = ax.size
        rad2 = rad2 + (ax.astype(float).reshape(sh) * spec.freq_step) ** 2
    vals = profile(np.sqrt(rad2))
    edge_ok = True
    for ax_idx, ax in enumerate(k_axes):
        where = np.nonzero(np.abs(ax) == N // 2)[0]
        if where.size:
            sel: list = [slice(None)] * d
            sel[ax_idx] = where
            if np.any(vals[tuple(sel)] != 0.0):
                edge_ok = False
                break
    if not edge_ok:
        samples = profile(frequency_radii(spec))
        out = inverse_transform(_wrap(spec, samples.astype(np.complex128), "frequency"))
        return _wrap(spec, out.values.real, "physical")

    g = vals.astype(np.complex128)
    for ax_idx, ax in enumerate(k_axes):
        phase = np.where(ax % 2 == 0, 1.0, -1.0) * np.exp(1j * np.pi * ax / N)
        sh = [1] * d
        sh[ax_idx] = ax.size
        g *= phase.reshape(sh)
    out = _fft.irfftn(g, s=spec.shape, workers=fft_workers())
    out *= spec.size * spec.freq_step**d
    return _wrap(spec, out, "physical")


def _zonal_inverse(
    profile: RadialProfile, d: int, rho: np.ndarray, tol: float = 1e-10, m_tol: float = 1e-12
) -> np.ndarray:
    """Radial profile of the d-dim inverse transform of a compactly supported
    radial function: area(S^(d-1)) * int profile(s) m(s rho) s^(d-1) ds.

    Every m value is an adaptive quadrature of its own, so this is accurate
    but expensive; bulk sweeps go through :class:`_CosineTransform` instead,
    and the two paths cross-check each other in the test suite.
    """
    a, b = profile.support
    if not math.isfinite(b):
        raise ValueError("zonal inverse transform needs compact support")
    rho = np.asarray(rho, dtype=float)
    st = _surface(d)
    rmax = float(np.max(rho)) if rho.size else 0.0

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(3, n)  # plain Legendre nodes for the radial leg
        s = a + (b - a) * (t + 1.0) / 2.0
        dens = profile(s) * s ** (d - 1) * (w * (b - a) / 2.0)
        vals = st.value(np.outer(rho.reshape(-1), s), tol=m_tol)
        return vals @ dens

    out = refine_until_stationary(
        with_rule, max_arg=(b - a) * max(rmax, 1.0), tol=tol, scale=1.0
    )
    return sphere_area(d) * out.reshape(rho.shape)


class _CosineTransform:
    """Dense tabulation of C(u) = int profile(s) s^(d-1) cos(2 pi u s) ds.

    Folding the Gegenbauer representation of m into the radial transform
    turns the zonal inverse into area * c_d * int (1-t^2)^((d-3)/2) C(rho t) dt,
    so once C is tabulated every kernel value is a cheap weighted sum of
    spline lookups.  The grid step is chosen so the cubic interpolation error
    (fourth derivative ~ (2 pi b)^4 times the transform's amplitude) stays
    below ``abs_tol``; the radial rule size is verified by doubling.
    """

    def __init__(self, profile: RadialProfile, d: int, u_max: float, abs_tol: float):
        a, b = profile.support
        if not math.isfinite(b):
            raise ValueError("cosine transform needs compact support")
        self.osc_rate = b
        n_s = int(4 * (b - a) * max(u_max, 1.0)) + 128

        def dens_for(n):
            t, w = gegenbauer_rule(3, n)
            s = a + (b - a) * (t + 1.0) / 2.0
            return s, profile(s) * s ** (d - 1) * (w * (b - a) / 2.0)

        s1, d1 = dens_for(n_s)
        s2, d2 = dens_for(2 * n_s)
        amp = float(np.sum(np.abs(d2)))
        du = (abs_tol / (0.014 * max(amp, 1e-300))) ** 0.25 / (2.0 * math.pi * b)
        grid = np.arange(0.0, u_max + 4 * du, du)
        probe = grid[:: max(1, grid.size // 64)]
        for _ in range(5):
            check = np.abs(np.cos(2 * np.pi * np.outer(probe, s1)) @ d1
                           - np.cos(2 * np.pi * np.outer(probe, s2)) @ d2).max()
            if check <= abs_tol:
                break
            n_s *= 2
            s1, d1 = s2, d2
            s2, d2 = dens_for(2 * n_s)
        else:
            raise RuntimeError(f"radial rule did not verify to {abs_tol}")
        vals = np.empty(grid.size)
        step = max(1, _CHUNK // s2.size)
        for i in range(0, grid.size, step):
            vals[i : i + step] = np.cos(2 * np.pi * np.outer(grid[i : i + step], s2)) @ d2
        self.u_max = float(grid[-1])
        self.spline = CubicSpline(grid, vals)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.spline(np.abs(u))


def _zonal_from_table(table: _CosineTransform, d: int, rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """area * c_d * int (1-t^2)^((d-3)/2) C(rho t) dt via the tabulated C."""
    rho = np.asarray(rho, dtype=float)
    flat = rho.reshape(-1)
    mass = gegenbauer_weight_mass(d)

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(d, n)
        return (table(flat[:, None] * t[None, :]) @ w) / mass

    rmax = float(np.max(np.abs(flat))) if flat.size else 0.0
    out = refine_until_stationary(with_rule, max_arg=table.osc_rate * max(rmax, 1.0), tol=tol, scale=1.0)
    return sphere_area(d) * out.reshape(rho.shape)


def funk_hecke_kernel(l: int, d: int, x_norm, tol: float = 1e-9):
    """FFT-free evaluation of the dyadic piece's kernel at radius |x|.

    The piece's kernel is the bump kernel convolved with the normalized
    surface measure; the sphere integral of that zonal function reduces to a
    Gegenbauer-weight average over the chord radii sqrt(|x|^2 + 1 - 2|x| t),
    and the bump kernel itself comes from the 1-D radial transform.  Nothing
    on this path touches the FFT route it cross-checks.
    """
    l = _check_dyadic(l)
    if d < 3:
        raise ValueError("funk_hecke_kernel needs d >= 3 (Gegenbauer weight exponent)")
    x = np.atleast_1d(np.asarray(x_norm, dtype=float))
    if np.any(x < 0):
        raise ValueError("x_norm must be nonnegative")
    phi = bump(l)
    mass = gegenbauer_weight_mass(d)
    rho_max = float(np.max(x)) + 1.0
    table = _CosineTransform(phi, d, rho_max + 0.1, abs_tol=tol * 0.05)

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(d, n)
        chord = np.sqrt(np.maximum(x[:, None] ** 2 + 1.0 - 2.0 * x[:, None] * t[None, :], 0.0))
        vals = _zonal_from_table(table, d, chord, tol=tol * 0.1)
        return (vals @ w) / mass

    out = refine_until_stationary(with_rule, max_arg=2.0 ** (l + 2), tol=tol, scale=1.0)
    if np.asarray(x_norm).ndim == 0:
        return float(out[0])
    return out


class DecayRow(NamedTuple):
    l: int
    c1: float  # sup of the piece, times 2^(l(d-1)/2)
    c2: float  # sup of the tilde piece, times 2^(l(d-3)/2)
    c3: float  # sup of |kernel| (1+|x|)^(d+1) / 2^l over the window |x| <= 8


def decay_constants(d: int, l_max: int, sweep_points: int = 8192) -> list[DecayRow]:
    """Normalized decay constants per dyadic index l = 1..l_max.

    Boundedness of the three columns across l is the quantitative content of
    the sup-norm and kernel-decay estimates.  Kernel sups are taken over the
    window |x| <= 8, where the decay envelope is fully visible; profile sups
    are dense sweeps over the supporting annulus.
    """
    if d < 3:
        raise ValueError("decay_constants needs d >= 3")
    if l_max < 2:
        raise ValueError("l_max must be >= 2")
    xs = np.linspace(0.0, 8.0, 161)
    rows = []
    for l in range(1, l_max + 1):
        a, bb = _bump_support(l)
        s = np.linspace(a, bb, sweep_points)
        piece = dyadic_piece(d, l)
        tilde = tilde_piece(d, l)
        c1 = float(np.max(np.abs(piece(s)))) * 2.0 ** (l * (d - 1) / 2.0)
        c2 = float(np.max(np.abs(tilde(s)))) * 2.0 ** (l * (d - 3) / 2.0)
        table = _CosineTransform(piece, d, 8.0, abs_tol=1e-6 * 2.0**l)
        kern = _zonal_from_table(table, d, xs, tol=1e-8)
        c3 = float(np.max(np.abs(kern) * (1.0 + xs) ** (d + 1))) / 2.0**l
        rows.append(DecayRow(l=l, c1=c1, c2=c2, c3=c3))
    return rows


def decay_table_csv(rows: Sequence[DecayRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("l,c1,c2,c3\n")
        for row in rows:
            fh.write(f"{row.l},{row.c1!r},{row.c2!r},{row.c3!r}\n")


def radial_majorant(kern: GridFunction) -> tuple[RadialProfile, float]:
    """Nonincreasing radial majorant of a sampled kernel, with its L^1 mass.

    Omega(s) = max over nodes with |x| >= s of |kernel(x)| is nonincreasing
    by construction; the returned mass is the upper Riemann sum of Omega over
    the exact shell volumes between consecutive node radii, hence an upper
    bound for its integral over the sampled range.
    """
    kern.require("physical")
    d = kern.spec.d
    radii = node_radii(kern.spec).reshape(-1)
    vals = np.abs(kern.values).reshape(-1)
    order = np.argsort(radii)
    r_sorted = radii[order]
    v_sorted = vals[order]
    tail_max = np.maximum.accumulate(v_sorted[::-1])[::-1]
    r_unique, first_idx = np.unique(r_sorted, return_index=True)
    omega_at = tail_max[first_idx]

    def fn(s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(r_unique, s, side="left")
        out = np.zeros(s.shape, dtype=float)
        inside = idx < r_unique.size
        out[inside] = omega_at[idx[inside]]
        return out

    ball_coeff = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    edges = np.concatenate([[0.0], r_unique])
    shells = ball_coeff * (edges[1:] ** d - edges[:-1] ** d)
    mass = float(np.sum(omega_at * shells))
    profile = RadialProfile(
        fn=fn, support=(0.0, float(r_unique[-1])), sup_bound=float(tail_max[0])
    )
    return profile, mass
