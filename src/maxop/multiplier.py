"""Radial Fourier multipliers: the sphere transform, dyadic pieces, maximal
multiplier operators, kernels, and decay-constant sweeps.

The central object is the radial profile of the normalized surface-measure
transform,

    m(s) = c_d * int_{-1}^{1} cos(2 pi s t) (1 - t^2)^((d-3)/2) dt,

normalized so that m(0) = 1.  Everything downstream (dyadic pieces, their
radial derivatives, zonal kernel evaluations) is built from this single 1-D
Gegenbauer-weight integral; no Bessel routines are used anywhere.  The same
weight appears in the Funk-Hecke reduction of zonal sphere integrals, which
is what the FFT-independent kernel oracle below exploits.  Its quadrature
sums contract with np.einsum, numpy's own loops, and not with BLAS matrix
products, whose grouping of the sums follows the BLAS thread count; so the
values do not depend on it.

The multiplier operators and the square function reduce one dilation sweep
over a real GridFunction or VectorField: one rfftn of the stacked members,
then per dilation whose multiplier does not vanish on the grid one profile
evaluation per lattice shell (the distinct values of |xi|, far fewer than the
half-spectrum nodes), a gather onto the half spectrum and one batched irfftn.
A kernel is one real DCT-III of the profile's shells on the nonnegative
frequency octant, mirrored onto the negative half of every axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.fft as _fft

from .grid import (
    GridFunction,
    GridSpec,
    PreconditionError,
    VectorField,
    _integer,
    _stack,
    _unstack,
    _wrap,
    fft_workers,
)
from .maximal import _as_radii, _mirror
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
    "sphere_area",
]

_CHUNK = 1 << 22


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class RadialProfile:
    """A scalar profile of radius s >= 0: its function and its support.

    ``fn`` must be vectorized over nonnegative arrays and vanish outside
    ``support`` = (a, b).  Construction refuses a support that cannot hold
    (anything but 0 <= a < b <= inf), since the kernel's aliasing guard and
    the square function's annulus read it unchecked.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __post_init__(self):
        a, b = self.support
        if not (0.0 <= a < b <= math.inf):
            raise ValueError(f"support must satisfy 0 <= a < b <= inf, got {self.support}")

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


def _trig_sum(trig, u: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """trig(2 pi u x^T) @ w, over blocks of u of at most _CHUNK matrix entries."""
    out = np.empty(u.size)
    step = max(1, _CHUNK // x.size)
    for i in range(0, u.size, step):
        out[i : i + step] = np.einsum("ij,j->i", trig(2.0 * np.pi * np.outer(u[i : i + step], x)), w)
    return out


def _trig_progression(trig, u0: float, du: float, n: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """trig(2 pi u x^T) @ w on the progression u_k = u0 + k du, k < n.

    Splitting k = a B + b with B ~ sqrt(n), the angle addition
    trig(alpha + beta) = trig(alpha) cos(beta) + trig'(alpha) sin(beta), with
    trig' = -sin for cos and cos for sin, turns the n |x| cos/sin calls of
    :func:`_trig_sum` into about 2 (n / B + B) |x|: one anchor table alpha at
    u0 + a B du and one offset table beta at b du, contracted against the
    weights by two einsum contractions.  Tables stay within _CHUNK entries.
    """
    B = max(1, min(math.isqrt(n - 1) + 1, _CHUNK // x.size))
    n_anchor = -(-n // B)
    beta = (2.0 * np.pi * du) * np.outer(np.arange(B), x)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    out = np.empty(n_anchor * B)
    rows = max(1, _CHUNK // x.size)
    for i in range(0, n_anchor, rows):
        alpha = (2.0 * np.pi) * np.outer(u0 + du * B * np.arange(i, min(i + rows, n_anchor)), x)
        cos_a, sin_a = np.cos(alpha) * w, np.sin(alpha) * w
        if trig is np.cos:
            block = np.einsum("ik,jk->ij", cos_a, cos_b) - np.einsum("ik,jk->ij", sin_a, sin_b)
        else:
            block = np.einsum("ik,jk->ij", sin_a, cos_b) + np.einsum("ik,jk->ij", cos_a, sin_b)
        out[i * B : i * B + block.size] = block.reshape(-1)
    return out[:n]


def _octaves(sorted_args: np.ndarray):
    """(lo, hi) slices of finite nonnegative sorted arguments, one per octave
    (16 * 2^(j-1), 16 * 2^j], the first reaching down to 0."""
    lo = 0
    edge = 16.0
    while lo < sorted_args.size:
        hi = int(np.searchsorted(sorted_args, edge, side="right"))
        if hi > lo:
            yield lo, hi
            lo = hi
        edge *= 2.0


def _rule(d: int, n: int, deriv: bool):
    """(trig, nodes, weights) with m = trig(2 pi s t) @ weights at rule size n
    (m' for ``deriv``)."""
    t, w = gegenbauer_rule(d, n)
    # the rules are symmetric and both integrands even in t: sum the
    # positive nodes only, at twice their weight
    t, w = t[t > 0], 2.0 * w[t > 0]
    if deriv:
        return np.sin, t, t * w * (-2.0 * np.pi / gegenbauer_weight_mass(d))
    return np.cos, t, w / gegenbauer_weight_mass(d)


def _sums(d: int, args: np.ndarray, deriv: bool, tol: float, du: float | None = None) -> np.ndarray:
    """m (m' for ``deriv``) on sorted nonnegative ``args``.

    Each octave of arguments is a Gegenbauer quadrature on a doubling ladder
    of rule sizes, to ``tol`` stationarity.  Callers whose arguments are an
    evenly spaced sweep pass its step ``du``, and each octave is then summed
    by :func:`_trig_progression` (angle addition from ~sqrt(n) anchors)
    instead of one cos or sin per point and node.
    """
    out = np.empty(args.size)
    for lo, hi in _octaves(args):

        def at_rule(n: int) -> np.ndarray:
            trig, t, w = _rule(d, n, deriv)
            if du is None:
                return _trig_sum(trig, args[lo:hi], t, w)
            return _trig_progression(trig, args[lo], du, hi - lo, t, w)

        out[lo:hi] = refine_until_stationary(at_rule, max_arg=float(args[hi - 1]), tol=tol)
    return out


def _m(d: int, s, deriv: bool = False, tol: float = 1e-10) -> np.ndarray:
    """The sphere transform m (m' for ``deriv``) at |s| of any shape, point by
    point through :func:`_sums` (the oracles pass their own ``tol``)."""
    arr = np.abs(np.asarray(s, dtype=float))
    # a NaN never sorts below an octave edge, so it would keep the buckets open
    if not np.all(np.isfinite(arr)):
        raise ValueError("sphere transform arguments must be finite")
    order = np.argsort(arr, axis=None)
    out = np.empty(arr.size)
    out[order] = _sums(d, arr.reshape(-1)[order], deriv, tol)
    return out.reshape(arr.shape)


def surface_multiplier(d: int) -> RadialProfile:
    """Radial transform of the normalized surface measure on S^(d-1); m(0) = 1."""
    d = _integer(d, "sphere dimension d", 1)
    if d < 2:
        raise PreconditionError(f"surface multiplier needs d >= 2, got {d}")
    return RadialProfile(fn=lambda s: _m(d, s), support=(0.0, math.inf))


def _plateau(s, deriv: bool = False) -> np.ndarray:
    """1 on [0, 1], 0 beyond 2, a C^inf e^(-1/t) splice between (its
    derivative for ``deriv``)."""
    t = np.asarray(s, dtype=float) - 1.0
    out = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    if deriv:
        out[inside] = a * b * (1.0 / ti**2 + 1.0 / (1.0 - ti) ** 2) / (a + b) ** 2
        return -out
    out[t >= 1.0] = 1.0
    out[inside] = a / (a + b)
    return 1.0 - out


def _bump_support(l: int) -> tuple[float, float]:
    return (0.0, 2.0) if l == 0 else (2.0 ** (l - 1), 2.0 ** (l + 1))


def _cutoff(l: int, s, deriv: bool = False) -> np.ndarray:
    """bump_l at s (its derivative for ``deriv``): the plateau for l = 0, the
    difference of the plateau's dilates by 2^-l and 2^(1-l) for l >= 1."""
    s = np.asarray(s, dtype=float)
    if l == 0:
        return _plateau(s, deriv)
    here, prev = 2.0**-l, 2.0 ** (1 - l)
    # the chain rule's factors; multiplying by 1.0 is exact
    c_here, c_prev = (here, prev) if deriv else (1.0, 1.0)
    return c_here * _plateau(s * here, deriv) - c_prev * _plateau(s * prev, deriv)


def bump(l: int) -> RadialProfile:
    """Dyadic partition-of-unity bump: the unit plateau for l = 0, the
    difference of two dilates for l >= 1 (supported in [2^(l-1), 2^(l+1)])."""
    l = _integer(l, "dyadic index l", 0)
    return RadialProfile(fn=lambda s: _cutoff(l, s), support=_bump_support(l))


def _piece(s: np.ndarray, cut: np.ndarray, m: np.ndarray, dcut=None, dm=None) -> np.ndarray:
    """The piece bump_l m at s, given bump_l and m there; given bump_l' and m'
    too, the tilde piece s (bump_l' m + bump_l m')."""
    if dm is None:
        return cut * m
    return s * (dcut * m + cut * dm)


# the evenly spaced points on which a profile's sup over its support is read
_SWEEP_POINTS = 8192


def _piece_profile(d: int, l: int, tilde: bool) -> RadialProfile:
    """The profile of the piece (the tilde piece for ``tilde``) on bump l's
    support; building it evaluates nothing."""
    l = _integer(l, "dyadic index l", 0)
    m = surface_multiplier(d).fn  # rejects d < 2 here, not at the first evaluation

    def fn(s):
        # m is a quadrature per point; only touch it where the piece can be nonzero
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        cut = _cutoff(l, s)
        dcut = _cutoff(l, s, True) if tilde else None
        mask = (cut != 0.0) | (dcut != 0.0) if tilde else cut != 0.0
        if np.any(mask):
            sm = s[mask]
            rest = (dcut[mask], _m(d, sm, True)) if tilde else ()
            out[mask] = _piece(sm, cut[mask], m(sm), *rest)
        return out

    return RadialProfile(fn=fn, support=_bump_support(l))


def dyadic_piece(d: int, l: int) -> RadialProfile:
    """The multiplier piece bump_l * m; vanishes at 0 for l >= 1."""
    return _piece_profile(d, l, tilde=False)


def tilde_piece(d: int, l: int) -> RadialProfile:
    """Radial form s * d/ds of the dyadic piece (the profile of the radial
    derivative field <x, grad> applied to it), via analytic derivatives of
    both factors."""
    return _piece_profile(d, l, tilde=True)


def _shells(spec: GridSpec, axes: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(radii, rank, rest): the distinct |xi| on the product of the integer
    frequencies ``axes`` (one array per axis, each within [-N/2, N/2]) in
    ascending order; the int32 rank among them of each integer |k|^2 up to
    d (N/2)^2; and the trailing axes' |k|^2, summed over their sparse grids.
    So ``radii[rank[axes[0][i] ** 2 + rest]]`` is |xi| on the leading axis's
    slab i.  The table of the |k|^2 that occur is filled slab by slab, so
    nothing node by node is ever held whole."""
    rest = sum((g**2 for g in np.meshgrid(*axes[1:], indexing="ij", sparse=True)), np.int32(0))
    occurs = np.zeros(spec.d * (spec.N // 2) ** 2 + 1, dtype=bool)
    for k0 in axes[0]:
        occurs[k0**2 + rest] = True
    rank = np.cumsum(occurs, dtype=np.int32) - 1
    radii = np.sqrt(np.flatnonzero(occurs) * spec.freq_step**2)
    return radii, rank, rest


def _dilation_sweep(vals: np.ndarray, spec: GridSpec, profile: RadialProfile, ts):
    """Yield (i, (fhat profile(ts[i] |.|))^v) of the real members stacked along
    the leading axis of ``vals`` for each dilation whose multiplier does not
    vanish on the grid; the Plancherel transforms' shifts, phases and cell
    volumes cancel in the round trip, so one rfftn serves every dilation.
    The profile is evaluated once per lattice shell and gathered onto the
    half spectrum."""
    axes = tuple(range(1, vals.ndim))
    fhat = _fft.rfftn(vals, axes=axes, workers=fft_workers())
    # the rfftn layout: FFT order on every axis, the nonnegative half of the last
    k = np.fft.ifftshift(np.arange(spec.N, dtype=np.int32) - spec.N // 2)
    freqs = [k] * (spec.d - 1) + [k[: spec.N // 2 + 1]]
    radii, rank, rest = _shells(spec, freqs)
    index = rank[np.add.outer(freqs[0] ** 2, rest)]
    for i, t in enumerate(ts):
        mult = profile(t * radii)
        if np.any(mult):
            yield i, _fft.irfftn(fhat * mult[index], s=spec.shape, axes=axes, workers=fft_workers())


def apply_multiplier(f: GridFunction | VectorField, profile: RadialProfile, r: float):
    """(fhat(.) profile(r |.|)) back-transformed, of a real GridFunction or
    of each member of a VectorField; returns the same kind."""
    if not (0 < r < math.inf):
        raise ValueError(f"dilation must be positive and finite, got {r}")
    vals = _stack(f)
    # a multiplier that vanishes on the grid yields no piece
    _, out = next(_dilation_sweep(vals, f.spec, profile, (r,)), (0, np.zeros_like(vals)))
    return _unstack(f, out)


def maximal_multiplier(f: GridFunction | VectorField, profile: RadialProfile, radii):
    """Node-wise max over dilations r of |(fhat profile(r .))^v|, of a real
    GridFunction or of each member of a VectorField; returns the same kind."""
    vals = _stack(f)
    out = np.zeros_like(vals)
    for _, piece in _dilation_sweep(vals, f.spec, profile, _as_radii(radii)):
        np.maximum(out, np.abs(piece), out=out)
    return _unstack(f, out)


def spherical_maximal(f: GridFunction | VectorField, radii) -> GridFunction | VectorField:
    """Spherical means maximized over radii, realized through the surface
    multiplier (requires d >= 2), like :func:`maximal_multiplier`."""
    return maximal_multiplier(f, surface_multiplier(f.spec.d), radii)


def kernel(profile: RadialProfile, spec: GridSpec) -> GridFunction:
    """Inverse transform (its real part) of the profile sampled on the
    frequency grid, from one evaluation per shell of the nonnegative
    frequency octant.  The samples are even in every axis and the nodes sit
    at (n + 1/2) h, so per axis that real part, g_0 + 2 sum_{k >= 1} g_k
    cos(pi k (2n + 1) / N) for n, k < N/2, is scipy's unnormalized DCT-III of
    length N/2, copied reversed onto x < 0.  The octant is computed in place
    in the output's x > 0 orthant and mirrored inside the output, which is
    the only full-size allocation: the shells are ranked and gathered one
    leading-axis slab at a time, so beside the output the peak holds the
    rank table and slab-sized buffers (1.013 times the output's bytes traced
    at 128^3, 1.006 at 256^3).

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
    n = N // 2
    # The -N/2 bins can hold weight only on the axes (the support stays within
    # the extent), and there their term is purely imaginary, so dropping them
    # leaves the real part exact.
    radii, rank, rest = _shells(spec, [np.arange(n, dtype=np.int32)] * d)
    shell_values = profile(radii)
    del radii
    out = np.empty(spec.shape)
    orthant = (slice(n, None),) * d
    octant = out[orthant]
    # slab by slab, so no shell index or gather buffer is full-size
    for i in range(n):
        octant[i] = shell_values[rank[i * i + rest]]
    del rank, rest
    # overwrite_x lets scipy transform the view in place, but does not make it
    dct = _fft.dctn(octant, type=3, overwrite_x=True, workers=fft_workers())
    if not np.shares_memory(dct, octant):
        octant[...] = dct
    del dct
    octant *= spec.freq_step**d
    # each orthant of the output is the octant reversed on its axes with x < 0
    _mirror(out, orthant, [(slice(None, n), slice(N - 1, n - 1, -1))] * d)
    return _wrap(spec, out)


class _CosineTransform:
    """Dense tabulation of C(u) = int profile(s) s^(d-1) cos(2 pi u s) ds.

    Folding the Gegenbauer representation of m into the radial transform
    turns the zonal inverse into area * c_d * int (1-t^2)^((d-3)/2) C(rho t) dt,
    so once C is tabulated every kernel value is a cheap weighted sum of
    cubic lookups (tested against a direct quadrature of the zonal inverse
    in the test suite).  On each interval of the uniform grid the cubic is
    the Hermite cubic through the exact values and the exact slopes
    C'(u) = -2 pi int profile(s) s^d sin(2 pi u s) ds.  The grid step keeps
    its error (fourth derivative ~ (2 pi b)^4 times the transform's
    amplitude) below ``abs_tol``; the radial rule size is verified by
    doubling on a probe of every stride-th grid point.  Grid and probe are
    arithmetic progressions, so values and slopes are summed by
    :func:`_trig_progression`.  A value is Horner's rule on interval
    floor(u / du), clamped to the last interval, which extrapolates past the
    grid's end.
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
        # Hermite interpolation with exact slopes errs by at most du^4 / 384
        # times the largest fourth derivative, and 1/384 ~ 0.0026 is below
        # the 0.014 this step assumes
        du = (abs_tol / (0.014 * max(amp, 1e-300))) ** 0.25 / (2.0 * math.pi * b)
        # 24 significant bits make every k du exact, so the grid is uniform in floating point
        du = float(np.float32(du))
        # the length of np.arange(0.0, u_max + 4 * du, du); no table-sized
        # array exists until the rule has verified
        size = math.ceil((u_max + 4 * du) / du)
        # the probe is every stride-th grid point
        stride = max(1, size // 64)
        probe = (0.0, stride * du, -(-size // stride))
        for _ in range(5):
            coarse = _trig_progression(np.cos, *probe, s1, d1)
            check = np.abs(coarse - _trig_progression(np.cos, *probe, s2, d2)).max()
            if check <= abs_tol:
                break
            n_s *= 2
            s1, d1 = s2, d2
            s2, d2 = dens_for(2 * n_s)
        else:
            raise RuntimeError(f"radial rule did not verify to {abs_tol}")
        y = _trig_progression(np.cos, 0.0, du, size, s2, d2)
        slope = np.diff(y) / du
        m = _trig_progression(np.sin, 0.0, du, size, s2, (-2.0 * math.pi) * s2 * d2)
        curv = (m[:-1] + m[1:] - 2 * slope) / du
        # the cubic on interval i in t = u - grid[i], highest power first; the
        # linear and constant terms are the slopes and samples themselves (the
        # last ones unused)
        self.du, self.coef = du, (curv / du, (slope - m[:-1]) / du - curv, m, y)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.abs(u)
        i = np.minimum((u / self.du).astype(np.intp), self.coef[0].size - 1)
        t = u - i * self.du
        out = self.coef[0][i]
        for c in self.coef[1:]:
            out *= t
            out += c[i]
        return out


def _zonal_from_table(table: _CosineTransform, d: int, rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """area * c_d * int (1-t^2)^((d-3)/2) C(rho t) dt via the tabulated C."""
    rho = np.asarray(rho, dtype=float)
    flat = rho.reshape(-1)
    mass = gegenbauer_weight_mass(d)

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(d, n)
        return np.einsum("ij,j->i", table(flat[:, None] * t[None, :]), w) / mass

    rmax = float(np.max(np.abs(flat))) if flat.size else 0.0
    out = refine_until_stationary(with_rule, max_arg=table.osc_rate * max(rmax, 1.0), tol=tol)
    return sphere_area(d) * out.reshape(rho.shape)


def funk_hecke_kernel(l: int, d: int, x_norm, tol: float = 1e-9):
    """FFT-free evaluation of the dyadic piece's kernel at radius |x|.

    The piece's kernel is the bump kernel convolved with the normalized
    surface measure; the sphere integral of that zonal function reduces to a
    Gegenbauer-weight average over the chord radii sqrt(|x|^2 + 1 - 2|x| t),
    and the bump kernel itself comes from the 1-D radial transform.  Nothing
    on this path touches the FFT route it cross-checks.  ``x_norm`` of any
    shape is evaluated element-wise; a scalar gives a float.
    """
    l, d = _integer(l, "dyadic index l", 0), _integer(d, "Funk-Hecke dimension d", 3)
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    arr = np.asarray(x_norm, dtype=float)
    x = arr.reshape(-1)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("x_norm must be finite and nonnegative")
    mass = gegenbauer_weight_mass(d)
    if x.size == 0:
        return np.empty(arr.shape)
    phi = bump(l)
    rho_max = float(np.max(x)) + 1.0
    table = _CosineTransform(phi, d, rho_max + 0.1, abs_tol=tol * 0.05)

    def with_rule(n: int) -> np.ndarray:
        t, w = gegenbauer_rule(d, n)
        chord = np.sqrt(np.maximum(x[:, None] ** 2 + 1.0 - 2.0 * x[:, None] * t[None, :], 0.0))
        vals = _zonal_from_table(table, d, chord, tol=tol * 0.1)
        return np.einsum("ij,j->i", vals, w) / mass

    out = refine_until_stationary(with_rule, max_arg=2.0 ** (l + 2), tol=tol)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


class DecayRow(NamedTuple):
    l: int
    c1: float  # sup of the piece, times 2^(l(d-1)/2)
    c2: float  # sup of the tilde piece, times 2^(l(d-3)/2)
    c3: float  # sup of |kernel| (1+|x|)^(d+1) / 2^l over the window |x| <= 8


def _check_decay_range(d, l_max) -> None:
    _integer(d, "decay dimension d", 3)
    _integer(l_max, "l_max", 2)


def decay_constants(d: int, l_max: int) -> list[DecayRow]:
    """Normalized decay constants per dyadic index l = 1..l_max.

    Boundedness of the three columns across l is the quantitative content of
    the sup-norm and kernel-decay estimates.  Kernel sups are taken over the
    window |x| <= 8, where the decay envelope is fully visible; profile sups
    are maxima over _SWEEP_POINTS evenly spaced points of the supporting
    annulus, where m and m' are each swept once by angle addition.
    """
    _check_decay_range(d, l_max)
    xs = np.linspace(0.0, 8.0, 161)
    rows = []
    for l in range(1, int(l_max) + 1):
        a, b = _bump_support(l)
        s = np.linspace(a, b, _SWEEP_POINTS)
        m, dm = (_sums(d, s, deriv, 1e-10, du=(b - a) / (_SWEEP_POINTS - 1)) for deriv in (False, True))
        cut = _cutoff(l, s)
        c1 = float(np.max(np.abs(_piece(s, cut, m)))) * 2.0 ** (l * (d - 1) / 2.0)
        c2 = float(np.max(np.abs(_piece(s, cut, m, _cutoff(l, s, True), dm)))) * 2.0 ** (l * (d - 3) / 2.0)
        table = _CosineTransform(dyadic_piece(d, l), d, 8.0, abs_tol=1e-6 * 2.0**l)
        kern = _zonal_from_table(table, d, xs, tol=1e-8)
        c3 = float(np.max(np.abs(kern) * (1.0 + xs) ** (d + 1))) / 2.0**l
        rows.append(DecayRow(l=l, c1=c1, c2=c2, c3=c3))
    return rows


def decay_table_csv(rows: Sequence[DecayRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("l,c1,c2,c3\n")
        for row in rows:
            fh.write(f"{row.l},{row.c1!r},{row.c2!r},{row.c3!r}\n")

