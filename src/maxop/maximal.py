"""Centered Hardy-Littlewood maximal operator, weighted variant, 1-D variant.

Discrete convention
-------------------
Ball membership on the node lattice is *strict*: an offset ``delta`` (in cells)
belongs to the ball of radius r iff ``|delta| h < r``, i.e. ``|delta|^2 <= T``
with ``T = max{n : n h^2 < r^2}``.  With the minimal radius r = h this leaves
exactly the center cell, which makes ``Mf >= |f|`` hold pointwise and sends
constants to themselves at every node; a closed ball at r = h would pull in
the 2d axis neighbors and break both.

Numerators sum |f| over in-cube nodes (zero extension outside the cube);
denominators count (or weight-sum) the ball on the *infinite* lattice, so
averages near the boundary are biased downward, exactly like the continuum
operator acting on a function supported in the cube.

Stencil engine
--------------
:func:`hl_maximal`, :func:`weighted_maximal` and :func:`maximal_1d` take a
GridFunction or a VectorField and return the same kind; all members go
through one engine call with a leading member axis, and the Grushin iterated
operator passes its u-slices the same way.
Grids of at most 64 nodes per member take the quadratic per-node path, the
bit-exact reference.  Larger grids take the FFT path: each distinct ball
stencil is transformed once and applied to every member by zero-padded
convolution, the padded shape growing with the stencil's reach.  The
stencil is even in every axis, so its spectrum is computed from its
nonnegative-offset part.  The center-only radius is taken exactly.  The
first radius whose ball holds every in-grid offset ends the sweep: for
k = 0 its numerator is each member's mass, and every larger radius has the
same numerator over a denominator no smaller.  The descent operator
(:mod:`maxop.rotations`) applies its corner stencils with the same FFT
helpers: padded shapes, member spectra, batching and cropped inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .grid import GridFunction, GridSpec, VectorField, _stack, _unstack, fft_workers

__all__ = ["RadiiSet", "default_radii", "hl_maximal", "weighted_maximal", "maximal_1d"]

# the largest grid the brute-force check compares bit for bit (8 x 8)
_EXACT_PATH_MAX_NODES = 64
# bytes of padded member spectra per batched transform; at d = 5 on the
# default grid a single member already exceeds it
_BATCH_BYTES = 1 << 26


@dataclass(frozen=True)
class RadiiSet:
    """Strictly increasing positive radii discretizing the sup over r > 0."""

    radii: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("RadiiSet must be nonempty")
        if not all(math.isfinite(r) for r in radii):
            raise ValueError(f"radii must be finite, got {radii}")
        if radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be positive and strictly increasing")
        object.__setattr__(self, "radii", radii)

    def __iter__(self):
        return iter(self.radii)

    def __len__(self):
        return len(self.radii)


def default_radii(spec: GridSpec, K: int = 32) -> RadiiSet:
    """K log-spaced radii from h to the cube diameter 2L*sqrt(d)."""
    if not (float(K).is_integer() and K >= 2):
        raise ValueError(f"number of radii K must be an integer >= 2, got {K}")
    return RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L * math.sqrt(spec.d), int(K))))


def _as_radii(radii) -> tuple[float, ...]:
    if isinstance(radii, RadiiSet):
        return radii.radii
    return RadiiSet(tuple(radii)).radii


def _strict_bound(r: float, h: float) -> int:
    """Largest integer n with n*h^2 < r^2 (strict lattice-ball bound)."""
    t = int((r * r) / (h * h)) + 2
    while t > 0 and t * h * h >= r * r:
        t -= 1
    return t


def _sq_norm_hist(d: int, tmax: int) -> np.ndarray:
    """hist[n] = number of integer lattice points in Z^d with |delta|^2 = n <= tmax."""
    base = np.zeros(tmax + 1)
    base[0] = 1.0
    for j in range(1, math.isqrt(tmax) + 1):
        base[j * j] = 2.0
    out = base
    for _ in range(d - 1):
        out = np.convolve(out, base)[: tmax + 1]
    return out


def _cumulative_weights(d: int, tmax: int, k: int, h: float) -> np.ndarray:
    """W[T] = sum over lattice offsets with |delta|^2 <= T of (|delta| h)^k."""
    hist = _sq_norm_hist(d, tmax)
    n = np.arange(tmax + 1, dtype=float)
    if k == 0:
        w = hist
    else:
        w = hist * (n * h * h) ** (k / 2.0)
    return np.cumsum(w)


def _validate_radii_for_spec(radii: tuple[float, ...], spec_like_h: float, limit: float) -> None:
    if radii[-1] > limit + spec_like_h:
        raise ValueError(
            f"max radius {radii[-1]} exceeds the cube diameter {limit}; "
            "averages beyond it only dilute into the zero extension"
        )


def _ball_max_values(vals: np.ndarray, h: float, radii: tuple[float, ...], k: int) -> np.ndarray:
    """max over r of weighted lattice-ball averages of |vals| (zero-extended),
    for each member along the leading axis of ``vals`` (shape ``(n, *grid)``)."""
    a = np.abs(np.asarray(vals, dtype=float))
    d = a.ndim - 1
    tmax = _strict_bound(radii[-1], h)
    denom = _cumulative_weights(d, tmax, k, h)
    if a[0].size <= _EXACT_PATH_MAX_NODES:
        return _ball_max_exact(a, h, radii, k, denom)
    return _ball_max_fft(a, h, radii, k, denom)


def _ball_max_exact(a, h, radii, k, denom):
    # quadratic-cost reference path; numerators are per-node sums over each
    # member's masked flat array in linear index order
    shape = a.shape[1:]
    idx = np.indices(shape).reshape(len(shape), -1)
    d2 = sum((i[:, None] - i[None, :]) ** 2 for i in idx)
    w2 = (d2.astype(float) * (h * h)) ** (k / 2.0) if k else None
    flat = a.reshape(a.shape[0], -1)
    out = np.zeros(flat.shape)
    for r in radii:
        t = _strict_bound(r, h)
        den = denom[t]
        if den <= 0:
            continue
        for i, row in enumerate(d2):
            mask = row <= t
            w = w2[i][mask] if k else None
            for m, vals in enumerate(flat):
                num = np.sum(vals[mask]) if k == 0 else np.sum(vals[mask] * w)
                out[m, i] = max(out[m, i], float(num) / den)
    return out.reshape(a.shape)


def _ball_max_fft(a, h, radii, k, denom):
    # The stencil of radius r is the ball's (weighted) indicator, even in
    # every axis.  It is applied to every member by zero-padded FFT
    # convolution on a per-reach padded shape.  Radii increase, so only the
    # current shape's member spectra and the last distinct convolution are
    # kept.
    shape = a.shape[1:]
    axes = tuple(range(1, a.ndim))
    cover = sum((m - 1) ** 2 for m in shape)  # |delta|^2 of the farthest in-grid offset
    full = tuple(min(math.isqrt(_strict_bound(radii[-1], h)), m - 1) for m in shape)
    n2_full, fold_full = _half_box(full, cover)
    out = np.zeros_like(a)
    mshape = spectra = key = conv = None
    for r in radii:
        t = _strict_bound(r, h)
        den = denom[t]
        if den <= 0:
            continue
        if k == 0 and t >= cover:
            # the ball holds every in-grid offset from every node, so the
            # numerator is each member's mass
            np.maximum(out, a.sum(axis=axes, keepdims=True) / den, out=out)
            break
        reach = tuple(min(math.isqrt(t), m - 1) for m in shape)
        # a ball that covers its reach box shares the box's stencil
        new_key = (reach, t if t < sum(R * R for R in reach) else -1)
        if new_key != key:
            key = new_key
            if t == 0:
                # the center alone (k = 0; for k >= 1 its denominator is 0),
                # taken exactly so that Mf >= |f| holds without rounding
                conv = a
            else:
                shp = _padded_shape(shape, reach)
                if shp != mshape:
                    mshape, spectra = shp, None  # drop the old spectra first
                    spectra = _member_spectra(a, mshape)
                box = tuple(slice(0, R + 1) for R in reach)
                half = _stencil(n2_full[box], t, k, h) * fold_full[box]
                conv = _convolve(spectra, _even_spectrum(half, mshape), mshape, shape)
        np.maximum(out, conv / den, out=out)
        if t >= cover:
            # every larger radius has the same numerator and a denominator no
            # smaller, so it cannot raise the max
            break
    return np.maximum(out, 0.0)


def _half_box(reach: tuple[int, ...], cover: int) -> tuple[np.ndarray, np.ndarray]:
    """|delta|^2 over the nonnegative offsets [0, reach] (in the smallest
    integer type that holds ``cover``), and each offset's fold count: the
    number of offsets it stands for under the reflections of the axes."""
    dtype = np.min_scalar_type(cover)
    n2 = np.zeros((1,) * len(reach), dtype=dtype)
    fold = np.ones((1,) * len(reach))
    for ax, R in enumerate(reach):
        sh = [1] * len(reach)
        sh[ax] = R + 1
        off = np.arange(R + 1)
        n2 = n2 + (off**2).astype(dtype).reshape(sh)
        fold = fold * np.where(off > 0, 2.0, 1.0).reshape(sh)
    return n2, fold


def _stencil(n2: np.ndarray, t: int, k: int, h: float) -> np.ndarray:
    if k == 0:
        return n2 <= t
    return np.where(n2 <= t, (n2 * (h * h)) ** (k / 2.0), 0.0)


def _padded_shape(shape: tuple[int, ...], reach) -> tuple[int, ...]:
    """Fast FFT lengths that hold a zero-padded convolution of the grid with
    a stencil of per-axis reach ``reach``, free of wrap-around."""
    return tuple(_fft.next_fast_len(int(m + R)) for m, R in zip(shape, reach))


def _chunk(mshape: tuple[int, ...]) -> int:
    """Members per batched transform, capping one batch of padded spectra."""
    per_member = 16 * math.prod(mshape[:-1]) * (mshape[-1] // 2 + 1)
    return max(1, _BATCH_BYTES // per_member)


def _member_spectra(a: np.ndarray, mshape: tuple[int, ...]) -> np.ndarray:
    """rfftn of every member zero-padded to ``mshape``, one axis at a time
    and last axis first, so each axis is padded only when it is transformed."""
    n, c = a.shape[0], _chunk(mshape)
    out = np.empty((n,) + mshape[:-1] + (mshape[-1] // 2 + 1,), dtype=complex)
    for lo in range(0, n, c):
        y = _fft.rfftn(a[lo : lo + c], s=mshape[-1:], axes=(a.ndim - 1,), workers=fft_workers())
        for ax in range(a.ndim - 2, 0, -1):
            y = _fft.fftn(y, s=(mshape[ax - 1],), axes=(ax,), overwrite_x=True, workers=fft_workers())
        out[lo : lo + c] = y
    return out


def _even_spectrum(half: np.ndarray, mshape: tuple[int, ...]) -> np.ndarray:
    """Spectrum, on the layout of the member spectra, of the even stencil
    centered at offset 0 whose nonnegative-offset part, times the fold
    counts, is ``half``.

    Per axis the transform of an even sequence is the real part of the
    transform of its folded half, and it is even in the frequency, so only
    frequencies 0..m//2 are computed and the rest are read off by symmetry.
    """
    s = half
    for ax, m in enumerate(mshape):
        s = _fft.rfftn(s, s=(m,), axes=(ax,), workers=fft_workers()).real
    idx = [np.minimum(np.arange(m), m - np.arange(m)) for m in mshape[:-1]]
    return s[np.ix_(*idx, np.arange(s.shape[-1]))]


def _convolve(spectra, sfft, mshape, shape) -> np.ndarray:
    """Inverse transforms of every member spectrum times ``sfft``, cropped to
    the grid."""
    n, c = spectra.shape[0], _chunk(mshape)
    conv = np.empty((n,) + tuple(shape))
    for lo in range(0, n, c):
        conv[lo : lo + c] = _inverse(spectra[lo : lo + c] * sfft, mshape, shape)
    return conv


def _inverse(y, mshape, shape) -> np.ndarray:
    """Inverse transforms of the spectra ``y`` (one per member, on the layout
    of the member spectra, overwritten), cropped to the grid; each axis is
    cropped as soon as it is transformed."""
    d = len(shape)
    for ax in range(1, d):
        y = _fft.ifftn(y, axes=(ax,), overwrite_x=True, workers=fft_workers())
        y = y[(slice(None),) * ax + (slice(0, shape[ax - 1]),)]
    y = _fft.irfftn(y, s=mshape[-1:], axes=(d,), workers=fft_workers())
    return y[..., : shape[-1]]


def _ball_max(f, radii, k: int):
    """Ball maximal function of a GridFunction, or of every member of a
    VectorField in one batched engine call; returns the same kind."""
    vals = _stack(f)
    spec = f.spec
    rs = _as_radii(radii)
    _validate_radii_for_spec(rs, spec.h, 2.0 * spec.L * math.sqrt(spec.d))
    return _unstack(f, _ball_max_values(vals, spec.h, rs, k))


def hl_maximal(f: GridFunction | VectorField, radii) -> GridFunction | VectorField:
    """Centered Hardy-Littlewood maximal function over the RadiiSet, of a
    GridFunction or of each member of a VectorField."""
    return _ball_max(f, radii, 0)


def weighted_maximal(f: GridFunction | VectorField, k: int, radii) -> GridFunction | VectorField:
    """Ball averages against the weight |y|^k, maximized over the RadiiSet.

    k = 0 reduces to :func:`hl_maximal` exactly.  For k >= 1 the center offset
    carries zero weight; a radius whose ball holds only the center therefore
    has an empty weighted average, which is taken as 0.  Like
    :func:`hl_maximal` it acts on a GridFunction or on each member of a
    VectorField.
    """
    if not (float(k).is_integer() and k >= 0):
        raise ValueError(f"weight exponent must be a nonnegative integer, got {k}")
    return _ball_max(f, radii, int(k))


def _interval_max_values(vals: np.ndarray, h: float, radii: tuple[float, ...], axis: int) -> np.ndarray:
    """Per-fiber 1-D centered interval averages maximized over radii."""
    a = np.abs(np.asarray(vals, dtype=float))
    n = a.shape[axis]
    a_moved = np.moveaxis(a, axis, -1)
    csum = np.concatenate(
        [np.zeros(a_moved.shape[:-1] + (1,)), np.cumsum(a_moved, axis=-1)], axis=-1
    )
    i = np.arange(n)
    out = np.zeros_like(a_moved)
    for r in radii:
        m = math.isqrt(_strict_bound(r, h))
        den = 2 * m + 1
        hi = np.minimum(i + m, n - 1) + 1
        lo = np.maximum(i - m, 0)
        win = np.take(csum, hi, axis=-1) - np.take(csum, lo, axis=-1)
        np.maximum(out, win / den, out=out)
    return np.moveaxis(out, -1, axis)


def maximal_1d(f: GridFunction | VectorField, radii, axis: int = 0) -> GridFunction | VectorField:
    """1-D centered maximal averages along one axis, independently per fiber,
    of a GridFunction or of each member of a VectorField."""
    vals = _stack(f)
    spec = f.spec
    if not (0 <= axis < spec.d):
        raise ValueError(f"axis {axis} out of range for d={spec.d}")
    rs = _as_radii(radii)
    _validate_radii_for_spec(rs, spec.h, 2.0 * spec.L * math.sqrt(spec.d))
    return _unstack(f, _interval_max_values(vals, spec.h, rs, axis + 1))
