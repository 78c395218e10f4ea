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
operator passes its u-slices the same way.  Interval averages are d = 1
balls, every fiber a member of one call.  Every grid takes the one FFT
sweep: each distinct ball stencil is transformed once per member batch and
applied to every member of the batch by zero-padded convolution, the padded
shape growing with the stencil's reach.  The stencil is even in every axis,
so its spectrum is computed from its nonnegative-offset part, on the
nonnegative frequencies, and mirrored inside the one array it fills.

The sweep plans its radii once.  Radii with the same key, the largest
in-grid |delta|^2 <= T, hold the same offsets and so share one stencil and
its numerators, while the denominator, a cumulative sum of nonnegative
terms, never shrinks as T grows; division being monotone in it, the sweep
plans only the smallest radius of each key, which leaves one radius past the
covering ball that holds every in-grid offset.  A ball that holds only the
center (r <= h) averages |f| itself for k = 0 and is empty for k >= 1, so
such radii seed the max with |f|, taken exactly so that Mf >= |f| holds
without rounding, or with 0.  A k whose weights leave the double range (a
denominator that overflows, or underflows to 0) raises PreconditionError
before any stencil is built.

A planned radius is skipped when it cannot raise the max.  The values are
|f| >= 0 and every in-grid weight of the ball is at most (K h^2)^(k/2) (1
for k = 0), K the radius's key, so no numerator exceeds mass * (K h^2)^(k/2),
and no average exceeds that over the denominator.  When every node's running
max of a member is already at least that bound, for every member, the radius
leaves the max unchanged in exact arithmetic, and its convolution is not
computed.  The cutoff only skips radii and never ends the sweep.

The sweep's one output array is its running max, and every radius raises it
in place.  The planned radii are grouped by padded shape, and each group
runs over member batches whose spectra on that shape fit in 4 MiB (at least
one member); a batch's spectra are transformed once per group, and each of
the group's radii builds its stencil spectrum, multiplies the batch's
spectra by it into one product, and raises the batch's slice of the max by
the product's inverse, cropped to the grid and divided by the denominator.
So the sweep holds one batch's spectra, one product and one stencil
spectrum, and no convolution is carried to the next radius.  Where a shape
splits into several batches its stencil spectra are rebuilt per batch.
Each batch skips radii by its own members' bound, which is exact as above.
Two members share one batch on every shape of 32^3; at d = 4 on 16^4 the
shapes from 24^4 on take one member per batch, and at d = 5 every shape does.
Measured peaks: HL on two members of 16^4 traces 27 MB of arrays;
the HL scan row at d = 5 (16^5, four members) reaches about 910 MB
RSS, set while one member's spectra, the stencil spectrum and the product
are live.

The descent operator (:mod:`maxop.rotations`) applies its corner stencils
with the same FFT helpers: padded shapes, member spectra, batching and
cropped inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .grid import GridFunction, GridSpec, PreconditionError, VectorField, _integer, _stack, _unstack, fft_workers

__all__ = ["RadiiSet", "default_radii", "hl_maximal", "weighted_maximal", "maximal_1d"]

# bytes of padded member spectra a ball-sweep batch holds on its padded shape
_SWEEP_BATCH_BYTES = 1 << 22


@dataclass(frozen=True)
class RadiiSet:
    """Strictly increasing positive radii discretizing the sup over r > 0."""

    radii: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("RadiiSet must be nonempty")
        for r in radii:
            if not 0 < r < math.inf:
                raise ValueError(f"radii must be positive and finite, got radius {r}")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "radii", radii)

    def __iter__(self):
        return iter(self.radii)

    def __len__(self):
        return len(self.radii)


def default_radii(spec: GridSpec, K: int = 32) -> RadiiSet:
    """K log-spaced radii from h to the cube diameter 2L*sqrt(d)."""
    K = _integer(K, "number of radii K", 2)
    return RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L * math.sqrt(spec.d), K)))


def _as_radii(radii, limit: float = math.inf) -> tuple[float, ...]:
    """The radii of a RadiiSet or of an increasing sequence, at most ``limit``."""
    rs = radii.radii if isinstance(radii, RadiiSet) else RadiiSet(tuple(radii)).radii
    if rs[-1] > limit:
        # averages over larger balls only dilute into the zero extension
        raise ValueError(f"max radius {rs[-1]} exceeds {limit}, the box's diameter plus h")
    return rs


def _grid_limit(spec: GridSpec) -> float:
    """The largest radius a ball or interval operator on ``spec`` accepts: the
    cube diameter 2L sqrt(d) plus h."""
    return 2.0 * spec.L * math.sqrt(spec.d) + spec.h


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
    # out of the double range the sums read inf, nan or 0 for the caller to refuse
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.cumsum(hist * (np.arange(tmax + 1, dtype=float) * h * h) ** (k / 2.0))


def _ball_max_values(vals: np.ndarray, h: float, radii: tuple[float, ...], k: int) -> np.ndarray:
    """max over r of weighted lattice-ball averages of |vals| (zero-extended),
    for each member along the leading axis of ``vals`` (shape ``(n, *grid)``)."""
    a = np.abs(np.asarray(vals, dtype=float))
    shape = a.shape[1:]
    ts = [_strict_bound(r, h) for r in radii]
    full = tuple(min(math.isqrt(ts[-1]), m - 1) for m in shape)
    n2_full, fold_full = _half_box(full)
    norms = np.flatnonzero(np.bincount(n2_full.ravel()))  # the |delta|^2 in-grid offsets take
    # balls with the same largest in-grid |delta|^2 <= t hold the same offsets
    # and share one stencil; the smallest such radius has the smallest
    # denominator, so no larger one can raise the max
    plan = {}
    for t in ts:
        if t > 0:
            plan.setdefault(norms[np.searchsorted(norms, t, side="right") - 1], t)
    denom = _cumulative_weights(len(shape), ts[-1], k, h)
    if not (np.isfinite(denom[-1]) and all(denom[t] > 0 for t in plan.values())):
        raise PreconditionError(
            f"weight exponent k={k} on the grid of shape {shape} with h={h!r}: "
            "the lattice ball weights leave the double range"
        )
    axes = tuple(range(1, a.ndim))
    # radii <= h: the center alone, |f| exactly for k = 0 and empty for k >= 1
    out = a.copy() if k == 0 and ts[0] == 0 else np.zeros_like(a)
    mass = a.sum(axis=axes, keepdims=True)
    # the planned radii by padded shape, which grows with the key
    groups = {}
    for key, t in plan.items():
        reach = tuple(min(math.isqrt(key), m - 1) for m in shape)
        groups.setdefault(_padded_shape(shape, reach), []).append((key, t, reach))
    for mshape, group in groups.items():
        c = _chunk(mshape, _SWEEP_BATCH_BYTES)
        for lo in range(0, a.shape[0], c):
            best = out[lo : lo + c]
            spectra = None  # drop the last batch's spectra first
            for key, t, reach in group:
                # no average of the radius exceeds the member's mass times the
                # stencil's largest weight, (key h^2)^(k/2), over the
                # denominator, so skip the radius when that cannot raise any
                # node's max
                bound = mass[lo : lo + c] * (key * (h * h)) ** (k / 2.0) / denom[t]
                if np.all(best.min(axis=axes, keepdims=True) >= bound):
                    continue
                if spectra is None:
                    spectra = _member_spectra(a[lo : lo + c], mshape)
                box = tuple(slice(0, R + 1) for R in reach)
                n2 = n2_full[box]
                with np.errstate(over="ignore"):  # only weights outside the ball can overflow
                    half = np.where(n2 <= key, (n2 * (h * h)) ** (k / 2.0), 0.0) * fold_full[box]
                avg = _inverse(spectra * _even_spectrum(half, mshape), mshape, shape)
                avg /= denom[t]
                np.maximum(best, avg, out=best)
                del avg  # before the next radius's product is allocated
    return out


def _half_box(reach: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """|delta|^2 over the nonnegative offsets [0, reach] (in the smallest
    integer type that holds the largest), and each offset's fold count: the
    number of offsets it stands for under the reflections of the axes."""
    dtype = np.min_scalar_type(sum(R * R for R in reach))
    n2 = np.zeros((1,) * len(reach), dtype=dtype)
    fold = np.ones((1,) * len(reach))
    for ax, R in enumerate(reach):
        sh = [1] * len(reach)
        sh[ax] = R + 1
        off = np.arange(R + 1)
        n2 = n2 + (off**2).astype(dtype).reshape(sh)
        fold = fold * np.where(off > 0, 2.0, 1.0).reshape(sh)
    return n2, fold


def _padded_shape(shape: tuple[int, ...], reach) -> tuple[int, ...]:
    """Fast FFT lengths that hold a zero-padded convolution of the grid with
    a stencil of per-axis reach ``reach``, free of wrap-around."""
    return tuple(_fft.next_fast_len(int(m + R)) for m, R in zip(shape, reach))


def _chunk(mshape: tuple[int, ...], nbytes: int) -> int:
    """Members whose padded spectra on ``mshape`` fit in ``nbytes``, at
    least 1."""
    per_member = 16 * math.prod(mshape[:-1]) * (mshape[-1] // 2 + 1)
    return max(1, nbytes // per_member)


def _member_spectra(a: np.ndarray, mshape: tuple[int, ...]) -> np.ndarray:
    """rfftn of every member zero-padded to ``mshape``, one axis at a time and
    last axis first, so each axis is padded only when it is transformed."""
    y = _fft.rfftn(a, s=mshape[-1:], axes=(a.ndim - 1,), workers=fft_workers())
    for ax in range(a.ndim - 2, 0, -1):
        y = _fft.fftn(y, s=(mshape[ax - 1],), axes=(ax,), overwrite_x=True, workers=fft_workers())
    return y


def _even_spectrum(half: np.ndarray, mshape: tuple[int, ...]) -> np.ndarray:
    """Spectrum, on the layout of the member spectra, of the even stencil
    centered at offset 0 whose nonnegative-offset part, times the fold
    counts, is ``half``.

    Per axis the transform of an even sequence is the real part of the
    transform of its folded half, and it is even in the frequency, so only
    frequencies 0..m//2 are computed, into the returned array, and
    frequencies m//2+1..m-1 are copied in place from 1..m - m//2 - 1.
    """
    s = half
    for ax, m in enumerate(mshape):
        s = _fft.rfftn(s, s=(m,), axes=(ax,), workers=fft_workers()).real
    # the last transform's complex half box is freed before the output exists
    s = s.copy()
    out = np.empty(mshape[:-1] + s.shape[-1:])
    filled = tuple(slice(0, m // 2 + 1) for m in mshape[:-1]) + (slice(None),)
    out[filled] = s
    del s
    _mirror(out, filled, [(slice(m // 2 + 1, m), slice(m - m // 2 - 1, 0, -1)) for m in mshape[:-1]])
    return out


def _mirror(a: np.ndarray, filled: tuple[slice, ...], spans) -> None:
    """Fill ``a`` in place from its block ``a[filled]``: along each leading
    axis ax < len(spans) in turn, where ``spans[ax]`` is a pair (dst, src) of
    equally long index ranges, copy range src onto range dst over the part
    filled so far.  Inner axes go one leading index at a time, since there
    the two ranges interleave in memory and numpy copies an overlapping
    source first; the leading axis goes last, in one copy of a disjoint range
    that needs no temporary."""
    box = list(filled)
    for ax, (dst, src) in enumerate(spans[1:], 1):
        for i in range(a.shape[0])[box[0]]:
            a[(i, *box[1:ax], dst, *box[ax + 1 :])] = a[(i, *box[1:ax], src, *box[ax + 1 :])]
        box[ax] = slice(None)
    for dst, src in spans[:1]:
        a[(dst, *box[1:])] = a[(src, *box[1:])]


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
    rs = _as_radii(radii, _grid_limit(f.spec))
    return _unstack(f, _ball_max_values(_stack(f), f.spec.h, rs, k))


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
    VectorField.  A k whose lattice ball weights leave the double range on
    the grid raises PreconditionError.
    """
    return _ball_max(f, radii, _integer(k, "weight exponent k", 0))


def _interval_max_values(vals: np.ndarray, h: float, radii: tuple[float, ...], axis: int) -> np.ndarray:
    """Per-fiber 1-D centered interval averages maximized over radii: every
    fiber along ``axis`` is a member of one d = 1 ball call."""
    a = np.moveaxis(np.asarray(vals, dtype=float), axis, -1)
    out = _ball_max_values(a.reshape(-1, a.shape[-1]), h, radii, 0)
    return np.moveaxis(out.reshape(a.shape), -1, axis)


def maximal_1d(f: GridFunction | VectorField, radii, axis: int = 0) -> GridFunction | VectorField:
    """1-D centered maximal averages along one axis, independently per fiber,
    of a GridFunction or of each member of a VectorField."""
    axis = _integer(axis, "axis", 0)
    if axis >= f.spec.d:
        raise ValueError(f"axis {axis} out of range for d={f.spec.d}")
    rs = _as_radii(radii, _grid_limit(f.spec))
    return _unstack(f, _interval_max_values(_stack(f), f.spec.h, rs, axis + 1))
