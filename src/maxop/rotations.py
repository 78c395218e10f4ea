"""Haar-random rotations, the weighted descent operator over rotated
d'-planes, and Monte-Carlo checks of the rotation-average identities.

The descent operator averages |f| over a d'-dimensional ball embedded by a
rotation, against the weight |y'|^(d-d').  Like the other operators it takes
a GridFunction or a VectorField and returns the same kind.  The radial leg
uses a Gauss-Jacobi rule matched to the weight rho^(k+d'-1), which stays
accurate when the weight piles all mass near the outer radius (large k); the
angular leg is seeded Monte Carlo on S^(d'-1).

Off-grid evaluation is multilinear interpolation between nodes, and a
sample that leaves [x_0, x_{N-1}] on any axis reads 0: the order-1
``mode="constant"`` rule of ``scipy.ndimage``, which both the descent
operator and the rotation-average check (``map_coordinates``) follow.  Every
check carries an O(h) interpolation allowance on top of its Monte-Carlo
error bars.  At one radius every sample offset has the same fractional part
at every node, so the descent average is a sum of 2^d sparse lattice
stencils, one per corner of the interpolation cell, each applied to |f| with
the boundary nodes that corner may not read zeroed.  :func:`_shift_max`
owns that rule and applies the stencils with the FFT helpers of
:mod:`maxop.maximal`, whose ball engine also gives the rotation-average
check its ball average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import GridFunction, PreconditionError, VectorField, _integer, _stack, _unstack, _wrap
from .maximal import _as_radii, _ball_max_values, _chunk, _grid_limit, _inverse, _member_spectra
from .maximal import _padded_shape, _strict_bound
from .norms import _pvalue
from .quadrature import radial_power_rule

__all__ = [
    "RotationMatrix",
    "DescentSplit",
    "haar_rotation",
    "descent_maximal",
    "rotation_average_check",
    "sphere_identity_check",
    "lemma2_domination",
    "LemmaTwoDomination",
    "dimension_split",
]

# bytes of padded spectra a descent batch holds at once, its accumulator
# included; at d = 5 on the default grid a single member already exceeds it
_DESCENT_BATCH_BYTES = 1 << 26


@dataclass(frozen=True)
class RotationMatrix:
    """An element of O(d), validated to 1e-10."""

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (self.d, self.d):
            raise ValueError(f"matrix shape {mat.shape} != ({self.d}, {self.d})")
        if np.max(np.abs(mat.T @ mat - np.eye(self.d))) > 1e-10:
            raise ValueError("matrix is not orthogonal to 1e-10")
        if abs(abs(float(np.linalg.det(mat))) - 1.0) > 1e-10:
            raise ValueError("matrix determinant is not +-1 to 1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class DescentSplit:
    """Decomposition R^d = R^d' x R^(d-d'); the weight exponent is k = d - d'."""

    d: int
    d_prime: int

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "d_prime", _integer(self.d_prime, "d_prime", 1))
        if not (3 <= self.d_prime <= self.d):
            raise PreconditionError(f"need 3 <= d' <= d, got d'={self.d_prime}, d={self.d}")

    @property
    def k(self) -> int:
        return self.d - self.d_prime


def haar_rotation(d: int, seed: int) -> RotationMatrix:
    """Haar-distributed element of O(d): QR of a Gaussian matrix with the
    sign of diag(R) fixed, deterministic per seed."""
    d = _integer(d, "d", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    return RotationMatrix(d=d, matrix=_haar_matrix(rng, d))


def _haar_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """One Haar draw from O(d): QR of a d x d Gaussian block drawn from
    ``rng``, columns sign-fixed so that diag(R) > 0."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _sphere_points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    z = rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def descent_maximal(
    f: GridFunction | VectorField,
    rotation: RotationMatrix,
    split: DescentSplit,
    radii,
    n_radial: int = 16,
    n_sphere: int = 64,
    seed: int = 0,
) -> GridFunction | VectorField:
    """Weighted averages of |f| over rotated d'-balls, maximized over radii,
    of a GridFunction or of each member of a VectorField."""
    n_radial, n_sphere = _integer(n_radial, "n_radial", 1), _integer(n_sphere, "n_sphere", 1)
    absf = np.abs(_stack(f))
    spec = f.spec
    if split.d != spec.d or rotation.d != spec.d:
        raise ValueError("rotation/split dimension does not match the grid")
    rs = _as_radii(radii, _grid_limit(spec))
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    sphere = _sphere_points(rng, n_sphere, split.d_prime)
    rho, rho_w = radial_power_rule(n_radial, split.k + split.d_prime)
    # unit offsets theta (sigma_j, 0) in R^d
    units = sphere @ rotation.matrix[:, : split.d_prime].T
    # sample (i, j) reads |f| at x + r rho_i theta sigma_j, weight rho_w_i /
    # n_sphere; _shift_max's shift s reads node i - s, hence the minus sign
    shifts = [(-(r * rho)[:, None, None] * units[None] / spec.h).reshape(-1, spec.d) for r in rs]
    return _unstack(f, _shift_max(absf, shifts, np.repeat(rho_w / n_sphere, n_sphere)))


def _shift_max(a: np.ndarray, shifts: list[np.ndarray], coeff: np.ndarray) -> np.ndarray:
    """``max(0, max_g sum_o coeff[o] * shift(a, shifts[g][o]))`` over the
    groups g of shifts (one per radius), per member along the leading axis
    of ``a``, where ``shift`` is ``ndimage.shift(order=1, mode="constant",
    cval=0)``.

    Write one shift per axis as k + t with integer k and t in [0, 1).  A
    node then reads (1 - t) a(i - k) + t a(i - k - 1) on each axis with
    t > 0, and 0 unless both of those nodes lie on the grid: the first is
    never node 0 and the second never node N - 1.  So a group's sum is, over
    the 2^d corners c, a sparse stencil with taps at k + c applied to a copy
    of ``a`` with those boundary nodes zeroed.  An axis with t = 0 has a
    single tap that may read both boundary nodes.  A tap's mask row holds,
    per axis, the corner's c or 2 where t = 0 (0 zeroes node 0, 1 node N - 1,
    2 nothing); taps are grouped by mask row, and each mask row's masked
    copy is transformed once per batch.  Members go in batches that keep one
    spectrum per group beside the masked members' spectra, in one
    accumulator allocated for the largest batch and zeroed for each; each
    group's inverse raises the batch's slice of the max, seeded with 0, in
    place.
    """
    shape = a.shape[1:]
    reach = np.zeros(len(shape), dtype=np.int64)
    taps = {}  # mask row -> [(group, offsets, weights)]
    for g, s in enumerate(shifts):
        t = s - np.floor(s)
        k = np.floor(s).astype(np.int64)
        exact = t == 0
        patterns = set(map(tuple, exact.tolist()))  # the rows' sets of axes with t = 0
        for corner in itertools.product((0, 1), repeat=len(shape)):
            c = np.array(corner)
            off = k + c
            # drop the taps of weight 0 (c = 1 where t = 0) and those off the grid
            live = ~np.any(exact & (c == 1), axis=1) & np.all(np.abs(off) < shape, axis=1)
            w = coeff * np.prod(np.where(c == 1, t, 1.0 - t), axis=1)
            for p in patterns:
                sel = live & np.all(exact == p, axis=1)
                if sel.any():
                    taps.setdefault(tuple(np.where(p, 2, c).tolist()), []).append((g, off[sel], w[sel]))
            reach = np.maximum(reach, np.abs(off[live]).max(axis=0, initial=0))
    mshape = _padded_shape(shape, reach)
    n, step = a.shape[0], max(1, _chunk(mshape, _DESCENT_BATCH_BYTES) // (len(shifts) + 1))
    out = np.zeros(a.shape)
    buf = np.empty((len(shifts), min(n, step)) + mshape[:-1] + (mshape[-1] // 2 + 1,), dtype=complex)
    for lo in range(0, n, step):
        part = a[lo : lo + step]
        acc = buf[:, : len(part)]
        acc[...] = 0.0
        for key in sorted(taps):
            masked = part.copy()
            for ax, state in enumerate(key):
                if state < 2:
                    masked[(slice(None),) * (ax + 1) + (0 if state == 0 else -1,)] = 0.0
            spectra = _member_spectra(masked, mshape)
            for g, off, w in taps[key]:
                flat = np.ravel_multi_index(tuple(off.T), mshape, mode="wrap")
                dense = np.bincount(flat, weights=w, minlength=math.prod(mshape)).reshape(mshape)
                acc[g] += spectra * _member_spectra(dense[None], mshape)[0]
        best = out[lo : lo + step]
        for y in acc:
            np.maximum(best, _inverse(y, mshape, shape), out=best)
    return out


def _ball_average_at_node(f: GridFunction, index: tuple[int, ...], r: float) -> float:
    """Lattice ball average of |f| at one node; the ball must stay in-cube."""
    spec = f.spec
    reach = math.isqrt(_strict_bound(r, spec.h))
    if any(i - reach < 0 or i + reach >= spec.N for i in index):
        raise ValueError(f"ball of radius {r} at node {index} leaves the cube")
    return float(_ball_max_values(f.values[None], spec.h, (r,), 0)[(0,) + index])


class MCComparison(NamedTuple):
    lhs: float
    rhs: float
    stderr: float


def _batch_stderr(samples: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean over the leading axis of
    ``samples``, from at most 16 consecutive batches."""
    chunks = np.array_split(samples, min(16, samples.shape[0]))
    means = np.stack([c.mean(axis=0) for c in chunks])
    return means.std(axis=0, ddof=1) / math.sqrt(len(means))


def rotation_average_check(
    f: GridFunction,
    split: DescentSplit,
    r: float,
    x_index: tuple[int, ...],
    n_mc: int = 4096,
    seed: int = 0,
    n_radial: int = 16,
    n_sphere: int = 64,
) -> MCComparison:
    """Ball average at one node vs the Haar-rotation average of weighted
    d'-plane averages; they agree up to MC error and O(h) interpolation.
    Its samples x - r rho theta sigma mirror descent's x + r rho theta sigma
    through x, and sigma is uniform, so the two are equal in distribution."""
    from scipy import ndimage

    n_mc, seed = _integer(n_mc, "n_mc", 2), _integer(seed, "seed", 0)
    spec = f.spec
    (r,) = _as_radii((r,), _grid_limit(spec))
    if split.d != spec.d:
        raise ValueError("split dimension does not match the grid")
    x_index = tuple(x_index)
    if len(x_index) != spec.d:
        raise ValueError(f"x_index needs {spec.d} entries, got {x_index}")
    x_index = tuple(_integer(i, "x_index entry", 0) for i in x_index)
    lhs = _ball_average_at_node(f, x_index, r)
    x = np.array([spec.axis_nodes()[i] for i in x_index])
    absf = np.abs(f.values)
    rho, rho_w = radial_power_rule(n_radial, split.k + split.d_prime)
    samples = np.empty(n_mc)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_mc)):
        rng = np.random.default_rng(child)
        theta = _haar_matrix(rng, spec.d)
        units = _sphere_points(rng, n_sphere, split.d_prime) @ theta[:, : split.d_prime].T
        pts = x - r * rho[:, None, None] * units
        # physical coordinates -> fractional array indices (cell-centered nodes)
        coords = (pts.reshape(-1, spec.d) + spec.L) / spec.h - 0.5
        vals = ndimage.map_coordinates(absf, coords.T, order=1, mode="constant", cval=0.0, prefilter=False)
        samples[i] = float(np.sum(rho_w * vals.reshape(rho.size, -1).mean(axis=1)))
    return MCComparison(lhs=lhs, rhs=float(samples.mean()), stderr=float(_batch_stderr(samples)))


def sphere_identity_check(
    f1: Callable[[np.ndarray], np.ndarray],
    split: DescentSplit,
    n_mc: int = 4096,
    seed: int = 0,
) -> MCComparison:
    """MC average of f1 over S^(d-1) vs the double average over Haar
    rotations of points lifted from S^(d'-1); the pushforward identity makes
    the two targets equal."""
    n_mc, seed = _integer(n_mc, "n_mc", 2), _integer(seed, "seed", 0)
    lhs, _, rhs = np.random.SeedSequence(seed).spawn(3)
    pts = _sphere_points(np.random.default_rng(lhs), n_mc, split.d)
    lhs_samples = np.asarray(f1(pts), dtype=float)
    rhs_rng = np.random.default_rng(rhs)
    lifted = np.empty((n_mc, split.d))
    for i in range(n_mc):
        theta = _haar_matrix(rhs_rng, split.d)
        lifted[i] = theta[:, : split.d_prime] @ _sphere_points(rhs_rng, 1, split.d_prime)[0]
    rhs_samples = np.asarray(f1(lifted), dtype=float)
    se = math.hypot(
        float(lhs_samples.std(ddof=1) / math.sqrt(n_mc)),
        float(rhs_samples.std(ddof=1) / math.sqrt(n_mc)),
    )
    return MCComparison(lhs=float(lhs_samples.mean()), rhs=float(rhs_samples.mean()), stderr=se)


class LemmaTwoDomination(NamedTuple):
    average: GridFunction
    stderr: GridFunction


def lemma2_domination(
    f: GridFunction,
    split: DescentSplit,
    radii,
    n_mc: int = 32,
    seed: int = 0,
    n_radial: int = 16,
    n_sphere: int = 48,
) -> LemmaTwoDomination:
    """MC average over Haar rotations of the descent operator, with a
    per-node batch-means standard error.  The ball maximal function is
    dominated by the average up to MC error and interpolation slack."""
    n_mc, seed = _integer(n_mc, "n_mc", 2), _integer(seed, "seed", 0)
    d = f.spec.d
    runs = np.stack([
        descent_maximal(
            f, RotationMatrix(d, _haar_matrix(np.random.default_rng(child), d)), split, radii,
            n_radial=n_radial, n_sphere=n_sphere, seed=int(child.generate_state(1)[0]),
        ).values
        for child in np.random.SeedSequence(seed).spawn(n_mc)
    ])
    return LemmaTwoDomination(
        average=_wrap(f.spec, runs.mean(axis=0)),
        stderr=_wrap(f.spec, _batch_stderr(runs)),
    )


def dimension_split(p: float, q: float) -> int:
    """The descent dimension d' = floor(max(2, p, q, p', q')) + 1, which
    satisfies d'/(d'-1) < min(p, q) and max(p, q) < d'."""
    pv, qv = _pvalue(p, "p"), _pvalue(q, "q")
    if math.isinf(pv) or math.isinf(qv):
        raise PreconditionError("dimension_split needs finite exponents")
    target = max(2.0, pv, qv, pv / (pv - 1.0), qv / (qv - 1.0))
    return int(math.floor(target)) + 1
