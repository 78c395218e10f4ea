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
the boundary nodes that corner may not read zeroed; all members and radii
go through one call of the shared FFT stencil engine.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage

from .grid import GridFunction, GridSpec, PreconditionError, VectorField, _stack, _unstack, _wrap
from .maximal import _as_radii, _cumulative_weights, _stencil_sums, _strict_bound
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
        if not (3 <= self.d_prime <= self.d):
            raise PreconditionError(f"need 3 <= d' <= d, got d'={self.d_prime}, d={self.d}")

    @property
    def k(self) -> int:
        return self.d - self.d_prime


def haar_rotation(d: int, seed: int) -> RotationMatrix:
    """Haar-distributed element of O(d): QR of a Gaussian matrix with the
    sign of diag(R) fixed, deterministic per seed."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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


def _index_coords(spec: GridSpec, points: np.ndarray) -> np.ndarray:
    # physical coordinates -> fractional array indices (cell-centered nodes)
    return (points + spec.L) / spec.h - 0.5


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
    for name, n in (("n_radial", n_radial), ("n_sphere", n_sphere)):
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    absf = np.abs(_stack(f))
    spec = f.spec
    if split.d != spec.d or rotation.d != spec.d:
        raise ValueError("rotation/split dimension does not match the grid")
    rs = _as_radii(radii)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sphere = _sphere_points(rng, n_sphere, split.d_prime)
    rho, rho_w = radial_power_rule(n_radial, split.k + split.d_prime)
    # unit offsets theta (sigma_j, 0) in R^d
    units = sphere @ rotation.matrix[:, : split.d_prime].T
    # sample (i, j) reads |f| at x - r rho_i theta sigma_j: a shift by
    # r rho_i theta sigma_j / h cells, with weight rho_w_i / n_sphere
    shifts = [(-(r * rho)[:, None, None] * units[None] / spec.h).reshape(-1, spec.d) for r in rs]
    sums = _shift_sums(absf, shifts, np.repeat(rho_w / n_sphere, n_sphere))
    return _unstack(f, np.maximum(sums.max(axis=0), 0.0))


def _shift_sums(a: np.ndarray, shifts: list[np.ndarray], coeff: np.ndarray) -> np.ndarray:
    """``sum_o coeff[o] * shift(a, shifts[g][o])`` for every group g of
    shifts, per member along the leading axis of ``a``, where ``shift`` is
    ``ndimage.shift(order=1, mode="constant", cval=0)``.

    Write one shift per axis as k + t with integer k and t in [0, 1).  A
    node then reads (1 - t) a(i - k) + t a(i - k - 1) on each axis with
    t > 0, and 0 unless both of those nodes lie on the grid: the first is
    never node 0 and the second never node N - 1.  So the sum is, over the
    2^d corners c, a sparse stencil with taps at k + c applied to a copy of
    ``a`` with those boundary nodes zeroed.  An axis with t = 0 has a single
    tap that may read both boundary nodes.
    """
    d = a.ndim - 1
    groups = [_corner_taps(s, coeff) for s in shifts]
    keys = sorted(set().union(*groups))
    empty = (np.zeros((0, d), dtype=np.int64), np.zeros(0))
    stencils = [[taps.get(key, empty) for key in keys] for taps in groups]
    return _stencil_sums(a, [_corner_mask(key, a.shape[1:]) for key in keys], stencils)


def _corner_taps(s: np.ndarray, coeff: np.ndarray) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """The shifts ``s`` (one per row, weighted by ``coeff``) as sparse
    stencils keyed by their input mask, one state per axis: 0 zeroes node
    0, 1 zeroes node N - 1 and 2 (t = 0) zeroes nothing."""
    k = np.floor(s)
    t = s - k
    k = k.astype(np.int64)
    exact = t == 0
    taps = {}
    for corner in itertools.product((0, 1), repeat=s.shape[1]):
        c = np.array(corner)
        live = ~np.any(exact & (c == 1), axis=1)
        w = coeff * np.prod(np.where(c == 1, t, 1.0 - t), axis=1)
        states = np.where(exact, 2, c)
        # a live tap's key fixes its corner (c = 0 on the axes with t = 0)
        for key in np.unique(states[live], axis=0):
            sel = live & np.all(states == key, axis=1)
            taps[tuple(key.tolist())] = (k[sel] + c, w[sel])
    return taps


def _corner_mask(key: tuple, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Per-axis input weights of the mask ``key`` (see :func:`_corner_taps`)."""
    mask = tuple(np.ones(m) for m in shape)
    for weights, state in zip(mask, key):
        if state < 2:
            weights[0 if state == 0 else -1] = 0.0
    return mask


def _point_weighted_average(
    absf: np.ndarray,
    spec: GridSpec,
    x: np.ndarray,
    rotation: np.ndarray,
    split: DescentSplit,
    r: float,
    sphere: np.ndarray,
    rho: np.ndarray,
    rho_w: np.ndarray,
) -> float:
    units = sphere @ rotation[:, : split.d_prime].T
    pts = x[None, None, :] - r * rho[:, None, None] * units[None, :, :]
    coords = _index_coords(spec, pts.reshape(-1, spec.d))
    vals = ndimage.map_coordinates(
        absf, coords.T, order=1, mode="constant", cval=0.0, prefilter=False
    ).reshape(rho.size, sphere.shape[0])
    return float(np.sum(rho_w * vals.mean(axis=1)))


def _ball_average_at_node(f: GridFunction, index: tuple[int, ...], r: float) -> float:
    """Lattice ball average of |f| at one node; the stencil must stay in-cube."""
    spec = f.spec
    t = _strict_bound(r, spec.h)
    reach = math.isqrt(t)
    for ax, i in enumerate(index):
        if i - reach < 0 or i + reach >= spec.N:
            raise ValueError(f"ball of radius {r} at node {index} leaves the cube")
    offs = np.indices((2 * reach + 1,) * spec.d).reshape(spec.d, -1) - reach
    inside = np.sum(offs * offs, axis=0) <= t
    sel = offs[:, inside]
    flat = np.abs(f.values)[tuple(np.asarray(index)[:, None] + sel)]
    count = _cumulative_weights(spec.d, t, 0, spec.h)[t]
    return float(np.sum(flat)) / float(count)


class MCComparison(NamedTuple):
    lhs: float
    rhs: float
    stderr: float


def _batch_stderr(samples: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean over the leading axis of
    ``samples``, from at most 16 consecutive batches."""
    chunks = np.array_split(samples, max(1, min(16, samples.shape[0])))
    means = np.stack([c.mean(axis=0) for c in chunks])
    if len(means) < 2:
        return np.full(samples.shape[1:], np.inf)
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
    d'-plane averages; they agree up to MC error and O(h) interpolation."""
    f.require("physical")
    spec = f.spec
    if split.d != spec.d:
        raise ValueError("split dimension does not match the grid")
    lhs = _ball_average_at_node(f, tuple(x_index), r)
    x = np.array([spec.axis_nodes()[i] for i in x_index])
    absf = np.abs(f.values)
    rho, rho_w = radial_power_rule(n_radial, split.k + split.d_prime)
    children = np.random.SeedSequence(seed).spawn(n_mc)
    samples = np.empty(n_mc)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        theta = _haar_matrix(rng, spec.d)
        sphere = _sphere_points(rng, n_sphere, split.d_prime)
        samples[i] = _point_weighted_average(absf, spec, x, theta, split, r, sphere, rho, rho_w)
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
    root = np.random.SeedSequence(seed)
    lhs_rng = np.random.default_rng(root.spawn(1)[0])
    pts = _sphere_points(lhs_rng, n_mc, split.d)
    lhs_samples = np.asarray(f1(pts), dtype=float)
    rhs_rng = np.random.default_rng(root.spawn(2)[1])
    rhs_samples = np.empty(n_mc)
    for i in range(n_mc):
        theta = _haar_matrix(rhs_rng, split.d)
        y = _sphere_points(rhs_rng, 1, split.d_prime)[0]
        lifted = theta[:, : split.d_prime] @ y
        rhs_samples[i] = float(np.asarray(f1(lifted[None, :]))[0])
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
    f.require("physical")
    d = f.spec.d
    runs = np.stack([
        descent_maximal(
            f, RotationMatrix(d, _haar_matrix(np.random.default_rng(child), d)), split, radii,
            n_radial=n_radial, n_sphere=n_sphere, seed=int(child.generate_state(1)[0]),
        ).values
        for child in np.random.SeedSequence(seed).spawn(n_mc)
    ])
    return LemmaTwoDomination(
        average=_wrap(f.spec, runs.mean(axis=0), "physical"),
        stderr=_wrap(f.spec, _batch_stderr(runs), "physical"),
    )


def dimension_split(p: float, q: float) -> int:
    """The descent dimension d' = floor(max(2, p, q, p', q')) + 1, which
    satisfies d'/(d'-1) < min(p, q) and max(p, q) < d'."""
    from .norms import Exponent

    pv, qv = Exponent(float(p)).value, Exponent(float(q)).value
    if math.isinf(pv) or math.isinf(qv):
        raise PreconditionError("dimension_split needs finite exponents")
    target = max(2.0, pv, qv, pv / (pv - 1.0), qv / (qv - 1.0))
    return int(math.floor(target)) + 1
