"""Haar-random rotations, the weighted descent operator over rotated
d'-planes, and Monte-Carlo checks of the rotation-average identities.

The descent operator averages |f| over a d'-dimensional ball embedded by a
rotation, against the weight |y'|^(d-d').  The radial leg uses a Gauss-Jacobi
rule matched to the weight rho^(k+d'-1), which stays accurate when the weight
piles all mass near the outer radius (large k); the angular leg is seeded
Monte Carlo on S^(d'-1).  Off-grid evaluation is multilinear interpolation
with zero extension, so every check carries an O(h) interpolation allowance
on top of its Monte-Carlo error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage

from .grid import GridFunction, GridSpec, PreconditionError, _wrap
from .maximal import _as_radii, _cumulative_weights, _strict_bound
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
    f: GridFunction,
    rotation: RotationMatrix,
    split: DescentSplit,
    radii,
    n_radial: int = 16,
    n_sphere: int = 64,
    seed: int = 0,
) -> GridFunction:
    """Weighted averages of |f| over rotated d'-balls, maximized over radii."""
    f.require("physical")
    if not f.is_real:
        raise ValueError("descent operator acts on real functions")
    spec = f.spec
    if split.d != spec.d or rotation.d != spec.d:
        raise ValueError("rotation/split dimension does not match the grid")
    rs = _as_radii(radii)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sphere = _sphere_points(rng, n_sphere, split.d_prime)
    rho, rho_w = radial_power_rule(n_radial, split.k + split.d_prime)
    # unit offsets theta (sigma_j, 0) in R^d
    units = sphere @ rotation.matrix[:, : split.d_prime].T
    absf = np.abs(f.values)
    out = np.zeros(spec.shape)
    for r in rs:
        avg = np.zeros(spec.shape)
        for i in range(n_radial):
            radius = r * rho[i]
            coeff = rho_w[i] / n_sphere
            for j in range(n_sphere):
                shift_idx = -radius * units[j] / spec.h
                avg += coeff * ndimage.shift(
                    absf, shift_idx, order=1, mode="constant", cval=0.0, prefilter=False
                )
        np.maximum(out, avg, out=out)
    return _wrap(spec, out, "physical")


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


def _batch_stderr(samples: np.ndarray, n_batches: int = 16) -> float:
    n = samples.size
    if n < n_batches:
        n_batches = max(1, n)
    chunks = np.array_split(samples, n_batches)
    means = np.array([c.mean() for c in chunks])
    if len(means) < 2:
        return float("inf")
    return float(means.std(ddof=1) / math.sqrt(len(means)))


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
    return MCComparison(lhs=lhs, rhs=float(samples.mean()), stderr=_batch_stderr(samples))


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
    children = np.random.SeedSequence(seed).spawn(n_mc)
    acc = np.zeros(f.spec.shape)
    batches: list[np.ndarray] = []
    batch_acc = np.zeros(f.spec.shape)
    per_batch = max(1, n_mc // 16)
    in_batch = 0
    for i, child in enumerate(children):
        theta = RotationMatrix(f.spec.d, _haar_matrix(np.random.default_rng(child), f.spec.d))
        vals = descent_maximal(
            f, theta, split, radii, n_radial=n_radial, n_sphere=n_sphere, seed=int(child.generate_state(1)[0])
        ).values
        acc += vals
        batch_acc += vals
        in_batch += 1
        if in_batch == per_batch:
            batches.append(batch_acc / per_batch)
            batch_acc = np.zeros(f.spec.shape)
            in_batch = 0
    if in_batch:
        batches.append(batch_acc / in_batch)
    avg = acc / n_mc
    stack = np.stack(batches)
    if stack.shape[0] >= 2:
        se = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    else:
        se = np.full(f.spec.shape, np.inf)
    return LemmaTwoDomination(
        average=_wrap(f.spec, avg, "physical"), stderr=_wrap(f.spec, se, "physical")
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
