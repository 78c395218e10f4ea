"""Koranyi pseudo-distance, Koranyi balls, the associated maximal operator,
and the iterated (1-D then d-dim) maximal operator that dominates it.

Geometry lives on R^d_x x R_u with the anisotropic dilations
delta_r(x, u) = (r x, r^2 u); ball volumes scale like r^(d+2).  The
pseudo-distance is

    dist((x,u), (x',u')) = sqrt( sqrt((|x|^2+|x'|^2)^2 + (2|u-u'|)^2) - 2<x,x'> ),

with the inner expression clamped at zero against roundoff.  Koranyi balls
use closed membership (dist <= r), matching the ball definition; the maximal
operator therefore keeps ``M f >= |f|`` by including a radius below the
smallest node spacing :func:`min_node_gap`.

Grushin data are ordinary GridFunctions on ``GridSpec(d + 1, L, N)``: the
first d axes are x and the last axis is u, all with the same spacing h.
Both maximal operators take a GridFunction or a VectorField and return the
same kind: the Koranyi one enumerates each node's ball once for all members,
and the iterated one passes every member's u-slices to one x-ball call.

Counting conventions mirror the Euclidean module: numerators sum |f| over
in-box nodes, denominators count the ball on the infinite lattice extension,
so boundary averages are biased downward (zero extension).

The control-distance maximal operator is NOT computed here: it has no closed
form, and its bounds follow from the Koranyi one by the two-sided volume
comparison; see :func:`cc_domination_note`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, PreconditionError, VectorField, _stack, _unstack
from .maximal import RadiiSet, _as_radii, _ball_max_values, _grid_limit, _interval_max_values

__all__ = [
    "GrushinPoint",
    "koranyi_distance",
    "koranyi_ball_volume",
    "grushin_maximal",
    "iterated_maximal",
    "min_node_gap",
    "cc_domination_note",
]


@dataclass(frozen=True)
class GrushinPoint:
    x: tuple[float, ...]
    u: float

    def __post_init__(self):
        x = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not all(math.isfinite(v) for v in x) or not math.isfinite(self.u):
            raise ValueError("GrushinPoint entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", float(self.u))

    @property
    def d(self) -> int:
        return len(self.x)


def koranyi_distance(g: GrushinPoint, g2: GrushinPoint) -> float:
    if g.d != g2.d:
        raise ValueError(f"dimension mismatch: {g.d} vs {g2.d}")
    x = np.asarray(g.x)
    y = np.asarray(g2.x)
    return float(
        np.sqrt(
            max(
                math.sqrt(
                    (float(x @ x) + float(y @ y)) ** 2 + (2.0 * abs(g.u - g2.u)) ** 2
                )
                - 2.0 * float(x @ y),
                0.0,
            )
        )
    )


def _dk_values(x: np.ndarray, u: float, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Vectorized pseudo-distance from (x, u) to points (X rows, U)."""
    a = float(x @ x) + np.sum(X * X, axis=-1)
    inner = X @ x
    du = U - u
    return np.sqrt(np.maximum(np.sqrt(a * a + 4.0 * du * du) - 2.0 * inner, 0.0))


def _x_dim(spec: GridSpec) -> int:
    """Number of x-axes of Grushin data on ``spec``: every axis but the last."""
    if spec.d < 2:
        raise PreconditionError(f"Grushin data need x-axes plus the u-axis, got a {spec.d}-D grid")
    return spec.d - 1


def min_node_gap(spec: GridSpec) -> float:
    """Smallest pseudo-distance between distinct nodes.

    x-neighbors sit at distance h regardless of position; u-neighbors sit
    at sqrt(sqrt(4|x|^4 + 4 h^2) - 2|x|^2), which decays like h/|x|, so
    the minimum is taken at the largest node radius.  A maximal-operator
    radius below this gap gives a center-only smallest ball at every node.
    """
    xmax2 = _x_dim(spec) * (spec.L - spec.h / 2.0) ** 2
    gap_u = math.sqrt(math.sqrt(4.0 * xmax2**2 + 4.0 * spec.h**2) - 2.0 * xmax2)
    return min(spec.h, gap_u)


def _koranyi_limit(spec: GridSpec) -> float:
    """The largest Koranyi radius on ``spec``: sqrt(A^2 + 4 du^2) <= A + 2|du|, so on
    the box d_K^2 <= |x - x'|^2 + 2|u - u'| <= 4 d L^2 + 4 L; the limit adds h."""
    return 2.0 * math.sqrt(_x_dim(spec) * spec.L**2 + spec.L) + spec.h


def _scan_radii(spec: GridSpec, K: int) -> tuple[RadiiSet, RadiiSet, RadiiSet]:
    """The scans' Koranyi radii (at most 8, from below the node gap to 1.2), and
    the iterated x- and u-radii (K each, from h to the x-cube diameter and 2L)."""
    rk = RadiiSet(tuple(np.geomspace(0.9 * min_node_gap(spec), 1.2, min(K, 8))))
    rx = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L * math.sqrt(_x_dim(spec)), K)))
    ru = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L, K)))
    return rk, rx, ru


def _ball_lattice(spec: GridSpec, x: np.ndarray, u: float, r: float):
    """Integer index ranges (possibly outside the box) covering the ball,
    enumerated lexicographically; returns (X, U, index_arrays)."""
    L, h = spec.L, spec.h
    centers = list(x) + [u]
    # |u' - u| <= (r^2 + 2 |x| |x'|)/2 <= (r^2 + 2 |x| (|x| + r))/2 on the ball
    xn = float(np.linalg.norm(x))
    reaches = [r] * x.size + [0.5 * (r * r + 2.0 * xn * (xn + r))]
    ranges = []
    for c, w in zip(centers, reaches):
        lo = math.ceil((c - w + L) / h - 0.5 - 1e-12)
        hi = math.floor((c + w + L) / h - 0.5 + 1e-12)
        ranges.append(np.arange(lo, hi + 1))
    dim = len(ranges)
    idx = np.empty([len(rg) for rg in ranges] + [dim], dtype=np.int64)
    for j, rg in enumerate(ranges):
        idx[..., j] = rg.reshape([-1 if a == j else 1 for a in range(dim)])
    idx = idx.reshape(-1, dim)
    X = -L + (idx[:, :-1] + 0.5) * h
    U = -L + (idx[:, -1] + 0.5) * h
    return X, U, idx


def _in_box(spec: GridSpec, idx: np.ndarray) -> np.ndarray:
    return np.all((idx >= 0) & (idx < spec.N), axis=1)


def koranyi_ball_volume(g: GrushinPoint, r: float, spec: GridSpec) -> float:
    """Cell count times cell volume of the closed ball, which must sit inside
    the box; r is checked before the enumeration, which grows like r^(d+2)."""
    if g.d != _x_dim(spec):
        raise ValueError("point dimension does not match the grid")
    (r,) = _as_radii((r,), _koranyi_limit(spec))
    x = np.asarray(g.x)
    X, U, idx = _ball_lattice(spec, x, g.u, r)
    member = _dk_values(x, g.u, X, U) <= r
    if np.any(member & ~_in_box(spec, idx)):
        raise ValueError(f"ball of radius {r} at {g} exits the box")
    return float(np.count_nonzero(member)) * spec.cell_volume


def grushin_maximal(f: GridFunction | VectorField, radii) -> GridFunction | VectorField:
    """Max over radii of closed Koranyi-ball cell averages of |f|, of a
    GridFunction or of each member of a VectorField.

    Numerators use in-box nodes (zero extension); denominators count the
    ball on the infinite lattice.  Node enumeration is lexicographic, so the
    small-grid values reproduce a naive loop bit-for-bit.  Each node's ball
    is enumerated once and serves every member.
    """
    spec = f.spec
    d = _x_dim(spec)
    rs = _as_radii(radii, _koranyi_limit(spec))
    vals = _stack(f)
    flat = np.abs(vals).reshape(vals.shape[0], -1)
    axis = spec.axis_nodes()
    out = np.zeros_like(flat)
    r_max = rs[-1]
    for node, multi in enumerate(np.ndindex(spec.shape)):
        x = axis[list(multi[:d])]
        u = float(axis[multi[d]])
        X, U, idx = _ball_lattice(spec, x, u, r_max)
        dk = _dk_values(x, u, X, U)
        inside = _in_box(spec, idx)
        flat_idx = np.ravel_multi_index(tuple(idx[inside].T), spec.shape)
        dk_in = dk[inside]
        # members per radius; balls are nested, so a radius whose count
        # repeats the previous one has the same ball and the same average
        counts = np.searchsorted(np.sort(dk), rs, side="right").tolist()
        for r, count, prev in zip(rs, counts, [0] + counts):
            if count == prev:
                continue
            # C-ordered rows, so each member's sum is its own 1-D sum bit for bit
            sums = np.take(flat, flat_idx[dk_in <= r], axis=1).sum(axis=1)
            out[:, node] = np.maximum(out[:, node], sums / count)
    return _unstack(f, out.reshape((-1,) + spec.shape))


def iterated_maximal(f: GridFunction | VectorField, radii_x, radii_u) -> GridFunction | VectorField:
    """1-D maximal averages along u, then Euclidean ball averages in x per
    u-slice, of a GridFunction or of each member of a VectorField.  This
    iterated operator dominates the Koranyi one up to a constant, which is
    how its mapping bounds transfer."""
    spec = f.spec
    d = _x_dim(spec)
    rs_x = _as_radii(radii_x, _grid_limit(spec))
    rs_u = _as_radii(radii_u, _grid_limit(spec))
    vals = _stack(f)
    x_shape = spec.shape[:d]
    stage1 = _interval_max_values(vals, spec.h, rs_u, axis=d + 1)
    # the u-slices of every member are the members of one batched x-ball call
    slices = np.moveaxis(stage1, -1, 1).reshape((-1,) + x_shape)
    out = _ball_max_values(slices, spec.h, rs_x, 0).reshape((len(vals), spec.N) + x_shape)
    return _unstack(f, np.ascontiguousarray(np.moveaxis(out, 1, -1)))


def cc_domination_note() -> str:
    """One-line provenance note attached to every Grushin scan report."""
    return (
        "control-distance maximal operator not computed (no closed form); "
        "covered via M_CC <= (1/c) M_K <= C M_xball(M_u1d) using the shared "
        "r^(d+2) dilation volume scaling"
    )
