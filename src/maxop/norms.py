"""Discrete L^p norms, pointwise l^q reductions and mixed norms.

Integrals are plain Riemann sums with cell weight h^d; reductions rely on
numpy's pairwise summation, which is deterministic for a fixed array layout.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridFunction, VectorField, _wrap

__all__ = [
    "lp_norm",
    "lq_pointwise",
    "mixed_norm",
    "mixed_norm_values",
]


def _pvalue(p, role: str) -> float:
    """p as a float, validated as an exponent 1 < p <= inf; the error names ``role``."""
    try:
        v = float(p)
    except (TypeError, ValueError):
        raise ValueError(f"exponent {role} must be a number, got {p!r}") from None
    if not (v > 1.0):
        raise ValueError(f"exponent must satisfy p > 1 (or inf), got {role} = {v}")
    return v


def _lp(a: np.ndarray, pv: float, cell_volume: float) -> float:
    a = np.abs(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite values in lp_norm input")
    if math.isinf(pv):
        return float(a.max())
    return float((np.sum(a**pv) * cell_volume) ** (1.0 / pv))


def _lq(arrays, qv: float) -> np.ndarray:
    if math.isinf(qv):
        raise ValueError("the pointwise l^q reduction requires a finite q")
    acc = np.zeros(np.shape(arrays[0]))
    for a in arrays:
        acc += np.abs(a) ** qv
    return acc ** (1.0 / qv)


def lp_norm(f: GridFunction, p) -> float:
    """(sum |f|^p h^d)^(1/p); max |f| for p = inf."""
    return _lp(f.values, _pvalue(p, "p"), f.spec.cell_volume)


def lq_pointwise(F: VectorField, q) -> GridFunction:
    """Node-wise (sum_n |f_n|^q)^(1/q); q must be finite."""
    return _wrap(F.spec, _lq([m.values for m in F], _pvalue(q, "q")))


def mixed_norm(F: VectorField, p, q) -> float:
    """The L^p(l^q) norm: lp_norm of the pointwise l^q reduction."""
    return lp_norm(lq_pointwise(F, q), p)


def mixed_norm_values(arrays, p, q, cell_volume: float) -> float:
    """Mixed norm on raw sample arrays sharing one cell volume; the same
    reduction as :func:`mixed_norm`.  No package code calls it: the bench's
    layer trace spans it, so it goes when the package owns its counters, a
    change to the benchmark (see ROADMAP.md)."""
    return _lp(_lq(arrays, _pvalue(q, "q")), _pvalue(p, "p"), cell_volume)

