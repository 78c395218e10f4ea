"""Uniform tensor grids on [-L, L]^d, real samples on them, and a
Plancherel-faithful Fourier transform of those samples.

A GridFunction holds real, finite samples at the nodes of a GridSpec, and
every operator reads and returns such samples.  The transform pair maps
arrays: a GridFunction to its complex spectrum, and a spectrum back to
complex node samples.

The grid is cell-centered: nodes sit at ``-L + (i + 1/2) h`` per axis with
``h = 2L/N``, so no node ever lands on a singular radius such as ``|x| = 0``.
The matching frequency lattice has spacing ``1/(2L)`` and per-axis extent
``[-N/(4L), N/(4L))``; with these conventions the discrete transform below is
an exact discretization of ``fhat(xi) = \\int f(x) exp(-2 pi i <x, xi>) dx``,
the roundtrip is exact, and the discrete Plancherel identity

    h^d * sum |f|^2  ==  (1/(2L))^d * sum |fhat|^2

holds to rounding.  Functions are implicitly zero-extended outside the cube;
FFT-backed operators inherit a periodization error controlled by keeping the
support of f well inside the cube.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.fft as _fft

__all__ = [
    "GridSpec",
    "GridFunction",
    "VectorField",
    "make_grid",
    "sample",
    "forward_transform",
    "inverse_transform",
    "node_coordinates",
    "frequency_radii",
    "fft_workers",
    "PreconditionError",
]


class PreconditionError(ValueError):
    """An operator's declared precondition on its dimensions or exponents
    fails, so the operator is not defined there; scans record such rows as
    errors instead of aborting."""


def fft_workers() -> int:
    """Worker cap for FFT calls: MAXOP_THREADS if set, else the number of CPUs
    this process may run on (a cpuset can hold fewer than the host has)."""
    env = os.environ.get("MAXOP_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"MAXOP_THREADS must be an integer >= 1, got {env!r}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer >= ``least``; integral floats
    such as 16.0 are accepted.  Anything else raises ValueError."""
    try:
        ok = float(value).is_integer() and value >= least
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid on the cube [-L, L]^d with N nodes per axis."""

    d: int
    L: float
    N: int

    def __post_init__(self):
        d, N = _integer(self.d, "dimension d", 1), _integer(self.N, "N", 4)
        if not (0.0 < float(self.L) < math.inf):
            raise ValueError(f"half-width L must be finite and positive, got {self.L}")
        if N % 2:
            raise ValueError(f"N must be an even integer >= 4, got {self.N}")
        for name, value in (("d", d), ("L", float(self.L)), ("N", N)):
            object.__setattr__(self, name, value)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    @property
    def size(self) -> int:
        return self.N**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def freq_step(self) -> float:
        return 1.0 / (2.0 * self.L)

    @property
    def freq_extent(self) -> float:
        """Per-axis frequency half-width N/(4L); radial support of a multiplier
        must stay below this to be representable without aliasing."""
        return self.N / (4.0 * self.L)

    def axis_nodes(self) -> np.ndarray:
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    def axis_freqs(self) -> np.ndarray:
        """Frequencies in ascending order, (j - N/2)/(2L) for j = 0..N-1."""
        return (np.arange(self.N) - self.N // 2) * self.freq_step


def make_grid(d: int, L: float, N: int) -> GridSpec:
    """Validate and build a GridSpec (h = 2L/N)."""
    return GridSpec(d=d, L=L, N=N)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def node_coordinates(spec: GridSpec) -> np.ndarray:
    """Node coordinates, shape spec.shape + (d,)."""
    axes = np.meshgrid(*([spec.axis_nodes()] * spec.d), indexing="ij")
    return _readonly(np.stack(axes, axis=-1))


def frequency_radii(spec: GridSpec) -> np.ndarray:
    """|xi| on the ascending frequency lattice of :func:`forward_transform`."""
    ax = spec.axis_freqs()
    grids = np.meshgrid(*([ax] * spec.d), indexing="ij")
    return _readonly(np.sqrt(sum(g**2 for g in grids)))


@dataclass(frozen=True)
class GridFunction:
    """Real, finite samples of a function at the nodes of a GridSpec.

    The constructor rejects complex, wrongly shaped and non-finite values and
    stores a read-only float copy; every operator returns a fresh
    GridFunction, so instances are safe to share across threads.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("grid functions hold real samples, got complex values")
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.spec.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", _readonly(vals))


def _wrap(spec: GridSpec, values: np.ndarray) -> GridFunction:
    # internal constructor that skips the defensive copy and the checks
    gf = object.__new__(GridFunction)
    object.__setattr__(gf, "spec", spec)
    object.__setattr__(gf, "values", _readonly(values))
    return gf


@dataclass(frozen=True)
class VectorField:
    """Finite truncation of an l^q-valued function: members share one GridSpec."""

    members: tuple[GridFunction, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("VectorField must have at least one member")
        spec = members[0].spec
        for m in members[1:]:
            if m.spec != spec:
                raise ValueError("all VectorField members must share one GridSpec")
        object.__setattr__(self, "members", members)

    @property
    def spec(self) -> GridSpec:
        return self.members[0].spec

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _stack(f: GridFunction | VectorField) -> np.ndarray:
    """Values of a GridFunction, or of every member of a VectorField, stacked
    along a new leading axis."""
    members = f.members if isinstance(f, VectorField) else (f,)
    return np.stack([m.values for m in members])


def _unstack(f: GridFunction | VectorField, out: np.ndarray) -> GridFunction | VectorField:
    """``out``, one result per member along its leading axis, as ``f``'s kind."""
    if isinstance(f, VectorField):
        return VectorField(tuple(_wrap(f.spec, o) for o in out))
    return _wrap(f.spec, out[0])


def sample(spec: GridSpec, field: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Sample ``field`` at the cell-centered nodes.

    ``field`` receives an array of shape (..., d) (last axis = coordinates)
    and must return values broadcastable to spec.shape; the GridFunction
    constructor rejects complex and non-finite samples.
    """
    return GridFunction(spec, np.broadcast_to(field(node_coordinates(spec)), spec.shape))


@lru_cache(maxsize=32)
def _forward_phase(N: int) -> np.ndarray:
    k = np.arange(N) - N // 2
    return _readonly(np.where(k % 2 == 0, 1.0, -1.0) * np.exp(-1j * np.pi * k / N))


def _apply_axis_phases(a: np.ndarray, phase: np.ndarray, d: int) -> np.ndarray:
    for ax in range(d):
        shape = [1] * d
        shape[ax] = phase.size
        a = a * phase.reshape(shape)
    return a


def forward_transform(f: GridFunction) -> np.ndarray:
    """Discrete version of fhat(xi) = int f(x) exp(-2 pi i <x, xi>) dx: the
    complex spectrum on the ascending frequency lattice of ``f.spec``."""
    spec = f.spec
    g = _fft.fftn(f.values, workers=fft_workers())
    g = np.fft.fftshift(g)
    g = _apply_axis_phases(g, _forward_phase(spec.N), spec.d)
    g *= spec.cell_volume
    return g


def inverse_transform(spec: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """Two-sided inverse of :func:`forward_transform` (exact up to rounding):
    the complex node samples of a spectrum on the frequency lattice of ``spec``."""
    if np.shape(fhat) != spec.shape:
        raise ValueError(f"spectrum shape {np.shape(fhat)} != grid shape {spec.shape}")
    g = np.asarray(fhat, dtype=np.complex128)
    g = _apply_axis_phases(g, np.conj(_forward_phase(spec.N)), spec.d)
    g = np.fft.ifftshift(g)
    out = _fft.ifftn(g, workers=fft_workers())
    out *= spec.size * spec.freq_step**spec.d
    return out
