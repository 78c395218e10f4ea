"""Uniform tensor grids on [-L, L]^d and a Plancherel-faithful Fourier transform.

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
    "node_radii",
    "frequency_radii",
    "fft_workers",
    "PreconditionError",
]


class PreconditionError(ValueError):
    """An operator's declared precondition on its dimensions or exponents
    fails, so the operator is not defined there; scans record such rows as
    errors instead of aborting."""


def fft_workers() -> int:
    """Worker cap for FFT calls; MAXOP_THREADS overrides the CPU count."""
    env = os.environ.get("MAXOP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"MAXOP_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered uniform grid on the cube [-L, L]^d with N nodes per axis."""

    d: int
    L: float
    N: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not (self.L > 0):
            raise ValueError(f"half-width L must be positive, got {self.L}")
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be an even integer >= 4, got {self.N}")

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
    return GridSpec(d=int(d), L=float(L), N=int(N))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def node_coordinates(spec: GridSpec) -> np.ndarray:
    """Node coordinates, shape spec.shape + (d,)."""
    axes = np.meshgrid(*([spec.axis_nodes()] * spec.d), indexing="ij")
    return _readonly(np.stack(axes, axis=-1))

@lru_cache(maxsize=32)
def node_radii(spec: GridSpec) -> np.ndarray:
    return _readonly(np.sqrt(np.sum(node_coordinates(spec) ** 2, axis=-1)))


@lru_cache(maxsize=32)
def frequency_radii(spec: GridSpec) -> np.ndarray:
    ax = spec.axis_freqs()
    grids = np.meshgrid(*([ax] * spec.d), indexing="ij")
    return _readonly(np.sqrt(sum(g**2 for g in grids)))


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on a GridSpec, in the physical or frequency domain.

    Values are stored read-only; every operator returns a fresh GridFunction,
    so instances are safe to share across threads.
    """

    spec: GridSpec
    values: np.ndarray
    domain: str = "physical"

    def __post_init__(self):
        if self.domain not in ("physical", "frequency"):
            raise ValueError(f"domain must be 'physical' or 'frequency', got {self.domain!r}")
        vals = np.array(self.values)
        if vals.shape != self.spec.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.spec.shape}")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def require(self, domain: str) -> None:
        if self.domain != domain:
            raise ValueError(f"expected a {domain}-domain GridFunction, got {self.domain}")


def _wrap(spec: GridSpec, values: np.ndarray, domain: str) -> GridFunction:
    # internal constructor that skips the defensive copy
    gf = object.__new__(GridFunction)
    object.__setattr__(gf, "spec", spec)
    object.__setattr__(gf, "values", _readonly(values))
    object.__setattr__(gf, "domain", domain)
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


def sample(spec: GridSpec, field: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Sample ``field`` at the cell-centered nodes.

    ``field`` receives an array of shape (..., d) (last axis = coordinates)
    and must return values of shape (...).  Non-finite samples are rejected.
    """
    vals = np.asarray(field(node_coordinates(spec)), dtype=None)
    vals = np.broadcast_to(vals, spec.shape).astype(
        np.complex128 if np.iscomplexobj(vals) else np.float64
    )
    if not np.all(np.isfinite(vals)):
        raise ValueError("field produced non-finite values on the grid")
    return _wrap(spec, vals, "physical")


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


def forward_transform(f: GridFunction) -> GridFunction:
    """Discrete version of fhat(xi) = int f(x) exp(-2 pi i <x, xi>) dx.

    Output values live on the ascending frequency lattice of ``f.spec``.
    """
    f.require("physical")
    spec = f.spec
    g = _fft.fftn(f.values, workers=fft_workers())
    g = np.fft.fftshift(g)
    g = _apply_axis_phases(g, _forward_phase(spec.N), spec.d)
    g *= spec.cell_volume
    return _wrap(spec, g, "frequency")


def inverse_transform(fhat: GridFunction) -> GridFunction:
    """Two-sided inverse of :func:`forward_transform` (exact up to rounding)."""
    fhat.require("frequency")
    spec = fhat.spec
    g = _apply_axis_phases(fhat.values.astype(np.complex128), np.conj(_forward_phase(spec.N)), spec.d)
    g = np.fft.ifftshift(g)
    out = _fft.ifftn(g, workers=fft_workers())
    out *= spec.size * spec.freq_step**spec.d
    return _wrap(spec, out, "physical")
