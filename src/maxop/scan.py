"""Experiment driver: dimension/exponent sweeps of mixed-norm ratios.

A scan fixes one operator and one test-function family, then walks the
requested dimensions and (p, q) exponent pairs, recording the mixed-norm
ratio ||op F|| / ||F|| per row.  Each operator is one entry of
:data:`OPERATORS`, which also fixes its default grid, whether its data carry
the Grushin u-axis, and which part of (p, q) its output depends on (only the
descent split does).  Operator outputs are computed once per dimension and
such key and shared among the exponent rows.  Everything is seeded, and rows
are sorted before emission, so a config re-run on one machine reproduces the
CSV byte for byte apart from the wall_ms column.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Hashable

import numpy as np

from .families import FAMILIES, family_values
from .grid import GridFunction, GridSpec, PreconditionError, VectorField, _wrap, node_coordinates
from .grushin import cc_domination_note, grushin_maximal, iterated_maximal, min_node_gap
from .maximal import RadiiSet, default_radii, hl_maximal, weighted_maximal
from .multiplier import dyadic_piece, maximal_multiplier, spherical_maximal
from .norms import mixed_norm
from .rotations import DescentSplit, descent_maximal, dimension_split, haar_rotation
from .squarefn import default_tgrid, square_function

CSV_HEADER = "operator,d,p,q,family,n_members,input_norm,output_norm,ratio,wall_ms,extra"

__all__ = [
    "OPERATORS",
    "ScanConfig",
    "ScanRow",
    "ScanReport",
    "run_scan",
    "emit_csv",
    "emit_plotdata",
    "csv_text",
    "report_violations",
]


def default_grid(d: int) -> tuple[float, int]:
    """Per-dimension grid defaults keeping any scan row desk-scale."""
    if d <= 3:
        return (4.0, 32)
    if d <= 5:
        return (4.0, 16)
    return (4.0, 8)


def _grushin_default_grid(d: int) -> tuple[float, int]:
    if d == 1:
        return (3.0, 12)
    if d == 2:
        return (3.0, 10)
    return (3.0, 8)


def _is_int(v) -> bool:
    return float(v).is_integer()


@dataclass(frozen=True)
class ScanConfig:
    """Flat scan configuration; JSON files use exactly these field names."""

    operator: str = "HL"
    d_range: tuple[int, ...] = (1, 2, 3)
    p_list: tuple[float, ...] = (2.0,)
    q_list: tuple[float, ...] = (2.0,)
    family: str = "gaussian"
    n_members: int = 4
    grid: tuple[float, int] | None = None  # (L, N); None -> per-d defaults
    radii_K: int = 32
    seed: int = 0
    l: int = 1  # dyadic index for MULT_L / SQFN
    k: int = 1  # weight exponent for HL_weighted

    def __post_init__(self):
        # plain arithmetic only, so building a config stays cheap: no grid,
        # radii or profile is built here
        if self.operator not in OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}; choose from {tuple(OPERATORS)}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not all(_is_int(d) and d >= 1 for d in self.d_range):
            raise ValueError(f"dimensions must be integers >= 1, got {self.d_range}")
        object.__setattr__(self, "d_range", tuple(int(v) for v in self.d_range))
        object.__setattr__(self, "p_list", tuple(float(v) for v in self.p_list))
        object.__setattr__(self, "q_list", tuple(float(v) for v in self.q_list))
        if self.grid is not None:
            L, N = float(self.grid[0]), self.grid[1]
            if not (0.0 < L < math.inf and _is_int(N) and N >= 4 and N % 2 == 0):
                raise ValueError(f"grid needs a finite L > 0 and an even integer N >= 4, got {self.grid}")
            object.__setattr__(self, "grid", (L, int(N)))
        if not all(p > 1.0 for p in self.p_list):
            raise ValueError(f"exponents p must be > 1 (or inf), got {self.p_list}")
        if not all(1.0 < q < math.inf for q in self.q_list):
            raise ValueError(f"exponents q must be finite and > 1, got {self.q_list}")
        if not (_is_int(self.n_members) and self.n_members >= 1):
            raise ValueError(f"n_members must be an integer >= 1, got {self.n_members}")
        if not (_is_int(self.radii_K) and self.radii_K >= 2):
            raise ValueError(f"radii_K must be an integer >= 2, got {self.radii_K}")
        if not (_is_int(self.k) and self.k >= 0):
            raise ValueError(f"weight exponent k must be a nonnegative integer, got {self.k}")
        if not (_is_int(self.l) and self.l >= (1 if self.operator == "SQFN" else 0)):
            raise ValueError(
                f"dyadic index l must be a nonnegative integer (>= 1 for SQFN), got {self.l}"
            )
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")

    @classmethod
    def from_json(cls, path: str) -> "ScanConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, **kwargs) -> "ScanConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass(frozen=True)
class ScanRow:
    operator: str
    d: int
    p: float
    q: float
    family: str
    n_members: int
    input_norm: float
    output_norm: float
    ratio: float
    wall_ms: float
    extra: str = ""


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: (r.operator, r.d, r.p, r.q)))
        object.__setattr__(self, "rows", ordered)


def _decay_slope_extra(spec: GridSpec, member: GridFunction) -> str:
    """log-log slope of the leading member over the first-axis ray, fitted on
    the radii window [2, 4] (clipped to the grid)."""
    vals = member.values
    center = (spec.N // 2,) * (spec.d - 1)
    ray = vals[(slice(None),) + center] if spec.d > 1 else vals
    x1 = spec.axis_nodes()
    rad = np.sqrt(x1**2 + (spec.d - 1) * (spec.h / 2.0) ** 2)
    sel = (rad >= 2.0) & (rad <= min(4.0, spec.L - spec.h)) & (x1 > 0) & (ray > 0)
    if np.count_nonzero(sel) < 3:
        return ""
    slope = np.polyfit(np.log(rad[sel]), np.log(ray[sel]), 1)[0]
    return f"slope={float(slope)!r}"


# Each apply function maps (config, grid, input members, pq key) to the output
# members and the row's extra field.


def _apply_hl(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    radii = default_radii(spec, cfg.radii_K)
    return hl_maximal(F, radii).members, ""


def _apply_hl_weighted(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    radii = default_radii(spec, cfg.radii_K)
    return weighted_maximal(F, cfg.k, radii).members, ""


def _apply_sph(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    radii = default_radii(spec, cfg.radii_K)
    out = [spherical_maximal(m, radii) for m in F]
    extra = _decay_slope_extra(spec, out[0]) if cfg.family == "remark_bump" else ""
    return out, extra


def _apply_mult_l(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    radii = default_radii(spec, cfg.radii_K)
    piece = dyadic_piece(spec.d, cfg.l)
    return [maximal_multiplier(m, piece, radii) for m in F], ""


def _apply_sqfn(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    piece = dyadic_piece(spec.d, cfg.l)
    tg = default_tgrid(piece, spec)
    return [square_function(m, piece, tg) for m in F], ""


def _apply_descent(cfg: ScanConfig, spec: GridSpec, F: VectorField, d_prime) -> tuple[list, str]:
    split = DescentSplit(spec.d, d_prime)
    theta = haar_rotation(spec.d, cfg.seed)
    rs = RadiiSet(tuple(np.geomspace(spec.h, spec.L / 2.0, min(cfg.radii_K, 8))))
    return [descent_maximal(m, theta, split, rs, seed=cfg.seed) for m in F], f"d_prime={d_prime}"


def _apply_mk(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    rk = RadiiSet(tuple(np.geomspace(0.9 * min_node_gap(spec), 1.2, min(cfg.radii_K, 8))))
    return [grushin_maximal(m, rk) for m in F], f"cc_note={cc_domination_note()}"


def _apply_mk_iter(cfg: ScanConfig, spec: GridSpec, F: VectorField, key) -> tuple[list, str]:
    d = spec.d - 1
    rx = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L * math.sqrt(d), cfg.radii_K)))
    ru = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L, cfg.radii_K)))
    return [iterated_maximal(m, rx, ru) for m in F], f"cc_note={cc_domination_note()}"


def _no_pq_key(p: float, q: float) -> None:
    return None


@dataclass(frozen=True)
class Operator:
    """A scan operator and the grid its data live on."""

    apply: Callable[[ScanConfig, GridSpec, VectorField, Hashable], tuple[list, str]]
    default_grid: Callable[[int], tuple[float, int]] = default_grid
    # Grushin operators: a row's d counts the x-axes, and the data carry one
    # more axis, u, so they live on GridSpec(d + 1, L, N)
    u_axis: bool = False
    # the part of (p, q) the output depends on; rows sharing it share one
    # operator evaluation
    pq_key: Callable[[float, float], Hashable] = _no_pq_key


OPERATORS: dict[str, Operator] = {
    "HL": Operator(_apply_hl),
    "HL_weighted": Operator(_apply_hl_weighted),
    "SPH": Operator(_apply_sph),
    "MULT_L": Operator(_apply_mult_l),
    "SQFN": Operator(_apply_sqfn),
    "DESCENT": Operator(_apply_descent, pq_key=dimension_split),
    "MK": Operator(_apply_mk, _grushin_default_grid, u_axis=True),
    "MK_iter": Operator(_apply_mk_iter, _grushin_default_grid, u_axis=True),
}


def _field(cfg: ScanConfig, op: Operator, d: int) -> tuple[GridSpec, VectorField]:
    L, N = cfg.grid if cfg.grid is not None else op.default_grid(d)
    spec = GridSpec(d + 1 if op.u_axis else d, L, N)
    vals = family_values(cfg.family, node_coordinates(spec), cfg.n_members, cfg.seed, L)
    return spec, VectorField(tuple(_wrap(spec, v, "physical") for v in vals))


def run_scan(cfg: ScanConfig) -> ScanReport:
    """Execute the sweep; a failed declared precondition (PreconditionError)
    becomes an error-tagged row, and any other exception propagates.

    A row's wall_ms is the time of the field sampling and operator evaluation
    it shares, repeated on every row that shares it, plus its own norm time.
    """
    op = OPERATORS[cfg.operator]
    rows: list[ScanRow] = []
    for d in cfg.d_range:
        cache: dict = {}
        for p in cfg.p_list:
            for q in cfg.q_list:
                t0 = time.perf_counter()
                op_ms = 0.0
                try:
                    key = op.pq_key(p, q)
                    if key not in cache:
                        spec, F = _field(cfg, op, d)
                        outs, extra = op.apply(cfg, spec, F, key)
                        op_ms = (time.perf_counter() - t0) * 1000.0
                        t0 = time.perf_counter()
                        cache[key] = (F, VectorField(tuple(outs)), extra, op_ms)
                    F, G, extra, op_ms = cache[key]
                    inn = mixed_norm(F, p, q)
                    out = mixed_norm(G, p, q)
                    values = dict(input_norm=inn, output_norm=out, ratio=out / inn, extra=extra)
                except PreconditionError as exc:
                    nan = float("nan")
                    values = dict(input_norm=nan, output_norm=nan, ratio=nan, extra=f"error={exc}")
                wall = op_ms + (time.perf_counter() - t0) * 1000.0
                rows.append(ScanRow(cfg.operator, d, p, q, cfg.family, cfg.n_members, wall_ms=wall, **values))
    return ScanReport(tuple(rows))


def _fmt(x: float) -> str:
    return repr(float(x))


def csv_text(report: ScanReport, mask_wall: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in report.rows:
        writer.writerow(
            [
                r.operator,
                r.d,
                _fmt(r.p),
                _fmt(r.q),
                r.family,
                r.n_members,
                _fmt(r.input_norm),
                _fmt(r.output_norm),
                _fmt(r.ratio),
                "masked" if mask_wall else _fmt(r.wall_ms),
                r.extra,
            ]
        )
    return buf.getvalue()


def emit_csv(report: ScanReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(report))


def emit_plotdata(report: ScanReport, path: str) -> None:
    """Per-(p, q) series of (d, ratio) pairs in whitespace-delimited blocks."""
    groups: dict[tuple, list[ScanRow]] = {}
    for r in report.rows:
        if math.isnan(r.ratio):
            continue
        groups.setdefault((r.operator, r.family, r.n_members, r.p, r.q), []).append(r)
    with open(path, "w") as fh:
        first = True
        for key in sorted(groups):
            op, fam, n, p, q = key
            if not first:
                fh.write("\n")
            first = False
            fh.write(f"# operator={op} family={fam} n_members={n} p={_fmt(p)} q={_fmt(q)}\n")
            for r in sorted(groups[key], key=lambda r: r.d):
                fh.write(f"{r.d} {_fmt(r.ratio)}\n")


def report_violations(report: ScanReport) -> list[str]:
    """Contract checks on a finished report (exit-code-2 conditions)."""
    bad = []
    for r in report.rows:
        if math.isnan(r.ratio):
            continue
        if not math.isfinite(r.ratio):
            bad.append(f"{r.operator} d={r.d} p={r.p} q={r.q}: ratio not finite")
        if abs(r.ratio - r.output_norm / r.input_norm) > 1e-12 * max(1.0, r.ratio):
            bad.append(f"{r.operator} d={r.d} p={r.p} q={r.q}: ratio inconsistent")
        if r.operator == "HL" and r.ratio < 1.0 - 1e-12:
            bad.append(f"HL d={r.d} p={r.p} q={r.q}: ratio {r.ratio} < 1")
        if r.wall_ms < 0:
            bad.append(f"{r.operator} d={r.d}: negative wall_ms")
    return bad
