"""Experiment driver: dimension/exponent sweeps of mixed-norm ratios.

A scan fixes one operator and one test-function family, then walks the
requested dimensions and (p, q) exponent pairs, recording the mixed-norm
ratio ||op F|| / ||F|| per row.  Each operator is one entry of
:data:`OPERATORS`, which also fixes its default grid, whether its data carry
the Grushin u-axis, which part of (p, q) its output depends on (only the
descent split does), and whether its output dominates |f| pointwise.
Operator outputs are computed once per dimension and such key and shared
among the exponent rows.  Everything is seeded, and rows are sorted before
emission, so a config re-run on one machine reproduces the CSV byte for byte
apart from the wall_ms column.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Hashable

import numpy as np

from .families import FAMILIES, family_values
from .grid import GridFunction, GridSpec, PreconditionError, VectorField, _integer, _wrap, node_coordinates
from .grushin import cc_domination_note, grushin_maximal, iterated_maximal, min_node_gap
from .maximal import RadiiSet, default_radii, hl_maximal, weighted_maximal
from .multiplier import dyadic_piece, maximal_multiplier, spherical_maximal
from .norms import mixed_norm
from .rotations import DescentSplit, descent_maximal, dimension_split, haar_rotation
from .squarefn import default_tgrid, square_function

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


@dataclass(frozen=True)
class ScanConfig:
    """Flat scan configuration; JSON files and CLI flags use exactly these
    field names, and a field's ``help`` metadata is its flag's help text."""

    operator: str = "HL"
    d_range: tuple[int, ...] = field(default=(1, 2, 3), metadata={"help": "comma-separated dimensions"})
    p_list: tuple[float, ...] = (2.0,)
    q_list: tuple[float, ...] = (2.0,)
    family: str = "gaussian"
    n_members: int = 4
    grid: tuple[float, int] | None = field(default=None, metadata={"help": "L,N (default: per-dimension)"})
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
        d_range = tuple(_integer(d, "each dimension in d_range", 1) for d in self.d_range)
        object.__setattr__(self, "d_range", d_range)
        object.__setattr__(self, "p_list", tuple(float(v) for v in self.p_list))
        object.__setattr__(self, "q_list", tuple(float(v) for v in self.q_list))
        for name in ("d_range", "p_list", "q_list"):
            vals = getattr(self, name)
            if not vals or len(set(vals)) < len(vals):
                raise ValueError(f"{name} must be nonempty without repeats, got {vals}")
        if self.grid is not None:
            L, N = self.grid
            spec = GridSpec(1, L, N)
            object.__setattr__(self, "grid", (spec.L, spec.N))
        if not all(p > 1.0 for p in self.p_list):
            raise ValueError(f"exponents p must be > 1 (or inf), got {self.p_list}")
        if not all(1.0 < q < math.inf for q in self.q_list):
            raise ValueError(f"exponents q must be finite and > 1, got {self.q_list}")
        # the dyadic index l is >= 1 for SQFN
        counts = (("n_members", 1), ("radii_K", 2), ("k", 0), ("l", int(self.operator == "SQFN")), ("seed", 0))
        for name, least in counts:
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))

    @classmethod
    def from_json(cls, path: str) -> "ScanConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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


CSV_HEADER = ",".join(f.name for f in fields(ScanRow))


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: (r.operator, r.d, r.p, r.q)))
        object.__setattr__(self, "rows", ordered)


def _decay_window(member: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """(|x|, value) of a member on the positive first-axis ray through the
    grid's centre, at the positive values in the radii window [2, 4] (clipped
    to the grid), where its decay slope is fitted."""
    spec, vals = member.spec, member.values
    center = (spec.N // 2,) * (spec.d - 1)
    ray = vals[(slice(None),) + center] if spec.d > 1 else vals
    x1 = spec.axis_nodes()
    rad = np.sqrt(x1**2 + (spec.d - 1) * (spec.h / 2.0) ** 2)
    sel = (rad >= 2.0) & (rad <= min(4.0, spec.L - spec.h)) & (x1 > 0) & (ray > 0)
    return rad[sel], ray[sel]


def _decay_slope_extra(member: GridFunction) -> str:
    """log-log slope of the leading member over its decay window."""
    rad, ray = _decay_window(member)
    if rad.size < 3:
        return ""
    slope = np.polyfit(np.log(rad), np.log(ray), 1)[0]
    return f"slope={float(slope)!r}"


# Each apply function maps (config, input field, pq key) to the output field
# and the row's extra field.


def _apply_hl(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    return hl_maximal(F, default_radii(F.spec, cfg.radii_K)), ""


def _apply_hl_weighted(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    return weighted_maximal(F, cfg.k, default_radii(F.spec, cfg.radii_K)), ""


def _apply_sph(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    G = spherical_maximal(F, default_radii(F.spec, cfg.radii_K))
    return G, _decay_slope_extra(G.members[0]) if cfg.family == "remark_bump" else ""


def _apply_mult_l(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    piece = dyadic_piece(F.spec.d, cfg.l)
    return maximal_multiplier(F, piece, default_radii(F.spec, cfg.radii_K)), ""


def _apply_sqfn(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    piece = dyadic_piece(F.spec.d, cfg.l)
    return square_function(F, piece, default_tgrid(piece, F.spec)), ""


def _apply_descent(cfg: ScanConfig, F: VectorField, d_prime) -> tuple[VectorField, str]:
    spec = F.spec
    split = DescentSplit(spec.d, d_prime)
    theta = haar_rotation(spec.d, cfg.seed)
    rs = RadiiSet(tuple(np.geomspace(spec.h, spec.L / 2.0, min(cfg.radii_K, 8))))
    return descent_maximal(F, theta, split, rs, seed=cfg.seed), f"d_prime={d_prime}"


def _apply_mk(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    rk = RadiiSet(tuple(np.geomspace(0.9 * min_node_gap(F.spec), 1.2, min(cfg.radii_K, 8))))
    return grushin_maximal(F, rk), f"cc_note={cc_domination_note()}"


def _apply_mk_iter(cfg: ScanConfig, F: VectorField, key) -> tuple[VectorField, str]:
    spec = F.spec
    d = spec.d - 1
    rx = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L * math.sqrt(d), cfg.radii_K)))
    ru = RadiiSet(tuple(np.geomspace(spec.h, 2.0 * spec.L, cfg.radii_K)))
    return iterated_maximal(F, rx, ru), f"cc_note={cc_domination_note()}"


def _no_pq_key(p: float, q: float) -> None:
    return None


@dataclass(frozen=True)
class Operator:
    """A scan operator and the grid its data live on."""

    apply: Callable[[ScanConfig, VectorField, Hashable], tuple[VectorField, str]]
    default_grid: Callable[[int], tuple[float, int]] = default_grid
    # Grushin operators: a row's d counts the x-axes, and the data carry one
    # more axis, u, so they live on GridSpec(d + 1, L, N)
    u_axis: bool = False
    # the part of (p, q) the output depends on; rows sharing it share one
    # operator evaluation
    pq_key: Callable[[float, float], Hashable] = _no_pq_key
    # the output dominates |f| pointwise (its smallest radius keeps only the
    # center node), so a ratio below 1 is a fault
    dominates: bool = False


OPERATORS: dict[str, Operator] = {
    "HL": Operator(_apply_hl, dominates=True),
    "HL_weighted": Operator(_apply_hl_weighted),
    "SPH": Operator(_apply_sph),
    "MULT_L": Operator(_apply_mult_l),
    "SQFN": Operator(_apply_sqfn),
    "DESCENT": Operator(_apply_descent, pq_key=dimension_split),
    "MK": Operator(_apply_mk, _grushin_default_grid, u_axis=True, dominates=True),
    "MK_iter": Operator(_apply_mk_iter, _grushin_default_grid, u_axis=True, dominates=True),
}


def _field(cfg: ScanConfig, op: Operator, d: int) -> VectorField:
    L, N = cfg.grid if cfg.grid is not None else op.default_grid(d)
    spec = GridSpec(d + 1 if op.u_axis else d, L, N)
    vals = family_values(cfg.family, node_coordinates(spec), cfg.n_members, cfg.seed, L)
    return VectorField(tuple(_wrap(spec, v) for v in vals))


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
                        F = _field(cfg, op, d)
                        G, extra = op.apply(cfg, F, key)
                        op_ms = (time.perf_counter() - t0) * 1000.0
                        t0 = time.perf_counter()
                        cache[key] = (F, G, extra, op_ms)
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
        row = {f.name: _fmt(v) if f.type == "float" else v for f, v in zip(fields(r), astuple(r))}
        if mask_wall:
            row["wall_ms"] = "masked"
        writer.writerow(row.values())
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
        op = OPERATORS.get(r.operator)
        if op is not None and op.dominates and r.ratio < 1.0 - 1e-12:
            bad.append(f"{r.operator} d={r.d} p={r.p} q={r.q}: ratio {r.ratio} < 1")
        if r.wall_ms < 0:
            bad.append(f"{r.operator} d={r.d}: negative wall_ms")
    return bad
