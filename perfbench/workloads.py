"""Benchmark workloads: seeded inputs, the timed calls into maxop, and the
correctness gate that judges their outputs.

Each workload is one closed-loop job with a single caller, made of parts.
A part's ``make_inputs`` turns the benchmark seed into the inputs the program
sees, ``run`` makes the timed calls through the public ``maxop`` package
attributes (so the tracer can wrap them where they are looked up), and
``flatten`` reduces the results to named float vectors.  ``check`` compares
those vectors with the stored references and with the package's own
invariants, which are all that seeds without references get.  Operations are
caught one by one, so one failing call is counted and the rest of the
workload still runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import maxop
from maxop.scan import ScanReport, _grushin_default_grid, default_grid, report_violations

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Norm-wise relative tolerance per output family: max|out - ref| / max|ref|.
# Each is tied to the accuracy the producing code states, with headroom for a
# later change that only reorders floating-point work.
TOLERANCES = {
    # lattice sums and FFT convolutions are exact up to rounding (~1e-14)
    "lattice": 1e-10,
    # multiplier profiles carry 1e-10 quadrature stationarity and ~1e-12
    # spline error; 100x headroom for their passage through FFTs and norms
    "fourier": 1e-8,
    # decay c1/c2 are sups of profile samples: 1e-10 absolute on values of
    # size >= 2^(-l(d-1)/2) >= 1/64 here, so ~6e-9 relative at worst
    "decay_profile": 1e-7,
    # decay c3 comes from cosine tables built to abs_tol 1e-6 * 2^l;
    # tightening that tolerance 100-fold moves c3 by ~1e-7 relative
    "decay_kernel": 1e-5,
    # FFT kernel samples of a profile accurate to 1e-10
    "kernel": 1e-8,
    # Funk-Hecke values, ladders run to 1e-10 stationarity
    "funk_hecke": 1e-8,
}
# criterion 5 of maxop.checks: FFT kernel vs Funk-Hecke, relative error
# wherever both exceed KERNEL_FLOOR
KERNEL_CROSS_RTOL = 1e-3
KERNEL_FLOOR = 1e-6

_LATTICE_OPS = ("HL", "HL_weighted", "DESCENT", "MK", "MK_iter")
# operators whose output dominates |f| pointwise (smallest radius keeps only
# the centre node), so every mixed-norm ratio is >= 1
_DOMINATING_OPS = ("HL", "MK", "MK_iter")


# output-key prefixes whose values do not depend on the seed
SEED_FREE = ("decay", "kernel")


@dataclass(frozen=True)
class Part:
    """One group of calls: its inputs, timed run, outputs and invariants."""

    make_inputs: Callable[[int], dict]
    run: Callable[[dict], dict]
    flatten: Callable[[dict], dict]
    invariants: Callable[[dict, dict], dict]
    sizes: Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]

    def make_inputs(self, seed: int) -> list:
        return [part.make_inputs(seed) for part in self.parts]

    def run(self, inputs: list) -> list:
        return [part.run(i) for part, i in zip(self.parts, inputs)]

    def flatten(self, results: list) -> dict:
        return {k: v for part, r in zip(self.parts, results) for k, v in part.flatten(r).items()}

    def invariants(self, inputs: list, results: list) -> dict:
        return {k: v for part, i, r in zip(self.parts, inputs, results) for k, v in part.invariants(i, r).items()}

    def sizes(self, inputs: list) -> list:
        return [s for part, i in zip(self.parts, inputs) for s in part.sizes(i)]


def _call(fn, *args, **kwargs):
    """One operation: its result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by check()
        return exc


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- scan workloads -----------------------------------------------------------


def _row_key(op: str, d: int, p: float, q: float) -> str:
    return f"{op} d={d} p={p:g} q={q:g}"


def _expected_keys(cfg: maxop.ScanConfig) -> list[str]:
    return [_row_key(cfg.operator, d, p, q) for d in cfg.d_range for p in cfg.p_list for q in cfg.q_list]


def _scan_part(configs: list[dict]) -> Part:
    def make_inputs(seed: int) -> dict:
        cfgs = [maxop.ScanConfig(family="random_bumps", seed=seed, **kw) for kw in configs]
        return {"configs": cfgs}

    def run(inputs: dict) -> dict:
        return {cfg.operator: (cfg, _call(maxop.run_scan, cfg)) for cfg in inputs["configs"]}

    def flatten(results: dict) -> dict:
        flat: dict = {}
        for cfg, report in results.values():
            if isinstance(report, Exception):
                for key in _expected_keys(cfg):
                    flat[key] = _error(report)
                continue
            for key in _expected_keys(cfg):
                flat[key] = "missing row"
            for r in report.rows:
                key = _row_key(r.operator, r.d, r.p, r.q)
                flat[key] = r.extra if r.extra.startswith("error=") else [r.ratio]
        return flat

    def invariants(inputs: dict, results: dict) -> dict:
        problems: dict = {}
        for cfg, report in results.values():
            if isinstance(report, Exception):
                continue
            for r in report.rows:
                bad = report_violations(ScanReport((r,)))
                if r.operator in _DOMINATING_OPS and not r.ratio >= 1.0 - 1e-12:
                    bad.append(f"ratio {r.ratio} < 1 although the operator dominates |f|")
                if bad:
                    problems[_row_key(r.operator, r.d, r.p, r.q)] = bad
        return problems

    def sizes(inputs: dict) -> list:
        out = []
        for cfg in inputs["configs"]:
            for d in cfg.d_range:
                if cfg.operator in ("MK", "MK_iter"):
                    L, N = cfg.grid or _grushin_default_grid(d)
                    shape = [N] * (d + 1)
                else:
                    L, N = cfg.grid or default_grid(d)
                    shape = [N] * d
                if cfg.operator in ("MK", "DESCENT"):
                    radii = min(cfg.radii_K, 8)
                elif cfg.operator == "SQFN":  # dilations of the square function
                    radii = len(maxop.default_tgrid(maxop.bump(cfg.l), maxop.make_grid(d, L, N)))
                else:  # MK_iter uses radii_K radii in x and in u
                    radii = cfg.radii_K
                out.append({
                    "operator": cfg.operator, "d": d, "grid_shape": shape, "L": L,
                    "n_members": cfg.n_members, "radii": radii,
                    "pq_rows": len(cfg.p_list) * len(cfg.q_list),
                })
        return out

    return Part(make_inputs, run, flatten, invariants, sizes)


_PQ = dict(p_list=(2.0, 3.0), q_list=(1.5, 2.0))

# the maximal stencil engine down both paths (d=2 exact, d=3,4 padded FFT)
HL_SCANS = _scan_part([
    dict(operator="HL", d_range=(2, 3, 4), n_members=2, **_PQ),
    dict(operator="HL_weighted", k=1, d_range=(2, 3, 4), n_members=2, **_PQ),
])
# Python-loop-bound: 8 x 1024 ndimage.shift calls, the per-node Koranyi loop
# and many tiny exact-path maximal calls on MK_iter u-slices
GEOMETRY_SCANS = _scan_part([
    dict(operator="DESCENT", d_range=(3,), grid=(4.0, 16), n_members=1),
    dict(operator="MK", d_range=(1, 2), n_members=2),
    dict(operator="MK_iter", d_range=(1, 2, 3), n_members=2),
])
# profile(r|xi|) sampling (spline tables) and the grid transforms
MULTIPLIER_SCANS = _scan_part([
    dict(operator="SPH", d_range=(4,), n_members=2, **_PQ),
    dict(operator="MULT_L", l=1, d_range=(4,), n_members=2, **_PQ),
    dict(operator="SQFN", l=1, d_range=(3,), n_members=2, **_PQ),
])


# -- decay oracle part --------------------------------------------------------------

DECAY_D, DECAY_L_MAX = 5, 3
KERNEL_D, KERNEL_L, KERNEL_N, KERNEL_HALF_WIDTH = 3, (1, 2), 256, 8.0
FH_L = 1
FH_POINTS = 12
FH_WINDOW = 2.3  # criterion 5's radius window on the first axis


def _kernel_axis(spec: maxop.GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and radii of the first-axis ray (as criterion 5 samples
    it) inside the window 0 < x1, |x| <= FH_WINDOW."""
    x1 = spec.axis_nodes()
    rad = np.sqrt(x1**2 + 2 * (spec.h / 2.0) ** 2)
    idx = np.nonzero((x1 > 0) & (rad <= FH_WINDOW))[0]
    return idx, rad[idx]


def _decay_inputs(seed: int) -> dict:
    spec = maxop.make_grid(KERNEL_D, KERNEL_HALF_WIDTH, KERNEL_N)
    idx, rad = _kernel_axis(spec)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # the outermost node is always taken: the Funk-Hecke table grows with the
    # largest radius, so fixing it keeps the cost independent of the seed
    pick = np.sort(rng.choice(idx.size - 1, size=FH_POINTS - 1, replace=False))
    pick = np.append(pick, idx.size - 1)
    return {"spec": spec, "axis_idx": idx, "fh_pick": pick, "fh_radii": rad[pick]}


def _decay_run(inputs: dict) -> dict:
    spec = inputs["spec"]
    centre = spec.N // 2

    def kernel_on_axis(l: int) -> np.ndarray:
        # keep only the ray samples; the 256^3 array is dropped at once
        kern = maxop.kernel(maxop.dyadic_piece(KERNEL_D, l), spec)
        return kern.values[:, centre, centre][inputs["axis_idx"]].copy()

    results = {"decay": _call(maxop.decay_constants, DECAY_D, DECAY_L_MAX)}
    for l in KERNEL_L:
        results[f"kernel l={l}"] = _call(kernel_on_axis, l)
    results["funk_hecke"] = _call(maxop.funk_hecke_kernel, FH_L, KERNEL_D, inputs["fh_radii"], tol=1e-10)
    return results


def _decay_flatten(results: dict) -> dict:
    flat: dict = {}
    decay = results["decay"]
    for l in range(1, DECAY_L_MAX + 1):
        for col in ("c1", "c2", "c3"):
            key = f"decay d={DECAY_D} l={l} {col}"
            flat[key] = _error(decay) if isinstance(decay, Exception) else [float(getattr(decay[l - 1], col))]
    vectors = {f"kernel d={KERNEL_D} l={l}": results[f"kernel l={l}"] for l in KERNEL_L}
    vectors[f"funk_hecke d={KERNEL_D} l={FH_L}"] = results["funk_hecke"]
    for key, val in vectors.items():
        flat[key] = _error(val) if isinstance(val, Exception) else [float(v) for v in val]
    return flat


def _decay_invariants(inputs: dict, results: dict) -> dict:
    fh, fft = results["funk_hecke"], results[f"kernel l={FH_L}"]
    if isinstance(fh, Exception) or isinstance(fft, Exception):
        return {}
    fft = fft[inputs["fh_pick"]]
    strong = np.minimum(np.abs(fft), np.abs(fh)) >= KERNEL_FLOOR
    rel = np.abs(fft - fh)[strong] / np.abs(fh)[strong]
    bad = []
    if not np.any(strong):
        bad.append("no sample above the kernel floor")
    elif float(rel.max()) > KERNEL_CROSS_RTOL:
        bad.append(f"FFT vs Funk-Hecke relative error {float(rel.max()):.3e} > {KERNEL_CROSS_RTOL}")
    return {f"funk_hecke d={KERNEL_D} l={FH_L}": bad} if bad else {}


def _decay_sizes(inputs: dict) -> list:
    return [
        {"call": "decay_constants", "d": DECAY_D, "l_max": DECAY_L_MAX},
        {"call": "kernel", "d": KERNEL_D, "l": list(KERNEL_L), "grid_shape": list(inputs["spec"].shape),
         "L": KERNEL_HALF_WIDTH, "axis_samples": int(inputs["axis_idx"].size)},
        {"call": "funk_hecke_kernel", "d": KERNEL_D, "l": FH_L, "radii": int(inputs["fh_radii"].size),
         "window": [0.0, FH_WINDOW]},
    ]


# cosine-table fills, Gauss-Jacobi rules, quadrature ladders and the
# memory-bound 256^3 kernel irfftns
DECAY_ORACLE = Part(_decay_inputs, _decay_run, _decay_flatten, _decay_invariants, _decay_sizes)

WORKLOADS = {w.name: w for w in (
    Workload(
        "lattice_scan",
        "real-space lattice operators: HL stencil engine (exact and FFT paths), rotation descent, Koranyi; no multiplier code",
        (HL_SCANS, GEOMETRY_SCANS),
    ),
    Workload(
        "fourier_scan",
        "multiplier operators, decay constants, 256^3 kernels and Funk-Hecke: profiles, quadrature, FFTs; no lattice stencil",
        (MULTIPLIER_SCANS, DECAY_ORACLE),
    ),
)}


def tolerance(key: str) -> float:
    """Tolerance of one output, from the family its key names."""
    head = key.split(" ", 1)[0]
    if head == "decay":
        return TOLERANCES["decay_kernel" if key.endswith("c3") else "decay_profile"]
    if head in ("kernel", "funk_hecke"):
        return TOLERANCES[head]
    return TOLERANCES["lattice" if head in _LATTICE_OPS else "fourier"]


# -- correctness gate -------------------------------------------------------------


def load_refs(name: str) -> dict:
    path = REFS_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def reference_for(refs: dict, seed: int) -> dict:
    """Stored outputs that apply to this seed: its own, plus seed-free ones."""
    out = {k: v for k, v in refs.get("any", {}).items() if k.startswith(SEED_FREE)}
    out.update(refs.get(str(seed), {}))
    return out


def rel_dev(out: list, ref: list) -> float:
    """Norm-wise relative deviation max|out - ref| / max|ref|."""
    a, b = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return math.inf
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    return dev / scale if scale > 0 else (0.0 if dev == 0 else math.inf)


def check(flat: dict, problems: dict, refs: dict) -> dict:
    """Judge one run's outputs.

    An operation fails if it raised or returned an error row, if it violates
    an invariant, or if it deviates from its stored reference by more than
    its tolerance.  Returns counts, the largest deviation from a reference,
    and the reasons for each failure.
    """
    failures: dict = {}
    max_rel = 0.0
    for key, val in flat.items():
        reasons = list(problems.get(key, []))
        if isinstance(val, str):
            reasons.append(val)
        elif key in refs:
            dev = rel_dev(val, refs[key])
            if math.isfinite(dev):  # keeps the result JSON valid; inf fails below
                max_rel = max(max_rel, dev)
            tol = tolerance(key)
            if not dev <= tol:
                reasons.append(f"deviates {dev:.3e} from reference (tolerance {tol:.0e})")
        if reasons:
            failures[key] = reasons
    return {
        "attempted": len(flat),
        "failed": len(failures),
        "max_rel_err": max_rel,
        "compared": sum(1 for key in flat if key in refs),
        "failures": failures,
    }
