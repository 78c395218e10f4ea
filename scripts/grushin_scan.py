#!/usr/bin/env python3
"""Grushin experiment: Koranyi maximal operator vs the iterated 1-D/ball
operator that dominates it, across x-dimensions 1..3, plus the measured
domination constant per dimension."""

import math
import pathlib

import numpy as np

from maxop.grid import make_grid, sample
from maxop.grushin import grushin_maximal, iterated_maximal, min_node_gap
from maxop.maximal import RadiiSet
from maxop.scan import ScanConfig, emit_csv, run_scan

OUT = pathlib.Path(__file__).resolve().parent.parent / "outputs"

CONFIGS = [
    ScanConfig(
        operator=operator,
        d_range=(1, 2, 3),
        p_list=(2.0,),
        q_list=(2.0, 1.5),
        family="gaussian",
        n_members=3,
        seed=0,
    )
    for operator in ("MK", "MK_iter")
]


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for cfg in CONFIGS:
        report = run_scan(cfg)
        emit_csv(report, str(OUT / f"grushin_scan_{cfg.operator.lower()}.csv"))
        for row in report.rows:
            print(f"{row.operator} d={row.d} p={row.p} q={row.q}: ratio={row.ratio:.6f}")

    print("\nmeasured domination constants M_K <= C * M_x(M_u):")
    for d, N in ((1, 16), (2, 12), (3, 8)):
        grid = make_grid(d + 1, 3.0, N)  # d x-axes, then the u-axis
        f = sample(grid, lambda p: np.exp(-np.sum(p**2, -1)))
        rk = RadiiSet(tuple(np.geomspace(0.9 * min_node_gap(grid), 1.2, 8)))
        rx = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L * math.sqrt(d), 16)))
        ru = RadiiSet(tuple(np.geomspace(grid.h, 2 * grid.L, 16)))
        ratio = grushin_maximal(f, rk).values / iterated_maximal(f, rx, ru).values
        print(f"  d={d}: C_meas = {float(ratio.max()):.4f}")


if __name__ == "__main__":
    main()
