#!/usr/bin/env python3
"""Grushin experiment: Koranyi maximal operator vs the iterated 1-D/ball
operator that dominates it, across x-dimensions 1..3, plus the measured
domination constant per dimension."""

import pathlib

from maxop.checks import _grushin_domination
from maxop.grid import make_grid
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

    # criterion 9's measurement: the largest M_K f / M_iter f over nodes and
    # its five bumps, and the largest L^2 norm ratio
    print("\nmeasured domination constants M_K <= C * M_x(M_u):")
    for d, N in ((1, 16), (2, 12), (3, 8)):
        grid = make_grid(d + 1, 3.0, N)  # d x-axes, then the u-axis
        c_meas, c_norm = _grushin_domination(grid)
        print(f"  d={d}: C_meas = {c_meas:.4f}, L2 ratio = {c_norm:.4f}")


if __name__ == "__main__":
    main()
