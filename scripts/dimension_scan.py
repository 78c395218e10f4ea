#!/usr/bin/env python3
"""Headline experiment: mixed-norm ratios of the ball maximal operator and
the first dyadic multiplier piece across dimensions 1..5.

Writes CSV + plot-ready series under outputs/.
"""

import pathlib

from maxop.scan import ScanConfig, emit_csv, emit_plotdata, run_scan

OUT = pathlib.Path(__file__).resolve().parent.parent / "outputs"

CONFIGS = [
    ScanConfig(
        operator=operator,
        d_range=(1, 2, 3, 4, 5),
        p_list=(2.0, 3.0),
        q_list=(2.0, 1.5),
        family="gaussian",
        n_members=4,
        seed=0,
        l=1,
    )
    for operator in ("HL", "MULT_L")
]


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for cfg in CONFIGS:
        report = run_scan(cfg)
        emit_csv(report, str(OUT / f"dimension_scan_{cfg.operator.lower()}.csv"))
        emit_plotdata(report, str(OUT / f"dimension_scan_{cfg.operator.lower()}.dat"))
        for row in report.rows:
            print(
                f"{row.operator} d={row.d} p={row.p} q={row.q}: ratio={row.ratio:.6f}"
                + (f"  [{row.extra}]" if row.extra else "")
            )


if __name__ == "__main__":
    main()
