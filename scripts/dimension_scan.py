#!/usr/bin/env python3
"""Headline experiment: mixed-norm ratios of the ball maximal operator and
the first dyadic multiplier piece across dimensions 1..5.

Writes CSV + plot-ready series under outputs/; the configs are the ones
criterion 10 of ``maxop check`` re-runs.
"""

import pathlib

from maxop.checks import _HEADLINE_CONFIGS as CONFIGS
from maxop.scan import emit_csv, emit_plotdata, run_scan

OUT = pathlib.Path(__file__).resolve().parent.parent / "outputs"


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
