"""Command-line driver: scans, decay tables, Grushin sweeps, and the
self-check suite.

Exit codes: 0 on success, 1 on usage errors, 2 on any failed contract
(report violations or failed checks).  MAXOP_THREADS caps FFT parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .grid import fft_workers
from .multiplier import _check_decay_range, decay_constants, decay_table_csv
from .scan import OPERATORS, ScanConfig, emit_csv, emit_plotdata, report_violations, run_scan

__all__ = ["main"]

USAGE_EXIT = 1
CONTRACT_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we keep 2 for contracts
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


# an empty flag value is an empty list, which ScanConfig rejects
def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",")) if text else ()


def _grid(text: str) -> tuple[float, int]:
    L, N = text.split(",")
    return (float(L), int(N))


# the flag parsers of the ScanConfig field types that are not scalars; a
# scalar field's flag parses as the type of its default
_PARSERS = {"tuple[int, ...]": _int_list, "tuple[float, ...]": _float_list, "tuple[float, int] | None": _grid}


def _add_scan_flags(p: _Parser, with_operator: bool = True) -> None:
    if with_operator:
        p.add_argument("--operator", choices=OPERATORS)
    p.add_argument("--config", help="JSON file with flat ScanConfig keys")
    for f in fields(ScanConfig):
        if f.name != "operator":
            parse = _PARSERS.get(f.type, type(f.default))
            p.add_argument(f"--{f.name}", type=parse, help=f.metadata.get("help"))
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--plotdata", help="optional plot-ready data path")


def _config_from_args(args, operator: str | None = None) -> ScanConfig:
    """The --config file's settings (or the defaults), overridden by each
    given flag and then by ``operator``."""
    cfg = ScanConfig.from_json(args.config) if args.config else ScanConfig()
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ScanConfig)}
    if operator is not None:
        overrides["operator"] = operator
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _run_and_emit(cfg: ScanConfig, out: str, plotdata: str | None) -> int:
    report = run_scan(cfg)
    emit_csv(report, out)
    if plotdata:
        emit_plotdata(report, plotdata)
    violations = report_violations(report)
    for v in violations:
        print(f"contract violation: {v}", file=sys.stderr)
    errors = [r for r in report.rows if r.extra.startswith("error=")]
    for r in errors:
        print(f"row skipped: {r.operator} d={r.d} p={r.p} q={r.q}: {r.extra}", file=sys.stderr)
    print(f"wrote {len(report.rows)} rows to {out}")
    return CONTRACT_EXIT if violations else 0


def _suffixed(path: str, name: str, default_ext: str = "") -> str:
    """``path`` with ``_name`` before its extension (``default_ext`` if it has none)."""
    base, ext = os.path.splitext(path)
    return f"{base}_{name}{ext or default_ext}"


def _scan_jobs(args) -> list[tuple[ScanConfig, str, str | None]]:
    """(config, CSV path, plot-data path) of each scan the command runs; every
    config is validated before the first scan starts."""
    if args.command == "scan":
        return [(_config_from_args(args), args.out, args.plotdata)]
    if args.command == "grushin":
        return [
            (
                _config_from_args(args, operator=name),
                _suffixed(args.out, name.lower(), ".csv"),
                _suffixed(args.plotdata, name.lower()) if args.plotdata else None,
            )
            for name, op in OPERATORS.items()
            if op.u_axis
        ]
    return []


def _check_out_path(path: str) -> None:
    """Reject an output path that names a directory or whose directory does
    not exist, before any work."""
    if os.path.isdir(path) or not os.path.basename(path):
        raise ValueError(f"output path {path!r} names a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"the directory of output path {path!r} does not exist")


def main(argv=None) -> int:
    parser = _Parser(prog="maxop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="dimension/exponent sweep of one operator")
    _add_scan_flags(p_scan)

    p_decay = sub.add_parser("decay", help="multiplier decay-constant table")
    p_decay.add_argument("--d", type=int, default=3)
    p_decay.add_argument("--l_max", type=int, default=8)
    p_decay.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="run the property/acceptance suite")
    p_check.add_argument(
        "--quick", action="store_true", help="skip the long-running criteria"
    )

    p_gr = sub.add_parser("grushin", help="Grushin maximal-operator scans (MK and MK_iter)")
    _add_scan_flags(p_gr, with_operator=False)

    args = parser.parse_args(argv)
    try:
        fft_workers()  # a malformed MAXOP_THREADS is a usage error, caught before any work
        jobs = _scan_jobs(args)
        if args.command == "decay":
            _check_decay_range(args.d, args.l_max)
        # the given output paths, and the per-operator ones of grushin
        given = [getattr(args, "out", None), getattr(args, "plotdata", None)]
        for path in given + [p for _, out, plot in jobs for p in (out, plot)]:
            if path:
                _check_out_path(path)
    except (ValueError, OSError) as exc:  # OSError: an unreadable --config file
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    if jobs:
        return max([_run_and_emit(*job) for job in jobs])

    if args.command == "decay":
        rows = decay_constants(args.d, args.l_max)
        decay_table_csv(rows, args.out)
        print(f"wrote decay table for d={args.d}, l=1..{args.l_max} to {args.out}")
        return 0

    if args.command == "check":
        from .checks import run_all

        results = run_all(quick=args.quick)
        failed = [r for r in results if not r.passed]
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name} ({r.seconds:.1f}s): {r.detail}")
        return CONTRACT_EXIT if failed else 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
