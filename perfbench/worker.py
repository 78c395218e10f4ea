"""One repetition of one workload, in a fresh Python process.

Usage: worker.py WORKLOAD SEED MODE SPAWN_TIME

MODE is ``plain`` (tracing off), ``traced`` (layer spans and counters on)
or ``record`` (tracing off, outputs judged by the invariants alone).  Thread
counts come from the environment the caller sets.
SPAWN_TIME is the caller's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
construction.  Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_maxop():
    """Import maxop from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import maxop

    if Path(maxop.__file__).resolve().parent != src / "maxop":
        raise ImportError(f"maxop imported from {maxop.__file__}, not from {src}")
    return maxop


def run_once(name: str, seed: int, traced: bool, refs: dict | None = None) -> dict:
    """Build inputs, run the workload (timed), then check its outputs."""
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    ready = time.monotonic()
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        results = workload.run(inputs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    flat = workload.flatten(results)
    if refs is None:
        refs = workloads.load_refs(name)
    gate = workloads.check(flat, workload.invariants(inputs, results), workloads.reference_for(refs, seed))
    out = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gate": gate,
        "outputs": flat,
        "outputs_sha256": hashlib.sha256(json.dumps(flat, sort_keys=True).encode()).hexdigest(),
        "sizes": workload.sizes(inputs),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["counts"] = dict(tracer.counts)
        out["spans"] = tracer.spans
    return out


def main(argv: list[str]) -> int:
    name, seed, mode, spawn_time = argv[0], int(argv[1]), argv[2], float(argv[3])
    if mode not in ("plain", "traced", "record"):
        raise SystemExit(f"unknown mode {mode!r}")
    maxop = import_maxop()
    import numpy
    import scipy

    out = run_once(name, seed, traced=(mode == "traced"), refs={} if mode == "record" else None)
    out["setup_s"] = out.pop("ready") - spawn_time
    out["versions"] = {"maxop": maxop.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
                       "python": sys.version.split()[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
