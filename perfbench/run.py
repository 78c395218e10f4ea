#!/usr/bin/env python3
"""maxop benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs one workload in a fresh Python process (worker.py), as
a user's ``maxop`` invocation would, so every per-process cache fill is paid
each time.  With ``--trace 0`` repetitions run back to back, one at a time,
as long as the next one is expected to end within ``--seconds`` (at least
MIN_REPS of them), and the end-to-end metrics are the medians over
repetitions.  With ``--trace 1`` one traced,
one untraced and one single-threaded repetition run, and the per-layer
metrics come from the traced one.  The last stdout line is the JSON result;
the exit code is 1 when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("lattice_scan", "fourier_scan")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("MAXOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)  # worker.py puts this checkout's src/ first itself
    return env


def spawn(workload: str, seed: int, mode: str, threads: int) -> dict:
    """Run one repetition; raise if the worker crashes or prints no result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    spawn_time = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawn_time)], cwd=ROOT, env=child_env(threads),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {workload} {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    info = {"nproc": nproc(), "cpu_model": platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def environment(seed: int, threads: int, rep: dict) -> dict:
    return {
        "machine": machine(),
        "software": dict(rep["versions"], **{var: str(threads) for var in THREAD_VARS}),
        "run": {"seed": seed, "closed_loop_callers": 1},
        "inputs": rep["sizes"],
    }


def median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def gate_totals(reps: list[dict]) -> tuple[int, int, float]:
    attempted = sum(r["gate"]["attempted"] for r in reps)
    failed = sum(r["gate"]["failed"] for r in reps)
    return attempted, failed, max(r["gate"]["max_rel_err"] for r in reps)


def measure(workload: str, seed: int, seconds: float, threads: int) -> tuple[dict, list[dict]]:
    reps: list[dict] = []
    durations: list[float] = []
    t0 = time.monotonic()
    # start another repetition only if it is expected to end within the run
    while len(reps) < MIN_REPS or time.monotonic() - t0 + statistics.median(durations) <= seconds:
        start = time.monotonic()
        reps.append(spawn(workload, seed, "plain", threads))
        durations.append(time.monotonic() - start)
    metrics = {name: median(reps, name) for name in END_TO_END_UNITS}
    return metrics, reps


def measure_traced(workload: str, seed: int, threads: int) -> tuple[dict, list[dict], list[str]]:
    traced = spawn(workload, seed, "traced", threads)
    plain = spawn(workload, seed, "plain", threads)
    serial = spawn(workload, seed, "plain", 1)
    problems = []
    if traced["outputs"] != plain["outputs"]:
        problems.append("traced outputs differ from untraced outputs")
    attempted, failed, max_rel = gate_totals([traced, plain, serial])
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "serial.wall_s": serial["wall_s"],
        "serial.cpu_s": serial["cpu_s"],
        "gate.max_rel_err": max_rel,
        "gate.fail_frac": failed / attempted,
    })
    return metrics, [traced, plain, serial], problems


def units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    threads = nproc()
    if trace:
        metrics, reps, problems = measure_traced(workload, seed, threads)
    else:
        metrics, reps = measure(workload, seed, seconds, threads)
        problems = []
    attempted, failed, max_rel = gate_totals(reps)
    for rep in reps:
        for key, reasons in rep["gate"]["failures"].items():
            problems.append(f"{key}: {'; '.join(reasons)}")
    declared = units(trace)
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    env = environment(seed, threads, reps[0])
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "environment": env, "result": result, "problems": problems,
              "repetitions": [{k: v for k, v in r.items() if k not in ("outputs", "spans")} for r in reps]}
    stem = f"{workload}-seed{seed}-trace{trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(reps[0]["spans"]))

    print(f"workload={workload} seed={seed} trace={trace} repetitions={len(reps)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'max_rel_err':32s} {max_rel:.3g} (largest deviation from a stored reference)")
    print(f"  {'fail_frac':32s} {failed / attempted:.3g} ({failed} of {attempted} operations)")
    for line in problems:
        print(f"  FAIL {line}")
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxop" / "__init__.py").is_file():
        print(f"error: no maxop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, args.trace)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
