#!/usr/bin/env python3
"""Record reference outputs for the correctness gate.

    python3 perfbench/record_refs.py [--seeds 0-9] [--workload NAME ...]

Runs each workload once per seed, each in a fresh process as the benchmark
does, with the current sources and writes perfbench/refs/<workload>.json:
outputs that do not depend on the seed under "any", the rest under the seed.
A run that fails its invariants is not recorded.  References are meant to be recorded once, from the code whose
behaviour later changes must preserve.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import worker


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    worker.import_maxop()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS), choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        refs: dict = {}
        for seed in parse_seeds(args.seeds):
            out = run.spawn(name, seed, "record", run.nproc())
            if out["gate"]["failed"]:
                print(f"{name} seed {seed}: not recorded, {out['gate']['failures']}", file=sys.stderr)
                return 1
            for key, val in out["outputs"].items():
                if not key.startswith(workloads.SEED_FREE):
                    refs.setdefault(str(seed), {})[key] = val
                elif refs.setdefault("any", {}).setdefault(key, val) != val:
                    print(f"{name}: {key} changes with the seed", file=sys.stderr)
                    return 1
            print(f"{name} seed {seed}: {len(out['outputs'])} outputs in {out['wall_s']:.2f} s", flush=True)
        (workloads.REFS_DIR / f"{name}.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
