#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of maxop).

    python3 perfbench/selftest.py

Kept out of pytest's default collection on purpose: one test runs a whole
workload (about 12 s).
"""

from __future__ import annotations

import json
import re
import sys
import unittest

import worker

maxop = worker.import_maxop()

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402
import scipy.ndimage  # noqa: E402

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from maxop.families import family_values  # noqa: E402
from maxop.grid import node_coordinates  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def lookup_table() -> dict:
    """Identity of every attribute the tracer may replace."""
    table = {}
    for mod in layertrace._maxop_modules():
        for attr, val in vars(mod).items():
            table[(mod.__name__, attr)] = id(val)
    for name in layertrace.FFT_FUNCS:
        table[("scipy.fft", name)] = id(getattr(scipy.fft, name))
    table[("scipy.ndimage", "shift")] = id(scipy.ndimage.shift)
    table[("RadialProfile", "__call__")] = id(maxop.RadialProfile.__call__)
    return table


def input_sample(part_inputs: dict) -> np.ndarray:
    """The generated data the program receives for one part's inputs."""
    if "fh_radii" in part_inputs:
        return part_inputs["fh_radii"]
    cfg = part_inputs["configs"][0]
    d = cfg.d_range[0]
    L, N = cfg.grid or maxop.scan.default_grid(d)
    spec = maxop.make_grid(d, L, N)
    return np.stack(family_values(cfg.family, node_coordinates(spec), cfg.n_members, cfg.seed, L))


class Names(unittest.TestCase):
    def test_names_are_well_formed_and_match_the_code(self):
        spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOADS)
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END_UNITS))
        self.assertLessEqual(set(layertrace.metric_names()), {m["name"] for m in spec["per_layer"]})


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs_but_not_sizes(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a, b = workload.make_inputs(1), workload.make_inputs(2)
                self.assertEqual(workload.sizes(a), workload.sizes(b))
                for pa, pb, again in zip(a, b, workload.make_inputs(1)):
                    sa, sb = input_sample(pa), input_sample(pb)
                    self.assertEqual(sa.shape, sb.shape)
                    self.assertFalse(np.array_equal(sa, sb))
                    np.testing.assert_array_equal(sa, input_sample(again))


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.name = "lattice_scan"
        cls.refs = workloads.reference_for(workloads.load_refs(cls.name), 0)
        cls.before = lookup_table()
        cls.out = worker.run_once(cls.name, 0, traced=True)
        cls.after = lookup_table()

    def test_wrappers_are_removed(self):
        self.assertEqual(self.before, self.after)
        self.assertEqual(self.out["layers"]["rotations.shift_calls"], 8192)
        self.assertGreater(self.out["layers"]["grushin.koranyi_s"], 0)

    def test_gate_passes_on_the_stored_reference(self):
        gate = self.out["gate"]
        self.assertEqual(gate["failed"], 0, gate["failures"])
        self.assertEqual(gate["compared"], gate["attempted"])

    def test_corrupted_reference_fails_the_gate(self):
        key = sorted(self.refs)[0]
        bad = dict(self.refs, **{key: [v * (1 + 1e-6) for v in self.refs[key]]})
        gate = workloads.check(self.out["outputs"], {}, bad)
        self.assertEqual(gate["failed"], 1)
        self.assertIn(key, gate["failures"])
        self.assertGreater(gate["max_rel_err"], 1e-7)

    def test_error_rows_and_invariants_fail_the_gate(self):
        flat = dict(self.out["outputs"])
        key = sorted(flat)[0]
        flat[key] = "error=injected"
        self.assertEqual(workloads.check(flat, {}, {})["failed"], 1)
        gate = workloads.check(self.out["outputs"], {key: ["injected"]}, {})
        self.assertEqual(gate["failed"], 1)


if __name__ == "__main__":
    sys.exit(unittest.main())
