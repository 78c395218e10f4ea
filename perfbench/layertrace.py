"""Span and counter tracing of the maxop layers, installed from outside the
package.

Each traced function is wrapped where its callers look it up: every loaded
``maxop`` module attribute (the package itself included) that is the
function, except in the module that defines it, so a layer's calls to its
own helpers stay inside one span.  ``RadialProfile.__call__`` is wrapped on
the class.  The ``scipy.fft`` transforms and ``scipy.ndimage.shift`` are
wrapped on their modules and counted against the maxop module that called
them.  Spans are kept in memory; a layer's self time is the duration of its
spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import scipy.fft
import scipy.ndimage

import maxop
from maxop import multiplier, quadrature

# (defining module, function, span name)
SPANNED = [
    ("maxop.grid", "forward_transform", "grid.transform"),
    ("maxop.grid", "inverse_transform", "grid.transform"),
    ("maxop.families", "family_values", "families"),
    ("maxop.maximal", "hl_maximal", "maximal"),
    ("maxop.maximal", "weighted_maximal", "maximal"),
    ("maxop.maximal", "maximal_1d", "maximal"),
    ("maxop.maximal", "_ball_max_values", "maximal"),
    ("maxop.maximal", "_interval_max_values", "maximal"),
    ("maxop.multiplier", "maximal_multiplier", "multiplier.maxmult"),
    ("maxop.multiplier", "spherical_maximal", "multiplier.maxmult"),
    ("maxop.multiplier", "kernel", "multiplier.kernel"),
    ("maxop.multiplier", "funk_hecke_kernel", "multiplier.funk_hecke"),
    ("maxop.multiplier", "decay_constants", "multiplier.decay"),
    ("maxop.quadrature", "gegenbauer_rule", "quadrature.rule"),
    ("maxop.quadrature", "radial_power_rule", "quadrature.rule"),
    ("maxop.squarefn", "square_function", "squarefn"),
    ("maxop.rotations", "descent_maximal", "rotations"),
    ("maxop.grushin", "grushin_maximal", "grushin.koranyi"),
    ("maxop.grushin", "iterated_maximal", "grushin.iter"),
    ("maxop.norms", "lp_norm", "norms"),
    ("maxop.norms", "lq_pointwise", "norms"),
    ("maxop.norms", "mixed_norm", "norms"),
    ("maxop.norms", "mixed_norm_values", "norms"),
    ("maxop.scan", "run_scan", "scan"),
]
LADDER = ("maxop.quadrature", "refine_until_stationary", "quadrature.ladder")
PROFILE_SPAN = "multiplier.profile"

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "grid.transform": ("grid.transform_s", "grid.transform_calls"),
    "families": ("families.s", None),
    "maximal": ("maximal.s", "maximal.calls"),
    "multiplier.maxmult": ("multiplier.maxmult_s", None),
    "multiplier.profile": ("multiplier.profile_s", None),
    "multiplier.kernel": ("multiplier.kernel_s", None),
    "multiplier.funk_hecke": ("multiplier.funk_hecke_s", None),
    "multiplier.decay": ("multiplier.decay_s", None),
    "quadrature.ladder": ("quadrature.ladder_s", "quadrature.ladder_calls"),
    "quadrature.rule": ("quadrature.rule_s", None),
    "squarefn": ("squarefn.s", None),
    "rotations": ("rotations.s", None),
    "grushin.koranyi": ("grushin.koranyi_s", None),
    "grushin.iter": ("grushin.iter_s", None),
    "norms": ("norms.s", "norms.calls"),
    "scan": ("scan.self_s", None),
}
# counters filled by the wrappers themselves
COUNTERS = (
    "grid.fft_points", "grid.fft_bytes_computed",
    "maximal.fft_calls", "maximal.fft_points",
    "multiplier.fft_calls", "multiplier.fft_points", "multiplier.fft_bytes_computed",
    "multiplier.profile_points",
    "quadrature.ladder_levels", "quadrature.rule_builds",
    "rotations.shift_calls",
)
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")
# maxop module -> layer prefix of its FFT and shift counters
CALLER_LAYER = {"maxop.grid": "grid", "maxop.maximal": "maximal", "maxop.multiplier": "multiplier",
                "maxop.rotations": "rotations"}
RULE_FUNCS = (quadrature.gegenbauer_rule, quadrature.radial_power_rule)


def metric_names() -> list[str]:
    names = [n for pair in SPAN_METRICS.values() for n in pair if n]
    return names + list(COUNTERS)


def _maxop_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "maxop" or name.startswith("maxop.")]


def _rule_misses() -> int:
    return sum(fn.cache_info().misses for fn in RULE_FUNCS)


class Tracer:
    """Records spans ``[name, start, end, parent]`` and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._misses0 = 0

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return wrapper

    def _ladder(self, fn):
        counts = self.counts

        def ladder(eval_with_rule, *args, **kwargs):
            def counted(n):
                counts["quadrature.ladder_levels"] += 1
                return eval_with_rule(n)

            return fn(counted, *args, **kwargs)

        return self._spanned(LADDER[2], functools.wraps(fn)(ladder))

    def _profile_call(self, fn):
        counts = self.counts

        def call(profile, s):
            counts["multiplier.profile_points"] += getattr(s, "size", 1)
            return fn(profile, s)

        return self._spanned(PROFILE_SPAN, functools.wraps(fn)(call))

    def _counted_fft(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def fft(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            layer = CALLER_LAYER.get(sys._getframe(1).f_globals.get("__name__"))
            if layer:
                counts[f"{layer}.fft_calls"] += 1
                # points of the real-space array; bytes computed from array sizes
                counts[f"{layer}.fft_points"] += max(getattr(x, "size", 0), out.size)
                counts[f"{layer}.fft_bytes_computed"] += getattr(x, "nbytes", 0) + out.nbytes
            return out

        return fft

    def _counted_shift(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def shift(*args, **kwargs):
            layer = CALLER_LAYER.get(sys._getframe(1).f_globals.get("__name__"))
            if layer:
                counts[f"{layer}.shift_calls"] += 1
            return fn(*args, **kwargs)

        return shift

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_lookups(self, home: str, fn, wrapper) -> None:
        for mod in _maxop_modules():
            if mod.__name__ == home:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for home, name, span in SPANNED:
            fn = getattr(sys.modules[home], name)
            self._patch_lookups(home, fn, self._spanned(span, fn))
        home, name, _ = LADDER
        fn = getattr(sys.modules[home], name)
        self._patch_lookups(home, fn, self._ladder(fn))
        self._patch(maxop.RadialProfile, "__call__", self._profile_call(multiplier.RadialProfile.__call__))
        for name in FFT_FUNCS:
            self._patch(scipy.fft, name, self._counted_fft(getattr(scipy.fft, name)))
        self._patch(scipy.ndimage, "shift", self._counted_shift(scipy.ndimage.shift))
        self._misses0 = _rule_misses()

    def uninstall(self) -> None:
        self.counts["quadrature.rule_builds"] += _rule_misses() - self._misses0
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time, span count)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - inner), calls + 1)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers that did not run read 0."""
        out = {name: 0 for name in metric_names()}
        for span, (self_s, calls) in self.self_times().items():
            time_metric, calls_metric = SPAN_METRICS[span]
            out[time_metric] = self_s
            if calls_metric:
                out[calls_metric] = calls
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        return out
