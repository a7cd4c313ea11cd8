"""Per-layer spans for the traced run, recorded from outside the package.

Each public function named in LAYERS is replaced by a wrapper that records a
span: its call count and its self time (the span's wall time minus the wall
time of the traced spans it encloses).  fracprop's modules bind these names
with ``from .grids import ...``, so the wrapper is bound in place of the
original under every name, in every fracprop module, that holds it; internal
calls are then traced as well as the benchmark's own.  Classes are traced by
wrapping ``__init__``, which counts constructions without changing the class
that ``isinstance`` checks see.
"""

import functools
import importlib
import sys
import time

LAYERS = {
    "grids": ("forward_transform", "inverse_transform", "band_project",
              "random_band_signal", "SampledSignal", "Spectrum",
              "load_signal_csv", "save_signal_csv"),
    "symbols": ("evaluate", "Tabulated", "dilate", "band_sup_distance",
                "continuity_modulus", "load_symbol_csv"),
    "operators": ("apply", "dilate_signal", "conjugated_apply", "probe_operator_distance"),
    "semistability": ("check_semistable", "order_doubling_residual"),
    "identification": ("identify", "unwrap_phase"),
    "exponents": ("classify_product",),
    "groups": ("check_group_law", "check_scaling"),
    "verify": ("run_verification",),
    "cli": ("main", "render_json"),
}
COUNTERS = ("verify.checks_run", "verify.checks_skipped")


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for function in functions:
            names += [f"{module}.{function}.calls", f"{module}.{function}.self_s"]
    return names + list(COUNTERS)


def metric_unit(name):
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    return "checks/op"


def _count_checks(tracer, report):
    skipped = sum(1 for c in report["checks"] if c["skipped"])
    tracer.counters["verify.checks_run"] += len(report["checks"]) - skipped
    tracer.counters["verify.checks_skipped"] += skipped


class Tracer:
    """Span totals per wrapped function, kept in memory until reported."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._children = []  # wall time of traced children, one slot per open span

    def _wrap(self, label, fn, on_result=None):
        self.calls[label] = 0
        self.self_s[label] = 0.0
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                calls[label] += 1
                self_s[label] += span - children.pop()
                if children:
                    children[-1] += span
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS; call once, after importing fracprop."""
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"fracprop.{module_name}")
            for function in functions:
                label = f"{module_name}.{function}"
                original = getattr(module, function)
                if isinstance(original, type):
                    original.__init__ = self._wrap(label, original.__init__)
                    continue
                hook = _count_checks if label == "verify.run_verification" else None
                self._rebind(original, self._wrap(label, original, hook))

    @staticmethod
    def _rebind(original, wrapped):
        bound = 0
        for name, module in list(sys.modules.items()):
            if name != "fracprop" and not name.startswith("fracprop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{original.__qualname__} is bound in no fracprop module")

    def reset(self):
        for label in self.calls:
            self.calls[label] = 0
            self.self_s[label] = 0.0
        for name in self.counters:
            self.counters[name] = 0

    def per_operation(self, operations):
        """Every metric of metric_names(), divided by the operation count."""
        values = {}
        for label in self.calls:
            values[f"{label}.calls"] = self.calls[label] / operations
            values[f"{label}.self_s"] = self.self_s[label] / operations
        for name, count in self.counters.items():
            values[name] = count / operations
        return {name: values[name] for name in metric_names()}
