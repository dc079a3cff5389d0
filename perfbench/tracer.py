"""Outside-in tracing of volcur: spans recorded by wrappers around its layers.

The tracer rebinds each traced function in every ``volcur`` module that holds
it, so calls between modules and calls inside the defining module are both
caught; ``PsdMatrix`` is traced through its ``__post_init__``.  Originals are
restored on exit.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name; the span name is the layer metric prefix
TRACED = [
    ("cli", "main"),
    ("spectra", "parse_generator_spec"),
    ("esp", "_esp_coeffs"),
    ("esp", "esp_ratio"),
    ("esp", "esp_dyadic_convolution"),
    ("bounds", "bound_report"),
    ("bounds", "figure_rows"),
    ("psd", "read_array"),
    ("psd", "PsdMatrix"),
    ("psd", "eigendecompose"),
    ("sampling", "sample_subsets"),
]

CALL_COUNTS = ["psd.PsdMatrix", "psd.eigendecompose", "esp._esp_coeffs", "bounds.bound_report"]


class Tracer:
    """Records spans (name, start, end, parent, op) while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._sampled: list[tuple[object, int, list]] = []

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # counters computed from arguments and results, outside the span itself
    def _esp_cells(self, values, m):
        n = int(np.asarray(values).size)
        self.counts["esp.recursion_cells"] += n * min(n, int(m))

    def _input_bytes(self, path, *args, **kwargs):
        self.counts["psd.input_bytes"] += os.path.getsize(path)

    def _draws(self, result, ed, k, draws, seed):
        self.counts["sampling.draws"] += draws
        self._sampled.append((ed, k, result))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "volcur" or n.startswith("volcur.")]
        hooks = {
            "esp._esp_coeffs": (self._esp_cells, None),
            "psd.read_array": (self._input_bytes, None),
            "sampling.sample_subsets": (None, self._draws),
        }
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            owner = sys.modules[f"volcur.{module_name}"]
            original = getattr(owner, attr)
            before, after = hooks.get(name, (None, None))
            if isinstance(original, type):
                init = original.__post_init__
                self._restore.append((original, "__post_init__", init))
                original.__post_init__ = self._span(name, init)
                continue
            wrapped = self._span(name, original, before, after)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def end_op(self) -> None:
        """Count subsets drawn without k distinct indices or positive volume.

        Runs between ops, so its cost lands in no span.
        """
        for ed, k, subsets in self._sampled:
            basis = ed.vectors * np.sqrt(ed.eigenvalues.values)
            n = basis.shape[0]
            for s in subsets:
                idx = list(s)
                if len(set(idx)) != k or not all(0 <= i < n for i in idx):
                    self.counts["sampling.bad_subsets"] += 1
                    continue
                rows = basis[idx]
                sign, _ = np.linalg.slogdet(rows @ rows.T)
                if sign <= 0:
                    self.counts["sampling.bad_subsets"] += 1
        self._sampled.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (s) and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics: self ms of every span, call counts, counters."""
        self_s, calls = self.self_times()
        out: dict[str, float] = {}
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0) / ops
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls.get(name, 0) / ops
        for name in ("psd.input_bytes", "esp.recursion_cells", "sampling.draws",
                     "sampling.bad_subsets"):
            out[name] = self.counts.get(name, 0.0) / ops
        out["psd.eigensolves"] = out["psd.PsdMatrix.calls"] + out["psd.eigendecompose.calls"]
        draws = self.counts.get("sampling.draws", 0.0)
        out["sampling.ms_per_draw"] = (
            1e3 * self_s.get("sampling.sample_subsets", 0.0) / draws if draws else 0.0)
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
