"""In-memory spans around calls into the reinhardt modules, and the per-layer metrics.

:func:`instrument` wraps every public function of each module, and every
public method of each class a module defines, in a wrapper that records a
span: name, start, end, parent span and request id.  A function bound
into another module with ``from .x import y`` is replaced there too, as is
every value of ``verify.SUITES``.  Spans live in flat arrays until the pass
ends.  The program itself is not changed.

A span's self time is its duration minus the durations of its direct
children.  A generator's span runs from its first resumption to its
exhaustion, so the consumer's time between items counts as its own; the
only public generator, ``LaurentChunk.csv_rows``, is consumed by ``list``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

MODULES = ("domains", "exact", "counting", "norms", "shadow", "kernels", "series", "sampling", "verify", "cli")


def per_layer() -> list[tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, as BENCHMARK.json declares them."""
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench["per_layer"]]


def _box_points(box) -> int:
    return math.prod(hi - lo + 1 for lo, hi in box)


def _window_hook(name):
    def hook(counters, args, result):
        counters[f"{name}.points"] += _box_points(result.box)
        counters[f"{name}.nonzero"] += len(result.terms)
    return hook


def _shadow_hook(counters, args, result):
    counters["shadow.shadow_integral_exact.divergent"] += result is None


def _integrate_hook(counters, args, result):
    key = "exact.integrate_one_var.max_terms"
    counters[key] = max(counters[key], len(result.terms))


def _sampling_hook(name):
    def hook(counters, args, result):
        counters[f"{name}.samples"] += result.samples
        counters[f"{name}.accepted"] += result.accepted
        counters[f"{name}.discarded"] += getattr(result, "discarded", 0)
    return hook


#: Functions whose results feed a counter: name -> hook(counters, args, result).
HOOKS = {
    "shadow.shadow_integral_exact": _shadow_hook,
    "exact.integrate_one_var": _integrate_hook,
    "series.expand_closed_form": _window_hook("series.expand_closed_form"),
    "series.series_coefficients_model": _window_hook("series.series_coefficients_model"),
    "series.series_coefficients_oracle": _window_hook("series.series_coefficients_oracle"),
    "sampling.mc_norm_estimate": _sampling_hook("sampling.mc_norm_estimate"),
    "sampling.check_reproducing": _sampling_hook("sampling.check_reproducing"),
}


class Tracer:
    """Spans in flat arrays; index ``i`` of each array belongs to span ``i``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.stack = [-1]
        self.request_id = 0
        self.counters: defaultdict[str, float] = defaultdict(float)

    def new_request(self) -> None:
        self.request_id += 1

    def wrap(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, request, stack = (
            self.span_name, self.start, self.end, self.parent, self.request, self.stack,
        )
        counters = self.counters

        def open_span() -> int:
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            return idx

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                idx = open_span()
                try:
                    for item in fn(*args, **kwargs):
                        stack.pop()
                        yield item
                        stack.append(idx)
                finally:
                    end[idx] = perf_counter_ns()
                    if stack[-1] == idx:
                        stack.pop()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = len(start)  # open_span() inlined: this path runs millions of times
            span_name.append(name_id)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result
        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path, count: int) -> None:
        """Write the first ``count`` spans as arrays to an ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32)[:count],
            start_ns=np.frombuffer(self.start, dtype=np.int64)[:count],
            end_ns=np.frombuffer(self.end, dtype=np.int64)[:count],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:count],
            request=np.frombuffer(self.request, dtype=np.int32)[:count],
        )

    def metrics(self, count: int) -> dict[str, float]:
        """Per-layer metrics over the first ``count`` spans (trace.* excluded).

        Each value is worked out from its name: ``<module>.self_s`` or
        ``<module>.<function>.<stat>``.
        """
        import numpy as np

        k = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32)[:count]
        dur = (np.frombuffer(self.end, dtype=np.int64)[:count]
               - np.frombuffer(self.start, dtype=np.int64)[:count]) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)[:count]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=count)
        self_time = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        index = {n: i for i, n in enumerate(self.names)}
        c = self.counters

        def stat(fn, what):
            i = index.get(fn)
            return 0.0 if i is None else float({"calls": calls, "total": total, "self": own}[what][i])

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for metric, _ in per_layer():
            fn, field = metric.rsplit(".", 1)
            if fn == "trace":
                continue
            if fn in MODULES:
                out[metric] = float(sum(own[i] for n, i in index.items() if n.startswith(fn + ".")))
            elif field == "calls":
                out[metric] = stat(fn, "calls")
            elif field == "self_s":
                out[metric] = stat(fn, "self")
            elif field == "total_s":
                out[metric] = stat(fn, "total")
            elif field == "us_per_call":
                out[metric] = 1e6 * ratio(stat(fn, "total"), stat(fn, "calls"))
            elif field == "us_per_point":
                out[metric] = 1e6 * ratio(stat(fn, "total"), c[f"{fn}.points"])
            elif field == "divergent_ratio":
                out[metric] = ratio(c[f"{fn}.divergent"], stat(fn, "calls"))
            elif field == "nonzero_ratio":
                out[metric] = ratio(c[f"{fn}.nonzero"], c[f"{fn}.points"])
            elif field == "accepted_ratio":
                out[metric] = ratio(c[f"{fn}.accepted"], c[f"{fn}.samples"])
            elif field == "discarded_ratio":
                out[metric] = ratio(c[f"{fn}.discarded"], c[f"{fn}.accepted"] + c[f"{fn}.discarded"])
            elif field in ("points", "samples", "max_terms"):
                out[metric] = float(c[f"{fn}.{field}"])
            else:
                raise ValueError(f"no rule for per-layer metric {metric!r}")
        return out


def instrument(tracer: Tracer) -> int:
    """Wrap the public API of every reinhardt module; returns the number of wrappers."""
    import reinhardt

    modules = {short: importlib.import_module(f"reinhardt.{short}") for short in MODULES}
    replaced = {}  # id(original) -> (original, wrapper)
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isclass(obj):
                if not issubclass(obj, BaseException):
                    _wrap_methods(tracer, name, obj)
            elif callable(obj):
                replaced[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
    for module in (reinhardt, *modules.values()):
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    suites = modules["verify"].SUITES
    for key, fn in list(suites.items()):
        hit = replaced.get(id(fn))
        if hit is not None and hit[0] is fn:
            suites[key] = hit[1]
    return len(tracer.names)


def _wrap_methods(tracer: Tracer, prefix: str, cls) -> None:
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tracer.wrap(name, raw.__func__, HOOKS.get(name))))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tracer.wrap(name, raw, HOOKS.get(name)))
