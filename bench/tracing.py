"""Span recorder for traced benchmark runs.

The recorder wraps, from outside the package, the public functions that
``pnpuct.pipeline`` and ``pnpuct.thermal`` call through their module
namespaces, so the package itself carries no tracing code. Each span
holds the run it belongs to, its id, its parent, start and end on the
process CPU clock (``run.py`` says why CPU time), the bytes the call
moved, computed from its arguments or result, and, when tracemalloc is
on, the allocation peak above the traced memory at entry. tracemalloc slows small allocations several-fold, so the worker
takes span times from runs without it and allocation peaks from runs
with it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager


def _file_bytes(path):
    return os.path.getsize(path)


def _stack_in(args, result):
    return {"bytes": args[0].data.nbytes, "voxels": args[0].data.size,
            "pixels": args[0].nx * args[0].ny}


def _degenerate(fits):
    """Pixels without a fit, whether the map marks them None or NaN."""
    import numpy as np

    fits = np.asarray(fits)
    if fits.dtype == object:
        return int(sum(f is None for f in fits.flat))
    return int(np.isnan(fits).any(axis=-1).sum())


def _dc_removal(args, result):
    return dict(_stack_in(args, result), degenerate=_degenerate(result[1]))


# (module, attribute, span name, measure(args, result) -> extra span fields)
TARGETS = [
    ("pnpuct.codes", "generate_ls", "codes.generate", None),
    ("pnpuct.codes", "generate_mls", "codes.generate", None),
    ("pnpuct.codes", "modify_for_perfect_pacf", "codes.generate", None),
    ("pnpuct.codes", "binarize_ls4", "codes.generate", None),
    ("pnpuct.pipeline", "build_bipolar", "waveform.build", None),
    ("pnpuct.pipeline", "build_unipolar", "waveform.build", None),
    ("pnpuct.pipeline", "build_matched_filter", "waveform.build", None),
    ("pnpuct.pipeline", "scene_from_parser", "thermal.scene", None),
    ("pnpuct.pipeline", "simulate_stack", "thermal.simulate",
     lambda a, r: {"bytes": r.data.nbytes}),
    ("pnpuct.thermal", "impulse_response", "thermal.impulse_response",
     lambda a, r: {"bytes": r.nbytes}),
    ("pnpuct.thermal", "respond", "thermal.respond",
     lambda a, r: {"bytes": r.nbytes}),
    ("pnpuct.pipeline", "read_stack", "stack.read",
     lambda a, r: {"bytes": _file_bytes(a[0])}),
    ("pnpuct.pipeline", "write_stack", "stack.write",
     lambda a, r: {"bytes": _file_bytes(a[1])}),
    ("pnpuct.pipeline", "export_slice", "stack.export",
     lambda a, r: {"bytes": sum(_file_bytes(p) for p in r)}),
    ("pnpuct.pipeline", "export_pixel_trace", "stack.export",
     lambda a, r: {"bytes": _file_bytes(a[3])}),
    ("pnpuct.pipeline", "remove_dc_stack", "dc_removal.remove", _dc_removal),
    ("pnpuct.pipeline", "export_fit_map_csv", "dc_removal.fit_map_export",
     lambda a, r: {"bytes": _file_bytes(a[1])}),
    ("pnpuct.pipeline", "decimate_to_bit_rate", "compression.decimate",
     _stack_in),
    ("pnpuct.pipeline", "compress_stack", "compression.compress", _stack_in),
]

ROOT_SPAN = "pipeline.run"


class Tracer:
    """Records nested spans of pipeline runs; one trace id per run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._saved = []
        self._trace = None

    @contextmanager
    def run(self, trace_id):
        """Root span of one pipeline run; spans outside a run are dropped."""
        self._trace = trace_id
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self._trace = None

    @contextmanager
    def span(self, name):
        if self._trace is None:
            yield {}
            return
        parent = self._open[-1] if self._open else None
        memory = tracemalloc.is_tracing()
        record = {"trace": self._trace, "id": len(self.spans),
                  "parent": None if parent is None else parent["id"],
                  "name": name, "alloc_peak": None}
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_max"] = max(parent["_max"], peak)
            tracemalloc.reset_peak()
            record["_base"] = record["_max"] = current
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.process_time()
        try:
            yield record
        finally:
            record["end"] = time.process_time()
            self._open.pop()
            if memory:
                high = max(record.pop("_max"),
                           tracemalloc.get_traced_memory()[1])
                record["alloc_peak"] = high - record.pop("_base")
                if parent is not None:
                    parent["_max"] = max(parent["_max"], high)

    def _wrap(self, fn, name, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if measure is not None and record:
                record.update(measure(args, result))
            return result
        return traced

    def install(self):
        """Replace every target present in the package by its traced wrapper."""
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, measure))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_summary(spans):
    """Per span name: calls, total seconds and self seconds, over all runs."""
    own = self_times(spans)
    out = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s["end"] - s["start"]
        entry["self_s"] += own[s["id"]]
    return out


def _run_metrics(spans):
    own = self_times(spans)

    def of(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in of(*names))

    def peak_mb(*names):
        return max((s["alloc_peak"] or 0 for s in of(*names)), default=0) / 1e6

    def rate(key, names):
        busy = total(*names)
        return sum(s.get(key, 0) for s in of(*names)) / busy if busy else 0.0

    dc, comp = ("dc_removal.remove",), ("compression.compress",)
    stack_io = ("stack.read", "stack.write", "stack.export")
    return {
        "thermal.impulse_response_s": total("thermal.impulse_response"),
        "thermal.impulse_response_calls": len(of("thermal.impulse_response")),
        "thermal.simulate_self_s": sum(own[s["id"]]
                                       for s in of("thermal.simulate")),
        "thermal.peak_alloc_mb": peak_mb("thermal.simulate",
                                         "thermal.impulse_response",
                                         "thermal.respond"),
        "dc_removal.remove_s": total(*dc),
        "dc_removal.pixels_per_s": rate("pixels", dc),
        "dc_removal.degenerate_pixels": sum(s.get("degenerate", 0)
                                            for s in of(*dc)),
        "dc_removal.peak_alloc_mb": peak_mb(*dc),
        "dc_removal.fit_map_export_s": total("dc_removal.fit_map_export"),
        "compression.compress_s": total(*comp),
        "compression.voxels_per_s": rate("voxels", comp),
        "compression.peak_alloc_mb": peak_mb(*comp),
        "stack.read_s": total("stack.read"),
        "stack.write_s": total("stack.write"),
        "stack.bytes_read": sum(s.get("bytes", 0) for s in of("stack.read")),
        "stack.bytes_written": sum(s.get("bytes", 0)
                                   for s in of("stack.write")),
        "stack.export_s": total("stack.export"),
        "stack.peak_alloc_mb": peak_mb(*stack_io),
        "codes.generate_s": total("codes.generate"),
        "waveform.build_s": total("waveform.build"),
        "pipeline.self_s": sum(own[s["id"]] for s in of(ROOT_SPAN)),
    }


def layer_metrics(spans):
    """Per-layer metrics: each run's value, then the median over runs.

    Allocation peaks come from runs traced with tracemalloc, everything
    else from runs traced without it.
    """
    by_run = {}
    for s in spans:
        by_run.setdefault(s["trace"], []).append(s)
    timing, memory = [], []
    for group in by_run.values():
        root = next(s for s in group if s["parent"] is None)
        (timing if root["alloc_peak"] is None else memory).append(
            _run_metrics(group))
    return {name: statistics.median(
                m[name] for m in (memory if name.endswith("_alloc_mb")
                                  else timing))
            for name in LAYER_UNITS}


LAYER_UNITS = {
    "thermal.impulse_response_s": "s",
    "thermal.impulse_response_calls": "count",
    "thermal.simulate_self_s": "s",
    "thermal.peak_alloc_mb": "MB",
    "dc_removal.remove_s": "s",
    "dc_removal.pixels_per_s": "1/s",
    "dc_removal.degenerate_pixels": "count",
    "dc_removal.peak_alloc_mb": "MB",
    "dc_removal.fit_map_export_s": "s",
    "compression.compress_s": "s",
    "compression.voxels_per_s": "1/s",
    "compression.peak_alloc_mb": "MB",
    "stack.read_s": "s",
    "stack.write_s": "s",
    "stack.bytes_read": "B",
    "stack.bytes_written": "B",
    "stack.export_s": "s",
    "stack.peak_alloc_mb": "MB",
    "codes.generate_s": "s",
    "waveform.build_s": "s",
    "pipeline.self_s": "s",
}
