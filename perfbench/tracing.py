"""Span tracing of the eprb_delay layers, done from the benchmark's side.

``Tracer.install`` replaces every public function of the layer modules at
every module attribute that holds it (the module itself, modules that bound
it with ``from .x import f``, and the package namespace), so callers pick up
the wrapper through their ordinary global lookups.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``dump``.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import os
import statistics
import time
import types
from pathlib import Path

LAYER_MODULES = ("cli", "dde", "experiment", "spectral", "io_formats")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _pairing(args, kwargs, result):
    tags = args[0] if args else kwargs["tags"]
    return {"matched": len(result.t), "a_events": int((tags.arm == "a").sum())}


# span-name pattern -> counts taken from the call's arguments and result
COUNTERS = {
    "dde.integrate*": lambda a, k, r: {"cells": len(r.rho_d) - 1},
    "experiment.generate_settings": lambda a, k, r: {"setting_changes": len(r.times)},
    "experiment.generate_time_tags": lambda a, k, r: {"tags": len(r)},
    "experiment.pair_coincidences": _pairing,
    "io_formats.write_trajectory*": _file_bytes,
    "io_formats.read_trajectory*": _file_bytes,
    "io_formats.write_tags*": _file_bytes,
    "io_formats.read_tags*": _file_bytes,
}

# per-layer self-time metric -> the spans it sums over
SELF_TIME = {
    "bench": ["bench.pass"],
    "cli": ["cli.*"],
    "dde": ["dde.*"],
    "dde.integrate": ["dde.integrate*"],
    "dde.step_response": ["dde.step*", "dde.measure_step*", "dde.downward_crossings",
                          "dde.envelope_maxima", "dde.gamma_sweep", "dde.find_divergence*"],
    "experiment": ["experiment.*"],
    "experiment.settings": ["experiment.*settings*", "experiment.target_tracks"],
    "experiment.chsh_ideal": ["experiment.s_chsh_ideal"],
    "experiment.time_tags": ["experiment.generate_time_tags"],
    "experiment.pair": ["experiment.pair_coincidences"],
    "spectral": ["spectral.*"],
    "spectral.bin": ["spectral.bin_*", "spectral.correlation_series"],
    "spectral.fft": ["spectral.*spectr*"],
    "spectral.peak": ["spectral.detect_peak"],
    "io_formats": ["io_formats.*"],
    "io_formats.write_trajectory": ["io_formats.write_trajectory*"],
    "io_formats.read_trajectory": ["io_formats.read_trajectory*"],
    "io_formats.write_tags": ["io_formats.write_tags*"],
    "io_formats.read_tags": ["io_formats.read_tags*"],
    "io_formats.write_json": ["io_formats.write_json"],
}

# per-layer count metric -> (span patterns, count key; None counts the spans)
COUNTS = {
    "dde.integrate.calls": (["dde.integrate*"], None),
    "dde.integrate.cells": (["dde.integrate*"], "cells"),
    "experiment.setting_changes": (["experiment.generate_settings"], "setting_changes"),
    "experiment.tune.s_evaluations": (["experiment.s_chsh_for"], None),
    "experiment.tags": (["experiment.generate_time_tags"], "tags"),
    "experiment.pair.calls": (["experiment.pair_coincidences"], None),
    "io_formats.write_trajectory.bytes": (["io_formats.write_trajectory*"], "bytes"),
    "io_formats.read_trajectory.bytes": (["io_formats.read_trajectory*"], "bytes"),
    "io_formats.write_tags.bytes": (["io_formats.write_tags*"], "bytes"),
    "io_formats.read_tags.bytes": (["io_formats.read_tags*"], "bytes"),
}


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, p) for p in patterns)


class Tracer:
    """Records spans as [id, parent id, name, start, end, pass, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counter_errors: list[str] = []
        self.pass_index = -1
        self._open: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _record(self, name: str, fn, args, kwargs, counter):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [span_id, parent, name, 0.0, 0.0, self.pass_index, {}]
        self.spans.append(span)
        self._open.append(span_id)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._open.pop()
        if counter is not None:
            try:
                span[6] = counter(args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, OSError) as err:
                self.counter_errors.append(f"{name}: {err!r}")
        return result

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._record(name, fn, args, kwargs, None)

    def _wrap(self, fn, name: str):
        counter = next((c for p, c in COUNTERS.items() if fnmatch.fnmatchcase(name, p)), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, counter)

        return traced

    def install(self, package: types.ModuleType) -> None:
        modules = [package] + [getattr(package, m) for m in LAYER_MODULES]
        owners = {f"{package.__name__}.{m}": m for m in LAYER_MODULES}
        wrappers: dict[object, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ not in owners
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{owners[obj.__module__]}.{obj.__name__}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "pass", "counts")
        with Path(path).open("w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _pass_metrics(spans: list[dict]) -> dict[str, float]:
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_time = {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}

    out: dict[str, float] = {}
    for metric, patterns in SELF_TIME.items():
        out[f"{metric}.self_s"] = sum(
            (self_time[s["id"]] for s in spans if _matches(s["name"], patterns)), 0.0
        )
    for metric, (patterns, key) in COUNTS.items():
        chosen = [s for s in spans if _matches(s["name"], patterns)]
        out[metric] = len(chosen) if key is None else sum(s["counts"].get(key, 0) for s in chosen)
    pairing = [s["counts"] for s in spans if s["name"] == "experiment.pair_coincidences"]
    a_events = sum(c.get("a_events", 0) for c in pairing)
    matched = sum(c.get("matched", 0) for c in pairing)
    out["experiment.pair.matched_ratio"] = matched / a_events if a_events else 0.0
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric of one pass."""
    by_pass: dict[int, list[dict]] = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    per_pass = [_pass_metrics(group) for _, group in sorted(by_pass.items())]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
