"""Spans around the calls into trendsig's modules, recorded from outside.

Nothing in the package is edited: :meth:`Tracer.install` replaces public
functions in the module namespaces they are looked up from (for example
``trendsig.mc.fit``, the name ``size_power`` calls) with wrappers that
record a span, and :meth:`Tracer.remove` puts the originals back.  A
target missing from the package (a later version may drop an import) is
skipped, so its counts read 0.

Spans live in memory as parallel arrays (name, parent, start, end); self
time is a span's duration minus the durations of its direct children,
which cover disjoint parts of it because calls nest on one thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, counter fed by the call's result)
TARGETS = [
    ("trendsig.ingest", "read_registry", "ingest.read_registry", None),
    ("trendsig.cli", "read_registry", "ingest.read_registry", None),
    ("trendsig.report", "read_series", "ingest.read_series", "ingest.read_series.rows"),
    ("trendsig.cli", "read_series", "ingest.read_series", "ingest.read_series.rows"),
    ("trendsig.report", "truncate", "series.truncate", None),
    ("trendsig.cli", "truncate", "series.truncate", None),
    ("trendsig.report", "difference", "series.difference", None),
    ("trendsig.cli", "difference", "series.difference", None),
    ("trendsig.series.MonthlySeries", "__post_init__", "series.construct", None),
    ("trendsig.report", "fit", "trend.fit", "trend.fit.points"),
    ("trendsig.mc", "fit", "trend.fit", "trend.fit.points"),
    ("trendsig.cli", "fit", "trend.fit", "trend.fit.points"),
    ("trendsig.report", "compare", "sigtest.compare", None),
    ("trendsig.mc", "compare", "sigtest.compare", None),
    ("trendsig.cli", "compare", "sigtest.compare", None),
    ("trendsig.sigtest", "t_cdf", "sigtest.t_cdf", None),
    ("trendsig.report", "run_comparison", "report.run_comparison", None),
    ("trendsig.cli", "run_comparison", "report.run_comparison", None),
    ("trendsig.report", "render", "report.render", "report.render.bytes"),
    ("trendsig.cli", "render", "report.render", "report.render.bytes"),
    ("trendsig.mc", "size_power", "mc.size_power", None),
    ("trendsig.cli", "size_power", "mc.size_power", None),
]

# What a counter adds for one call, from the call's result.
_COUNT = {
    "ingest.read_series.rows": len,
    "trend.fit.points": lambda fit: fit.n,
    "report.render.bytes": lambda text: len(text.encode("utf-8")),
}


def _resolve(dotted: str):
    """The loaded module or class named ``dotted``, or None if not loaded."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:cut]))
        if obj is not None:
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, span: str, counter: str | None = None):
        nid = self._id(span)
        measure = _COUNT.get(counter)
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                self.count(counter, measure(result))
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        for owner_name, attr, span, counter in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return dict(
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        return summarize(self.names, self.arrays())

    def save(self, path) -> None:
        """Write the spans out: ``names`` indexes the ``name`` column."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    k = len(names)
    calls = np.bincount(spans["name"], minlength=k)
    total = np.bincount(spans["name"], weights=dur, minlength=k)
    self_s = np.bincount(spans["name"], weights=own, minlength=k)
    return {
        name: dict(calls=int(calls[i]), total_s=float(total[i]), self_s=float(self_s[i]))
        for i, name in enumerate(names)
    }


def merge(summaries: list[dict]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, dict(calls=0, total_s=0.0, self_s=0.0))
            for key, value in row.items():
                acc[key] += value
    return out


def layer_metrics(spans: dict, counters: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics per traced operation from merged span summaries."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / ops

    def self_ms(name):
        return 1e3 * spans.get(name, {}).get("self_s", 0.0) / ops

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    rows = counters.get("ingest.read_series.rows", 0)
    fit_calls = spans.get("trend.fit", {}).get("calls", 0)
    return {
        "ingest.read_series.calls": calls("ingest.read_series"),
        "ingest.read_series.rows": rows / ops,
        "ingest.read_series.self_ms": self_ms("ingest.read_series"),
        "ingest.read_series.us_per_row": per(
            spans.get("ingest.read_series", {}).get("self_s", 0.0), rows, 1e6
        ),
        "ingest.read_registry.self_ms": self_ms("ingest.read_registry"),
        "series.construct.calls": calls("series.construct"),
        "series.construct.self_ms": self_ms("series.construct"),
        "series.truncate.self_ms": self_ms("series.truncate"),
        "series.difference.calls": calls("series.difference"),
        "series.difference.self_ms": self_ms("series.difference"),
        "trend.fit.calls": calls("trend.fit"),
        "trend.fit.points": counters.get("trend.fit.points", 0) / ops,
        "trend.fit.self_ms": self_ms("trend.fit"),
        "trend.fit.us_per_call": per(
            spans.get("trend.fit", {}).get("self_s", 0.0), fit_calls, 1e6
        ),
        "sigtest.compare.calls": calls("sigtest.compare"),
        "sigtest.compare.self_ms": self_ms("sigtest.compare"),
        "sigtest.t_cdf.calls": calls("sigtest.t_cdf"),
        "sigtest.t_cdf.self_ms": self_ms("sigtest.t_cdf"),
        "report.run_comparison.calls": calls("report.run_comparison"),
        "report.run_comparison.self_ms": self_ms("report.run_comparison"),
        "report.render.self_ms": self_ms("report.render"),
        "report.render.bytes": counters.get("report.render.bytes", 0) / ops,
        "mc.size_power.calls": calls("mc.size_power"),
        "mc.size_power.self_ms": self_ms("mc.size_power"),
        "mc.noise_bytes_computed": counters.get("mc.noise_bytes_computed", 0) / ops,
    }
