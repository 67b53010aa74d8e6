"""Deterministic metrics registry for the online engine.

The registry holds three metric kinds — counters, gauges and fixed-bucket
histograms — keyed by dotted names (``engine.admitted``,
``colorindex.records`` ...).  Two properties make it safe to wire into the
bit-identity contract of the online engine:

* **No wall-clock values.**  Every recorded value is derived from the
  event stream (event times, counts, sizes).  Wall-clock durations live
  only in trace records (see :mod:`repro.obs.trace`) and never enter the
  registry, so two runs of the same trace produce the same registry.

* **Deterministic serialization.**  :meth:`MetricsRegistry.snapshot`
  returns plain dicts and :meth:`MetricsRegistry.to_json` serializes them
  with sorted keys and compact separators, so identical runs produce
  byte-identical snapshots — this is asserted by the determinism tests.

Metrics split into two sections.  The *deterministic* section must be
identical for any two runs that made the same decisions, regardless of
code path (traced vs untraced, ``simulate_online`` vs the service).
Metrics registered with ``diagnostic=True`` land in a separate
``diagnostics`` section instead: they are still deterministic for a fixed
code path (same seed + same configuration ⇒ same values) but are allowed
to differ between equivalent code paths — e.g. ``colorindex.*`` record
counts differ between a live engine and one recovered from a snapshot
even when every decision is identical.  Differential tests compare the
deterministic section across paths and the full snapshot within a path.

Hot-path cost: metric objects are plain ``__slots__`` holders handed out
once; incrementing is a cached-attribute ``.inc()`` with no dict lookup,
no locking and no string formatting.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Instrumented",
]


class Counter:
    """Monotone integer counter (resettable only through its setter)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-write-wins numeric gauge."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket-edge histogram over event-time quantities.

    ``edges`` are the *upper* bounds of the first ``len(edges)`` buckets;
    one overflow bucket catches everything above the last edge.  Edges
    are fixed at creation so two runs bucket identically.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "low", "high")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges!r}")
        self.name = name
        self.edges: Tuple[float, ...] = tuple(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value

    def as_dict(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.low,
            "max": self.high,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Namespace of counters/gauges/histograms with deterministic snapshots."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_diagnostic")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._diagnostic: set = set()

    # -- registration (get-or-create; the returned object is cached by
    # callers so the dict lookup happens once per metric, not per event).

    def counter(self, name: str, *, diagnostic: bool = False) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        if diagnostic:
            self._diagnostic.add(name)
        return metric

    def gauge(self, name: str, *, diagnostic: bool = False) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        if diagnostic:
            self._diagnostic.add(name)
        return metric

    def histogram(self, name: str, edges: Sequence[float], *,
                  diagnostic: bool = False) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, edges)
        elif tuple(edges) != metric.edges:
            raise ValueError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges!r}, requested {tuple(edges)!r}")
        if diagnostic:
            self._diagnostic.add(name)
        return metric

    # -- read side

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._gauges)
                      | set(self._histograms))

    def value(self, name: str):
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        if name in self._histograms:
            return self._histograms[name].as_dict()
        raise KeyError(name)

    def snapshot(self, *, diagnostics: bool = True) -> Dict[str, object]:
        """Plain-dict snapshot, split into deterministic and diagnostic parts.

        The top-level ``counters``/``gauges``/``histograms`` sections hold
        only deterministic metrics; path-dependent metrics live under
        ``diagnostics`` and can be popped before cross-path comparisons.
        """
        deterministic: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        diag: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._counters):
            target = diag if name in self._diagnostic else deterministic
            target["counters"][name] = self._counters[name].value
        for name in sorted(self._gauges):
            target = diag if name in self._diagnostic else deterministic
            target["gauges"][name] = self._gauges[name].value
        for name in sorted(self._histograms):
            target = diag if name in self._diagnostic else deterministic
            target["histograms"][name] = self._histograms[name].as_dict()
        out: Dict[str, object] = dict(deterministic)
        if diagnostics:
            out["diagnostics"] = diag
        return out

    def to_json(self, *, diagnostics: bool = True) -> str:
        """Byte-stable serialization (sorted keys, compact separators)."""
        return json.dumps(self.snapshot(diagnostics=diagnostics),
                          sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")


class Instrumented:
    """Mixin giving a component a shared (or private) metrics registry.

    Subclasses call ``self._obs_init("prefix", registry)`` during their
    ``__init__``; ``registry=None`` creates a private registry so every
    component stays usable standalone.  The mixin declares empty
    ``__slots__`` so slotted subclasses (``ArcColorIndex``) only need to
    add the two storage slots below.
    """

    __slots__ = ()

    _OBS_SLOTS = ("_obs_registry", "_obs_prefix")

    def _obs_init(self, prefix: str,
                  registry: Optional[MetricsRegistry] = None) -> None:
        self._obs_registry = registry if registry is not None else MetricsRegistry()
        self._obs_prefix = prefix

    @property
    def metrics(self) -> MetricsRegistry:
        return self._obs_registry

    def _obs_counter(self, name: str, *, diagnostic: bool = False) -> Counter:
        return self._obs_registry.counter(
            f"{self._obs_prefix}.{name}", diagnostic=diagnostic)

    def _obs_gauge(self, name: str, *, diagnostic: bool = False) -> Gauge:
        return self._obs_registry.gauge(
            f"{self._obs_prefix}.{name}", diagnostic=diagnostic)

    def _obs_histogram(self, name: str, edges: Iterable[float], *,
                       diagnostic: bool = False) -> Histogram:
        return self._obs_registry.histogram(
            f"{self._obs_prefix}.{name}", tuple(edges), diagnostic=diagnostic)
