"""Offline analysis over structured trace records.

``TraceAnalyzer`` consumes the span/event records produced by
:class:`repro.obs.trace.Tracer` (from a sink, a record list or a JSONL
file) and computes:

* per-phase latency stats — nearest-rank p50/p99 over span durations
  (wall-clock when the trace recorded it, event-time width otherwise);
* time-windowed per-fibre occupancy and pairwise conflict density,
  reconstructed from the admit/depart records (the event stream is a
  link stream: each admitted lightpath occupies its arcs from admission
  to departure, and two lightpaths sharing an arc conflict);
* span waterfalls — an indented text rendering of the span tree over
  event time.

Lightpath routes are carried on admit records as the ``arcs`` tag: a
list of family arc ids (cheap to emit on the hot path).  Pass
``arc_names`` (``{arc_id: "u->v"}``) to label fibres in reports; the
engine exposes the mapping via ``OnlineEngine.arc_names()``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import read_jsonl

__all__ = ["TraceAnalyzer", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) over pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    rank = -(-q * len(sorted_values) // 100)  # ceil(q/100 * N)
    rank = min(max(int(rank), 1), len(sorted_values))
    return sorted_values[rank - 1]


def _coerce_records(source) -> List[Dict[str, object]]:
    if hasattr(source, "records"):
        return list(source.records())
    return list(source)


class TraceAnalyzer:
    """Compute phase stats, fibre densities and waterfalls from a trace."""

    def __init__(self, source,
                 arc_names: Optional[Dict[int, str]] = None) -> None:
        self.records = _coerce_records(source)
        self.arc_names = dict(arc_names) if arc_names else {}
        self.spans = [r for r in self.records if r.get("kind") == "span"]
        self.events = [r for r in self.records if r.get("kind") == "event"]

    @classmethod
    def from_jsonl(cls, path: str,
                   arc_names: Optional[Dict[int, str]] = None
                   ) -> "TraceAnalyzer":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(read_jsonl(fh), arc_names=arc_names)

    # ------------------------------------------------------------------
    # phase latency stats

    def phase_stats(self) -> Dict[str, Dict[str, float]]:
        """Per span-name count/total/mean/p50/p99 over span durations."""
        durations: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            if "wall" in span:
                durations[span["name"]].append(span["wall"])
            else:
                durations[span["name"]].append(span["t1"] - span["t0"])
        stats: Dict[str, Dict[str, float]] = {}
        for name in sorted(durations):
            values = sorted(durations[name])
            total = sum(values)
            stats[name] = {
                "count": len(values),
                "total": total,
                "mean": total / len(values),
                "p50": percentile(values, 50),
                "p99": percentile(values, 99),
                "max": values[-1],
            }
        return stats

    # ------------------------------------------------------------------
    # link-stream reconstruction

    def lightpath_intervals(self) -> List[Tuple[float, float, int, Tuple[int, ...]]]:
        """(start, end, rid, arcs) for every admitted lightpath.

        Admissions come from ``admit`` spans/events tagged
        ``outcome == "admitted"`` (single admits, batch members and
        restoration re-admits all emit one); departures from ``depart``
        records.  Paths still active at the end of the trace close at
        the trace horizon.
        """
        horizon = 0.0
        open_paths: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
        intervals: List[Tuple[float, float, int, Tuple[int, ...]]] = []
        for rec in self.records:
            kind = rec.get("kind")
            if kind == "span":
                t = rec["t0"]
                horizon = max(horizon, rec["t1"])
            elif kind == "event":
                t = rec["t"]
                horizon = max(horizon, t)
            else:
                continue
            name = rec.get("name")
            tags = rec.get("tags", {})
            if name == "admit" and tags.get("outcome") == "admitted":
                open_paths[tags["rid"]] = (t, tuple(tags.get("arcs", ())))
            elif name == "depart" and tags.get("rid") in open_paths:
                start, arcs = open_paths.pop(tags["rid"])
                intervals.append((start, t, tags["rid"], arcs))
        for rid, (start, arcs) in sorted(open_paths.items()):
            intervals.append((start, horizon, rid, arcs))
        intervals.sort()
        return intervals

    def _arc_deltas(self) -> Tuple[Dict[int, List[Tuple[float, int]]], float]:
        deltas: Dict[int, List[Tuple[float, int]]] = defaultdict(list)
        horizon = 0.0
        for start, end, _rid, arcs in self.lightpath_intervals():
            horizon = max(horizon, end)
            for arc in arcs:
                deltas[arc].append((start, 1))
                deltas[arc].append((end, -1))
        for events in deltas.values():
            events.sort()
        return deltas, horizon

    def fibre_density(self, window: float, *,
                      mode: str = "occupancy") -> Dict[int, List[Dict[str, float]]]:
        """Time-windowed per-fibre density.

        ``mode="occupancy"`` integrates the number of concurrent
        lightpaths on each arc; ``mode="conflict"`` integrates the
        number of conflicting *pairs* (n choose 2) — the windowed
        pairwise conflict density of the link stream.  Returns, per arc,
        a list of ``{"t0", "t1", "density"}`` windows (time-weighted
        means; empty windows included so trends are visible).
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if mode not in ("occupancy", "conflict"):
            raise ValueError(f"unknown mode {mode!r}")
        weight = ((lambda n: n) if mode == "occupancy"
                  else (lambda n: n * (n - 1) // 2))
        deltas, horizon = self._arc_deltas()
        out: Dict[int, List[Dict[str, float]]] = {}
        num_windows = max(1, int(horizon // window)
                          + (1 if horizon % window else 0))
        for arc in sorted(deltas):
            events = deltas[arc]
            windows = [0.0] * num_windows
            level = 0
            prev_t = 0.0
            for t, delta in events:
                # spread `weight(level)` over [prev_t, t) across windows
                self._accumulate(windows, window, prev_t, t, weight(level))
                level += delta
                prev_t = t
            if prev_t < horizon:
                self._accumulate(windows, window, prev_t, horizon, weight(level))
            out[arc] = [
                {"t0": k * window,
                 "t1": min((k + 1) * window, horizon) if horizon else (k + 1) * window,
                 "density": acc / window}
                for k, acc in enumerate(windows)
            ]
        return out

    @staticmethod
    def _accumulate(windows: List[float], window: float,
                    t0: float, t1: float, value: float) -> None:
        if value == 0 or t1 <= t0:
            return
        k = int(t0 // window)
        while t0 < t1 and k < len(windows):
            edge = (k + 1) * window
            span = min(t1, edge) - t0
            windows[k] += value * span
            t0 = min(t1, edge)
            k += 1

    def fibre_occupancy(self, window: float) -> Dict[int, List[Dict[str, float]]]:
        return self.fibre_density(window, mode="occupancy")

    def conflict_density(self, window: float) -> Dict[int, List[Dict[str, float]]]:
        return self.fibre_density(window, mode="conflict")

    def hottest_fibres(self, window: float, *, mode: str = "conflict",
                       top: int = 5) -> List[Tuple[int, float]]:
        """Arcs ranked by their peak windowed density."""
        ranked = []
        for arc, windows in self.fibre_density(window, mode=mode).items():
            peak = max((w["density"] for w in windows), default=0.0)
            ranked.append((arc, peak))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return ranked[:top]

    def arc_label(self, arc: int) -> str:
        return self.arc_names.get(arc, f"arc{arc}")

    # ------------------------------------------------------------------
    # waterfalls

    def waterfall(self, *, width: int = 48, names: Optional[Iterable[str]] = None,
                  limit: int = 80) -> str:
        """Text waterfall of the span tree over event time.

        Each line shows the span (indented by tree depth), its event-time
        interval and a bar positioned over the trace horizon.  ``names``
        restricts to specific span names (children of kept spans are
        kept); ``limit`` caps the number of rendered lines.
        """
        spans = self.spans
        if not spans:
            return "(no spans)"
        keep = set(names) if names is not None else None
        t_min = min(s["t0"] for s in spans)
        t_max = max(s["t1"] for s in spans)
        extent = (t_max - t_min) or 1.0
        by_id = {s["id"]: s for s in spans}
        depth_cache: Dict[int, int] = {}

        def depth(span) -> int:
            sid = span["id"]
            if sid in depth_cache:
                return depth_cache[sid]
            parent = span.get("parent")
            d = 0 if parent is None or parent not in by_id \
                else depth(by_id[parent]) + 1
            depth_cache[sid] = d
            return d

        def kept(span) -> bool:
            if keep is None:
                return True
            while span is not None:
                if span["name"] in keep:
                    return True
                parent = span.get("parent")
                span = by_id.get(parent) if parent is not None else None
            return False

        lines = [f"span waterfall  t=[{t_min:g}, {t_max:g}]"]
        count = 0
        for span in sorted(spans, key=lambda s: (s["t0"], s["id"])):
            if not kept(span):
                continue
            if count >= limit:
                lines.append(f"... ({len(spans) - count} more spans)")
                break
            count += 1
            lo = int((span["t0"] - t_min) / extent * (width - 1))
            hi = max(lo + 1, int((span["t1"] - t_min) / extent * (width - 1)) + 1)
            bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
            tags = span.get("tags", {})
            brief = ",".join(f"{k}={tags[k]}" for k in sorted(tags)
                             if k in ("rid", "outcome", "arc", "policy",
                                      "moves", "restored"))
            label = "  " * depth(span) + span["name"]
            lines.append(f"{label:<24.24} |{bar}| t=[{span['t0']:g},"
                         f"{span['t1']:g}] {brief}")
        return "\n".join(lines)
