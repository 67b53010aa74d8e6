"""The bench gates E12–E19 and E21, each declared once.

A :class:`Suite` names a ``BENCH_*.json`` file, the runner that produces
its records and, per record kind, the claims every record must meet.
One checker (:func:`problems`), one document builder (:func:`document`)
and one printer (:func:`print_records`) serve all of them;
``scripts/bench_report.py`` (record / ``--check``),
``scripts/run_all_experiments.py`` (the E-sweep), ``scripts/smoke.py`` and
``benchmarks/bench_suites.py`` are each one loop over :data:`SUITES`.

The rules of a record :class:`Kind`:

* on every run — ``flags`` must be true, ``floors`` are minima,
  ``ceilings`` maxima, and the suite needs ``min_records`` records of
  the kind;
* against a recorded baseline — ``exact`` keys must equal the recorded
  value, ``drift`` keys may move by at most their bound, and a kind with
  ``timing_slack`` applies the two-signal timing rule: a scenario
  regresses only when its absolute time ``new_total_s`` exceeds the
  recorded one by more than ``tolerance`` plus the slack *and* its
  in-run ``speedup_total`` falls below the recorded one by more than
  ``tolerance``.  Timing noise trips one signal at a time; a slower
  engine trips both.

A suite may add one cross-record rule (``cross``) for claims no single
record carries.  Scenario-level prose lives in the measuring modules.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .bench_chaos import run_chaos_benchmark
from .bench_obs import OBS_OVERHEAD_TARGET, run_obs_benchmark
from .bench_online import (CHURN_EVENTS, ONLINE_SPEEDUP_TARGET,
                           run_online_benchmark)
from .bench_scaling import SPEEDUP_TARGET, run_scaling_benchmark
from .bench_service import run_service_benchmark
from .bench_sharding import run_sharding_benchmark
from .erlang import (ADAPTIVE_ROUTINGS, SPECULATION_SPEEDUP_TARGET,
                     run_defrag_benchmark, run_routing_benchmark)
from .recovery import SNAPSHOT_RECOVERY_SPEEDUP_TARGET, run_recovery_benchmark
from .tables import format_records

__all__ = [
    "BLOCKING_DRIFT",
    "Kind",
    "SUITES",
    "Suite",
    "document",
    "print_records",
    "problems",
]

Record = Dict[str, object]

#: Allowed absolute drift of a recorded blocking probability.  The traces
#: are seeded, so the numbers are deterministic; the slack covers
#: cross-version RNG shifts.
BLOCKING_DRIFT = 0.02


@dataclass(frozen=True)
class Kind:
    """The claims on one record kind of a suite (see the module doc)."""

    #: printed columns
    columns: Tuple[str, ...]
    #: key -> what a false value means
    flags: Mapping[str, str] = field(default_factory=dict)
    floors: Mapping[str, float] = field(default_factory=dict)
    ceilings: Mapping[str, float] = field(default_factory=dict)
    exact: Tuple[str, ...] = ()
    drift: Mapping[str, float] = field(default_factory=dict)
    #: absolute seconds of slack of the two-signal timing rule, or None
    timing_slack: Optional[float] = None
    min_records: int = 1


@dataclass(frozen=True)
class Suite:
    """One bench gate: its BENCH file, its runner and its claims."""

    name: str
    gate: str
    title: str
    #: file name of the recorded document, at the repository root
    bench: str
    run: Callable[..., List[Record]]
    #: the document's ``benchmark`` value
    benchmark: str
    #: record ``kind`` -> claims (``None`` for records without a kind)
    kinds: Mapping[Optional[str], Kind]
    #: document keys written between ``benchmark`` and ``python``
    extra: Mapping[str, object] = field(default_factory=dict)
    #: skipped by ``run_all_experiments.py --skip-slow``
    slow: bool = True
    #: the runner builds online engines, so ``--profile`` sees spans
    spans: bool = True
    #: ``run(smoke=True)`` is a cheap wiring check
    smoke: bool = False
    #: ``run(tracer=...)`` streams every replay's spans
    traced: bool = False
    #: claims across records, as problem messages
    cross: Optional[Callable[[List[Record]], List[str]]] = None


def _show(value: object) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _record_problems(kind: Kind, record: Record, base: Optional[Record],
                     tolerance: float) -> List[str]:
    name = record["scenario"]
    found = [f"{name}: {key} is false — {why}"
             for key, why in kind.flags.items() if not record[key]]
    found += [f"{name}: {key} = {_show(record[key])} is below the floor "
              f"{_show(floor)}"
              for key, floor in kind.floors.items() if record[key] < floor]
    found += [f"{name}: {key} = {_show(record[key])} is above the ceiling "
              f"{_show(ceiling)}"
              for key, ceiling in kind.ceilings.items()
              if record[key] > ceiling]
    if base is None:
        return found
    found += [f"{name}: {key} = {_show(record[key])} differs from the "
              f"recorded {_show(base[key])} — the decisions changed"
              for key in kind.exact if record[key] != base[key]]
    found += [f"{name}: {key} drifted to {_show(record[key])} from the "
              f"recorded {_show(base[key])} (bound {_show(bound)}) — the "
              "decisions changed"
              for key, bound in kind.drift.items()
              if abs(record[key] - base[key]) > bound]
    if kind.timing_slack is not None:
        current = float(record["new_total_s"])
        allowed = (float(base["new_total_s"]) * (1.0 + tolerance)
                   + kind.timing_slack)
        ratio = float(record["speedup_total"])
        ratio_floor = float(base["speedup_total"]) / (1.0 + tolerance)
        if current > allowed and ratio < ratio_floor:
            found.append(
                f"{name}: new_total_s = {current * 1000:.2f}ms (recorded "
                f"{float(base['new_total_s']) * 1000:.2f}ms) and "
                f"speedup_total = {ratio:.1f}x (recorded "
                f"{float(base['speedup_total']):.1f}x) — beyond "
                f"{tolerance:.0%} on both")
    return found


def problems(suite: Suite, records: List[Record],
             baseline: Optional[Mapping[str, object]] = None,
             tolerance: float = 0.20) -> List[str]:
    """Every claim of ``suite`` the records miss, once each, as messages.

    Without a ``baseline`` document only the per-run rules apply; with
    one, each record is also compared with the recorded record of the
    same scenario (scenarios missing from the baseline are skipped).
    """
    found: List[str] = []
    for kind_name, kind in suite.kinds.items():
        count = sum(1 for r in records if r.get("kind") == kind_name)
        if count < kind.min_records:
            found.append(f"{suite.name}: {count} {kind_name or 'scenario'} "
                         f"record(s), the gate needs {kind.min_records}+")
    recorded = {} if baseline is None else {
        r["scenario"]: r for r in baseline["results"]}
    for record in records:
        kind = suite.kinds.get(record.get("kind"))
        if kind is None:
            found.append(f"{record['scenario']}: undeclared record kind "
                         f"{record.get('kind')!r}")
            continue
        found += _record_problems(kind, record,
                                  recorded.get(record["scenario"]),
                                  tolerance)
    if suite.cross is not None:
        found += suite.cross(records)
    return found


def document(suite: Suite, records: List[Record], repeats: int
             ) -> Dict[str, object]:
    """The ``BENCH_*.json`` document of a run."""
    return {"benchmark": suite.benchmark, **suite.extra,
            "python": sys.version.split()[0], "repeats": repeats,
            "results": records}


def print_records(suite: Suite, records: List[Record]) -> None:
    """One table per record kind, with the kind's declared columns."""
    for kind_name, kind in suite.kinds.items():
        rows = [r for r in records if r.get("kind") == kind_name]
        title = f"{suite.gate} / {suite.name}" + (
            f" — {kind_name}" if kind_name else "")
        print(format_records(rows, columns=kind.columns, title=title))


# ---------------------------------------------------------------------- #
# cross-record claims
# ---------------------------------------------------------------------- #
def _splits_exercised(records: List[Record]) -> List[str]:
    if any(int(r.get("component_splits", 0)) > 0 for r in records):
        return []
    return ["no scenario ever split a component — the lazy split-check "
            "machinery went unexercised"]


def _snapshots_pay(records: List[Record]) -> List[str]:
    """Snapshotted recovery must out-replay replay-from-genesis in-run."""
    crash = [r for r in records if r.get("kind") == "crash_recovery"]
    snapshotted = [float(r["records_per_second"]) for r in crash
                   if r["snapshot_every"]]
    from_genesis = [float(r["records_per_second"]) for r in crash
                    if not r["snapshot_every"]]
    if not snapshotted or not from_genesis:
        return []
    fastest_plain = max(from_genesis)
    ratio = (min(snapshotted) / fastest_plain if fastest_plain
             else float("inf"))
    if ratio >= SNAPSHOT_RECOVERY_SPEEDUP_TARGET:
        return []
    return [f"snapshotted recovery replays only {ratio:.1f}x faster than "
            f"replay-from-genesis within this run (target "
            f"{SNAPSHOT_RECOVERY_SPEEDUP_TARGET:.0f}x) — snapshots stopped "
            "paying"]


# ---------------------------------------------------------------------- #
# the registry
# ---------------------------------------------------------------------- #
_AGREE = {"edges_equal": "the paired strategies disagree on the edge set",
          "colors_equal": "the paired strategies disagree on the colour "
                          "count"}
_SERVICE_IDENTITY = {
    "decisions_equal": "the service decided differently from "
                       "simulate_online on the same trace",
    "fingerprint_identical": "service and trace-loop engine fingerprints "
                             "diverged"}
_CHAOS_IDENTITY = Kind(
    columns=("scenario", "fibre_cuts", "stranded", "restored", "blocking",
             "decisions_equal", "fingerprint_identical"),
    flags=_SERVICE_IDENTITY,
    floors={"fibre_cuts": 1, "stranded": 1},
    exact=("blocking", "stranded", "restored", "fibre_cuts"))

SUITES: Dict[str, Suite] = {suite.name: suite for suite in (
    Suite(
        name="conflict", gate="E12", title="bitset conflict engine",
        bench="BENCH_conflict_engine.json", run=run_scaling_benchmark,
        benchmark="conflict_engine_scaling",
        extra={"speedup_target": SPEEDUP_TARGET}, slow=False, spans=False,
        kinds={None: Kind(
            columns=("scenario", "num_dipaths", "num_edges",
                     "legacy_total_s", "new_total_s", "speedup_build",
                     "speedup_total"),
            flags=_AGREE,
            floors={"speedup_total": SPEEDUP_TARGET, "num_dipaths": 500},
            timing_slack=0.002)}),
    Suite(
        name="online", gate="E13", title="online conflict engine",
        bench="BENCH_online_engine.json", run=run_online_benchmark,
        benchmark="online_engine_churn",
        extra={"speedup_target": ONLINE_SPEEDUP_TARGET,
               "churn_events": CHURN_EVENTS},
        slow=False, spans=False,
        kinds={None: Kind(
            columns=("scenario", "num_dipaths", "num_events", "num_edges",
                     "legacy_event_us", "new_event_us", "speedup_total"),
            flags=_AGREE,
            floors={"speedup_total": ONLINE_SPEEDUP_TARGET,
                    "num_dipaths": 500},
            timing_slack=0.002)}),
    Suite(
        name="routing", gate="E14",
        title="adaptive routing + what-if speculation",
        bench="BENCH_online_routing.json", run=run_routing_benchmark,
        benchmark="online_adaptive_routing",
        extra={"speedup_target": SPECULATION_SPEEDUP_TARGET},
        kinds={
            "blocking": Kind(
                columns=("scenario", "wavelengths", "offered_load",
                         "blocking_shortest", "blocking_least_loaded",
                         "blocking_k_shortest", "adaptive_beats_fixed"),
                flags={"adaptive_beats_fixed":
                       "adaptive routing does not strictly beat fixed "
                       "shortest-path blocking"},
                drift={f"blocking_{routing}": BLOCKING_DRIFT
                       for routing in ("shortest", *ADAPTIVE_ROUTINGS)},
                min_records=2),
            "speculation": Kind(
                columns=("scenario", "num_dipaths", "legacy_candidate_us",
                         "new_candidate_us", "speedup_total",
                         "decisions_equal", "mask_rebuilds"),
                flags={"decisions_equal": "transactional and rebuild "
                                          "evaluation disagree"},
                floors={"speedup_total": SPECULATION_SPEEDUP_TARGET,
                        "num_dipaths": 500},
                # speculation leaves the engine caches intact: the one
                # cold build only
                ceilings={"mask_rebuilds": 1},
                # the transactional side stays in scheduler-noise
                # territory even with 60 what-ifs per scenario
                timing_slack=0.010)}),
    Suite(
        name="defrag", gate="E15", title="defragmentation blocking + reclaim",
        bench="BENCH_defrag.json",
        # deterministic replays: repeating cannot change them
        run=lambda repeats: run_defrag_benchmark(),
        benchmark="online_defrag",
        kinds={
            "defrag_blocking": Kind(
                columns=("scenario", "wavelengths", "offered_load",
                         "blocking_no_defrag", "blocking_defrag",
                         "defrag_moves", "wavelengths_reclaimed",
                         "defrag_not_worse"),
                flags={"defrag_not_worse": "defrag made blocking worse"},
                drift={"blocking_no_defrag": BLOCKING_DRIFT,
                       "blocking_defrag": BLOCKING_DRIFT},
                min_records=2),
            "defrag_reclaim": Kind(
                columns=("scenario", "wavelengths", "colors_before",
                         "colors_after_best", "recolor_from_scratch",
                         "load_before", "reclaimed_best",
                         "coloring_proper_after", "within_load_bound"),
                flags={"coloring_proper_after":
                       "the post-defrag colouring is not proper",
                       "reclaims_capacity": "defrag reclaimed no wavelength",
                       "within_load_bound":
                       "some order ended with fewer colours in use than "
                       "its own final fibre load"},
                floors={"reclaimed_best": 1},
                drift={"colors_before": 1, "colors_after_best": 1},
                min_records=2)}),
    Suite(
        name="sharding", gate="E16", title="component-sharded engine",
        bench="BENCH_sharding.json",
        # one audited replay per scenario: repeating adds nothing
        run=lambda repeats: run_sharding_benchmark(),
        benchmark="sharded_online_engine",
        cross=_splits_exercised,
        kinds={
            "throughput": Kind(
                columns=("scenario", "concurrent", "wavelengths", "total_s",
                         "event_us", "audits", "shards", "component_merges",
                         "component_splits", "shard_rebuilds"),
                floors={"concurrent": 800},
                # pre-routed replays: the moves are a function of the
                # decisions alone
                exact=("concurrent", "defrag_moves"), min_records=2),
            "differential": Kind(
                columns=("scenario", "arrivals", "blocking",
                         "component_merges", "component_splits"),
                flags={"merges_exercised": "the trace never merged "
                                           "components"},
                drift={"blocking": BLOCKING_DRIFT}, min_records=2)}),
    Suite(
        name="recovery", gate="E17",
        title="crash recovery + restoration + shedding",
        bench="BENCH_recovery.json", run=run_recovery_benchmark,
        benchmark="fault_tolerant_online_engine", cross=_snapshots_pay,
        kinds={
            "crash_recovery": Kind(
                columns=("scenario", "snapshot_every", "journal_records",
                         "trials", "mismatches", "bit_identical",
                         "recover_full_s", "records_per_second"),
                flags={"bit_identical": "some kill point recovered to a "
                                        "different fingerprint"},
                # the journalled workload must exercise cut/repair records
                floors={"cuts": 1, "repairs": 1},
                exact=("journal_records",), min_records=2),
            "restoration": Kind(
                columns=("scenario", "wavelengths", "fibre_cuts",
                         "stranded_restoration", "restored_restoration",
                         "blocking_baseline", "blocking_restoration",
                         "restoration_pays"),
                flags={"restoration_pays": "restoration blocking is not "
                                           "strictly below the "
                                           "restoration-off baseline"},
                floors={"restored_restoration": 1},
                drift={"blocking_restoration": BLOCKING_DRIFT,
                       "blocking_baseline": BLOCKING_DRIFT},
                min_records=2),
            "shed": Kind(
                columns=("scenario", "bursts", "burst_size", "shed",
                         "p99_work_unguarded", "p99_work_guarded",
                         "guard_sheds", "work_bounded"),
                flags={"guard_sheds": "the admission guard never shed an "
                                      "arrival",
                       "work_bounded": "guarded p99 work is not strictly "
                                       "below the unguarded"},
                drift={"blocking_guarded": BLOCKING_DRIFT,
                       "blocking_unguarded": BLOCKING_DRIFT},
                min_records=2)}),
    Suite(
        name="obs", gate="E18",
        title="observability overhead + trace bit-identity",
        bench="BENCH_obs.json", run=run_obs_benchmark,
        benchmark="observability_overhead",
        kinds={
            "overhead": Kind(
                columns=("scenario", "events", "blocking", "plain_total_s",
                         "traced_total_s", "overhead_ratio",
                         "spans_emitted", "decisions_equal",
                         "metrics_identical"),
                flags={"decisions_equal": "the instrumented run changed a "
                                          "decision",
                       "metrics_identical": "deterministic metrics "
                                            "snapshots differ between the "
                                            "plain and traced runs"},
                # the gated timing signal is this within-run ratio; the
                # absolute times are never compared across runs
                ceilings={"overhead_ratio": OBS_OVERHEAD_TARGET},
                exact=("blocking", "spans_emitted")),
            "throughput": Kind(
                columns=("scenario", "spans", "ring_spans_per_s",
                         "jsonl_spans_per_s"))}),
    Suite(
        name="service", gate="E19",
        title="RWA service identity + tenant isolation",
        bench="BENCH_service.json", run=run_service_benchmark,
        benchmark="rwa_service", smoke=True, traced=True,
        kinds={
            "service": Kind(
                columns=("scenario", "arrivals", "blocking", "shed",
                         "admissions_per_s", "p99_latency_s",
                         "decisions_equal", "fingerprint_identical"),
                flags=_SERVICE_IDENTITY, exact=("blocking", "shed")),
            "tenant_isolation": Kind(
                columns=("scenario", "quiet_arrivals", "flood_arrivals",
                         "quiet_shed", "flood_shed", "shed_partition_exact"),
                flags={"quiet_never_shed": "the flooding tenant starved "
                                           "the quiet one",
                       "flood_is_shed": "the flooding tenant was never "
                                        "shed, so nothing is exercised",
                       "shed_partition_exact": "per-tenant shed counters do "
                                               "not partition guard.shed"},
                exact=("blocking", "quiet_shed", "flood_shed"))}),
    Suite(
        name="chaos", gate="E21",
        title="chaos hardening — fault identity + crash-restart "
              "convergence",
        bench="BENCH_chaos.json", run=run_chaos_benchmark,
        benchmark="chaos_hardening", smoke=True,
        kinds={
            "chaos_identity": _CHAOS_IDENTITY,
            "chaos_maintenance": _CHAOS_IDENTITY,
            "chaos_crash": Kind(
                columns=("scenario", "events", "trials", "converged",
                         "single_restart_each", "decisions_equal_oracle"),
                flags={"all_converged": "some crashed run did not converge "
                                        "to the uncrashed fingerprint",
                       "single_restart_each": "some crashed run needed "
                                              "!= 1 restart",
                       "decisions_equal_oracle": "the uncrashed supervised "
                                                 "run decided differently "
                                                 "from simulate_online"},
                # the uncrashed run restarts exactly zero times
                floors={"uncrashed_restarts": 0},
                ceilings={"uncrashed_restarts": 0},
                exact=("blocking", "stranded", "restored", "fibre_cuts",
                       "converged")),
            "chaos_restoration": Kind(
                columns=("scenario", "fibre_cuts", "move_budget",
                         "stranded_restoration", "blocking_baseline",
                         "blocking_restoration", "restoration_pays"),
                flags={"restoration_pays": "restoration did not strictly "
                                           "beat restoration-off blocking"},
                floors={"stranded_restoration": 1},
                exact=("blocking_restoration", "blocking_baseline",
                       "fibre_cuts"))}),
)}
