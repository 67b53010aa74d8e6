"""Benchmark runner/regression gate for the conflict + online engines.

Runs the scaling scenarios of :mod:`repro.analysis.bench_scaling` (seed
engine vs bitset engine on 500+ dipath families), the churn scenarios
of :mod:`repro.analysis.bench_online` (rebuild-per-event vs incremental
maintenance at 500+ concurrent dipaths), the adaptive-routing suite of
:mod:`repro.analysis.erlang` (blocking of adaptive vs fixed routing, plus
speculative what-if admission vs rebuild-per-candidate) and the
defragmentation suite of the same module (blocking with vs without defrag
triggers, wavelengths reclaimed vs the recolouring bounds) and the
fault-tolerance suite of :mod:`repro.analysis.recovery` (journal-replay
crash recovery bit-identity and timing, fibre-cut restoration blocking,
admission-guard load shedding) and the observability suite of
:mod:`repro.analysis.bench_obs` (full-tracing overhead ratio on the
admission workloads, span-emission throughput) and the service suite of
:mod:`repro.analysis.bench_service` (asyncio ``RwaService`` decision and
fingerprint identity with the trace loop under a flash crowd, sustained
admissions/sec and p99 admission latency, per-tenant shed isolation)
and the chaos suite of :mod:`repro.analysis.bench_chaos` (fault-bearing
``serve_trace`` decision/fingerprint identity with ``simulate_online``,
maintenance windows vs their cut/repair event oracle, supervised
crash-restart fingerprint convergence over randomised crash offsets,
restoration vs restoration-off at an equal move budget),
and either
records the results or checks them against the recorded baselines:

    python scripts/bench_report.py                   # run + write reports
    python scripts/bench_report.py --check           # run + fail on regression
    python scripts/bench_report.py --suite defrag    # one suite only
    python scripts/bench_report.py --quick           # fewer repeats (noisier)

Reports are written to ``BENCH_conflict_engine.json``,
``BENCH_online_engine.json``, ``BENCH_online_routing.json``,
``BENCH_defrag.json``, ``BENCH_sharding.json``, ``BENCH_recovery.json``,
``BENCH_obs.json``, ``BENCH_service.json`` and ``BENCH_chaos.json`` at the
repository root (``--output`` overrides the path when a single suite is
selected).  ``--check`` exits non-zero
when an engine is more than 20% slower than its recorded baseline on any
scenario, when a speedup falls under the 5x target, or when the paired
strategies disagree on edges/colours — this is the gate
``scripts/run_all_experiments.py`` runs at the end of the experiment
sweep.  See PERFORMANCE.md for how to read the numbers.

``--profile`` attributes cost **per span category** (admit, defrag,
restore, ...) on the suites that drive the online engine: it installs a
:class:`~repro.obs.profiling.SpanProfiler` as the process-wide default
(:func:`~repro.obs.profiling.set_default_profile`), every engine the
suite constructs picks it up, and the report prints each category's
call counts, wall time and top functions by cumulative time.  Suites
that never build an :class:`~repro.online.simulator.OnlineEngine`
(``conflict``, ``online``) emit no spans, so ``--profile`` refuses them.

``--trace PATH`` (service suite only) attaches a JSONL-backed
:class:`~repro.obs.trace.Tracer` to every service replay and writes the
span stream to PATH — closed (and therefore flushed) through the
tracer's context-manager protocol, so short runs keep their trailing
records.  Inspect the file with
:meth:`~repro.obs.analyze.TraceAnalyzer.from_jsonl`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.bench_online import (
    online_benchmark_document,
    online_check_against_baseline,
    online_speedup_problems,
    run_online_benchmark,
)
from repro.analysis.bench_scaling import (
    benchmark_document,
    check_against_baseline,
    run_scaling_benchmark,
    speedup_problems,
)
from repro.analysis.bench_sharding import (
    run_sharding_benchmark,
    sharding_benchmark_document,
    sharding_check_against_baseline,
    sharding_problems,
)
from repro.analysis.erlang import (
    defrag_benchmark_document,
    defrag_check_against_baseline,
    defrag_problems,
    routing_benchmark_document,
    routing_check_against_baseline,
    routing_speedup_problems,
    run_defrag_benchmark,
    run_routing_benchmark,
)
from repro.analysis.bench_obs import (
    obs_benchmark_document,
    obs_check_against_baseline,
    obs_problems,
    run_obs_benchmark,
)
from repro.analysis.bench_chaos import (
    chaos_benchmark_document,
    chaos_check_against_baseline,
    chaos_problems,
    run_chaos_benchmark,
)
from repro.analysis.bench_service import (
    run_service_benchmark,
    service_benchmark_document,
    service_check_against_baseline,
    service_problems,
)
from repro.analysis.recovery import (
    recovery_benchmark_document,
    recovery_check_against_baseline,
    recovery_problems,
    run_recovery_benchmark,
)
from repro.obs.profiling import (
    SpanProfiler,
    clear_default_profile,
    set_default_profile,
)
from repro.obs.trace import JsonlSink, Tracer

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Suites whose runners construct :class:`OnlineEngine` instances —
#: ``--profile`` attributes their cost per span category; the rest only
#: exercise the conflict-graph layer and cannot be profiled.
ENGINE_SUITES = frozenset({"routing", "defrag", "sharding", "recovery",
                           "obs", "service", "chaos"})


def _print_engine_records(records) -> None:
    header = (f"{'scenario':28s} {'n':>5s} {'edges':>7s} "
              f"{'legacy(ms)':>11s} {'new(ms)':>9s} {'speedup':>8s}")
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r['scenario']:28s} {r['num_dipaths']:5d} {r['num_edges']:7d} "
              f"{r['legacy_total_s'] * 1000:11.2f} {r['new_total_s'] * 1000:9.2f} "
              f"{r['speedup_total']:7.1f}x")


def _print_routing_records(records) -> None:
    for r in records:
        if r["kind"] == "blocking":
            adaptive = "  ".join(
                f"{key.removeprefix('blocking_')}={r[key]:.4f}"
                for key in r if key.startswith("blocking_")
                and key != "blocking_shortest")
            verdict = "ok" if r["adaptive_beats_fixed"] else "NOT BEATEN"
            print(f"{r['scenario']:28s} W={r['wavelengths']} "
                  f"load={r['offered_load']:.0f}E "
                  f"shortest={r['blocking_shortest']:.4f}  {adaptive}  "
                  f"[{verdict}]")
        else:
            print(f"{r['scenario']:28s} n={r['num_dipaths']} "
                  f"legacy={r['legacy_total_s'] * 1000:.2f}ms "
                  f"tx={r['new_total_s'] * 1000:.2f}ms "
                  f"speedup={r['speedup_total']:.1f}x "
                  f"agree={r['decisions_equal']}")


def _print_defrag_records(records) -> None:
    for r in records:
        if r["kind"] == "defrag_blocking":
            verdict = "ok" if r["defrag_not_worse"] else "WORSE"
            print(f"{r['scenario']:28s} W={r['wavelengths']} "
                  f"load={r['offered_load']:.0f}E "
                  f"off={r['blocking_no_defrag']:.4f} "
                  f"on={r['blocking_defrag']:.4f} "
                  f"moves={r['defrag_moves']} "
                  f"reclaimed={r['wavelengths_reclaimed']}  [{verdict}]")
        else:
            verdict = "ok" if (r["reclaims_capacity"]
                               and r["coloring_proper_after"]
                               and r["within_load_bound"]) else "STUCK"
            print(f"{r['scenario']:28s} W={r['wavelengths']} "
                  f"colors {r['colors_before']} -> {r['colors_after_best']} "
                  f"(recolour-only {r['recolor_from_scratch']}, "
                  f"load {r['load_before']} -> "
                  f"{r['load_after_highest_wavelength']})  [{verdict}]")


def _print_obs_records(records) -> None:
    for r in records:
        if r["kind"] == "overhead":
            verdict = ("ok" if r["decisions_equal"] and r["metrics_identical"]
                       and r["overhead_ratio"] <= r["overhead_target"]
                       else "OVER BUDGET")
            print(f"{r['scenario']:28s} events={r['events']} "
                  f"plain={r['plain_total_s'] * 1000:.1f}ms "
                  f"traced={r['traced_total_s'] * 1000:.1f}ms "
                  f"ratio={r['overhead_ratio']:.3f} "
                  f"(<= {r['overhead_target']:.2f}) "
                  f"spans={r['spans_emitted']} "
                  f"identical={r['decisions_equal']}/"
                  f"{r['metrics_identical']}  [{verdict}]")
        else:
            print(f"{r['scenario']:28s} spans={r['spans']} "
                  f"ring={r['ring_spans_per_s']:.0f}/s "
                  f"jsonl={r['jsonl_spans_per_s']:.0f}/s")


def _print_sharding_records(records) -> None:
    for r in records:
        if r["kind"] == "throughput":
            verdict = "ok" if r["outcomes_equal"] else "DIVERGED"
            print(f"{r['scenario']:28s} n={r['concurrent']} "
                  f"W={r['wavelengths']} "
                  f"legacy={r['legacy_total_s'] * 1000:.0f}ms "
                  f"sharded={r['new_total_s'] * 1000:.0f}ms "
                  f"speedup={r['speedup_total']:.1f}x "
                  f"shards={r['shards']} "
                  f"merge/split/rebuild={r['component_merges']}/"
                  f"{r['component_splits']}/{r['shard_rebuilds']}  "
                  f"[{verdict}]")
        else:
            verdict = "ok" if r["identical"] else "DIVERGED"
            print(f"{r['scenario']:28s} arrivals={r['arrivals']} "
                  f"blocking={r['blocking']:.4f} "
                  f"identical={r['identical']}  [{verdict}]")


def _print_recovery_records(records) -> None:
    for r in records:
        if r["kind"] == "crash_recovery":
            verdict = "ok" if r["bit_identical"] else "DIVERGED"
            cadence = (f"snap={r['snapshot_every']}"
                       if r["snapshot_every"] else "no-snap")
            print(f"{r['scenario']:28s} {cadence:10s} "
                  f"records={r['journal_records']} "
                  f"kills={r['trials']} mismatches={r['mismatches']} "
                  f"recover={r['recover_full_s'] * 1000:.1f}ms "
                  f"({r['records_per_second']:.0f} rec/s)  [{verdict}]")
        elif r["kind"] == "restoration":
            verdict = "ok" if r["restoration_pays"] else "NOT PAYING"
            print(f"{r['scenario']:28s} W={r['wavelengths']} "
                  f"cuts={r['fibre_cuts']} "
                  f"stranded={r['stranded_restoration']} "
                  f"restored={r['restored_restoration']} "
                  f"off={r['blocking_baseline']:.4f} "
                  f"on={r['blocking_restoration']:.4f}  [{verdict}]")
        else:
            verdict = ("ok" if r["guard_sheds"] and r["work_bounded"]
                       else "UNBOUNDED")
            print(f"{r['scenario']:28s} W={r['wavelengths']} "
                  f"bursts={r['bursts']}x{r['burst_size']} "
                  f"shed={r['shed']} "
                  f"p99 work {r['p99_work_unguarded']:.0f} -> "
                  f"{r['p99_work_guarded']:.0f}  [{verdict}]")


def _print_service_records(records) -> None:
    for r in records:
        if r["kind"] == "service":
            verdict = ("ok" if r["decisions_equal"]
                       and r["fingerprint_identical"] else "DIVERGED")
            print(f"{r['scenario']:36s} arrivals={r['arrivals']} "
                  f"blocking={r['blocking']:.4f} shed={r['shed']} "
                  f"adm/s={r['admissions_per_s']:.0f} "
                  f"p99={r['p99_latency_s'] * 1000:.2f}ms "
                  f"identical={r['decisions_equal']}/"
                  f"{r['fingerprint_identical']}  [{verdict}]")
        else:
            verdict = ("ok" if r["quiet_never_shed"] and r["flood_is_shed"]
                       and r["shed_partition_exact"] else "STARVED")
            print(f"{r['scenario']:36s} "
                  f"quiet={r['quiet_shed']}/{r['quiet_arrivals']} "
                  f"flood={r['flood_shed']}/{r['flood_arrivals']} shed "
                  f"partition={r['shed_partition_exact']}  [{verdict}]")


def _print_chaos_records(records) -> None:
    for r in records:
        if r["kind"] == "chaos_identity":
            verdict = ("ok" if r["decisions_equal"]
                       and r["fingerprint_identical"] else "DIVERGED")
            print(f"{r['scenario']:36s} events={r['events']} "
                  f"cuts={r['fibre_cuts']} stranded={r['stranded']} "
                  f"blocking={r['blocking']:.4f} "
                  f"adm/s={r['admissions_per_s']:.0f} "
                  f"identical={r['decisions_equal']}/"
                  f"{r['fingerprint_identical']}  [{verdict}]")
        elif r["kind"] == "chaos_maintenance":
            verdict = ("ok" if r["decisions_equal"]
                       and r["fingerprint_identical"] else "DIVERGED")
            print(f"{r['scenario']:36s} arcs={r['window_arcs']} "
                  f"cuts={r['fibre_cuts']} repairs={r['fibre_repairs']} "
                  f"stranded={r['stranded']} blocking={r['blocking']:.4f} "
                  f"identical={r['decisions_equal']}/"
                  f"{r['fingerprint_identical']}  [{verdict}]")
        elif r["kind"] == "chaos_crash":
            verdict = ("ok" if r["all_converged"]
                       and r["single_restart_each"]
                       and r["decisions_equal_oracle"] else "DIVERGED")
            print(f"{r['scenario']:36s} events={r['events']} "
                  f"kills={r['trials']} converged={r['converged']} "
                  f"single-restart={r['single_restart_each']} "
                  f"oracle={r['decisions_equal_oracle']}  [{verdict}]")
        else:
            verdict = "ok" if r["restoration_pays"] else "NOT PAYING"
            print(f"{r['scenario']:36s} W={r['wavelengths']} "
                  f"cuts={r['fibre_cuts']} budget={r['move_budget']} "
                  f"stranded={r['stranded_restoration']} "
                  f"off={r['blocking_baseline']:.4f} "
                  f"on={r['blocking_restoration']:.4f}  [{verdict}]")


#: suite name -> (default report path, runner, document builder,
#:                baseline checker, speedup checker, record printer)
SUITES = {
    "conflict": (REPO_ROOT / "BENCH_conflict_engine.json",
                 run_scaling_benchmark, benchmark_document,
                 check_against_baseline, speedup_problems,
                 _print_engine_records),
    "online": (REPO_ROOT / "BENCH_online_engine.json",
               run_online_benchmark, online_benchmark_document,
               online_check_against_baseline, online_speedup_problems,
               _print_engine_records),
    "routing": (REPO_ROOT / "BENCH_online_routing.json",
                run_routing_benchmark, routing_benchmark_document,
                routing_check_against_baseline, routing_speedup_problems,
                _print_routing_records),
    "defrag": (REPO_ROOT / "BENCH_defrag.json",
               run_defrag_benchmark, defrag_benchmark_document,
               defrag_check_against_baseline, defrag_problems,
               _print_defrag_records),
    "sharding": (REPO_ROOT / "BENCH_sharding.json",
                 run_sharding_benchmark, sharding_benchmark_document,
                 sharding_check_against_baseline, sharding_problems,
                 _print_sharding_records),
    "recovery": (REPO_ROOT / "BENCH_recovery.json",
                 run_recovery_benchmark, recovery_benchmark_document,
                 recovery_check_against_baseline, recovery_problems,
                 _print_recovery_records),
    "obs": (REPO_ROOT / "BENCH_obs.json",
            run_obs_benchmark, obs_benchmark_document,
            obs_check_against_baseline, obs_problems,
            _print_obs_records),
    "service": (REPO_ROOT / "BENCH_service.json",
                run_service_benchmark, service_benchmark_document,
                service_check_against_baseline, service_problems,
                _print_service_records),
    "chaos": (REPO_ROOT / "BENCH_chaos.json",
              run_chaos_benchmark, chaos_benchmark_document,
              chaos_check_against_baseline, chaos_problems,
              _print_chaos_records),
}


def _run_suite(name: str, args) -> int:
    default_path, run, document, check, speedups, print_records = SUITES[name]
    output: Path = args.output if args.output is not None else default_path
    repeats = 2 if args.quick else 3

    print(f"== suite: {name} ==")
    if args.trace is not None and name == "service":
        with Tracer(sink=JsonlSink(str(args.trace))) as tracer:
            records = run(repeats=repeats, tracer=tracer)
        print_records(records)
        print(f"-- span stream written to {args.trace} "
              f"({tracer.sink.emitted} records)")
    elif args.profile:
        profiler = SpanProfiler(engine="cprofile")
        set_default_profile(profiler)
        try:
            records = run(repeats=repeats)
        finally:
            clear_default_profile()
        print_records(records)
        print(f"-- per-span profile for suite {name} --")
        print(profiler.report(top=10))
    else:
        records = run(repeats=repeats)
        print_records(records)

    slow = speedups(records)
    for problem in slow:
        print(f"!! {problem}")

    if args.check:
        if not output.exists():
            print(f"!! no recorded baseline at {output}; "
                  f"run without --check first")
            return 1
        baseline = json.loads(output.read_text())
        problems = check(records, baseline, tolerance=args.tolerance)
        for problem in problems:
            print(f"!! regression: {problem}")
        if problems or slow:
            return 1
        print(f"{name} engine within {args.tolerance:.0%} of the recorded "
              f"baseline ({output})")
        return 0

    if args.profile:
        # profiled timings are inflated 2-5x by instrumentation overhead;
        # recording them would turn every later --check into a free pass,
        # and failing on them would flag phantom speedup misses
        print(f"(--profile: not writing {output.name} — profiled timings "
              f"are not baseline material)")
        return 0
    if args.trace is not None:
        # traced replays carry the (small but real) span-emission cost in
        # their latency samples; keep them out of the recorded baseline
        print(f"(--trace: not writing {output.name} — traced timings are "
              f"not baseline material)")
        return 0
    output.write_text(json.dumps(document(records, repeats), indent=2) + "\n")
    print(f"report written to {output}")
    return 1 if slow else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the conflict/online engines and record/check "
                    "BENCH_*_engine.json")
    parser.add_argument("--suite", choices=(*SUITES, "all"), default="all",
                        help="which benchmark suite to run (default: all)")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path override (single suite only)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the recorded reports instead of "
                             "overwriting them; exit 1 on >20%% regression")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed slowdown vs the recorded baseline "
                             "(default 0.20 = 20%%)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats (faster, noisier; not "
                             "recommended together with --check)")
    parser.add_argument("--profile", action="store_true",
                        help="profile each selected suite per span category "
                             "(admit/defrag/restore/... via SpanProfiler); "
                             "only the suites that drive the online engine "
                             f"({', '.join(sorted(ENGINE_SUITES))}) emit "
                             "spans (timings are inflated; do not combine "
                             "with --check or record baselines from a "
                             "profiled run)")
    parser.add_argument("--trace", type=Path, default=None,
                        help="(service suite only) write the replays' span "
                             "stream to this JSONL file via a "
                             "Tracer(JsonlSink) closed on completion")
    args = parser.parse_args(argv)

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.output is not None and len(suites) > 1:
        parser.error("--output needs a single --suite")
    if args.profile and not ENGINE_SUITES.issuperset(suites):
        parser.error("--profile attributes cost per span category, and "
                     "only the online-engine suites emit spans: pick one "
                     f"of {', '.join(sorted(ENGINE_SUITES))} with --suite")
    if args.profile and args.check:
        parser.error("--profile inflates timings 2-5x; checking them "
                     "against a recorded baseline would flag phantom "
                     "regressions — run the flags separately")
    if args.trace is not None and suites != ["service"]:
        parser.error("--trace dumps the service replays' span stream; "
                     "use it with --suite service")
    if args.trace is not None and args.profile:
        parser.error("--trace and --profile both instrument the replays; "
                     "run them separately")

    status = 0
    for name in suites:
        status |= _run_suite(name, args)
        print()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
