"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload steady-memory --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``.
The last line of standard output is the result, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones.  The full
record (every figure, sample count and the machine stamp) goes to
standard error and to ``.perfbench/``, with the spans of a traced run.

Exit codes: 0 all checks passed; 1 a correctness check failed (the
result says ``"correct": false``); 2 bad arguments or no ``src/repro``
to benchmark; 3 the load generator could not hold its schedule, so the
latency figures are unresolved and no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import calibrate

OUT_DIR = ".perfbench"
#: Untraced/traced saturated pass pairs of a traced run.
TRACED_PAIRS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stamp(root: str) -> Dict[str, object]:
    """Where the numbers came from: compare wall clocks only between
    records with the same host, ``nproc`` and Python."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None          # e.g. an exported checkout without .git
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host": platform.node(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok and what not in self.failures:
            self.failures.append(what)


def check_pass(wl, checks: Checks, run, reference, journal: str,
               recover_times: List[float] = None) -> Dict[str, float]:
    """Check one pass and return its deterministic figures.

    Decisions must equal the oracle's, the engine must audit clean, and
    the final state must match the oracle's (in memory) or the journal's
    recovery (durable).  The pass's engine and service are released
    afterwards, so later passes run on the same heap.
    """
    from repro.online import engine_fingerprint, recover
    from workloads import decisions

    name = "open-loop" if run.open_loop is not None else "saturated"
    result = run.result
    checks.expect(run.failed == 0, f"{name}: {run.failed} ops raised")
    checks.expect(decisions(result) == reference.decisions,
                  f"{name}: decisions differ from simulate_online")
    engine = result.engine
    checks.expect(engine.audit() == [], f"{name}: engine.audit() failed")
    if not wl.durable:
        checks.expect(engine_fingerprint(engine) == reference.fingerprint,
                      f"{name}: final state differs from simulate_online")
    elif recover_times is not None:
        start = time.perf_counter()
        recovered = recover(journal)
        recover_times.append(time.perf_counter() - start)
        recovered.close()
        checks.expect(engine_fingerprint(recovered.engine)
                      == engine_fingerprint(engine),
                      f"{name}: recover() rebuilt a different engine")
    records = run.service.durable.records if wl.durable else 0
    journal_bytes = os.path.getsize(journal) if wl.durable else 0
    facts = {
        "blocking_rate": result.blocking_rate,
        "colours_over_load": float(result.wavelengths_used - reference.pi),
        "journal_bytes_per_op": journal_bytes / run.ops,
        "journal_bytes_per_record": journal_bytes / records if records
        else 0.0,
        "component_merges": result.component_merges,
        "component_splits": result.component_splits,
        "shard_rebuilds": result.shard_rebuilds,
    }
    run.result = run.service = None
    return facts


def references(wl, graph, events):
    """Oracles of the saturated and the open-loop passes, then freeze
    the long-lived heap so the collector stops rescanning it."""
    import gc

    import workloads as W

    saturated = W.reference(wl, graph, events, saturated=True)
    opened = (saturated if wl.saturated == "service"
              else W.reference(wl, graph, events, saturated=False))
    gc.collect()
    gc.freeze()
    return saturated, opened


def run_untraced(wl, seed: int, deadline: float, journal: str,
                 record: Dict[str, object], checks: Checks) -> Dict:
    import workloads as W

    # the run's traces take turns, so that a run measures several draws
    # of the arrival process rather than the luck of one
    traces = []
    for trace_seed in W.trace_seeds(seed, wl.traces):
        graph, events = wl.inputs(trace_seed)
        traces.append((graph, events) + references(wl, graph, events))
    graph, events, saturated_ref, open_ref = traces[0]
    check_pass(wl, checks, W.saturated_pass(wl, graph, events, journal),
               saturated_ref, journal)                        # warm-up
    check_pass(wl, checks, W.open_loop_pass(wl, graph, events, journal),
               open_ref, journal)

    # set-up, a saturated pass and an open-loop pass take turns until
    # another round would end after the deadline, so every metric samples
    # the whole run.  Every set-up and every chunk of a pass is scaled to
    # the reference core by the speed measured around it; those that ran
    # while the core changed speed are left out when any others exist.
    speed = calibrate.Speed()
    round_s = 0.0
    setup: List[tuple] = []
    saturated: List[tuple] = []
    latency: List[float] = []
    open_chunks: List[tuple] = []
    raw: Dict[str, List[float]] = {"setup_s": [], "saturated_ops_per_s": [],
                                   "open_loop_p50_ms": [],
                                   "open_loop_p99_ms": [],
                                   "loadgen_late_p99_ms": []}
    recover_times: List[float] = []
    rounds = ops = failed = sent = 0
    while (rounds < max(W.MIN_ROUNDS, len(traces))
           or time.perf_counter() + round_s <= deadline):
        round_start = time.perf_counter()
        graph, events, saturated_ref, open_ref = traces[rounds % len(traces)]
        seconds, factor, held = speed.timed(
            lambda: W.setup_time(wl, seed, journal))
        setup.append((seconds * factor, held))
        raw["setup_s"].append(seconds)

        run = W.saturated_pass(wl, graph, events, journal, speed=speed)
        saturated += run.chunks
        raw["saturated_ops_per_s"].append(run.ops / run.wall)
        ops += run.ops
        failed += run.failed
        facts = check_pass(wl, checks, run, saturated_ref, journal,
                           recover_times)

        run = W.open_loop_pass(wl, graph, events, journal, speed=speed)
        stats = run.open_loop
        latency += stats.scaled
        open_chunks += stats.chunks
        sent += len(stats.decide)
        raw["open_loop_p50_ms"].append(statistics.median(stats.decide) * 1e3)
        raw["open_loop_p99_ms"].append(
            W.percentile(stats.decide, 0.99) * 1e3)
        raw["loadgen_late_p99_ms"].append(
            W.percentile(stats.late, 0.99) * 1e3)
        ops += run.ops
        failed += run.failed
        check_pass(wl, checks, run, open_ref, journal)
        rounds += 1
        round_s = time.perf_counter() - round_start

    kept = [c for c in saturated if c[3]] or saturated
    record.update({
        "traces": len(traces),
        "rounds": rounds,
        "reference_kernel_s": calibrate.REFERENCE_S,
        "kernel_s": speed.kernel_s,
        **{f"{name}_raw": values for name, values in raw.items()},
        "setup_kept": sum(held for _, held in setup),
        "saturated_chunks": len(saturated),
        "saturated_chunks_kept": sum(c[3] for c in saturated),
        "open_loop_chunks": len(open_chunks),
        "open_loop_chunks_kept": sum(c[2] and c[3] for c in open_chunks),
        "open_loop_chunks_late": sum(not c[3] for c in open_chunks),
        "offered_ops_per_s": wl.offered_ops_per_s,
        "latency_samples": len(latency),
        "latency_samples_sent": sent,
        "late_limit_ms": W.LATE_LIMIT_MS,
        "recover_s": (statistics.median(recover_times)
                      if recover_times else None),
        "peak_fibre_load": saturated_ref.pi,
        "failed_ratio": failed / ops,
        **facts,
    })
    checks.expect(sent >= W.MIN_LATENCY_SAMPLES,
                  f"open-loop: {sent} arrivals are too few for p99")
    if len(latency) < W.MIN_LATENCY_SAMPLES:
        # too few chunks held one speed and their schedule
        record["unresolved"] = ["decide_p50_ms", "decide_p99_ms"]
        latency = [0.0]
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(
                [s for s, held in setup if held] or [s for s, _ in setup]),
            "ops_per_s": sum(c[0] for c in kept)
            / sum(c[1] * c[2] for c in kept),
            "decide_p50_ms": statistics.median(latency) * 1e3,
            "decide_p99_ms": W.percentile(latency, 0.99) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def run_traced(wl, seed: int, journal: str, out_prefix: str,
               record: Dict[str, object], checks: Checks) -> Dict:
    import workloads as W
    from repro.obs import ListSink, Tracer
    from repro.online import engine_fingerprint, recover
    from spans import SpanRecorder, engine_ledger, service_ledger

    graph, events = wl.inputs(seed)
    saturated_ref, open_ref = references(wl, graph, events)

    check_pass(wl, checks, W.saturated_pass(wl, graph, events, journal),
               saturated_ref, journal)                        # warm-up
    # untraced and traced passes alternate; the overhead ratio compares
    # the fastest of each, and the last traced pass feeds the ledger
    plain_walls, traced_walls, runs = [], [], []
    for _ in range(TRACED_PAIRS):
        plain = W.saturated_pass(wl, graph, events, journal)
        plain_walls.append(plain.wall)
        plain_facts = check_pass(wl, checks, plain, saturated_ref, journal)
        with SpanRecorder() as saturated_spans:
            traced = W.saturated_pass(wl, graph, events, journal,
                                      saturated_spans)
        traced_walls.append(traced.wall)
        runs += [plain, traced]
        live = traced.result.engine
        traced_facts = check_pass(wl, checks, traced, saturated_ref,
                                  journal)
        for key in ("blocking_rate", "colours_over_load",
                    "journal_bytes_per_op"):
            checks.expect(traced_facts[key] == plain_facts[key],
                          f"tracing changed {key}: {plain_facts[key]} -> "
                          f"{traced_facts[key]}")

    recover_metrics = {"recover.records_per_s": 0.0,
                       "recover.replay_us": 0.0}
    if wl.durable:
        tracer = Tracer(ListSink(), wall_clock=True)
        start = time.perf_counter()
        recovered = recover(journal, tracer=tracer)
        wall = time.perf_counter() - start
        recovered.close()
        checks.expect(engine_fingerprint(recovered.engine)
                      == engine_fingerprint(live),
                      "traced recover() rebuilt a different engine")
        replay = [r for r in tracer.records()
                  if r["kind"] == "span" and r["name"] == "replay"]
        replayed = sum(r["tags"]["count"] for r in replay)
        recover_metrics["recover.records_per_s"] = recovered.records / wall
        recover_metrics["recover.replay_us"] = (
            sum(r["wall"] for r in replay) * 1e6 / replayed
            if replayed else 0.0)
    del live

    with SpanRecorder() as open_spans:
        open_run = W.open_loop_pass(wl, graph, events, journal, open_spans)
    check_pass(wl, checks, open_run, open_ref, journal)
    saturated_spans.dump(f"{out_prefix}-saturated-spans.jsonl.gz")
    open_spans.dump(f"{out_prefix}-open-loop-spans.jsonl.gz")

    metrics = engine_ledger(saturated_spans)
    metrics.update(recover_metrics)
    metrics.update(service_ledger(open_spans, open_run.open_loop,
                                  wl.open_loop_events(events)))
    metrics.update({
        "conflict.merges": float(traced_facts["component_merges"]),
        "conflict.splits": float(traced_facts["component_splits"]),
        "conflict.rebuilds": float(traced_facts["shard_rebuilds"]),
        "journal.bytes_per_record": traced_facts["journal_bytes_per_record"],
        "loadgen.late_p99_ms":
            W.percentile(open_run.open_loop.late, 0.99) * 1e3,
        "bench.trace_overhead_ratio": min(traced_walls) / min(plain_walls),
        "quality.blocking_rate": traced_facts["blocking_rate"],
        "quality.colours_over_load": traced_facts["colours_over_load"],
    })
    record.update({"untraced_wall_s": plain_walls,
                   "traced_wall_s": traced_walls,
                   "saturated_spans": len(saturated_spans.spans),
                   "open_loop_spans": len(open_spans.spans),
                   **traced_facts})
    runs.append(open_run)
    return {"attempted": sum(r.ops for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metrics}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {root}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    import workloads as W

    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    prefix = os.path.join(
        OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    journal = f"{prefix}-{os.getpid()}.journal.jsonl"
    record: Dict[str, object] = {"workload": wl.name, "seed": args.seed,
                                 "seconds": args.seconds,
                                 "trace": args.trace, **stamp(root)}
    checks = Checks()
    try:
        if args.trace:
            result = run_traced(wl, args.seed, journal, prefix, record,
                                checks)
        else:
            result = run_untraced(wl, args.seed, deadline, journal, record,
                                  checks)
    finally:
        if os.path.exists(journal):
            os.remove(journal)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted
               if m["name"] not in result["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    record["metrics"] = result["metrics"]
    record["check_failures"] = checks.failures
    line = json.dumps(record, sort_keys=True)
    with open(f"{prefix}.record.json", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line, file=sys.stderr)
    if record.get("unresolved"):
        print("perfbench: the load generator ran late on every open-loop "
              f"pass (late p99 above {W.LATE_LIMIT_MS} ms); latency "
              "unresolved", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
