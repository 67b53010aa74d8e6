"""Record or check the bench gates E12–E19 and E21 (``BENCH_*.json``).

    python scripts/bench_report.py                   # run + write reports
    python scripts/bench_report.py --check           # run + fail on regression
    python scripts/bench_report.py --suite defrag    # one suite only
    python scripts/bench_report.py --quick           # fewer repeats (noisier)

Each suite, its BENCH file and its claims are declared once in
:mod:`repro.analysis.suites`.  A run prints the records and every claim
they miss and exits 1 if any; ``--check`` also compares them with the
recorded report (``--tolerance`` bounds the two-signal timing rule) and
writes nothing.  ``--output`` overrides the report path of a single
suite.

``--profile`` installs a :class:`~repro.obs.profiling.SpanProfiler` as
the process-wide default and prints each span category's call counts,
wall time and top functions; only suites that build online engines emit
spans.  ``--trace PATH`` streams the replays' spans to a JSONL file (read
it with :meth:`~repro.obs.analyze.TraceAnalyzer.from_jsonl`).  Neither
writes a report.  See PERFORMANCE.md for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.suites import SUITES, document, print_records, problems
from repro.obs.profiling import (
    SpanProfiler,
    clear_default_profile,
    set_default_profile,
)
from repro.obs.trace import JsonlSink, Tracer

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Suites whose runners build online engines, so ``--profile`` sees spans.
ENGINE_SUITES = frozenset(name for name, s in SUITES.items() if s.spans)
#: Suites whose runners take ``tracer=`` (``--trace``).
TRACED_SUITES = frozenset(name for name, s in SUITES.items() if s.traced)


def _run_suite(name: str, args) -> int:
    suite = SUITES[name]
    output: Path = (args.output if args.output is not None
                    else REPO_ROOT / suite.bench)
    repeats = 2 if args.quick else 3

    print(f"== suite: {name} ({suite.gate}) ==")
    if args.trace is not None:
        with Tracer(sink=JsonlSink(str(args.trace))) as tracer:
            records = suite.run(repeats=repeats, tracer=tracer)
    elif args.profile:
        profiler = SpanProfiler(engine="cprofile")
        set_default_profile(profiler)
        try:
            records = suite.run(repeats=repeats)
        finally:
            clear_default_profile()
    else:
        records = suite.run(repeats=repeats)
    print_records(suite, records)
    if args.trace is not None:
        print(f"-- span stream written to {args.trace} "
              f"({tracer.sink.emitted} records)")
    if args.profile:
        print(f"-- per-span profile for suite {name} --")
        print(profiler.report(top=10))

    baseline = None
    if args.check:
        if not output.exists():
            print(f"!! no recorded baseline at {output}; "
                  f"run without --check first")
            return 1
        baseline = json.loads(output.read_text())
    found = problems(suite, records, baseline, tolerance=args.tolerance)
    for problem in found:
        print(f"!! {problem}")
    if args.check:
        if not found:
            print(f"{name} within {args.tolerance:.0%} of the recorded "
                  f"baseline ({output})")
        return 1 if found else 0

    if args.profile or args.trace is not None:
        # instrumented timings are not baseline material: recording them
        # would turn every later --check into a free pass
        print(f"(--profile/--trace: not writing {output.name})")
        return 0
    output.write_text(json.dumps(document(suite, records, repeats),
                                 indent=2) + "\n")
    print(f"report written to {output}")
    return 1 if found else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the bench gates and record/check BENCH_*.json")
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
                        help="write the replays' span stream to this JSONL "
                             "file via a Tracer(JsonlSink) closed on "
                             "completion (suites: "
                             f"{', '.join(sorted(TRACED_SUITES))})")
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
    if args.trace is not None and (len(suites) > 1
                                   or suites[0] not in TRACED_SUITES):
        parser.error("--trace dumps the replays' span stream; use it with "
                     f"--suite {' or '.join(sorted(TRACED_SUITES))}")
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
