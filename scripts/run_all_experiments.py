"""Run every reproduction experiment (E1–E11) and persist the results.

This is the scripted counterpart of ``pytest benchmarks/ --benchmark-only``:
it runs the same drivers, prints the paper-style tables and writes
CSV + JSON reports under ``results/`` so the numbers can be tracked across
versions or plotted externally.

Usage:
    python scripts/run_all_experiments.py [output_dir] [--skip-slow]

After E1–E11 it runs the bench gates declared in
:mod:`repro.analysis.suites` against their recorded ``BENCH_*.json``
files, then the E20 lint gate.  ``--skip-slow`` mirrors the test suite's
``slow`` pytest marker (see ``pytest.ini``): the gates declared slow
(all but E12 and E13) are skipped so a quick sweep stays quick.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.analysis import (
    algorithm_comparison_experiment,
    certificate_experiment,
    figure1_experiment,
    figure3_experiment,
    format_records,
    main_theorem_experiment,
    optical_rwa_experiment,
    theorem1_experiment,
    theorem2_experiment,
    theorem6_experiment,
    theorem7_experiment,
    upp_properties_experiment,
    write_csv,
    write_json,
)
from repro.analysis.suites import SUITES, problems

EXPERIMENTS = [
    ("E01_figure1", "Figure 1 — unbounded ratio",
     lambda: figure1_experiment((2, 3, 4, 5, 6, 8, 10, 12))),
    ("E02_figure3", "Figure 3 — worked example", figure3_experiment),
    ("E03_theorem1", "Theorem 1 — w = pi without internal cycles",
     lambda: theorem1_experiment(num_instances=12)),
    ("E04_theorem2", "Theorem 2 / Figure 5 — gadget series",
     lambda: theorem2_experiment((2, 3, 4, 5, 6, 8, 10))),
    ("E05_main_theorem", "Main Theorem — both directions",
     lambda: main_theorem_experiment(num_instances=10)),
    ("E06_upp_properties", "Property 3 / Corollary 5 — UPP structure",
     lambda: upp_properties_experiment(num_instances=12)),
    ("E07_theorem6", "Theorem 6 — 4/3 colour budget",
     lambda: theorem6_experiment(num_random=12, havet_copies=(1, 2, 3, 4))),
    ("E08_theorem7", "Theorem 7 — tightness",
     lambda: theorem7_experiment((1, 2, 3, 4, 6, 8))),
    ("E09_certificates", "Certificates", lambda: certificate_experiment(10)),
    ("E10_optical", "Optical RWA end to end", optical_rwa_experiment),
    ("E11_ablation", "Algorithm comparison",
     lambda: algorithm_comparison_experiment((20, 40, 60))),
]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run every reproduction experiment and the bench gates")
    parser.add_argument("output_dir", nargs="?", type=Path,
                        default=Path("results"),
                        help="where to write the CSV/JSON reports")
    parser.add_argument("--skip-slow", action="store_true",
                        help="skip the bench gates declared slow (all "
                             "but E12 and E13), mirroring the test "
                             "suite's 'slow' marker")
    args = parser.parse_args()
    output_dir = args.output_dir
    output_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for key, title, driver in EXPERIMENTS:
        start = time.perf_counter()
        records = driver()
        elapsed = time.perf_counter() - start
        print()
        print(format_records(records, title=f"{key}: {title}  ({elapsed:.1f}s)"))
        write_csv(records, output_dir / f"{key}.csv")
        write_json(records, output_dir / f"{key}.json",
                   metadata={"experiment": key, "title": title,
                             "elapsed_seconds": elapsed})
        # any explicit verification flags present in the records must be true
        for record in records:
            for flag in ("equal", "matches_theorem", "within_bound",
                         "matches_paper", "gap_witnessed"):
                if flag in record and not record[flag]:
                    failures += 1
                    print(f"!! {key}: claim flag {flag} is False in {record}")
    # The bench gates E12–E19 and E21: each suite's claims, checked
    # against its recorded BENCH file (see scripts/bench_report.py).
    repo_root = Path(__file__).resolve().parents[1]
    for suite in SUITES.values():
        if suite.slow and args.skip_slow:
            print(f"(--skip-slow: skipping {suite.gate})")
            continue
        bench_path = repo_root / suite.bench
        if not bench_path.exists():
            print(f"(no {bench_path.name}; run scripts/bench_report.py "
                  f"to record one)")
            continue
        print()
        print(f"{suite.gate}: {suite.title} vs recorded baseline ...")
        records = suite.run(repeats=3)
        found = problems(suite, records, json.loads(bench_path.read_text()))
        for problem in found:
            failures += 1
            print(f"!! bench regression: {problem}")
        if not found:
            print("   within tolerance "
                  + ", ".join(
                      f"{r['scenario']}={r['speedup_total']:.1f}x"
                      for r in records if "speedup_total" in r))

    # E20: the determinism & contract lint gate (see CONTRACTS.md).  The
    # static counterpart of the differential identity gates above: E13–E19
    # *observe* that decisions replay bit-identically, E20 *rejects* the
    # code patterns that would break them (wall-clock reads, global RNG,
    # unordered set iteration, untyped engine failures, mis-namespaced
    # metrics, dead code).  Pure AST analysis in well under a second, so
    # it runs even with --skip-slow.
    print()
    print("E20: determinism & contract lint gate (src/repro) ...")
    from repro.lint import lint_package

    report = lint_package()
    for finding in report.new_findings:
        failures += 1
        print(f"!! lint: {finding.render()}")
    if not report.new_findings:
        print(f"   clean ({len(report.findings)} finding(s), "
              f"{report.grandfathered} grandfathered)")
    if report.stale_baseline:
        print(f"   note: {len(report.stale_baseline)} stale baseline "
              f"entr{'y' if len(report.stale_baseline) == 1 else 'ies'} — "
              f"prune lint_baseline.json")

    print()
    print(f"reports written to {output_dir}/ "
          f"({'all claims verified' if failures == 0 else f'{failures} violations'})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
