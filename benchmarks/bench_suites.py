"""E12–E19, E21 — every bench gate, one parametrised harness.

Runs each suite of :data:`repro.analysis.suites.SUITES` once, prints its
records and asserts that they meet every claim the suite declares (the
per-run rules; ``scripts/bench_report.py --check`` adds the comparison
with the recorded ``BENCH_*.json``).  Select one suite by name:

    python -m pytest benchmarks/bench_suites.py -k routing -s
"""

import pytest

from repro.analysis.suites import SUITES, print_records, problems

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("suite", SUITES.values(), ids=list(SUITES))
def test_suite_claims(suite, benchmark, run_once):
    records = run_once(benchmark, suite.run, 3)
    print()
    print_records(suite, records)
    assert problems(suite, records) == []
