"""E16 — component-sharded online engine vs the unsharded path.

Two claims, both recorded in ``BENCH_sharding.json`` by
``scripts/bench_report.py --suite sharding``:

* on a multi-region topology holding 800+ concurrent lightpaths the
  sharded engine (O(arcs) structural events, per-fibre forbidden masks,
  shard-width views) pushes the same admission churn and defrag passes
  at least 3x faster than the unsharded engine, with identical blocking
  and colouring outcomes;
* full simulations — speculative routing, defrag triggers, timestamp
  batching — are decision-identical sharded vs unsharded, on traces that
  force component merges and splits mid-run.
"""

import pytest

from repro.analysis.bench_sharding import (
    SHARDING_SPEEDUP_TARGET,
    run_sharding_benchmark,
    sharding_problems,
)
from .conftest import report

pytestmark = pytest.mark.bench

THROUGHPUT_COLUMNS = ("scenario", "concurrent", "wavelengths",
                      "legacy_total_s", "new_total_s", "speedup_total",
                      "outcomes_equal", "shards", "component_merges",
                      "component_splits", "shard_rebuilds")
DIFFERENTIAL_COLUMNS = ("scenario", "arrivals", "blocking", "identical",
                        "component_merges", "component_splits")


def test_sharding_throughput_and_identity(benchmark, run_once):
    records = run_once(benchmark, run_sharding_benchmark, 2)
    throughput = [r for r in records if r["kind"] == "throughput"]
    differential = [r for r in records if r["kind"] == "differential"]
    report(throughput, columns=THROUGHPUT_COLUMNS,
           title="E16a / sharded engine — admission+defrag throughput")
    report(differential, columns=DIFFERENTIAL_COLUMNS,
           title="E16b / sharded engine — differential identity")
    assert len(throughput) >= 2 and len(differential) >= 2
    assert sharding_problems(records) == []
    # the tentpole claims, stated directly
    assert all(r["speedup_total"] >= SHARDING_SPEEDUP_TARGET
               for r in throughput), \
        [(r["scenario"], r["speedup_total"]) for r in throughput]
    assert all(r["concurrent"] >= 800 for r in throughput)
    assert all(r["outcomes_equal"] for r in throughput)
    assert all(r["identical"] for r in differential)
