"""Print one identity digest line per perfbench workload and trace.

Each line: workload, trace seed, then sha256 digests (16 hex digits) of the
``simulate_online`` decisions, its ``engine_fingerprint`` and the journal
bytes of a durable ``serve_trace`` run (``-`` for in-memory workloads),
then the simulation's shard-tracker and colour-index counters.  Run it on
two commits and diff the outputs to check that a change kept every
decision (traces of ``perfbench/run.py --seed N``, default 201):

    python scripts/decision_digest.py [run seed ...]
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from repro.online import engine_fingerprint, simulate_online  # noqa: E402
from repro.online.faults import fault_surface  # noqa: E402
from repro.service import serve_trace  # noqa: E402


def sha(value) -> str:
    data = value if isinstance(value, bytes) else json.dumps(
        value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def journal_digest(wl, graph, events) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        serve_trace(fault_surface(graph, events), events, wl.wavelengths,
                    journal_path=path, **wl.engine, **wl.service)
        with open(path, "rb") as stream:
            return sha(stream.read())


def main(seeds) -> None:
    for name, wl in W.WORKLOADS.items():
        traces = [t for s in seeds for t in W.trace_seeds(s, wl.traces)]
        for trace_seed in traces:
            graph, events = wl.inputs(trace_seed)
            result = simulate_online(graph, events, wl.wavelengths,
                                     **wl.engine, **wl.simulator)
            records = result.engine.metrics.snapshot()["diagnostics"][
                "counters"]["colorindex.records"]
            journal = journal_digest(wl, graph, events) if wl.durable else "-"
            print(name, trace_seed, sha(W.decisions(result)),
                  sha(engine_fingerprint(result.engine)), journal,
                  f"shards={result.component_merges}/"
                  f"{result.component_splits}/{result.shard_rebuilds}",
                  f"records={records}", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [201])
