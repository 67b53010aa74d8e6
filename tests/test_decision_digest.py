"""Decision identity as a tier-1 gate.

``scripts/decision_digest.py`` digests, per perfbench workload and trace
of run seed 201, the ``simulate_online`` decisions, the final
``engine_fingerprint``, the durable service's journal bytes and the
colour-index record count.  The recorded output is
``tests/data/decision_digest_201.txt``; any change to a decision, to the
final state or to a journal byte on those 18 traces fails here.  A change
that moves decisions on purpose re-records the file and names each
changed line.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "decision_digest_201.txt"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_seed_201_digest_matches_the_recorded_file(monkeypatch):
    workloads = _load("_digest_workloads", ROOT / "perfbench" / "workloads.py",
                      monkeypatch)
    script = _load("_decision_digest", ROOT / "scripts" / "decision_digest.py",
                   monkeypatch)
    expected = GOLDEN.read_text().splitlines()
    actual = list(script.digest_lines(workloads, [201]))
    assert len(expected) == 18
    changed = [(want, got) for want, got in zip(expected, actual)
               if want != got]
    assert not changed, "\n".join(f"recorded {want}\n     now {got}"
                                  for want, got in changed)
    assert len(actual) == len(expected)
