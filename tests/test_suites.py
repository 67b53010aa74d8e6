"""The bench-gate registry (:mod:`repro.analysis.suites`).

Every check runs on the recorded ``BENCH_*.json`` files; no benchmark is
timed here.  A recorded document must pass its own suite, breaking any
one declared rule must yield exactly one problem that names it, the
two-signal timing rule must need both signals, and :func:`document`
must rebuild each file's schema so no BENCH file needs re-recording.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.suites import SUITES, document, problems

REPO_ROOT = Path(__file__).resolve().parents[1]
TOLERANCE = 0.20

#: suite -> records with its cross-record claim broken, and a word the
#: problem must contain
CROSS_BREAKS = {
    "recovery": (lambda records: [
        dict(r, records_per_second=1.0)
        if r.get("kind") == "crash_recovery" else r
        for r in records], "snapshot"),
}

TIMED = [suite for suite in SUITES.values()
         if any(kind.timing_slack is not None
                for kind in suite.kinds.values())]

by_suite = pytest.mark.parametrize("suite", SUITES.values(), ids=list(SUITES))


def _recorded(suite):
    return json.loads((REPO_ROOT / suite.bench).read_text())


def _broken_rules(suite, doc):
    """Yield (key named, records, baseline), each breaking one rule once."""
    records = doc["results"]
    for kind_name, kind in suite.kinds.items():
        i = next(i for i, r in enumerate(records)
                 if r.get("kind") == kind_name)

        def mutated(key, value):
            changed = copy.deepcopy(records)
            changed[i][key] = value
            return changed

        # flags against the baseline too: a false flag is one problem
        # whether or not the run is compared with the recorded file
        for key in kind.flags:
            yield key, mutated(key, False), doc
        for key, floor in kind.floors.items():
            yield key, mutated(key, floor - 1), None
        for key, ceiling in kind.ceilings.items():
            yield key, mutated(key, ceiling + 1), doc
        for key in kind.exact:
            yield key, mutated(key, records[i][key] + 1), doc
        for key, bound in kind.drift.items():
            yield key, mutated(key, records[i][key] + 2 * bound), doc
        if kind.timing_slack is not None:
            base = records[i]
            slowed = mutated("new_total_s", 1.01 * (
                base["new_total_s"] * (1 + TOLERANCE) + kind.timing_slack))
            slowed[i]["speedup_total"] = (base["speedup_total"]
                                          / (1 + TOLERANCE) / 1.01)
            yield "new_total_s", slowed, doc
        same = [r for r in records if r.get("kind") == kind_name]
        short = ([r for r in records if r.get("kind") != kind_name]
                 + same[:kind.min_records - 1])
        yield "record(s)", short, None
    if suite.cross is not None:
        breaks, word = CROSS_BREAKS[suite.name]
        yield word, breaks(records), None


@by_suite
def test_recorded_document_passes_its_suite(suite):
    doc = _recorded(suite)
    assert problems(suite, doc["results"], doc) == []
    assert problems(suite, doc["results"]) == []


@by_suite
def test_each_broken_rule_is_one_problem_naming_it(suite):
    doc = _recorded(suite)
    broken = list(_broken_rules(suite, doc))
    assert broken
    for key, records, baseline in broken:
        found = problems(suite, records, baseline, tolerance=TOLERANCE)
        assert len(found) == 1 and key in found[0], (key, found)


def test_a_false_flag_is_reported_once():
    suite = SUITES["chaos"]
    doc = _recorded(suite)
    records = copy.deepcopy(doc["results"])
    records[0]["decisions_equal"] = False
    assert problems(suite, records, doc) == [
        "chaos-flash-crowd-cuts: decisions_equal is false — the service "
        "decided differently from simulate_online on the same trace"]


@pytest.mark.parametrize("suite", TIMED, ids=[s.name for s in TIMED])
def test_timing_regression_needs_both_signals(suite):
    doc = _recorded(suite)
    timed = [i for i, r in enumerate(doc["results"])
             if suite.kinds[r.get("kind")].timing_slack is not None]
    assert timed
    for i in timed:
        def scaled(time, speedup):
            records = copy.deepcopy(doc["results"])
            records[i]["new_total_s"] *= time
            records[i]["speedup_total"] /= speedup
            return records

        assert problems(suite, scaled(2, 1), doc) == []
        # a halved speedup may miss the suite's floor (a per-run rule),
        # but it is no timing regression on its own
        halved = scaled(1, 2)
        assert problems(suite, halved, doc) == problems(suite, halved)
        # a deliberately slowed engine trips both signals
        slowed = scaled(2, 2)
        regression = [p for p in problems(suite, slowed, doc)
                      if p not in problems(suite, slowed)]
        assert len(regression) == 1 and "new_total_s" in regression[0]


@by_suite
def test_document_keeps_the_recorded_schema(suite):
    doc = _recorded(suite)
    rebuilt = document(suite, doc["results"], doc["repeats"])
    assert list(rebuilt) == list(doc)
    rebuilt.pop("python"), doc.pop("python")
    assert rebuilt == doc


def test_registry_declares_the_nine_gates_once():
    assert [s.gate for s in SUITES.values()] == [
        "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E21"]
    assert len({s.bench for s in SUITES.values()}) == len(SUITES)
    assert set(CROSS_BREAKS) == {s.name for s in SUITES.values() if s.cross}
