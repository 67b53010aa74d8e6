"""Journal-replay crash recovery: the durable engine's bit-identity
contract.

:class:`~repro.online.persistence.DurableEngine` executes every op, then
appends one JSONL record; :func:`~repro.online.persistence.recover`
rebuilds an engine from the journal — jumping to the latest snapshot and
re-executing the tail through the real engine code paths, verifying each
recorded outcome on the way.  The contract under test:

* killed at **any** byte offset, recovery discards the torn tail and
  rebuilds state bit-identical (by :func:`~repro.online.persistence.
  engine_fingerprint`) to the live engine at the surviving record
  boundary — fuzzed here with hypothesis over op sequences and kill
  points, and swept over 50 seeds with random crash offsets in the
  ``slow`` sweep;
* a corrupted (non-torn) record, a truncated genesis, or a replay whose
  outcome disagrees with the journal raises
  :class:`~repro.exceptions.RecoveryError` with the record index;
* snapshots are pure accelerators: recovery through a snapshot and
  recovery replayed from genesis agree bit-for-bit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.recovery import _drive_durable
from repro.dipaths.requests import Request
from repro.exceptions import RecoveryError, ReproError, TransactionError
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.online.events import ARRIVAL, Event
from repro.online.persistence import DurableEngine, engine_fingerprint, recover
from repro.graphs.digraph import DiGraph

pytestmark = pytest.mark.recovery

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def diamond() -> DiGraph:
    graph = DiGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_arcs([(0, 1), (1, 3), (0, 2), (2, 3)])
    return graph


def small_workload(tmp_path, name="journal.jsonl", **kwargs):
    durable = DurableEngine(diamond(), str(tmp_path / name), wavelengths=4,
                            routing="k_shortest", speculative=True, **kwargs)
    durable.admit(0, request=Request(0, 3))
    durable.admit(1, request=Request(0, 3))
    durable.admit_batch([Event(0.0, ARRIVAL, 2, request=Request(2, 3)),
                         Event(0.0, ARRIVAL, 3, request=Request(0, 1))],
                        policy="greedy")
    durable.cut((0, 1))
    durable.depart(1)
    durable.defrag(order="highest_wavelength", max_moves=4)
    durable.repair((0, 1))
    return durable


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #
def test_recover_full_journal_is_bit_identical(tmp_path):
    durable = small_workload(tmp_path)
    durable.close()
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()
    assert recovered.records == durable.records


def test_recovered_engine_continues_journalling(tmp_path):
    durable = small_workload(tmp_path)
    durable.close()
    recovered = recover(durable.path)
    recovered.admit(9, request=Request(0, 3))
    recovered.close()
    twin = recover(recovered.path)
    twin.close()
    assert twin.fingerprint() == recovered.fingerprint()
    assert twin.records == durable.records + 1


def test_snapshot_recovery_matches_genesis_replay(tmp_path):
    with_snap = small_workload(tmp_path, name="snap.jsonl",
                               snapshot_every=3)
    without = small_workload(tmp_path, name="plain.jsonl")
    with_snap.close(), without.close()
    assert with_snap.fingerprint() == without.fingerprint()
    a = recover(with_snap.path)
    b = recover(without.path)
    a.close(), b.close()
    assert a.fingerprint() == b.fingerprint() == without.fingerprint()


def test_torn_tail_is_discarded_and_truncated(tmp_path):
    durable = small_workload(tmp_path)
    durable.close()
    data = Path(durable.path).read_bytes()
    boundary = data.rindex(b"\n", 0, len(data) - 1) + 1
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(data[:boundary])
    reference = recover(str(clean))
    reference.close()

    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[:boundary] + b'{"type": "adm')
    recovered = recover(str(torn))
    recovered.close()
    assert recovered.fingerprint() == reference.fingerprint()
    assert torn.read_bytes() == data[:boundary]     # tail truncated away


def test_torn_tail_with_trailing_garbage_is_discarded(tmp_path):
    """A torn record followed by stray bytes is still one torn suffix.

    A dying process can flush arbitrary garbage after the half-written
    record (buffered bytes, a partial fsync).  As long as no *clean*
    record follows, the whole suffix is torn: recovery discards it and
    truncates the journal to the last clean boundary.
    """
    durable = small_workload(tmp_path)
    durable.close()
    data = Path(durable.path).read_bytes()
    boundary = data.rindex(b"\n", 0, len(data) - 1) + 1
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(data[:boundary])
    reference = recover(str(clean))
    reference.close()

    for suffix in (b'{"type": "adm\n\x00\xff\xfe',   # torn line + raw bytes
                   b'\x00\xff\n\xfe\xfa'):           # garbage split by \n...
        # ...whose last chunk is itself unterminated
        torn = tmp_path / "garbage.jsonl"
        torn.write_bytes(data[:boundary] + suffix)
        recovered = recover(str(torn))
        recovered.close()
        assert recovered.fingerprint() == reference.fingerprint()
        assert torn.read_bytes() == data[:boundary]

    # negative control: garbage *followed by* a clean record is
    # corruption in the middle of the journal, never a torn tail
    lines = data.splitlines(keepends=True)
    bad = tmp_path / "mid.jsonl"
    bad.write_bytes(b"".join(lines[:-1]) + b"\x00garbage\n" + lines[-1])
    with pytest.raises(RecoveryError):
        recover(str(bad))


def test_clean_record_without_type_raises_recovery_error(tmp_path):
    """A clean, parsable record with no ``type`` key is not a torn tail:
    it fails replay as an unknown record type, with its index."""
    durable = small_workload(tmp_path)
    durable.close()
    data = Path(durable.path).read_bytes()
    typeless = tmp_path / "typeless.jsonl"
    typeless.write_bytes(data + b'{"rid":1}\n')
    with pytest.raises(RecoveryError, match="unknown record type None") \
            as excinfo:
        recover(str(typeless))
    assert excinfo.value.record == data.count(b"\n")


@pytest.mark.parametrize("final", ["cut", "repair"])
def test_torn_fault_record_tail_is_discarded(tmp_path, final):
    """A journal whose final, torn record is a CUT/REPAIR recovers cleanly.

    Fault records rewrite graph structure on replay, so a half-written
    one must be discarded exactly like a torn admit: recovery lands on
    the last clean boundary, bit-identical to an engine that never saw
    the fault — with or without trailing flush garbage.
    """
    durable = DurableEngine(diamond(), str(tmp_path / "faults.jsonl"),
                            wavelengths=4, routing="k_shortest",
                            speculative=True)
    durable.admit(0, request=Request(0, 3))
    durable.admit(1, request=Request(0, 3))
    durable.cut((0, 1))
    if final == "repair":
        durable.repair((0, 1))
    else:
        durable.repair((0, 1))
        durable.cut((0, 2))
    durable.close()
    data = Path(durable.path).read_bytes()
    boundary = data.rindex(b"\n", 0, len(data) - 1) + 1
    last = json.loads(data[boundary:])
    assert last["type"] == final             # the scenario tears a fault op

    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(data[:boundary])
    reference = recover(str(clean))
    reference.close()

    for suffix in (data[boundary:boundary + 12],       # half-written record
                   data[boundary:boundary + 12] + b"\n\x00\xff\xfe"):
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:boundary] + suffix)
        recovered = recover(str(torn))
        recovered.close()
        assert recovered.fingerprint() == reference.fingerprint()
        assert torn.read_bytes() == data[:boundary]

    # negative control: garbage *before* the clean fault record is mid-
    # journal corruption, never a torn tail
    bad = tmp_path / "mid.jsonl"
    bad.write_bytes(data[:boundary] + b"\x00garbage\n" + data[boundary:])
    with pytest.raises(RecoveryError):
        recover(str(bad))


def test_fsync_error_degrades_to_flush_once(tmp_path, monkeypatch):
    """fsync=True on a target that rejects fsync must not crash.

    Pipes and some pseudo-filesystems fail ``os.fsync`` with
    EINVAL/ENOTSUP.  The engine must try exactly once, note it in the
    diagnostic ``journal.fsync_unsupported`` counter, and journal on
    with plain flushes.
    """
    import repro.online.persistence as persistence

    calls = []

    def failing_fsync(fd):
        calls.append(fd)
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(persistence.os, "fsync", failing_fsync)
    durable = small_workload(tmp_path, name="nofsync.jsonl", fsync=True)
    durable.close()
    assert len(calls) == 1       # one attempt (the genesis append), then off
    diag = durable.engine.metrics.snapshot()["diagnostics"]["counters"]
    assert diag["journal.fsync_unsupported"] == 1
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()


def test_fsync_target_without_fileno_degrades_to_flush(tmp_path):
    """An in-memory-style handle (no ``fileno()``) only loses fsync."""
    durable = DurableEngine(diamond(), str(tmp_path / "mem.jsonl"),
                            wavelengths=4, fsync=True)

    class NoFdStream:            # write/flush/close but no fileno()
        def __init__(self, fh):
            self._fh = fh

        def write(self, s):
            return self._fh.write(s)

        def flush(self):
            self._fh.flush()

        def close(self):
            self._fh.close()

        @property
        def closed(self):
            return self._fh.closed

    durable._file = NoFdStream(durable._file)
    assert durable.admit(0, request=Request(0, 3)) is None
    durable.admit(1, request=Request(0, 3))
    durable.depart(0)
    durable.close()
    diag = durable.engine.metrics.snapshot()["diagnostics"]["counters"]
    assert diag["journal.fsync_unsupported"] == 1    # once, not per append
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()


def test_group_defers_sync_to_outermost_exit(tmp_path):
    """Inside a group records are buffered; the outermost exit writes
    them (also on an exception), and the bytes match autocommit's."""
    auto = small_workload(tmp_path, name="auto.jsonl")
    auto.close()
    path = tmp_path / "grouped.jsonl"
    durable = DurableEngine(diamond(), str(path), wavelengths=4,
                            routing="k_shortest", speculative=True)
    genesis = path.read_bytes()
    with durable.group():
        durable.admit(0, request=Request(0, 3))
        with durable.group():
            durable.admit(1, request=Request(0, 3))
        assert path.read_bytes() == genesis         # inner exit: no sync
    grouped = path.read_bytes()
    assert grouped.count(b"\n") == 3
    with pytest.raises(RuntimeError):
        with durable.group():
            durable.admit_batch(
                [Event(0.0, ARRIVAL, 2, request=Request(2, 3)),
                 Event(0.0, ARRIVAL, 3, request=Request(0, 1))],
                policy="greedy")
            raise RuntimeError("stop mid-group")
    assert path.read_bytes().count(b"\n") == 4     # the applied op synced
    durable.cut((0, 1))
    durable.depart(1)
    durable.defrag(order="highest_wavelength", max_moves=4)
    durable.repair((0, 1))
    durable.close()
    assert path.read_bytes() == Path(auto.path).read_bytes()


def test_genesis_record_bytes_are_pinned(tmp_path):
    """The genesis record of one fixed config, byte for byte: the
    journal format cannot drift without this literal changing."""
    graph = DiGraph()
    for arc in ((0, 1), (1, 2), (0, 2)):
        graph.add_arc(*arc)
    path = tmp_path / "genesis.jsonl"
    DurableEngine(graph, str(path), 5, routing="k_shortest",
                  policy="least_used", kempe_repair=True, seed=7,
                  k_candidates=3, speculative=True, snapshot_every=4,
                  restoration=False, restore_retries=1,
                  restore_move_budget=5, revert_on_repair=True,
                  restore_order="longest_route").close()
    assert path.read_bytes() == (
        b'{"arcs":[[0,1],[0,2],[1,2]],"k_candidates":3,"kempe_repair":true,'
        b'"policy":"least_used","restoration":false,"restore_move_budget":5,'
        b'"restore_order":"longest_route","restore_retries":1,'
        b'"revert_on_repair":true,"routing":"k_shortest","seed":7,'
        b'"snapshot_every":4,"speculative":true,"type":"genesis",'
        b'"version":1,"vertices":[0,1,2],"wavelengths":5}'
        b'\n')


#: Records of a journal written before the engine knobs lost ``sharded``:
#: the genesis record carries the retired key (``%s`` is its value).
_OLD_JOURNAL = (
    b'{"arcs":[[0,1],[0,2],[1,3],[2,3]],"k_candidates":4,'
    b'"kempe_repair":false,"policy":"first_fit","restoration":true,'
    b'"restore_move_budget":null,"restore_order":"highest_wavelength",'
    b'"restore_retries":2,"revert_on_repair":false,"routing":"k_shortest",'
    b'"seed":null,"sharded":%s,"snapshot_every":null,"speculative":false,'
    b'"type":"genesis","version":1,"vertices":[0,1,2,3],"wavelengths":2}\n'
    b'{"color":0,"dipath":null,"index":0,"outcome":null,"request":[0,3],'
    b'"rid":0,"type":"admit"}\n'
    b'{"color":0,"dipath":null,"index":1,"outcome":null,"request":[0,3],'
    b'"rid":1,"type":"admit"}\n'
    b'{"arc":[0,1],"defrag_moves":0,"restored":[0],"retries":0,'
    b'"stranded":[0],"type":"cut"}\n'
    b'{"color":null,"dipath":null,"index":null,"outcome":"no_wavelength",'
    b'"request":[0,3],"rid":2,"type":"admit"}\n'
    b'{"arc":[0,1],"defrag_moves":0,"restored":[],"reverted":[],'
    b'"type":"repair"}\n'
    b'{"outcome":true,"rid":1,"type":"depart"}\n'
    b'{"max_moves":null,"moves":1,"order":"highest_wavelength",'
    b'"reclaimed":0,"shard":null,"type":"defrag"}\n')


@pytest.mark.parametrize("sharded", [b"true", b"false"])
def test_journal_with_retired_sharded_key_recovers(tmp_path, sharded):
    """Genesis records written while ``sharded`` was a knob still
    recover — either value, onto the one engine — to the fingerprint of
    a fresh journalled replay of the same ops."""
    path = tmp_path / "old.jsonl"
    path.write_bytes(_OLD_JOURNAL % sharded)
    recovered = recover(str(path))
    recovered.close()
    assert "sharded" in recovered.genesis
    fresh = DurableEngine(diamond(), str(tmp_path / "fresh.jsonl"), 2,
                          routing="k_shortest")
    fresh.admit(0, request=Request(0, 3))
    fresh.admit(1, request=Request(0, 3))
    fresh.cut((0, 1))
    fresh.admit(2, request=Request(0, 3))
    fresh.repair((0, 1))
    fresh.depart(1)
    fresh.defrag()
    fresh.close()
    assert recovered.config == fresh.config
    assert engine_fingerprint(recovered.engine) \
        == engine_fingerprint(fresh.engine)
    # the fresh journal is the old one minus the retired key
    assert (tmp_path / "fresh.jsonl").read_bytes() \
        == _OLD_JOURNAL.replace(b'"sharded":%s,', b"")


def test_empty_or_torn_genesis_raises(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(RecoveryError):
        recover(str(empty))
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b'{"type": "genesis"')          # no newline: torn
    with pytest.raises(RecoveryError):
        recover(str(torn))


def test_corrupt_middle_record_raises_with_index(tmp_path):
    durable = small_workload(tmp_path)
    durable.close()
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    lines[2] = b'not json at all\n'
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError) as excinfo:
        recover(str(bad))
    assert excinfo.value.record == 2
    assert issubclass(RecoveryError, ReproError)


def test_tampered_outcome_is_caught_by_replay_verification(tmp_path):
    durable = small_workload(tmp_path)
    durable.close()
    lines = Path(durable.path).read_text().splitlines()
    index, admit = next((i, json.loads(line))
                        for i, line in enumerate(lines)
                        if json.loads(line).get("type") == "admit")
    admit["color"] = 3 - (admit["color"] or 0)       # lie about the outcome
    lines[index] = json.dumps(admit, separators=(",", ":"), sort_keys=True)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    with pytest.raises(RecoveryError) as excinfo:
        recover(str(tampered))
    assert excinfo.value.record == index


def test_defrag_time_budget_refused(tmp_path):
    durable = small_workload(tmp_path)
    with pytest.raises(TransactionError):
        durable.defrag(time_budget=0.5)
    durable.close()


# --------------------------------------------------------------------------- #
# crash-point fuzzing
# --------------------------------------------------------------------------- #
@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       ops=st.integers(min_value=1, max_value=25),
       snapshot_every=st.none() | st.integers(min_value=1, max_value=6),
       kill=st.floats(min_value=0.0, max_value=1.0))
@settings(**SETTINGS)
def test_crash_at_arbitrary_journal_offsets_recovers_bit_identical(
        tmp_path_factory, seed, ops, snapshot_every, kill):
    tmp = tmp_path_factory.mktemp("fuzz")
    graph = multi_region_topology(regions=2, region_size=10,
                                  arc_probability=0.2, coupling=2,
                                  seed=seed % 97)
    pairs = multi_region_traffic(graph, 40, inter_fraction=0.3,
                                 seed=seed % 89).pairs()
    durable = DurableEngine(graph, str(tmp / "journal.jsonl"),
                            wavelengths=6, routing="k_shortest",
                            speculative=True, snapshot_every=snapshot_every,
                            restore_retries=1, restore_move_budget=4)
    driven = _drive_durable(durable, pairs, ops, seed)
    durable.close()
    data = Path(durable.path).read_bytes()
    genesis_end = data.index(b"\n") + 1
    offset = genesis_end + round(kill * (len(data) - genesis_end))
    crash = tmp / "crash.jsonl"
    crash.write_bytes(data[:offset])
    recovered = recover(str(crash))
    recovered.close()
    complete = data[:offset].count(b"\n")
    assert recovered.fingerprint() == driven["fp_at"][complete]


@pytest.mark.slow
def test_fifty_seed_random_crash_offset_sweep(tmp_path):
    mismatches = []
    for seed in range(50):
        graph = multi_region_topology(regions=2, region_size=12,
                                      arc_probability=0.18, coupling=2,
                                      seed=seed)
        pairs = multi_region_traffic(graph, 60, inter_fraction=0.25,
                                     seed=seed + 1).pairs()
        journal = tmp_path / f"journal-{seed}.jsonl"
        durable = DurableEngine(graph, str(journal), wavelengths=6,
                                routing="k_shortest", speculative=True,
                                snapshot_every=9 if seed % 2 else None,
                                restore_retries=1, restore_move_budget=6)
        driven = _drive_durable(durable, pairs, ops=60, seed=seed + 2)
        durable.close()
        data = journal.read_bytes()
        genesis_end = data.index(b"\n") + 1
        rng = random.Random(seed * 31 + 7)
        for trial in range(4):
            offset = rng.randrange(genesis_end, len(data) + 1)
            crash = tmp_path / "crash.jsonl"
            crash.write_bytes(data[:offset])
            recovered = recover(str(crash))
            recovered.close()
            complete = data[:offset].count(b"\n")
            if recovered.fingerprint() != driven["fp_at"][complete]:
                mismatches.append((seed, offset))
    assert mismatches == []
