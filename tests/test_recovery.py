"""Journal-replay crash recovery: the durable engine's bit-identity
contract.

:class:`~repro.online.persistence.DurableEngine` executes every op, then
appends one CRC-framed JSON line; :func:`~repro.online.persistence.recover`
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
  recovery replayed from genesis agree bit-for-bit;
* the hot-record templates write exactly the generic encoder's bytes,
  only the genesis, the last snapshot and the tail are JSON-decoded, and
  a v1 journal recovers to the same state and is migrated to v2.
"""

from __future__ import annotations

import json
import os
import random
import stat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.recovery import _drive_durable
from repro.conflict import build_conflict_graph
from repro.dipaths.dipath import Dipath
from repro.dipaths.requests import Request
from repro.exceptions import (
    RecoveryError,
    ReproError,
    TransactionError,
    VertexNotFoundError,
)
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.online import NO_ROUTE
from repro.online.events import ARRIVAL, Event
from repro.online.transaction import BATCH_POLICIES
import repro.online.persistence as persistence
from repro.online.persistence import (
    DurableEngine,
    _frame,
    engine_fingerprint,
    read_journal,
    recover,
)
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


def burst_workload(tmp_path, name="burst.jsonl", **kwargs):
    """:func:`small_workload`, then one run of departures journalled as a
    single ``depart_batch`` record: request 0 was rerouted by the cut,
    request 9 never arrived (``held`` false)."""
    durable = small_workload(tmp_path, name=name, **kwargs)
    assert durable.depart_batch([0, 9, 2, 3]) == [True, False, True, True]
    return durable


def every_record_workload(tmp_path, name="every.jsonl"):
    """One journal holding every record type: ``admit``, ``admit_batch``
    under each batch policy, ``depart``, ``depart_batch``, ``defrag``,
    ``cut``, ``repair`` and one ``snapshot``, taken early so that every
    other type also follows it (and :func:`recover` replays it)."""
    durable = DurableEngine(diamond(), str(tmp_path / name), wavelengths=2,
                            routing="k_shortest", speculative=True)
    durable.admit(0, request=Request(0, 3))
    durable.snapshot()
    durable.admit(1, request=Request(0, 3))
    durable.admit(2, request=Request(0, 3))              # no wavelength
    rids = iter(range(3, 100))
    for policy in BATCH_POLICIES:
        durable.admit_batch(
            [Event(0.0, ARRIVAL, next(rids), request=Request(*pair))
             for pair in ((2, 3), (0, 1), (0, 3))], policy=policy)
    durable.depart(1)
    durable.cut((0, 1))
    durable.depart_batch([0, 99, 3])
    durable.defrag(order="highest_wavelength", max_moves=4)
    durable.repair((0, 1))
    durable.admit(next(rids), request=Request(0, 3))
    return durable


def replay_from_genesis(records, tmp_path) -> DurableEngine:
    """Every record after the genesis through ``_replay``, snapshots
    included (each one an integrity gate)."""
    replica = DurableEngine._resume(records[0],
                                    str(tmp_path / "replica.jsonl"))
    for index, record in enumerate(records[1:], 1):
        replica._replay(record, index)
    return replica


def tampered(value):
    """A different JSON value of the same shape: a lie about an
    outcome that only replay verification can catch."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, list):
        return value + [value[0] if value else 0]
    if isinstance(value, dict):
        if not value:
            return {"0": 0}
        key = min(value)
        return dict(value, **{key: tampered(value[key])})
    return 0                                                  # None


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


@pytest.mark.parametrize("snapshot_every", [None, 3])
def test_journal_ending_in_depart_batch_recovers_to_live_fingerprint(
        tmp_path, snapshot_every):
    durable = burst_workload(tmp_path, snapshot_every=snapshot_every)
    durable.close()
    records = read_journal(durable.path)
    last = [r for r in records if r["type"] != "snapshot"][-1]
    assert last == {"type": "depart_batch", "rids": [0, 9, 2, 3],
                    "held": [True, False, True, True]}
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()
    assert recovered.records == durable.records
    assert recovered.injector._rerouted == {}       # departed: forgotten


def test_depart_batch_counts_once_per_departure_toward_snapshot_every(
        tmp_path):
    # small_workload leaves 8 records (genesis included) toward the next
    # snapshot; the four-departure run brings the count to 12, as four
    # depart records would
    durable = burst_workload(tmp_path, snapshot_every=10)
    durable.close()
    assert [r["type"] for r in read_journal(durable.path)][-2:] == [
        "depart_batch", "snapshot"]


def test_recovered_engine_keeps_the_live_snapshot_cadence(tmp_path):
    """Recovery resumes the ``snapshot_every`` count where the live
    engine left it, a ``depart_batch`` counting once per departure: the
    same ops appended to the live and the recovered journal write the
    same bytes, snapshot included."""
    durable = burst_workload(tmp_path, snapshot_every=16)
    durable.sync()
    crashed = tmp_path / "crashed.jsonl"
    crashed.write_bytes(Path(durable.path).read_bytes())
    recovered = recover(str(crashed))
    for engine in (durable, recovered):
        engine.admit(10, request=Request(0, 3))
        engine.admit(11, request=Request(0, 2))
        engine.depart_batch([10, 11])
        engine.close()
    assert read_journal(durable.path)[-1]["type"] == "snapshot"
    assert crashed.read_bytes() == Path(durable.path).read_bytes()


def test_an_offline_query_leaves_no_warm_mask_cache_behind(tmp_path):
    # an offline conflict query on the live family warms its mask cache;
    # the next admission must drop it rather than keep patching it
    warmed = DurableEngine(diamond(), str(tmp_path / "warm.jsonl"),
                           wavelengths=4)
    never = DurableEngine(diamond(), str(tmp_path / "cold.jsonl"),
                          wavelengths=4)
    for durable in (warmed, never):
        durable.admit(0, request=Request(0, 3))
        durable.admit(1, request=Request(0, 3))
    family = warmed.engine.family
    build_conflict_graph(family)
    assert family._conflict_masks is not None
    for durable in (warmed, never):
        durable.admit(2, request=Request(2, 3))
    assert family._conflict_masks is None
    warmed.snapshot()
    warmed.close(), never.close()
    snapshot = read_journal(warmed.path)[-1]
    assert snapshot["type"] == "snapshot"
    assert snapshot["state"]["masks_warm"] is False
    assert engine_fingerprint(warmed.engine) == \
        engine_fingerprint(never.engine)


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


def test_torn_depart_batch_tail_is_discarded(tmp_path):
    """A crash inside a ``depart_batch`` line tears the whole run: none
    of its departures is durable, and recovery lands on the state before
    it."""
    durable = burst_workload(tmp_path)
    durable.close()
    data = Path(durable.path).read_bytes()
    boundary = data.rindex(b"\n", 0, len(data) - 1) + 1
    assert b'"type":"depart_batch"' in data[boundary:]
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(data[:boundary])
    reference = recover(str(clean))
    reference.close()
    assert set(reference.vertex_of) == {0, 2, 3}

    middle = boundary + (len(data) - boundary) // 2
    for suffix in (data[boundary:middle],
                   data[boundary:middle] + b"\n\x00\xff",
                   data[boundary:-1]):                # all but the newline
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:boundary] + suffix)
        recovered = recover(str(torn))
        recovered.close()
        assert recovered.fingerprint() == reference.fingerprint()
        assert torn.read_bytes() == data[:boundary]


def test_clean_record_without_type_raises_recovery_error(tmp_path):
    """A clean, parsable record with no ``type`` key is not a torn tail:
    it fails replay as an unknown record type, with its index."""
    durable = small_workload(tmp_path)
    durable.close()
    data = Path(durable.path).read_bytes()
    typeless = tmp_path / "typeless.jsonl"
    typeless.write_bytes(data + _frame('{"rid":1}'))
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
    last = read_journal(durable.path)[-1]
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


def _pinned_config_engine(path) -> DurableEngine:
    graph = DiGraph()
    for arc in ((0, 1), (1, 2), (0, 2)):
        graph.add_arc(*arc)
    return DurableEngine(graph, str(path), 5, routing="k_shortest",
                         policy="least_used", kempe_repair=True, seed=7,
                         k_candidates=3, speculative=True, snapshot_every=4,
                         restoration=False, restore_retries=1,
                         restore_move_budget=5, revert_on_repair=True,
                         restore_order="longest_route")


#: The genesis record of one fixed config as the v1 writer wrote it.
_V1_GENESIS = (
    b'{"arcs":[[0,1],[0,2],[1,2]],"k_candidates":3,"kempe_repair":true,'
    b'"policy":"least_used","restoration":false,"restore_move_budget":5,'
    b'"restore_order":"longest_route","restore_retries":1,'
    b'"revert_on_repair":true,"routing":"k_shortest","seed":7,'
    b'"snapshot_every":4,"speculative":true,"type":"genesis",'
    b'"version":1,"vertices":[0,1,2],"wavelengths":5}'
    b'\n')


def test_genesis_record_bytes_are_pinned(tmp_path):
    """The genesis record of one fixed config, byte for byte: the
    journal format cannot drift without this literal changing."""
    path = tmp_path / "genesis.jsonl"
    _pinned_config_engine(path).close()
    assert path.read_bytes() == (
        b'f4ac4082 '
        b'{"arcs":[[0,1],[0,2],[1,2]],"k_candidates":3,"kempe_repair":true,'
        b'"policy":"least_used","restoration":false,"restore_move_budget":5,'
        b'"restore_order":"longest_route","restore_retries":1,'
        b'"revert_on_repair":true,"routing":"k_shortest","seed":7,'
        b'"snapshot_every":4,"speculative":true,"type":"genesis",'
        b'"version":2,"vertices":[0,1,2],"wavelengths":5}'
        b'\n')
    # the v2 payload is the v1 record at version 2, framed (this table
    # is [0, 1, 2], so the arcs' indices read like their labels)
    assert path.read_bytes() == _frame(
        _V1_GENESIS[:-1].replace(b'"version":1', b'"version":2').decode())


def test_v1_genesis_literal_recovers_and_migrates(tmp_path):
    """A v1 journal of just the pinned genesis recovers to the fresh
    engine of that config; the file is then a v2 journal (genesis plus
    one snapshot) that recovers to the same fingerprint again."""
    fresh = _pinned_config_engine(tmp_path / "fresh.jsonl")
    fresh.close()
    path = tmp_path / "v1.jsonl"
    path.write_bytes(_V1_GENESIS)
    recovered = recover(str(path))
    recovered.close()
    assert recovered.config == fresh.config
    assert recovered.fingerprint() == fresh.fingerprint()
    records = read_journal(str(path))
    assert [r["type"] for r in records] == ["genesis", "snapshot"]
    assert records[0] == read_journal(fresh.path)[0]
    assert path.read_bytes().startswith(
        (tmp_path / "fresh.jsonl").read_bytes())
    assert recovered.records == 2
    again = recover(str(path))
    again.close()
    assert again.fingerprint() == fresh.fingerprint()
    assert not (tmp_path / "v1.jsonl.migrating").exists()


def test_v1_migration_fsyncs_the_directory_after_the_rename(tmp_path,
                                                           monkeypatch):
    """The migrated file is fsynced before ``os.replace`` and its
    directory after it, so appends acknowledged after the migration
    cannot be lost to a rename that never reached the disk."""
    path = tmp_path / "v1.jsonl"
    path.write_bytes(_V1_GENESIS)
    events = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else "file")
        fsync(fd)

    def spy_replace(src, dst):
        events.append("replace")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    recover(str(path)).close()
    assert events[:3] == ["file", "replace", "dir"]


#: Records of a v1 journal written before the engine knobs lost
#: ``sharded``: the genesis record carries the retired key (``%s`` is its
#: value).
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
    a fresh journalled replay of the same ops; the v1 file is then a v2
    journal that recovers to that fingerprint again."""
    path = tmp_path / "old.jsonl"
    path.write_bytes(_OLD_JOURNAL % sharded)
    old_records = read_journal(str(path))
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
    # the fresh journal holds the old records minus the retired key, at
    # version 2 (the diamond's vertex table is [0, 1, 2, 3], so its
    # indices read like the old labels)
    del old_records[0]["sharded"]
    old_records[0]["version"] = 2
    assert read_journal(fresh.path) == old_records
    # the old file was migrated: v2 genesis (retired key kept, ignored)
    # plus one snapshot, recovering to the same state
    migrated = read_journal(str(path))
    assert [r["type"] for r in migrated] == ["genesis", "snapshot"]
    assert migrated[0]["version"] == 2
    again = recover(str(path))
    again.close()
    assert again.fingerprint() == fresh.fingerprint()


#: A v1 journal with a snapshot, over tuple vertex labels whose genesis
#: order (the vertex table) differs from their sorted order, written by
#: the v1 writer from the ops of :func:`_tuple_labelled_ops`.
_V1_SNAPSHOT_JOURNAL = (
    b'{"arcs":[[[0,7],[1,7]],[[0,7],[2,7]],[[2,7],[3,7]],[[1,7],[3,'
    b'7]]],"k_candidates":4,"kempe_repair":false,'
    b'"policy":"first_fit","restoration":true,'
    b'"restore_move_budget":null,'
    b'"restore_order":"highest_wavelength","restore_retries":2,'
    b'"revert_on_repair":false,"routing":"k_shortest","seed":null,'
    b'"snapshot_every":5,"speculative":false,"type":"genesis",'
    b'"version":1,"vertices":[[3,7],[0,7],[2,7],[1,7]],'
    b'"wavelengths":2}\n'
    b'{"color":0,"dipath":null,"index":0,"outcome":null,'
    b'"request":[[0,7],[3,7]],"rid":0,"type":"admit"}\n'
    b'{"color":0,"dipath":null,"index":1,"outcome":null,'
    b'"request":[[0,7],[3,7]],"rid":1,"type":"admit"}\n'
    b'{"arc":[[0,7],[1,7]],"defrag_moves":0,"restored":[1],'
    b'"retries":0,"stranded":[1],"type":"cut"}\n'
    b'{"color":null,"dipath":null,"index":null,'
    b'"outcome":"no_wavelength","request":[[0,7],[3,7]],"rid":2,'
    b'"type":"admit"}\n'
    b'{"state":{"arcs":[[[0,7],[2,7]],[[2,7],[3,7]],[[0,7],[1,7]],'
    b'[[1,7],[3,7]]],"coloring":{"0":0,"1":1},"cut_arcs":[[[0,7],[1,'
    b'7]]],"defrag":[0,0,0],"ever_used":3,"free_slots":[2],'
    b'"graph_ops":[["cut",[[0,7],[1,7]]]],"load_warm":false,'
    b'"mask_rebuilds":0,"masks_warm":false,"paths":[[[0,7],[2,7],[3,'
    b'7]],[[0,7],[2,7],[3,7]],null],"repairs":0,"rerouted":{"1":[[0,'
    b'7],[1,7],[3,7]]},"rng_state":null,"stranded":{},'
    b'"vertex_of":{"0":0,"1":1}},"type":"snapshot"}\n'
    b'{"outcome":true,"rid":1,"type":"depart"}\n'
    b'{"arrivals":[[3,[[0,7],[1,7]],null],[4,[[2,7],[3,7]],null]],'
    b'"outcome":{"3":"no_route","4":null},"placements":{"4":[1,1]},'
    b'"policy":"greedy","type":"admit_batch"}\n')


def _tuple_labelled_ops(path) -> DurableEngine:
    label = {v: (v, 7) for v in range(4)}
    graph = DiGraph()
    for v in (3, 0, 2, 1):
        graph.add_vertex(label[v])
    graph.add_arcs([(label[u], label[v])
                    for u, v in ((0, 1), (1, 3), (0, 2), (2, 3))])
    durable = DurableEngine(graph, str(path), wavelengths=2,
                            routing="k_shortest", snapshot_every=5)
    durable.admit(0, request=Request(label[0], label[3]))
    durable.admit(1, request=Request(label[0], label[3]))
    durable.cut((label[0], label[1]))
    durable.admit(2, request=Request(label[0], label[3]))
    durable.depart(1)
    durable.admit_batch(
        [Event(0.0, ARRIVAL, 3, request=Request(label[0], label[1])),
         Event(0.0, ARRIVAL, 4, request=Request(label[2], label[3]))],
        policy="greedy")
    durable.close()
    return durable


def test_v1_journal_with_snapshot_recovers_and_migrates(tmp_path):
    """A v1 journal is restored through its (label-valued) snapshot and
    replayed, matching the v2 engine of the same ops; the migrated file
    then recovers to the same fingerprint, twice."""
    fresh = _tuple_labelled_ops(tmp_path / "fresh.jsonl")
    v2 = read_journal(fresh.path)
    assert v2[1]["request"] == [1, 0]          # indices, not labels
    path = tmp_path / "v1.jsonl"
    path.write_bytes(_V1_SNAPSHOT_JOURNAL)
    assert read_journal(str(path))[1]["request"] == [[0, 7], [3, 7]]
    recovered = recover(str(path))
    recovered.close()
    assert recovered.fingerprint() == fresh.fingerprint()
    migrated = read_journal(str(path))
    assert [r["type"] for r in migrated] == ["genesis", "snapshot"]
    assert migrated[1]["state"]["graph_ops"] == [["cut", [1, 3]]]
    for _ in range(2):
        again = recover(str(path))
        again.admit(9, request=Request((2, 7), (3, 7)))
        again.close()
        twin = DurableEngine._resume(v2[0], str(tmp_path / "twin.jsonl"))
        for index, record in enumerate(v2[1:], 1):
            twin._replay(record, index)
        twin.engine.admit(9, request=Request((2, 7), (3, 7)))
        assert again.fingerprint() == twin.fingerprint()
    assert not (tmp_path / "v1.jsonl.migrating").exists()


def test_v1_journal_replays_from_genesis_through_its_snapshot(tmp_path):
    """A from-genesis replay of a v1 journal captures its snapshot in
    labels, as the v1 writer did, so the snapshot gate passes; a lie in
    a v1 record is still refused at its index."""
    path = tmp_path / "v1.jsonl"
    path.write_bytes(_V1_SNAPSHOT_JOURNAL)
    records = read_journal(str(path))
    assert [r["type"] for r in records][3:6] == ["cut", "admit", "snapshot"]
    fresh = _tuple_labelled_ops(tmp_path / "fresh.jsonl")
    replica = replay_from_genesis(records, tmp_path)
    assert replica.fingerprint() == fresh.fingerprint()
    for index, field in ((3, "retries"), (4, "outcome"), (5, "state"),
                         (7, "placements")):
        lie = read_journal(str(path))
        lie[index][field] = tampered(lie[index][field])
        with pytest.raises(RecoveryError, match=field) as excinfo:
            replay_from_genesis(lie, tmp_path)
        assert excinfo.value.record == index


def test_unknown_vertex_is_refused_before_journalling(tmp_path):
    """An arrival naming a vertex the topology lacks raises
    VertexNotFoundError with the journal and the engine untouched."""
    graph = DiGraph()
    graph.add_arcs([(0, 1), (1, 2)])
    durable = DurableEngine(graph, str(tmp_path / "j.jsonl"), 2)
    assert durable.admit(0, request=Request(0, 2)) is None
    journal, before = Path(durable.path).read_bytes(), durable.fingerprint()
    for arrival in (dict(dipath=Dipath([0, 1, 7])),
                    dict(dipath=Dipath([5, 6])),
                    dict(request=Request(0, 9)),
                    dict(request=Request(0, 9), dipath=Dipath([0, 1, 2]))):
        with pytest.raises(VertexNotFoundError):
            durable.admit(1, **arrival)
        with pytest.raises(VertexNotFoundError):
            durable.admit_batch([Event(0.0, ARRIVAL, 1, **arrival)])
        assert Path(durable.path).read_bytes() == journal
        assert durable.fingerprint() == before
    durable.close()
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == before


def test_pre_routed_dipath_off_the_live_topology_is_no_route(tmp_path):
    """A pre-routed dipath over an arc the topology never had, or over a
    cut one, is journalled as refused with NO_ROUTE, changes no state and
    is refused again on replay."""
    graph = DiGraph()
    graph.add_arcs([(0, 1), (1, 2)])
    durable = DurableEngine(graph, str(tmp_path / "j.jsonl"), 2)
    assert durable.admit(0, dipath=Dipath([0, 1])) is None
    before = durable.fingerprint()
    assert durable.admit(1, dipath=Dipath([2, 1])) == NO_ROUTE
    assert durable.admit_batch([Event(0.0, ARRIVAL, 2,
                                      dipath=Dipath([1, 0]))]) \
        == {2: NO_ROUTE}
    assert durable.fingerprint() == before
    durable.cut((1, 2))
    assert durable.admit(3, request=Request(0, 1),
                         dipath=Dipath([0, 1, 2])) == NO_ROUTE
    assert durable.admit_batch(
        [Event(0.0, ARRIVAL, 4, dipath=Dipath([1, 2])),
         Event(0.0, ARRIVAL, 5, dipath=Dipath([0, 1]))],
        policy="best_prefix") == {4: NO_ROUTE, 5: None}
    durable.repair((1, 2))
    assert durable.admit(6, dipath=Dipath([1, 2])) is None
    durable.close()
    assert set(durable.vertex_of) == {0, 5, 6}
    outcomes = {}
    for record in read_journal(durable.path):
        if record["type"] == "admit":
            outcomes[record["rid"]] = record["outcome"]
        elif record["type"] == "admit_batch":
            outcomes.update((int(k), v)
                            for k, v in record["outcome"].items())
    assert outcomes == {0: None, 1: NO_ROUTE, 2: NO_ROUTE, 3: NO_ROUTE,
                        4: NO_ROUTE, 5: None, 6: None}
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()


@pytest.mark.parametrize("cut", [False, True], ids=["absent", "cut"])
def test_older_journal_admitting_a_dipath_off_the_topology_is_refused(
        tmp_path, cut):
    """A journal written before pre-routed dipaths were checked against
    the live arcs may hold an ``admit`` of a dipath over an absent or cut
    arc with outcome ``None``.  Replay re-decides it as NO_ROUTE, so
    recovery refuses the journal at that record (a snapshot that already
    holds such a lightpath restores it as recorded)."""
    graph = DiGraph()
    graph.add_arcs([(0, 1), (1, 2)])
    durable = DurableEngine(graph, str(tmp_path / "j.jsonl"), 2)
    assert durable.admit(0, dipath=Dipath([0, 1])) is None
    if cut:
        durable.cut((1, 2))
    stale = Dipath([1, 2]) if cut else Dipath([2, 1])
    durable.close()
    index = len(read_journal(durable.path))
    with open(durable.path, "ab") as fh:
        fh.write(_frame(persistence._admit_payload(
            durable._codes, 1, None, stale, None, 1, 0)))
    assert read_journal(durable.path)[index]["outcome"] is None
    with pytest.raises(RecoveryError, match="no_route") as excinfo:
        recover(durable.path)
    assert excinfo.value.record == index


# --------------------------------------------------------------------------- #
# v2 line format: templates, CRC frames, skip-decode
# --------------------------------------------------------------------------- #
#: A vertex table mixing int and tuple labels, in non-sorted order.
_TABLE = [(2, 0), 7, (0, (1, 1)), 3, 0, (5,)]
_CODES = {v: str(i) for i, v in enumerate(_TABLE)}
_INDEX = {v: i for i, v in enumerate(_TABLE)}

_vertices = st.sampled_from(_TABLE)
_requests = st.none() | st.tuples(_vertices, _vertices).filter(
    lambda pair: pair[0] != pair[1]).map(lambda pair: Request(*pair))
_dipaths = st.none() | st.lists(_vertices, min_size=2, max_size=6,
                                unique=True).map(Dipath)
_reasons = st.none() | st.sampled_from(
    ["no_route", "no_wavelength", "shed", "fibre_cut"]) | st.text(max_size=8)
_slots = st.integers(min_value=0, max_value=200)
_colours = st.none() | _slots
_rids = st.integers(min_value=-5, max_value=10 ** 12)


def _request_code(request):
    return None if request is None else [_INDEX[request.source],
                                         _INDEX[request.target]]


def _dipath_code(dipath):
    return None if dipath is None else [_INDEX[v] for v in dipath.vertices]


@given(rid=_rids, request=_requests, dipath=_dipaths, outcome=_reasons,
       index=_colours, color=_colours)
@settings(max_examples=200, deadline=None)
def test_admit_template_matches_the_encoder(rid, request, dipath, outcome,
                                            index, color):
    assert persistence._admit_payload(
        _CODES, rid, request, dipath, outcome, index, color) \
        == persistence._encode({
            "type": "admit", "rid": rid, "request": _request_code(request),
            "dipath": _dipath_code(dipath), "outcome": outcome,
            "index": index, "color": color})


@given(rid=_rids, held=st.booleans())
@settings(max_examples=50, deadline=None)
def test_depart_template_matches_the_encoder(rid, held):
    assert persistence._depart_payload(rid, held) == persistence._encode(
        {"type": "depart", "rid": rid, "outcome": held})


@given(run=st.lists(st.tuples(_rids, st.booleans()), max_size=12))
@settings(max_examples=100, deadline=None)
def test_depart_batch_template_matches_the_encoder(run):
    rids, held = [rid for rid, _ in run], [flag for _, flag in run]
    assert persistence._depart_batch_payload(rids, held) \
        == persistence._encode({"type": "depart_batch", "rids": rids,
                                "held": held})


@given(arrivals=st.lists(st.tuples(_requests, _dipaths, _reasons, _slots,
                                   _colours), max_size=8),
       rids=st.lists(_rids, min_size=8, max_size=8, unique=True),
       policy=st.sampled_from(["all_or_nothing", "best_prefix", "greedy"])
       | st.text(max_size=6))
@settings(max_examples=200, deadline=None)
def test_batch_template_matches_the_encoder(arrivals, rids, policy):
    events, reasons, placements = [], {}, {}
    for rid, (request, dipath, reason, index, color) in zip(rids, arrivals):
        events.append(Event(0.0, ARRIVAL, rid, request=request,
                            dipath=dipath))
        reasons[rid] = reason
        if reason is None:
            placements[rid] = (index, color)
    assert persistence._batch_payload(
        _CODES, policy, events, reasons, placements.__getitem__) \
        == persistence._encode({
            "type": "admit_batch", "policy": policy,
            "arrivals": [[e.request_id, _request_code(e.request),
                          _dipath_code(e.dipath)] for e in events],
            "outcome": {str(rid): r for rid, r in reasons.items()},
            "placements": {str(rid): list(placed)
                           for rid, placed in placements.items()}})


def _flip(line: bytes, rng: random.Random) -> bytes:
    """``line`` with one byte (never its newline) changed, never into a
    newline."""
    pos = rng.randrange(len(line) - 1)
    flipped = line[pos] ^ (1 << rng.randrange(8))
    if flipped == 0x0A:
        flipped ^= 0x80
    return line[:pos] + bytes([flipped]) + line[pos + 1:]


@pytest.mark.parametrize("snapshot_every", [None, 3])
def test_one_byte_flip_raises_mid_journal_and_tears_the_tail(
        tmp_path, snapshot_every):
    durable = small_workload(tmp_path, snapshot_every=snapshot_every)
    durable.close()
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    rng = random.Random(len(lines))
    bad = tmp_path / "flipped.jsonl"
    for index in range(len(lines) - 1):
        for _ in range(3):
            flipped = list(lines)
            flipped[index] = _flip(lines[index], rng)
            bad.write_bytes(b"".join(flipped))
            with pytest.raises(RecoveryError) as excinfo:
                recover(str(bad))
            assert excinfo.value.record == index
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(b"".join(lines[:-1]))
    reference = recover(str(clean))
    reference.close()
    for _ in range(3):
        bad.write_bytes(b"".join(lines[:-1]) + _flip(lines[-1], rng))
        recovered = recover(str(bad))
        recovered.close()
        assert recovered.fingerprint() == reference.fingerprint()
        assert bad.read_bytes() == b"".join(lines[:-1])    # tail truncated


def test_only_genesis_last_snapshot_and_tail_are_decoded(tmp_path,
                                                         monkeypatch):
    durable = small_workload(tmp_path, snapshot_every=3)
    durable.close()
    records = read_journal(durable.path)
    snapshots = [i for i, r in enumerate(records) if r["type"] == "snapshot"]
    assert len(snapshots) >= 2 and snapshots[-1] < len(records) - 1
    decoded = []
    decode = persistence._decode

    def counting(payload, index):
        decoded.append(index)
        return decode(payload, index)

    monkeypatch.setattr(persistence, "_decode", counting)
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()
    assert decoded == [0] + list(range(snapshots[-1], len(records)))
    # never decoded, yet a corrupt pre-snapshot line still raises
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"type"', b'"tyqe"')
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    decoded.clear()
    with pytest.raises(RecoveryError, match="CRC") as excinfo:
        recover(str(bad))
    assert excinfo.value.record == 1
    assert decoded == []


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


#: The fields each record type's op takes as inputs, and the fields it
#: decides: replay runs the op on the inputs and verifies the rest.
_INPUTS = {"admit": ["rid", "request", "dipath"],
           "admit_batch": ["arrivals", "policy"],
           "depart": ["rid"], "depart_batch": ["rids"],
           "defrag": ["order", "max_moves", "shard"],
           "cut": ["arc"], "repair": ["arc"], "snapshot": []}
_OUTCOMES = {"admit": ["outcome", "index", "color"],
             "admit_batch": ["outcome", "placements"],
             "depart": ["outcome"], "depart_batch": ["held"],
             "defrag": ["moves", "reclaimed"],
             "cut": ["stranded", "restored", "retries", "defrag_moves"],
             "repair": ["restored", "reverted", "defrag_moves"],
             "snapshot": ["state"]}


def test_every_record_type_has_a_replay_entry(tmp_path):
    """The workload writes every record type; each one is an op in the
    replay table, whose fields are its inputs and its outcomes, and
    the journal replays from genesis and recovers to the live state."""
    durable = every_record_workload(tmp_path)
    durable.close()
    records = read_journal(durable.path)
    assert {r["type"] for r in records} \
        == set(persistence._REPLAY) | {"genesis"}
    assert {r["policy"] for r in records if r["type"] == "admit_batch"} \
        == set(BATCH_POLICIES)
    for record in records[1:]:
        rtype = record["type"]
        assert set(record) == {"type", *_INPUTS[rtype], *_OUTCOMES[rtype]}
    replica = replay_from_genesis(records, tmp_path)
    assert replica.fingerprint() == durable.fingerprint()
    recovered = recover(durable.path)
    recovered.close()
    assert recovered.fingerprint() == durable.fingerprint()


@pytest.mark.parametrize("rtype,field", [
    (rtype, field) for rtype, fields in _OUTCOMES.items() for field in fields])
def test_tampered_outcome_is_caught_by_replay_verification(tmp_path, rtype,
                                                           field):
    """A lie about any outcome field, re-framed with a valid CRC, is
    refused at its record by a from-genesis replay and, past the last
    snapshot, by :func:`recover`; the message names the field."""
    durable = every_record_workload(tmp_path)
    durable.close()
    records = read_journal(durable.path)
    index = max(i for i, r in enumerate(records) if r["type"] == rtype)
    records[index][field] = tampered(records[index][field])
    with pytest.raises(RecoveryError, match=f"{rtype} replayed to {field}") \
            as excinfo:
        replay_from_genesis(records, tmp_path)
    assert excinfo.value.record == index
    if rtype == "snapshot":
        return              # recovery restores the last snapshot as written
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    lines[index] = _frame(persistence._encode(records[index]))
    path = tmp_path / "tampered.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match=field) as excinfo:
        recover(str(path))
    assert excinfo.value.record == index


def test_snapshot_colouring_a_freed_slot_is_refused(tmp_path):
    """A CRC-valid snapshot whose colouring names a slot the family has
    freed is refused at that record, not recovered into an engine whose
    ``audit()`` fails."""
    durable = DurableEngine(diamond(), str(tmp_path / "freed.jsonl"),
                            wavelengths=4)
    for rid in range(3):
        durable.admit(rid, request=Request(0, 3))
    durable.depart(1)
    durable.snapshot()
    durable.close()
    records = read_journal(durable.path)
    index = len(records) - 1
    state = records[index]["state"]
    (freed,) = state["free_slots"]
    assert str(freed) not in state["coloring"]
    state["coloring"][str(freed)] = 3
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    lines[index] = _frame(persistence._encode(records[index]))
    path = tmp_path / "tampered.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match="not a live member") as excinfo:
        recover(str(path))
    assert excinfo.value.record == index


def test_snapshot_with_an_improper_colouring_is_refused(tmp_path):
    """A CRC-valid snapshot giving two members that share a fibre the
    same wavelength is refused at that record, not resumed with an
    improper colouring."""
    durable = DurableEngine(diamond(), str(tmp_path / "improper.jsonl"),
                            wavelengths=4)
    for rid in range(2):
        durable.admit(rid, request=Request(0, 3))
    first, second = durable.vertex_of[0], durable.vertex_of[1]
    durable.snapshot()
    durable.close()
    records = read_journal(durable.path)
    index = len(records) - 1
    coloring = records[index]["state"]["coloring"]
    assert coloring[str(first)] != coloring[str(second)]
    coloring[str(max(first, second))] = coloring[str(min(first, second))]
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    lines[index] = _frame(persistence._encode(records[index]))
    path = tmp_path / "tampered.jsonl"
    path.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match="holds it") as excinfo:
        recover(str(path))
    assert excinfo.value.record == index


def test_tampered_depart_batch_held_list_raises_with_index(tmp_path):
    durable = burst_workload(tmp_path)
    durable.close()
    lines = Path(durable.path).read_bytes().splitlines(keepends=True)
    index, record = next((i, r) for i, r in
                         enumerate(read_journal(durable.path))
                         if r["type"] == "depart_batch")
    record["held"][1] = True             # request 9 never held a lightpath
    lines[index] = _frame(persistence._encode(record))
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_bytes(b"".join(lines))
    with pytest.raises(RecoveryError, match="depart_batch") as excinfo:
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
