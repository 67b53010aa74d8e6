"""Engine configuration contracts.

* **Knobs fail fast.**  Every :class:`~repro.online.simulator.
  EngineConfig` field is validated when the config is built, so a bad
  restoration knob is refused before an engine runs — and before a
  durable journal writes its genesis record — rather than at the first
  fibre cut or defrag pass.
* **One wiring.**  :meth:`EngineConfig.components` is the only place the
  conflict graph, the assigner and the colour index are wired; the
  engine and snapshot recovery both call it.  There is one engine, so
  ``sharded`` is no knob: ``True`` is accepted and ``False`` refused.
* **One process.**  The online engine and the service run in the
  importing process: importing them loads no process-pool machinery.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

import repro
from repro.conflict import ShardedConflictGraph
from repro.dipaths.family import DipathFamily
from repro.graphs.digraph import DiGraph
from repro.obs.registry import MetricsRegistry
from repro.online import ArcColorIndex, DurableEngine, EngineConfig
from repro.online.simulator import OnlineEngine, simulate_online
from repro.service import RwaService


def _line() -> DiGraph:
    graph = DiGraph()
    for v in range(3):
        graph.add_arc(v, v + 1)
    return graph


# ---------------------------------------------------------------------- #
# restoration knobs are validated at construction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("knobs, message", [
    (dict(restore_order="bogus"), "restore_order"),
    (dict(restore_move_budget=-1), "restore_move_budget"),
    (dict(restore_retries=-1), "restore_retries"),
])
def test_engine_config_rejects_bad_restoration_knobs(knobs, message):
    with pytest.raises(ValueError, match=message):
        EngineConfig(**knobs)


def test_simulate_online_rejects_bad_defrag_order_before_running():
    # an empty trace never reaches a defrag pass: only construction-time
    # validation can refuse the ordering
    with pytest.raises(ValueError, match="restore_order"):
        simulate_online(_line(), [], 2, defrag_order="bogus")


def test_durable_engine_refuses_bad_knob_before_writing_genesis(tmp_path):
    path = tmp_path / "journal.jsonl"
    with pytest.raises(ValueError, match="restore_order"):
        DurableEngine(_line(), str(path), 2, restore_order="bogus")
    with pytest.raises(ValueError, match="restore_move_budget"):
        RwaService(_line(), 2, journal_path=str(path),
                   restore_move_budget=-1)
    assert not path.exists()


def test_simulate_online_has_no_shard_workers_option():
    with pytest.raises(TypeError):
        simulate_online(_line(), [], 2, sharded=True, shard_workers=1)


# ---------------------------------------------------------------------- #
# one wiring of the engine components
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("sharded", [False, True])
def test_components_wire_the_sharded_knob(sharded):
    """One wiring, no branch: a component-sharded conflict graph and an
    attached colour index, whether or not the retired ``sharded=True``
    spelling is passed."""
    spelling = {"sharded": True} if sharded else {}
    family = DipathFamily()
    config = EngineConfig(policy="least_used", kempe_repair=True, seed=3,
                          **spelling)
    assert config == EngineConfig(policy="least_used", kempe_repair=True,
                                  seed=3)
    conflict, assigner = config.components(family, 5, MetricsRegistry())
    assert type(conflict) is ShardedConflictGraph
    assert conflict.family is family
    assert (assigner.wavelengths, assigner.policy, assigner.kempe_repair) \
        == (5, "least_used", True)
    assert isinstance(assigner.color_index, ArcColorIndex)
    engine = OnlineEngine(_line(), 5, **spelling)
    assert type(engine.conflict) is ShardedConflictGraph
    assert isinstance(engine.assigner.color_index, ArcColorIndex)


def test_engine_config_has_eleven_knobs_and_no_sharded_field():
    assert [f.name for f in fields(EngineConfig)] == [
        "routing", "policy", "kempe_repair", "seed", "k_candidates",
        "speculative", "restoration", "restore_retries",
        "restore_move_budget", "revert_on_repair", "restore_order"]
    assert "sharded" not in asdict(EngineConfig(sharded=True))
    result = simulate_online(_line(), [], 2)
    assert not hasattr(result, "sharded")
    assert not hasattr(result.engine, "sharded")


def test_sharded_true_is_accepted_and_false_refused(tmp_path):
    """``sharded`` has one legal value: every front-end taking engine
    knobs accepts ``True`` and refuses ``False`` — the latter before a
    durable journal writes its genesis record."""
    simulate_online(_line(), [], 2, sharded=True)
    OnlineEngine(_line(), 2, sharded=True)
    RwaService(_line(), 2, sharded=True)
    DurableEngine(_line(), str(tmp_path / "ok.jsonl"), 2,
                  sharded=True).close()
    path = tmp_path / "refused.jsonl"
    refusals = (
        lambda: simulate_online(_line(), [], 2, sharded=False),
        lambda: OnlineEngine(_line(), 2, sharded=False),
        lambda: RwaService(_line(), 2, sharded=False),
        lambda: RwaService(_line(), 2, journal_path=str(path),
                           sharded=False),
        lambda: DurableEngine(_line(), str(path), 2, sharded=False),
    )
    for refuse in refusals:
        with pytest.raises(ValueError, match="sharded=False"):
            refuse()
    assert not path.exists()


# ---------------------------------------------------------------------- #
# the engine stays single-process
# ---------------------------------------------------------------------- #
def test_engine_and_service_import_no_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    probe = ("import sys, repro.online, repro.service; "
             "print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
