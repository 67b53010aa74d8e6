"""Admission simulation under a fixed wavelength budget.

A simple dynamic scenario on top of the combinatorial core: requests arrive
one at a time, each must be provisioned as a lightpath (route + wavelength)
using at most ``W`` wavelengths per fibre and without disturbing the already
provisioned lightpaths (no reconfiguration); requests that cannot be
provisioned are blocked.  The blocking rate as a function of ``W`` is the
operational meaning of the paper's result: on internal-cycle-free topologies,
``W`` equal to the (offline) load suffices to serve the whole family, whereas
on topologies with internal cycles the gap between load and wavelengths shows
up as avoidable blocking.

Since the online engine landed, this module is a thin static-order front-end
over :mod:`repro.online`: requests are routed in batch (static routing on the
bare topology, exactly as before), replayed as a pure-arrival trace and
admitted by the incremental engine.  Selecting a wavelength that is free on
every fibre of the route is the same thing as selecting a colour unused by
every conflicting lightpath, so the blocking decisions are identical to the
historical per-fibre loop — the equivalence tests in ``tests/test_online.py``
assert this against a network-level reference.  For arrival/departure
dynamics (Poisson traffic, holding times, churn) use
:func:`repro.online.simulate_online` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..dipaths.requests import RequestFamily
from ..dipaths.routing import RoutingPolicy, route_all
from ..graphs.digraph import DiGraph
from ..online.events import replay_trace
from ..online.simulator import simulate_online

__all__ = ["AdmissionResult", "simulate_admission"]


@dataclass
class AdmissionResult:
    """Outcome of an online admission simulation.

    Attributes
    ----------
    accepted, blocked:
        Indices of accepted / blocked unit requests (in arrival order).
    wavelengths_available:
        The per-fibre wavelength budget ``W`` used for the run.
    wavelengths_used:
        Number of distinct wavelengths actually used.
    """

    accepted: List[int] = field(default_factory=list)
    blocked: List[int] = field(default_factory=list)
    wavelengths_available: int = 0
    wavelengths_used: int = 0

    @property
    def blocking_rate(self) -> float:
        """Fraction of unit requests that could not be provisioned."""
        total = len(self.accepted) + len(self.blocked)
        return len(self.blocked) / total if total else 0.0


def simulate_admission(graph: DiGraph, requests: RequestFamily,
                       wavelengths: int,
                       routing: RoutingPolicy = "shortest",
                       policy: str = "first_fit") -> AdmissionResult:
    """Provision requests online with ``wavelengths`` channels per fibre.

    Each unit request is routed with the given policy, then assigned a
    wavelength that is free on every fibre of its route; if none exists the
    request is blocked.  The routing is computed on the bare topology
    (routes do not adapt to the current allocation), which matches the
    static-routing assumption of the paper.

    ``policy`` selects the wavelength policy by name — any of
    :data:`repro.online.assigner.POLICIES` (``first_fit``, ``least_used``,
    ``most_used``, ``random``); the default is ``"first_fit"``, the
    classical lowest-free-wavelength heuristic.
    """
    if wavelengths < 1:
        raise ValueError("wavelengths must be >= 1")
    family = route_all(graph, requests, policy=routing)
    online = simulate_online(
        graph, replay_trace(family), wavelengths, policy=policy,
        record_timeline=False)
    return AdmissionResult(accepted=online.accepted, blocked=online.blocked,
                           wavelengths_available=wavelengths,
                           wavelengths_used=online.wavelengths_used)
