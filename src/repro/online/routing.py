"""Adaptive online routing: choosing a dipath per arrival on live state.

PR 2 made wavelength assignment dynamic but kept routing static: every
request between the same endpoints got the same cached dipath no matter how
congested its fibres were.  This module closes the gap with pluggable
*online routers* that consult the live per-arc load of the engine's
:class:`~repro.dipaths.family.DipathFamily` at request time:

* ``shortest`` / ``unique`` — the static policies of the original engine
  (one BFS / unique-path route per endpoint pair, cached; load-blind);
* ``least_loaded``      — Dijkstra on the lexicographic cost
  ``(max arc load, total load, hops)`` against the live loads, i.e. the
  online counterpart of :func:`repro.dipaths.routing.route_min_load`;
* ``k_shortest``        — the ``k`` shortest dipaths per pair are computed
  once (:func:`repro.graphs.traversal.k_shortest_dipaths`, a function of
  the arc set and the vertex insertion order only) and kept across fibre
  cuts and repairs that cannot change them; the arrival picks the
  candidate with the lowest live load cost *before* admission; the
  candidate list also feeds speculative what-if admission
  (:func:`repro.online.transaction.admit_best`), which ranks it by the
  cost *after* admission (see :func:`live_load_cost`);
* ``widest``            — maximum-bottleneck routing: the dipath maximising
  the minimum residual capacity ``W - load(arc)`` over its arcs (ties to
  fewer hops), which routes *around* wavelength-saturated fibres.

Every router returns ``None`` when the topology offers no dipath at all —
the simulator records that arrival as blocked with reason ``no_route``
(as opposed to ``no_wavelength``); routers never raise on congestion.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from .._typing import Arc, Vertex
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..dipaths.requests import Request
from ..dipaths.routing import min_load_dipath
from ..exceptions import RoutingError
from ..graphs.digraph import DiGraph
from ..graphs.traversal import (
    co_reachable_to,
    enumerate_dipaths,
    k_shortest_dipaths,
    reachable_from,
    shortest_dipath,
)

__all__ = [
    "ONLINE_ROUTINGS",
    "OnlineRouter",
    "StaticRouter",
    "LeastLoadedRouter",
    "KShortestRouter",
    "WidestRouter",
    "live_load_cost",
    "make_online_router",
]

#: The routing policies understood by :func:`make_online_router` (the first
#: two are static, the rest adapt to the live load).
ONLINE_ROUTINGS = ("unique", "shortest", "least_loaded", "k_shortest",
                   "widest")


def live_load_cost(family: DipathFamily, dipath: Dipath
                   ) -> Tuple[int, int, int]:
    """``(max arc load, total load, hops)`` of ``dipath`` on the live family.

    The lexicographic congestion metric behind two related but distinct
    rules:

    * :meth:`KShortestRouter.route` minimises this tuple as it stands —
      the *pre-admission* ``(m, t, h)``;
    * :func:`repro.online.transaction.admit_best` minimises the
      *post-admission* tuple ``(m + 1, t + h, h)`` (admitting the dipath
      adds one to each of its arcs), derived from this one.

    The two can disagree: ``t + h`` orders candidates differently from
    ``t`` (loads ``(3, 3)`` beat ``(3, 1, 1, 0)`` after admission but lose
    before it), so non-speculative ``k_shortest`` and speculative
    admission may pick different routes for the same state.  The E14
    benchmark measures this tuple with the candidate admitted in both its
    transactional and rebuild-per-candidate evaluations, which keeps them
    decision-equal.
    """
    load_of = family.load_of_arc
    max_load = total = hops = 0
    for arc in dipath.arcs():
        load = load_of(arc)
        if load > max_load:
            max_load = load
        total += load
        hops += 1
    return (max_load, total, hops)


class _LiveLoadView:
    """``load.get(arc, 0)`` adapter over a family's live per-arc load."""

    __slots__ = ("_family",)

    def __init__(self, family: DipathFamily) -> None:
        self._family = family

    def get(self, arc: Arc, default: int = 0) -> int:
        load = self._family.load_of_arc(arc)
        return load if load else default


class OnlineRouter:
    """Base class: route one request at a time, consulting live state."""

    #: The policy name the router answers to in :func:`make_online_router`.
    name = "abstract"

    def route(self, request: Request) -> Optional[Dipath]:
        """The dipath to provision for ``request`` or ``None`` (no route)."""
        raise NotImplementedError

    def candidates(self, request: Request) -> List[Dipath]:
        """Candidate dipaths for what-if admission (best-first).

        The default is the single routed dipath; routers holding a real
        candidate set (``k_shortest``) override this so speculative
        admission can rank and try every alternative.
        """
        dipath = self.route(request)
        return [] if dipath is None else [dipath]


class StaticRouter(OnlineRouter):
    """Load-blind routing on the bare topology, one cached route per pair.

    This is the routing behaviour of the PR 2 engine (and of the paper's
    static model): ``shortest`` caches one BFS route per endpoint pair,
    ``unique`` insists the pair has exactly one dipath (UPP routing) and
    raises :class:`~repro.exceptions.RoutingError` on ambiguity.
    """

    def __init__(self, graph: DiGraph, policy: str = "shortest") -> None:
        if policy not in ("unique", "shortest"):
            raise ValueError(
                f"static routing must be 'unique' or 'shortest', "
                f"got {policy!r}")
        self.name = policy
        self._graph = graph
        self._policy = policy
        self._cache: Dict[Tuple[Vertex, Vertex], Optional[Dipath]] = {}
        self._cache_version = graph.version

    def route(self, request: Request) -> Optional[Dipath]:
        if self._graph.version != self._cache_version:
            # the topology changed under us: every cached route is suspect
            self._cache.clear()
            self._cache_version = self._graph.version
        key = (request.source, request.target)
        if key in self._cache:
            return self._cache[key]
        if self._policy == "unique":
            paths = enumerate_dipaths(self._graph, *key, limit=2)
            if len(paths) > 1:
                raise RoutingError(
                    f"more than one dipath from {key[0]!r} to {key[1]!r}; "
                    "the digraph is not a UPP-DAG, use 'shortest'")
            vertices = paths[0] if paths else None
        else:
            vertices = shortest_dipath(self._graph, *key)
            if vertices is not None and len(vertices) < 2:
                vertices = None
        dipath = None if vertices is None else Dipath(vertices)
        self._cache[key] = dipath
        return dipath


class LeastLoadedRouter(OnlineRouter):
    """Load-aware Dijkstra per arrival on the live per-arc load.

    Minimises the lexicographic cost ``(max arc load after provisioning,
    total load, hops)`` — the same objective as the offline
    :func:`~repro.dipaths.routing.route_min_load`, evaluated against the
    family's current state instead of a routing-time accumulator.  Nothing
    is cached: the whole point is that the answer changes as lightpaths
    come and go.
    """

    name = "least_loaded"

    def __init__(self, graph: DiGraph, family: DipathFamily) -> None:
        self._graph = graph
        self._load = _LiveLoadView(family)

    def route(self, request: Request) -> Optional[Dipath]:
        vertices = min_load_dipath(self._graph, request.source,
                                   request.target, self._load)
        if vertices is None or len(vertices) < 2:
            return None
        return Dipath(vertices)


class KShortestRouter(OnlineRouter):
    """Pick the least-loaded of the ``k`` shortest dipaths per pair.

    The candidate dipaths are a function of the topology alone, so they
    are computed once per endpoint pair
    (:func:`~repro.graphs.traversal.k_shortest_dipaths`, shortest first)
    and cached.  When the graph's arc-structure version moves, the router
    reads the arcs that changed (:meth:`DiGraph.arc_changes_since`) and
    drops only the pairs a change can affect: for a removed arc, the pairs
    whose cached list uses it (looked up in an arc → pairs index built on
    the first removal, so a fault-free run never pays for it); for an
    added arc ``(u, v)``, the pairs ``(s, t)`` with ``s`` reaching ``u``
    and ``v`` reaching ``t``.  When the log cannot cover the gap the whole
    cache is dropped.  Every answer equals a fresh
    :func:`k_shortest_dipaths` on the current graph.  Only the *choice*
    among the candidates consults the live load.  The cached list is
    also what speculative what-if admission iterates over.
    """

    name = "k_shortest"

    def __init__(self, graph: DiGraph, family: DipathFamily,
                 k: int = 4) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self._graph = graph
        self._family = family
        self._k = k
        self._cache: Dict[Tuple[Vertex, Vertex], List[Dipath]] = {}
        self._cache_version = graph.version
        # arc -> cached pairs whose list uses it; None until first needed
        self._by_arc: Optional[Dict[Arc, Set[Tuple[Vertex, Vertex]]]] = None

    @property
    def k(self) -> int:
        """The candidate budget per endpoint pair."""
        return self._k

    def candidates(self, request: Request) -> List[Dipath]:
        if self._graph.version != self._cache_version:
            self._sync()
        key = (request.source, request.target)
        cands = self._cache.get(key)
        if cands is None:
            paths = k_shortest_dipaths(self._graph, key[0], key[1], self._k)
            cands = [Dipath(p) for p in paths if len(p) >= 2]
            self._cache[key] = cands
            if self._by_arc is not None:
                _index_pair(self._by_arc, key, cands)
        return cands

    def _sync(self) -> None:
        """Drop the cached pairs the arc changes since the cache's version
        can affect (everything when the graph's log cannot tell)."""
        graph, cache = self._graph, self._cache
        changes = graph.arc_changes_since(self._cache_version)
        self._cache_version = graph.version
        if changes is None:
            cache.clear()
            self._by_arc = None
            return
        # Each change is judged against the current graph, which can only
        # over-drop: a pair is kept only if no change can alter its list.
        stale: Set[Tuple[Vertex, Vertex]] = set()
        for added, u, v in changes:
            if added:
                reach_tail = co_reachable_to(graph, u)
                from_head = reachable_from(graph, v)
                stale.update(key for key in cache if key[0] in reach_tail
                             and key[1] in from_head)
                continue
            if self._by_arc is None:
                self._by_arc = {}
                for key, cands in cache.items():
                    _index_pair(self._by_arc, key, cands)
            stale.update(self._by_arc.get((u, v), ()))
        by_arc = self._by_arc
        for key in stale:
            cands = cache.pop(key)
            if by_arc is not None:
                for dipath in cands:
                    for arc in dipath.arc_set:
                        by_arc[arc].discard(key)

    def route(self, request: Request) -> Optional[Dipath]:
        cands = self.candidates(request)
        if not cands:
            return None
        return min(cands,
                   key=lambda dipath: live_load_cost(self._family, dipath))


def _index_pair(by_arc: Dict[Arc, Set[Tuple[Vertex, Vertex]]],
                key: Tuple[Vertex, Vertex], cands: List[Dipath]) -> None:
    """File the pair ``key`` under every arc its candidates use."""
    for dipath in cands:
        for arc in dipath.arc_set:
            pairs = by_arc.get(arc)
            if pairs is None:
                by_arc[arc] = {key}
            else:
                pairs.add(key)


class WidestRouter(OnlineRouter):
    """Maximum-bottleneck routing against the wavelength budget.

    Picks the dipath maximising the minimum residual capacity
    ``W - load(arc)`` over its arcs (ties broken by fewer hops), so
    arrivals steer around fibres whose spectrum is nearly — or fully —
    consumed.  A route is returned even when every dipath crosses a
    saturated fibre (the assigner then blocks it with reason
    ``no_wavelength``); only an unreachable target yields ``None``.
    """

    name = "widest"

    def __init__(self, graph: DiGraph, family: DipathFamily,
                 wavelengths: int) -> None:
        if wavelengths < 1:
            raise ValueError("wavelengths must be >= 1")
        self._graph = graph
        self._family = family
        self._wavelengths = wavelengths

    def route(self, request: Request) -> Optional[Dipath]:
        source, target = request.source, request.target
        if source == target:
            return None
        graph, load_of = self._graph, self._family.load_of_arc
        capacity = self._wavelengths
        # Dijkstra on (-bottleneck, hops): pop order is widest first, then
        # shortest; `best` prunes dominated labels.
        best: Dict[Vertex, Tuple[float, int]] = {source: (-float("inf"), 0)}
        parent: Dict[Vertex, Vertex] = {}
        counter = 0
        heap: List[Tuple[float, int, int, Vertex]] = [
            (-float("inf"), 0, counter, source)]
        while heap:
            neg_bottleneck, hops, _, v = heapq.heappop(heap)
            if (neg_bottleneck, hops) > best.get(v, (float("inf"), 0)):
                continue
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return Dipath(path)
            for w in graph.successors(v):
                residual = capacity - load_of((v, w))
                label = (max(neg_bottleneck, -residual), hops + 1)
                if w not in best or label < best[w]:
                    best[w] = label
                    parent[w] = v
                    counter += 1
                    heapq.heappush(heap, (*label, counter, w))
        return None


def make_online_router(graph: DiGraph, routing: str = "shortest",
                       family: Optional[DipathFamily] = None,
                       wavelengths: Optional[int] = None,
                       k: int = 4) -> OnlineRouter:
    """Build the named router bound to the engine's live family.

    Parameters
    ----------
    routing:
        One of :data:`ONLINE_ROUTINGS`.
    family:
        The engine's live :class:`~repro.dipaths.family.DipathFamily`
        (required by the adaptive policies, ignored by the static ones).
    wavelengths:
        The per-fibre budget ``W`` (required by ``widest`` only).
    k:
        Candidate budget for ``k_shortest``.
    """
    if routing in ("unique", "shortest"):
        return StaticRouter(graph, routing)
    if routing not in ONLINE_ROUTINGS:
        raise ValueError(f"unknown online routing {routing!r}; expected one "
                         f"of {ONLINE_ROUTINGS}")
    if family is None:
        raise ValueError(f"adaptive routing {routing!r} needs the live "
                         "dipath family")
    if routing == "least_loaded":
        return LeastLoadedRouter(graph, family)
    if routing == "k_shortest":
        return KShortestRouter(graph, family, k=k)
    if wavelengths is None:
        raise ValueError("widest routing needs the wavelength budget")
    return WidestRouter(graph, family, wavelengths)
