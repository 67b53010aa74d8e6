"""Tests for adaptive online routing (repro.online.routing), per-event
rejection reasons and the what-if transaction API surface.

The differential harness (tests/test_differential_online.py) covers the
bit-identity contract; these tests pin the behavioural corners: which
route each policy picks under load, how blocked arrivals are classified
(no-route vs no-wavelength), and how the transaction object reacts to
misuse.
"""

from __future__ import annotations

import pytest

from repro.conflict import ShardedConflictGraph
from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.dipaths.requests import Request
from repro.exceptions import RoutingError
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import k_shortest_dipaths
from repro.online import (
    ARRIVAL,
    Event,
    NO_ROUTE,
    NO_WAVELENGTH,
    OnlineEngine,
    OnlineWavelengthAssigner,
    WhatIfTransaction,
    admit_best,
    engine_fingerprint,
    make_online_router,
    replay_trace,
    simulate_online,
)


def diamond():
    """a -> b -> d and a -> c -> d: two arc-disjoint routes per request."""
    return DiGraph(arcs=[("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])


def diamond_with_detour():
    """The diamond plus a 3-hop detour a -> x -> y -> d."""
    g = diamond()
    for u, v in [("a", "x"), ("x", "y"), ("y", "d")]:
        g.add_arc(u, v)
    return g


class TestKShortestDipaths:
    def test_orders_paths_shortest_first(self):
        paths = k_shortest_dipaths(diamond_with_detour(), "a", "d", 5)
        assert len(paths) == 3
        assert sorted(map(len, paths)) == [3, 3, 4]
        assert len(paths[0]) == 3 and len(paths[-1]) == 4

    def test_respects_k(self):
        assert len(k_shortest_dipaths(diamond_with_detour(), "a", "d", 2)) == 2

    def test_unreachable_and_identical_endpoints(self):
        g = diamond()
        assert k_shortest_dipaths(g, "d", "a", 3) == []
        assert k_shortest_dipaths(g, "a", "a", 3) == [["a"]]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            k_shortest_dipaths(diamond(), "a", "d", 0)


class TestRouters:
    def _router(self, name, graph=None, family=None, **kwargs):
        graph = graph or diamond()
        family = family if family is not None else DipathFamily()
        return make_online_router(graph, name, family=family, **kwargs), family

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            make_online_router(diamond(), "mystery", family=DipathFamily())

    def test_adaptive_routing_requires_family(self):
        with pytest.raises(ValueError):
            make_online_router(diamond(), "least_loaded")

    def test_widest_requires_budget(self):
        with pytest.raises(ValueError):
            make_online_router(diamond(), "widest", family=DipathFamily())

    def test_static_router_caches_and_returns_none_off_topology(self):
        router, _ = self._router("shortest")
        assert router.route(Request("a", "d")).vertices[0] == "a"
        assert router.route(Request("d", "a")) is None     # unreachable

    def test_unique_router_raises_on_ambiguity(self):
        router, _ = self._router("unique")
        with pytest.raises(RoutingError):
            router.route(Request("a", "d"))                # two routes

    def test_least_loaded_steers_around_congestion(self):
        router, family = self._router("least_loaded")
        first = router.route(Request("a", "d"))
        family.add(first)                                  # congest it
        second = router.route(Request("a", "d"))
        assert set(first.arcs()).isdisjoint(second.arcs())

    def test_widest_prefers_residual_capacity(self):
        router, family = self._router("widest", wavelengths=2)
        first = router.route(Request("a", "d"))
        family.add(first)
        family.add(first)                                  # saturated at W=2
        second = router.route(Request("a", "d"))
        assert set(first.arcs()).isdisjoint(second.arcs())

    def test_widest_still_routes_through_saturation(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c")])
        family = DipathFamily([["a", "b", "c"]] * 3)
        router = make_online_router(g, "widest", family=family, wavelengths=2)
        assert router.route(Request("a", "c")) is not None  # blocked later
        assert router.route(Request("c", "a")) is None      # truly no route

    def test_k_shortest_picks_least_loaded_candidate(self):
        router, family = self._router("k_shortest",
                                      graph=diamond_with_detour(), k=3)
        cands = router.candidates(Request("a", "d"))
        assert len(cands) == 3
        first = router.route(Request("a", "d"))
        assert len(first.vertices) == 3                    # a 2-hop route
        family.add(first)
        second = router.route(Request("a", "d"))
        assert set(first.arcs()).isdisjoint(second.arcs())
        assert len(second.vertices) == 3                   # the other 2-hop

    def test_k_shortest_candidates_are_cached(self):
        router, _ = self._router("k_shortest", k=2)
        a = router.candidates(Request("a", "d"))
        b = router.candidates(Request("a", "d"))
        assert a is b


class TestRejectionReasons:
    def test_no_route_vs_no_wavelength(self):
        """Regression: the two blocking causes are reported separately."""
        g = DiGraph(arcs=[("a", "b")])
        g.add_vertex("z")
        trace = [
            Event(0.0, ARRIVAL, 0, request=Request("a", "b")),   # admitted
            Event(1.0, ARRIVAL, 1, request=Request("a", "b")),   # no colour
            Event(2.0, ARRIVAL, 2, request=Request("a", "z")),   # no route
        ]
        result = simulate_online(g, trace, 1)
        assert result.accepted == [0]
        assert result.blocked == [1, 2]
        assert result.rejections == {1: NO_WAVELENGTH, 2: NO_ROUTE}
        assert result.blocked_no_wavelength == [1]
        assert result.blocked_no_route == [2]

    def test_unroutable_requests_block_instead_of_raising(self):
        g = DiGraph(arcs=[("a", "b")])
        trace = [Event(0.0, ARRIVAL, 0, request=Request("b", "a"))]
        for routing in ("shortest", "least_loaded", "k_shortest", "widest"):
            result = simulate_online(g, trace, 2, routing=routing)
            assert result.blocked == [0]
            assert result.rejections[0] == NO_ROUTE

    def test_adaptive_routing_lowers_blocking_on_diamond(self):
        # four identical requests, W = 2: static shortest routing stacks
        # them all on one route (2 admitted), load-aware routing splits
        # them across the two arc-disjoint routes (4 admitted).
        g = diamond()
        trace = [Event(float(i), ARRIVAL, i, request=Request("a", "d"))
                 for i in range(4)]
        static = simulate_online(g, trace, 2, routing="shortest")
        assert len(static.accepted) == 2
        for routing in ("least_loaded", "k_shortest", "widest"):
            adaptive = simulate_online(g, trace, 2, routing=routing)
            assert adaptive.blocked == [], routing

    def test_speculative_matches_direct_on_single_candidate(self):
        g = diamond()
        family = DipathFamily([["a", "b", "d"], ["a", "c", "d"]] * 2)
        trace = replay_trace(family)
        direct = simulate_online(g, trace, 2)
        speculative = simulate_online(g, trace, 2, speculative=True)
        assert (direct.accepted, direct.blocked) == \
            (speculative.accepted, speculative.blocked)

    def test_speculative_k_shortest_spreads_load(self):
        g = diamond()
        trace = [Event(float(i), ARRIVAL, i, request=Request("a", "d"))
                 for i in range(4)]
        result = simulate_online(g, trace, 2, routing="k_shortest",
                                 speculative=True)
        assert result.blocked == []
        assert result.speculative and result.routing == "k_shortest"


class TestTransactionSurface:
    def _engine(self):
        conflict = ShardedConflictGraph(DipathFamily())
        assigner = OnlineWavelengthAssigner(conflict.family, 2)
        return conflict, assigner

    def test_closed_transaction_rejects_operations(self):
        conflict, assigner = self._engine()
        tx = WhatIfTransaction(conflict, assigner)
        tx.commit()
        assert not tx.is_open
        for call in (lambda: tx.add_dipath(["a", "b"]), tx.commit,
                     tx.rollback, lambda: tx.assign(0)):
            with pytest.raises(RuntimeError):
                call()

    def test_transactions_nest_and_resolve_lifo(self):
        conflict, assigner = self._engine()
        with WhatIfTransaction(conflict, assigner) as outer:
            inner = WhatIfTransaction(conflict, assigner)
            inner.add_dipath(["a", "b"])
            with pytest.raises(RuntimeError):
                outer.rollback()                    # child still open
            inner.commit()                          # merges into outer
            assert len(conflict.family) == 1
        # outer rollback undoes the committed child too
        assert len(conflict.family) == 0

    def test_outermost_commit_drops_the_colour_journal(self):
        conflict, assigner = self._engine()
        with WhatIfTransaction(conflict, assigner) as outer:
            with WhatIfTransaction(conflict, assigner) as inner:
                idx, color = inner.admit(["a", "b"])
                inner.commit()
            # the committed child's change stays for the outer rollback
            assert [entry[0] for entry in assigner._journal] == [idx]
            outer.commit()
        assert assigner._journal == []
        assert assigner.color_of(idx) == color

    def test_admit_best_prefers_spread(self):
        conflict, assigner = self._engine()
        taken = conflict.add_dipath(["a", "b", "d"])
        assert assigner.assign(conflict, taken) is not None
        decision = admit_best(conflict, assigner,
                              [Dipath(["a", "b", "d"]),
                               Dipath(["a", "c", "d"])])
        assert decision is not None
        assert decision.candidate == 1              # the empty route wins
        assert conflict.family.is_active(decision.index)

    def test_admit_best_returns_none_when_budget_exhausted(self):
        conflict, assigner = self._engine()
        for _ in range(2):
            idx = conflict.add_dipath(["a", "b"])
            assert assigner.assign(conflict, idx) is not None
        before = len(conflict.family)
        assert admit_best(conflict, assigner, [Dipath(["a", "b"])]) is None
        assert len(conflict.family) == before       # nothing leaked

    def test_assigner_checkpoint_misuse(self):
        _, assigner = self._engine()
        token = assigner.checkpoint()
        inner = assigner.checkpoint()               # checkpoints stack
        with pytest.raises(RuntimeError):
            assigner.commit(token)                  # but resolve LIFO
        with pytest.raises(RuntimeError):
            assigner.rollback(token)
        assigner.rollback(inner)
        assigner.commit(token)
        with pytest.raises(RuntimeError):
            assigner.rollback(token)                # already consumed


class TestAdmitBestRanking:
    """``admit_best`` ranks by post-admission load, then admits once."""

    @staticmethod
    def _two_objectives_engine(speculative):
        """s -> t by a 2-hop route with arc loads (3, 3) or a 4-hop route
        with arc loads (3, 1, 1, 0)."""
        graph = DiGraph(arcs=[("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"),
                              ("c", "d"), ("d", "t")])
        engine = OnlineEngine(graph, 8, routing="k_shortest",
                              speculative=speculative)
        fill = [["s", "a", "t"]] * 3 + [["s", "b", "c", "d"]] + \
            [["s", "b"]] * 2
        for rid, path in enumerate(fill):
            assert engine.admit(rid, dipath=Dipath(path)) is None
        return engine

    def test_route_and_admit_best_minimise_different_tuples(self):
        """Pre-admission ``(m, t, h)`` picks the 4-hop route (total 5 < 6);
        post-admission ``(m + 1, t + h, h)`` picks the 2-hop one (8 < 9).
        Unifying the two rules must show up here as a decision change."""
        request = Request("s", "t")
        short = Dipath(["s", "a", "t"])
        detour = Dipath(["s", "b", "c", "d", "t"])
        plain = self._two_objectives_engine(speculative=False)
        assert plain.router.route(request) == detour
        assert plain.admit(99, request=request) is None
        assert plain.family[plain.vertex_of[99]] == detour
        spec = self._two_objectives_engine(speculative=True)
        assert set(spec.router.candidates(request)) == {short, detour}
        assert spec.admit(99, request=request) is None
        assert spec.family[spec.vertex_of[99]] == short

    @staticmethod
    def _work_engine():
        """W = 2 with a → b on colour 0 and b → c on colour 1, so
        ``[a, b, c]`` (post-admission cost (2, 4, 2)) cannot be coloured
        while ``[b, c, d, e]`` (cost (2, 4, 3), ranked after it) and
        ``[c, d]`` (cost (1, 1, 1)) can."""
        graph = DiGraph(arcs=[("a", "b"), ("b", "c"), ("c", "d"),
                              ("d", "e")])
        engine = OnlineEngine(graph, 2)
        for color, path in enumerate((["a", "b"], ["b", "c"])):
            engine.assigner.adopt(engine.conflict.add_dipath(Dipath(path)),
                                  color)
        return engine

    @staticmethod
    def _spy(monkeypatch):
        calls = {"add": 0, "rollback": 0}
        add = WhatIfTransaction.add_dipath
        rollback = WhatIfTransaction.rollback

        def counting_add(tx, dipath):
            calls["add"] += 1
            return add(tx, dipath)

        def counting_rollback(tx):
            calls["rollback"] += 1
            return rollback(tx)

        monkeypatch.setattr(WhatIfTransaction, "add_dipath", counting_add)
        monkeypatch.setattr(WhatIfTransaction, "rollback", counting_rollback)
        return calls

    @staticmethod
    def _index_rollbacks(engine):
        diagnostics = engine.metrics.snapshot()["diagnostics"]
        return diagnostics["counters"]["colorindex.rollbacks"]

    def test_top_ranked_fit_costs_one_add(self, monkeypatch):
        engine = self._work_engine()
        calls = self._spy(monkeypatch)
        blocked, fits = Dipath(["a", "b", "c"]), Dipath(["c", "d"])
        decision = admit_best(engine.conflict, engine.assigner,
                              [blocked, fits])
        assert decision is not None and decision.candidate == 1
        assert calls == {"add": 1, "rollback": 0}
        assert self._index_rollbacks(engine) == 0

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_j_misfits_cost_j_rollbacks(self, monkeypatch, j):
        engine = self._work_engine()
        calls = self._spy(monkeypatch)
        fits, blocked = Dipath(["b", "c", "d", "e"]), Dipath(["a", "b", "c"])
        decision = admit_best(engine.conflict, engine.assigner,
                              [fits] + [blocked] * j)
        assert decision is not None
        assert decision.candidate == 0 and decision.color == 0
        assert calls == {"add": j + 1, "rollback": j}
        assert self._index_rollbacks(engine) == j

    def test_no_fit_returns_none_and_leaves_state(self, monkeypatch):
        engine = self._work_engine()
        before = engine_fingerprint(engine)
        masks = list(engine.assigner.color_index._masks)
        calls = self._spy(monkeypatch)
        blocked = Dipath(["a", "b", "c"])
        assert admit_best(engine.conflict, engine.assigner,
                          [blocked, blocked]) is None
        assert calls == {"add": 2, "rollback": 2}
        assert engine_fingerprint(engine) == before
        assert engine.assigner.color_index._masks == masks
