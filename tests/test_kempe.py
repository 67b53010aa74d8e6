"""Edge-case tests for Kempe chains (repro.coloring.kempe) and the
assigner's one-swap repair, previously exercised only indirectly through
the online assigner.

Covers: the empty chain (an isolated start vertex), a chain spanning a
whole component, chains truncated by third colours, swap involutivity,
and the repair paths of :class:`~repro.online.OnlineWavelengthAssigner` —
including the abort case, where every candidate swap would worsen the
colouring and the assigner must walk away leaving the state untouched.
"""

from __future__ import annotations

import pytest

from repro.coloring.kempe import (
    kempe_component,
    kempe_swap,
    kempe_swap_component,
)
from repro.coloring.verify import is_proper_coloring
from repro.conflict import ShardedConflictGraph
from repro.dipaths.family import DipathFamily
from repro.online import OnlineWavelengthAssigner


def path_adjacency(n):
    """Path graph 0 - 1 - ... - n-1 as an adjacency mapping."""
    return {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}


class TestKempeComponent:
    def test_empty_chain_is_the_start_vertex(self):
        adjacency = {0: [], 1: []}
        coloring = {0: 0, 1: 1}
        assert kempe_component(adjacency, coloring, 0, 0, 1) == {0}

    def test_start_must_carry_one_of_the_two_colors(self):
        adjacency = path_adjacency(2)
        with pytest.raises(ValueError):
            kempe_component(adjacency, {0: 2, 1: 0}, 0, 0, 1)

    def test_chain_spanning_whole_component(self):
        adjacency = path_adjacency(6)
        coloring = {i: i % 2 for i in range(6)}    # alternating 0/1
        component = kempe_component(adjacency, coloring, 0, 0, 1)
        assert component == set(range(6))

    def test_chain_truncated_by_third_color(self):
        adjacency = path_adjacency(5)
        coloring = {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}  # colour 2 cuts the path
        assert kempe_component(adjacency, coloring, 0, 0, 1) == {0, 1}
        assert kempe_component(adjacency, coloring, 4, 0, 1) == {3, 4}

    def test_uncolored_vertices_stop_the_chain(self):
        adjacency = path_adjacency(3)
        coloring = {0: 0, 2: 1}                    # vertex 1 uncoloured
        assert kempe_component(adjacency, coloring, 0, 0, 1) == {0}


class TestKempeSwap:
    def test_swap_whole_component_stays_proper(self):
        adjacency = path_adjacency(6)
        coloring = {i: i % 2 for i in range(6)}
        swapped, component = kempe_swap(adjacency, coloring, 0, 0, 1)
        assert component == set(range(6))
        assert swapped == {i: (i + 1) % 2 for i in range(6)}
        assert is_proper_coloring(adjacency, swapped)

    def test_swap_is_an_involution(self):
        adjacency = path_adjacency(5)
        coloring = {0: 0, 1: 1, 2: 2, 3: 1, 4: 0}
        once, component = kempe_swap(adjacency, coloring, 0, 0, 1)
        twice = kempe_swap_component(once, component, 0, 1)
        assert twice == coloring

    def test_swap_component_ignores_other_colors(self):
        coloring = {0: 0, 1: 1, 2: 2}
        swapped = kempe_swap_component(coloring, {0, 1, 2}, 0, 1)
        assert swapped == {0: 1, 1: 0, 2: 2}
        assert coloring == {0: 0, 1: 1, 2: 2}      # input untouched

    def test_swap_does_not_mutate_input(self):
        adjacency = path_adjacency(4)
        coloring = {i: i % 2 for i in range(4)}
        kempe_swap(adjacency, coloring, 0, 0, 1)
        assert coloring == {i: i % 2 for i in range(4)}


class TestAssignerRepairEdgeCases:
    def _engine(self, paths, wavelengths=2, policy="least_used"):
        conflict = ShardedConflictGraph(DipathFamily())
        assigner = OnlineWavelengthAssigner(conflict.family, wavelengths,
                                            policy=policy, kempe_repair=True)
        for p in paths:
            idx = conflict.add_dipath(p)
            assert assigner.assign(conflict, idx) is not None
        return conflict, assigner

    def test_repair_that_would_worsen_aborts_untouched(self):
        # u0 = [a,b] and u1 = [b,c] are disjoint but both conflict with
        # u2's arcs... here all three share the arc (a, b): chi = 3 > W = 2
        # and every candidate swap would just trade one conflict for
        # another, so the repair must abort without changing anything.
        conflict, assigner = self._engine([["a", "b"], ["a", "b"]])
        colors_before = dict(assigner.coloring)
        usage_before = assigner.usage()
        idx = conflict.add_dipath(["a", "b"])
        assert assigner.assign(conflict, idx) is None
        assert assigner.kempe_repairs == 0
        assert dict(assigner.coloring) == colors_before
        assert assigner.usage() == usage_before
        conflict.remove_dipath(idx)

    def test_repair_aborts_when_component_holds_both_colors(self):
        # u0 = [a,b] (colour 0) and u1 = [a,b,c] (colour 1) conflict with
        # each other, so they form one Kempe component holding both
        # colours: swapping it frees nothing for v = [b,c] at W = 2 —
        # v conflicts with u1 only... make v conflict with both instead.
        conflict, assigner = self._engine([["a", "b"], ["a", "b", "c"]])
        idx = conflict.add_dipath(["a", "b", "c", "d"])
        assert assigner.assign(conflict, idx) is None
        assert assigner.kempe_repairs == 0
        conflict.remove_dipath(idx)

    def test_repair_swaps_chain_spanning_whole_component(self):
        # u0 = [a,b], u1 = [b,c]: disjoint, least_used colours them 0, 1.
        # v = [a,b,c] conflicts with both; the repair must swap the Kempe
        # component of u0 (which is just {u0}: u0 and u1 are NOT adjacent)
        # from 0 to 1 and hand colour 0 to v.
        conflict, assigner = self._engine([["a", "b"], ["b", "c"]])
        assert assigner.color_of(0) == 0 and assigner.color_of(1) == 1
        idx = conflict.add_dipath(["a", "b", "c"])
        assert assigner.assign(conflict, idx) == 0
        assert assigner.kempe_repairs == 1
        assert assigner.color_of(0) == 1           # the swapped chain
        assert assigner.color_of(1) == 1
        assert assigner.color_of(idx) == 0

    def test_failed_repair_is_invisible_to_later_events(self):
        # After an aborted repair the engine keeps working exactly as if
        # the blocked arrival had never been tried.
        conflict, assigner = self._engine([["a", "b"], ["a", "b"]])
        idx = conflict.add_dipath(["a", "b"])
        assert assigner.assign(conflict, idx) is None
        conflict.remove_dipath(idx)
        # a disjoint lightpath still gets a colour afterwards
        idx2 = conflict.add_dipath(["x", "y"])
        assert assigner.assign(conflict, idx2) is not None
