"""Unit tests for :mod:`repro.dipaths.family`."""

import pytest

from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.exceptions import InvalidDipathError
from repro.graphs.digraph import DiGraph


class TestConstruction:
    def test_empty_family(self):
        fam = DipathFamily()
        assert len(fam) == 0
        assert fam.load() == 0
        assert fam.arcs_used() == []

    def test_add_returns_index(self):
        fam = DipathFamily()
        assert fam.add(["a", "b"]) == 0
        assert fam.add(Dipath(["b", "c"])) == 1
        assert len(fam) == 2

    def test_graph_validation(self):
        g = DiGraph(arcs=[("a", "b")])
        fam = DipathFamily(graph=g)
        fam.add(["a", "b"])
        with pytest.raises(InvalidDipathError):
            fam.add(["b", "a"])
        with pytest.raises(InvalidDipathError):
            fam.add(Dipath(["x", "y"]))

    def test_validate_against(self, simple_dag, simple_family):
        simple_family.validate_against(simple_dag)
        other = DiGraph(arcs=[("a", "b")])
        with pytest.raises(InvalidDipathError):
            simple_family.validate_against(other)

    def test_iteration_and_indexing(self, simple_family):
        assert simple_family[0] == Dipath(["a", "b", "c", "d"])
        assert len(list(simple_family)) == 3
        assert simple_family.index_of(Dipath(["b", "c", "d"])) == 1


class TestLoad:
    def test_load_simple(self, simple_family):
        # all three dipaths end with the arc (c, d)
        assert simple_family.load() == 3
        assert simple_family.load_of_arc(("c", "d")) == 3
        assert simple_family.load_of_arc(("a", "b")) == 1
        assert simple_family.load_of_arc(("zz", "yy")) == 0

    def test_load_per_arc(self, simple_family):
        per_arc = simple_family.load_per_arc()
        assert per_arc[("a", "b")] == 1
        assert per_arc[("b", "c")] == 2
        assert per_arc[("c", "d")] == 3
        assert ("x", "y") not in per_arc

    def test_maximum_load_arcs(self, simple_family):
        assert simple_family.maximum_load_arcs() == [("c", "d")]

    def test_members_on_arc(self, simple_family):
        assert simple_family.members_on_arc(("b", "c")) == [0, 1]
        assert simple_family.members_on_arc(("zz", "yy")) == []

    def test_identical_dipaths_both_count(self):
        fam = DipathFamily([["a", "b"], ["a", "b"]])
        assert fam.load() == 2

    def test_replicate(self):
        fam = DipathFamily([["a", "b"], ["b", "c"]])
        rep = fam.replicate(3)
        assert len(rep) == 6
        assert rep.load() == 3
        with pytest.raises(ValueError):
            fam.replicate(0)


class TestConflicts:
    def test_conflicting_pairs(self, simple_family):
        pairs = set(simple_family.conflicting_pairs())
        assert pairs == {(0, 1), (0, 2), (1, 2)}

    def test_conflicts_of(self, simple_family):
        assert simple_family.conflicts_of(0) == [1, 2]

    def test_disjoint_paths_do_not_conflict(self):
        fam = DipathFamily([["a", "b"], ["c", "d"]])
        assert list(fam.conflicting_pairs()) == []


class TestDynamicFamily:
    """remove(), free-list recycling and incremental cache maintenance."""

    def test_remove_returns_dipath_and_updates_load(self, simple_family):
        removed = simple_family.remove(0)
        assert removed == Dipath(["a", "b", "c", "d"])
        assert len(simple_family) == 2
        assert simple_family.load() == 2
        assert simple_family.load_of_arc(("a", "b")) == 0
        assert simple_family.members_on_arc(("c", "d")) == [1, 2]

    def test_remove_invalid_index(self, simple_family):
        with pytest.raises(IndexError):
            simple_family.remove(7)
        simple_family.remove(1)
        with pytest.raises(IndexError):
            simple_family.remove(1)  # already freed

    def test_free_slot_is_recycled(self, simple_family):
        simple_family.remove(1)
        assert simple_family.active_indices() == [0, 2]
        assert not simple_family.is_active(1)
        idx = simple_family.add(["b", "e"])
        assert idx == 1
        assert simple_family.is_active(1)
        assert simple_family.num_slots == 3
        # fresh indices resume after the slots are exhausted
        assert simple_family.add(["a", "b"]) == 3

    def test_getitem_and_iteration_skip_freed_slots(self, simple_family):
        simple_family.remove(1)
        with pytest.raises(IndexError):
            simple_family[1]
        assert len(list(simple_family)) == 2
        assert len(simple_family.dipaths) == 2

    def test_arcs_used_shrinks_after_removal(self):
        fam = DipathFamily([["a", "b"], ["b", "c"]])
        fam.remove(0)
        assert fam.arcs_used() == [("b", "c")]
        assert fam.num_arcs_used == 1
        assert fam.load_per_arc() == {("b", "c"): 1}
        assert fam.maximum_load_arcs() == [("b", "c")]
        assert fam.union_digraph().num_arcs == 1

    def test_empty_after_removals(self):
        fam = DipathFamily([["a", "b"]])
        fam.remove(0)
        assert len(fam) == 0
        assert fam.load() == 0
        assert fam.maximum_load_arcs() == []

    def test_conflict_masks_patch_on_remove_and_readd(self, simple_family):
        assert set(simple_family.conflicting_pairs()) == {(0, 1), (0, 2), (1, 2)}
        simple_family.remove(1)
        assert set(simple_family.conflicting_pairs()) == {(0, 2)}
        assert simple_family.conflicts_of(0) == [2]
        idx = simple_family.add(["b", "c", "d"])
        assert idx == 1
        assert set(simple_family.conflicting_pairs()) == {(0, 1), (0, 2), (1, 2)}

    def test_every_mutation_drops_the_mask_cache(self):
        """Mutations never patch the conflict-mask cache: each one drops
        it, and the next query is a cold build equal to a fresh family's."""
        import random

        rng = random.Random(5)
        fam = DipathFamily()
        pool = [["a", "b", "c"], ["b", "c", "d"], ["c", "d", "e"],
                ["a", "b"], ["d", "e"], ["b", "c"]]
        active = []
        for step in range(1, 121):
            fam.conflict_masks()            # warm the cache
            if active and rng.random() < 0.45:
                victim = rng.choice(active)
                active.remove(victim)
                fam.remove(victim)
            else:
                active.append(fam.add(rng.choice(pool)))
            assert fam._conflict_masks is None
            # the cold build, straight off the raw dipaths, slot by slot
            arcs = {i: set(p.arcs()) for i, p in fam.items()}
            cold = [0] * fam.num_slots
            for i in arcs:
                for j in arcs:
                    if i != j and arcs[i] & arcs[j]:
                        cold[i] |= 1 << j
            assert fam.conflict_masks() == cold
            assert fam.mask_rebuilds == step + 1


class TestTransformations:
    def test_restricted_to_arcs(self, simple_family):
        sub = simple_family.restricted_to_arcs([("a", "b")])
        assert len(sub) == 1

    def test_copy_independent(self, simple_family):
        copy = simple_family.copy()
        copy.add(["b", "e"])
        assert len(simple_family) == 3
        assert len(copy) == 4

    def test_union_digraph(self, simple_family):
        g = simple_family.union_digraph()
        assert g.has_arc("a", "b")
        assert g.has_arc("f", "c")
        assert g.num_arcs == 4  # (a,b), (b,c), (c,d), (f,c)
