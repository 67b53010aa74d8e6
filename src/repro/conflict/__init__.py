"""Conflict graphs of dipath families, cliques and independent sets.

The engine is bitset-backed (see PERFORMANCE.md): adjacency lives in integer
bitmasks and all algorithms run on them.  The pre-bitset reference
implementation is preserved in :mod:`repro.conflict.baseline` for
equivalence tests and benchmarking.
"""

from .cliques import (
    clique_number,
    greedy_clique,
    is_clique,
    maximal_cliques,
    maximum_clique,
)
from .conflict_graph import ConflictGraph, build_conflict_graph
from .dynamic import ShardedConflictGraph
from .covering import (
    blowup_chromatic_number,
    independent_set_cover,
    replicated_family_coloring,
    replication_structure,
)
from .independent_sets import (
    greedy_independent_set,
    independence_number,
    is_independent_set,
    maximum_independent_set,
    partition_lower_bound,
)

__all__ = [
    "ConflictGraph",
    "ShardedConflictGraph",
    "blowup_chromatic_number",
    "build_conflict_graph",
    "clique_number",
    "independent_set_cover",
    "replicated_family_coloring",
    "replication_structure",
    "greedy_clique",
    "greedy_independent_set",
    "independence_number",
    "is_clique",
    "is_independent_set",
    "maximal_cliques",
    "maximum_clique",
    "maximum_independent_set",
    "partition_lower_bound",
]
