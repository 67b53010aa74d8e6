"""repro (dagrwa): routing and wavelength assignment on DAGs.

Reproduction of Bermond & Cosnard, *"Minimum number of wavelengths equals
load in a DAG without internal cycle"* (IPDPS 2007).

The public API re-exports the most commonly used objects; the full surface
lives in the subpackages:

* :mod:`repro.graphs`     — digraphs, DAGs, traversal;
* :mod:`repro.cycles`     — oriented and internal cycles;
* :mod:`repro.dipaths`    — dipaths, families, requests, routing;
* :mod:`repro.conflict`   — conflict graphs, cliques, independent sets;
* :mod:`repro.coloring`   — greedy / DSATUR / exact colouring, Kempe chains;
* :mod:`repro.upp`        — the Unique diPath Property and its consequences;
* :mod:`repro.core`       — the paper's results (load, Theorems 1, 2, 6,
  the Main Theorem characterisation, wavelength assignment front-end);
* :mod:`repro.generators` — paper gadgets and random instance generators;
* :mod:`repro.optical`    — the WDM optical-network motivation substrate;
* :mod:`repro.online`     — event-driven online RWA: dynamic families,
  incremental conflict maintenance, wavelength policies, Kempe repair;
* :mod:`repro.parallel`   — parallel experiment execution;
* :mod:`repro.analysis`   — experiment drivers, metrics and tables.

The conflict/colouring pipeline is bitset-backed: arcs are interned to
dense ids, conflict-graph adjacency lives in integer bitmasks, and the
clique/colouring algorithms run directly on them; under churn the masks
are patched per event instead of rebuilt (``repro.online``).  See
``PERFORMANCE.md`` at the repository root for the representation, its
read-only-view contracts, and the ``BENCH_conflict_engine.json`` /
``BENCH_online_engine.json`` scaling benchmarks.

Quickstart
----------
>>> from repro import DAG, DipathFamily, load, wavelength_number
>>> dag = DAG(arcs=[("a", "b"), ("b", "c"), ("b", "d")])
>>> family = DipathFamily([["a", "b", "c"], ["a", "b", "d"]], graph=dag)
>>> load(dag, family), wavelength_number(dag, family)
(2, 2)
"""

from __future__ import annotations

from .exceptions import (
    BoundViolationError,
    ColoringError,
    GraphError,
    InternalCycleError,
    InvalidColoringError,
    InvalidDipathError,
    NoInternalCycleError,
    NotADAGError,
    NotUPPError,
    ReproError,
    RoutingError,
)
from .graphs import DAG, DiGraph, as_dag, topological_order
from .cycles import (
    enumerate_internal_cycles,
    find_internal_cycle,
    has_internal_cycle,
    has_unique_internal_cycle,
    internal_cyclomatic_number,
)
from .dipaths import (
    Dipath,
    DipathFamily,
    Request,
    RequestFamily,
    route_all,
    route_min_load,
    route_shortest,
    route_unique,
)
from .conflict import (
    ConflictGraph,
    ShardedConflictGraph,
    build_conflict_graph,
    clique_number,
)
from .coloring import chromatic_number, dsatur_coloring, greedy_coloring
from .upp import is_upp_dag
from .core import (
    WavelengthSolution,
    assign_wavelengths,
    color_dipaths_theorem1,
    color_dipaths_theorem6,
    equality_certificate,
    load,
    min_wavelengths_equal_load,
    theorem6_bound,
    wavelength_number,
    witness_family_theorem2,
)

__version__ = "1.0.0"

__all__ = [
    # exceptions
    "BoundViolationError",
    "ColoringError",
    "GraphError",
    "InternalCycleError",
    "InvalidColoringError",
    "InvalidDipathError",
    "NoInternalCycleError",
    "NotADAGError",
    "NotUPPError",
    "ReproError",
    "RoutingError",
    # graphs & cycles
    "DAG",
    "DiGraph",
    "as_dag",
    "topological_order",
    "enumerate_internal_cycles",
    "find_internal_cycle",
    "has_internal_cycle",
    "has_unique_internal_cycle",
    "internal_cyclomatic_number",
    # dipaths & requests
    "Dipath",
    "DipathFamily",
    "Request",
    "RequestFamily",
    "route_all",
    "route_min_load",
    "route_shortest",
    "route_unique",
    # conflict & colouring
    "ConflictGraph",
    "ShardedConflictGraph",
    "build_conflict_graph",
    "clique_number",
    "chromatic_number",
    "dsatur_coloring",
    "greedy_coloring",
    # UPP
    "is_upp_dag",
    # core results
    "WavelengthSolution",
    "assign_wavelengths",
    "color_dipaths_theorem1",
    "color_dipaths_theorem6",
    "equality_certificate",
    "load",
    "min_wavelengths_equal_load",
    "theorem6_bound",
    "wavelength_number",
    "witness_family_theorem2",
    "__version__",
]
