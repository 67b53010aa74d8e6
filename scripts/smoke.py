"""Quick smoke test of the core reproduction claims (not part of the test suite)."""
from repro import (
    assign_wavelengths,
    build_conflict_graph,
    chromatic_number,
    color_dipaths_theorem1,
    color_dipaths_theorem6,
    equality_certificate,
    has_internal_cycle,
    is_upp_dag,
    load,
    wavelength_number,
)
from repro.generators import (
    figure3_instance,
    figure5_instance,
    havet_instance,
    pathological_instance,
    random_internal_cycle_free_dag,
    random_upp_one_cycle_dag,
    random_walk_family,
    theorem2_gadget,
)
from repro.coloring.verify import num_colors

# Figure 3
dag, fam = figure3_instance()
cg = build_conflict_graph(fam)
print("fig3: pi", load(dag, fam), "w", chromatic_number(cg.adjacency()),
      "cycle?", cg.is_cycle_graph(), "internal?", has_internal_cycle(dag))

# Figure 1
dag, fam = pathological_instance(5)
cg = build_conflict_graph(fam)
print("fig1 k=5: pi", load(dag, fam), "w", chromatic_number(cg.adjacency()),
      "complete?", cg.is_complete(), "internal?", has_internal_cycle(dag))

# Figure 5 / theorem 2
dag, fam = figure5_instance(3)
cg = build_conflict_graph(fam)
print("fig5 k=3: pi", load(dag, fam), "w", chromatic_number(cg.adjacency()),
      "C7?", cg.is_cycle_graph(), "upp?", is_upp_dag(dag))

# Havet / theorem 7
dag, fam = havet_instance(1)
cg = build_conflict_graph(fam)
print("havet h=1: pi", load(dag, fam), "w", chromatic_number(cg.adjacency()),
      "upp?", is_upp_dag(dag))
dag, fam = havet_instance(3)
print("havet h=3: pi", load(dag, fam), "w",
      wavelength_number(dag, fam, method="exact"))

# Theorem 1 on random internal-cycle-free DAG
for seed in range(5):
    g = random_internal_cycle_free_dag(30, 45, seed=seed)
    f = random_walk_family(g, 40, seed=seed)
    col = color_dipaths_theorem1(g, f)
    w_exact = wavelength_number(g, f, method="exact")
    print("thm1 seed", seed, "pi", f.load(), "thm1 colors", num_colors(col),
          "exact w", w_exact, "OK" if num_colors(col) == w_exact == f.load() else "MISMATCH")

# Theorem 6 on UPP one-cycle DAGs
for seed in range(5):
    g = random_upp_one_cycle_dag(k=3, extra_depth=2, seed=seed)
    f = random_walk_family(g, 30, seed=seed, min_length=2)
    col6 = color_dipaths_theorem6(g, f)
    print("thm6 seed", seed, "pi", f.load(), "thm6 colors", num_colors(col6),
          "bound", -(-4 * f.load() // 3))

# Havet with theorem 6 algorithm
dag, fam = havet_instance(2)
col6 = color_dipaths_theorem6(dag, fam)
print("havet h=2 thm6 colors", num_colors(col6), "pi", fam.load())

# Main theorem certificate on the theorem2 gadget
cert = equality_certificate(theorem2_gadget(3))
print("certificate: equality?", cert.equality_holds, "pi", cert.witness_load,
      "w", cert.witness_wavelengths)

# auto solver
dag, fam = figure3_instance()
sol = assign_wavelengths(dag, fam, method="auto")
print("auto fig3:", sol.num_wavelengths, sol.method)
# Bench-gate wiring in smoke mode (E19 service identity + tenant
# isolation, E21 chaos hardening): one cheap replay per scenario, the
# deterministic claims still gate.
from repro.analysis.suites import SUITES, print_records, problems

for suite in SUITES.values():
    if suite.smoke:
        smoke_records = suite.run(smoke=True)
        print_records(suite, smoke_records)
        missed = problems(suite, smoke_records)
        for problem in missed:
            print("!!", problem)
        print(f"{suite.name.upper()} SMOKE",
              "FAILED" if missed else "OK")

# Determinism & contract linter (E20 wiring) in smoke mode: the whole
# package must be clean modulo the committed baseline (CONTRACTS.md).
from repro.lint import lint_package

lint_report = lint_package()
for finding in lint_report.new_findings:
    print("lint:", finding.render())
print("LINT SMOKE", "OK" if lint_report.clean
      else f"FAILED ({len(lint_report.new_findings)} new findings)")

# Runtime audit layer: a short audited run must report zero violations.
from repro.generators import random_internal_cycle_free_dag, random_request_family
from repro.online.events import poisson_trace
from repro.online.simulator import simulate_online

_g = random_internal_cycle_free_dag(30, 45, seed=0)
_trace = poisson_trace(random_request_family(_g, 25, seed=0), 120,
                       arrival_rate=3.0, mean_holding=4.0, seed=0)
simulate_online(_g, _trace, 8, audit_every=10)
# The colour index flips mask bits, exact only while the colouring is
# proper; Kempe chain swaps recolour member by member, so audit after
# every event of a run that swaps, under every policy.
from repro.online import POLICIES

for _policy in POLICIES:
    _kempe = simulate_online(_g, _trace, 3, policy=_policy, seed=0,
                             kempe_repair=True, audit_every=1)
    assert _kempe.kempe_repairs > 0, _policy
print("AUDIT SMOKE OK")

# Faulted k-shortest routing: speculation, defrag on block and
# maintenance cuts, audited after every event; the last window is never
# repaired.  The router keeps its cached candidates across the cuts and
# repairs it judges harmless, so at the end each answer must equal a
# cold recompute on a copy of the final graph (every cached pair is a
# pool pair).
from repro.dipaths.requests import Request
from repro.generators.regions import (multi_region_topology,
                                      multi_region_traffic)
from repro.graphs.traversal import k_shortest_dipaths
from repro.online.events import CUT, maintenance_events, sort_events

_g = multi_region_topology(regions=2, region_size=14, arc_probability=0.18,
                           coupling=3, seed=3)
_pool = multi_region_traffic(_g, 60, inter_fraction=0.3, seed=4)
_trace = poisson_trace(_pool, 150, arrival_rate=2.0, mean_holding=10.0,
                       seed=5)
_arcs = sorted(_g.arcs())
_events = list(_trace)
_starts = range(10, int(_trace[-1].time) - 20, 25)
for _i, _start in enumerate(_starts):
    _window = maintenance_events(
        [_arcs[(7 * _i) % len(_arcs)], _arcs[(7 * _i + 3) % len(_arcs)]],
        float(_start), 10.0, fault_id=2 * _i)
    _events.extend(e for e in _window
                   if _i < len(_starts) - 1 or e.kind == CUT)
_faulted = simulate_online(_g, sort_events(_events), 6, routing="k_shortest",
                           speculative=True, defrag_on_block=True,
                           audit_every=1)
assert _faulted.lightpaths_stranded > 0      # the cuts hit live traffic
_final = _faulted.engine.graph.copy()
for _s, _t in _pool.pairs():
    assert [d.vertices for d in
            _faulted.engine.router.candidates(Request(_s, _t))] == \
        [tuple(p) for p in k_shortest_dipaths(_final, _s, _t, 4)], (_s, _t)
print("FAULTED K-SHORTEST SMOKE OK")

# Backpressure: one flash-crowd burst submitted through a service whose
# inbox holds 4 ops, so most submits await room.  Greedy batches decide
# what one-by-one admission decides, however the drain task splits the
# burst, so the decisions must equal simulate_online's.
import asyncio

from repro.analysis.bench_service import flash_crowd_trace
from repro.service import RwaService

_g = multi_region_topology(regions=2, region_size=16, arc_probability=0.18,
                           coupling=2, seed=1)
_pairs = multi_region_traffic(_g, 40, inter_fraction=0.25, seed=2).pairs()
_burst = [e for e in flash_crowd_trace(_pairs, 1, 40, 1.0, 2.5)
          if e.kind == "arrival"]


async def _bounded_burst():
    async with RwaService(_g, 4, batch_policy="greedy",
                          max_pending=4) as service:
        return await asyncio.gather(*(
            service.submit(e.request_id, request=e.request, time=e.time)
            for e in _burst))


_served = asyncio.run(_bounded_burst())
_oracle = simulate_online(_g, _burst, 4, batch_policy="greedy",
                          record_timeline=False)
assert _served == [_oracle.rejections.get(e.request_id) for e in _burst]
assert any(_served) and not all(_served)     # the budget binds, not always
print("BACKPRESSURE SMOKE OK")

print("SMOKE OK")
