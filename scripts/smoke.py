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
simulate_online(_g, _trace, 8, sharded=True, audit_every=10)
print("AUDIT SMOKE OK")

print("SMOKE OK")
