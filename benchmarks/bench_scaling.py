"""X1 — scaling of the variant-aware advantage (§5 extension).

The paper's quantitative evidence is one two-variant example; this
bench sweeps the number of variants and the common/variant overlap on
generated systems and reports cost and design time per flow.  The
paper's qualitative claims that must hold:

* variant-aware cost <= superposition cost, with the gap growing as
  variants are added (hardware duplication grows linearly while the
  shared-processor solution does not);
* design-time saving grows with the number of variants (common units
  are considered once instead of n times);
* the mutual-exclusion credit is *the* mechanism: switching it off
  (ablation) collapses the cost advantage.

The chained ladder (:func:`sweep_ladder`) grows one joint problem from
22 to 76 units and records what the root presolve of
:mod:`repro.synth.pareto` proves on it against the tree alone.

Set ``BENCH_QUICK=1`` for the reduced CI workload.
"""

import math
import time

from repro.apps.generators import generate_chained_system, generate_system
from repro.report.series import Series, render_series
from repro.report.tables import render_table
from repro.synth import pareto
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.explorer import BranchBoundExplorer
from repro.synth.mapping import SynthesisProblem
from repro.synth.methods import (
    ProblemFamily,
    explore_space,
    independent_flow,
    superposition_flow,
    variant_aware_flow,
    variant_units,
)
from repro.variants.variant_space import VariantSpace

from .conftest import quick_mode, write_artifact, write_json_artifact


def sweep_variants(n_variants_range=(2, 3, 4, 5), seed=11):
    explorer = BranchBoundExplorer()
    superposition_cost = Series("superposition")
    variant_cost = Series("with_variants")
    no_exclusion_cost = Series("no_exclusion (ablation)")
    independent_time = Series("independent time")
    variant_time = Series("variant time")
    for n_variants in n_variants_range:
        system = generate_system(
            seed=seed, n_variants=n_variants, common_fraction=0.5
        )
        independent = independent_flow(
            system.applications(), system.library, system.architecture,
            explorer,
        )
        superposed = superposition_flow(
            independent, system.library, system.architecture
        )
        variant = variant_aware_flow(
            system.vgraph, system.library, system.architecture, explorer
        )
        ablated = variant_aware_flow(
            system.vgraph,
            system.library,
            system.architecture,
            explorer,
            use_exclusion=False,
        )
        superposition_cost.add(n_variants, superposed.total_cost)
        variant_cost.add(n_variants, variant.total_cost)
        no_exclusion_cost.add(n_variants, ablated.total_cost)
        independent_time.add(n_variants, superposed.design_time)
        variant_time.add(n_variants, variant.design_time)
    return (
        [superposition_cost, variant_cost, no_exclusion_cost],
        [independent_time, variant_time],
    )


def test_scaling_with_variant_count(benchmark):
    cost_series, time_series = benchmark.pedantic(
        sweep_variants, rounds=1, iterations=1
    )
    text = render_series(
        cost_series, x_label="variants", title="X1: total cost vs. variants"
    )
    text += "\n\n" + render_series(
        time_series,
        x_label="variants",
        title="X1: design time vs. variants",
    )
    write_artifact("scaling_variants.txt", text)
    print("\n" + text)

    superposed, variant, ablated = cost_series
    for (_, sup), (_, var) in zip(superposed.points, variant.points):
        assert var <= sup + 1e-9
    # gap grows with the number of variants
    gaps = [sup - var for (_, sup), (_, var) in
            zip(superposed.points, variant.points)]
    assert gaps[-1] >= gaps[0]
    # the exclusion credit is the mechanism
    for (_, var), (_, abl) in zip(variant.points, ablated.points):
        assert var <= abl + 1e-9
    # design-time saving grows
    independent_time, variant_time = time_series
    savings = [
        ind - var
        for (_, ind), (_, var) in zip(
            independent_time.points, variant_time.points
        )
    ]
    assert savings == sorted(savings)


def sweep_overlap(fractions=(0.2, 0.4, 0.6, 0.8), seed=23):
    explorer = BranchBoundExplorer()
    saving = Series("design time saving")
    for fraction in fractions:
        system = generate_system(
            seed=seed, n_variants=3, common_fraction=fraction,
            common_processes=3,
        )
        independent = independent_flow(
            system.applications(), system.library, system.architecture,
            explorer,
        )
        total_independent = sum(
            r.outcome.design_time for r in independent.values()
        )
        variant = variant_aware_flow(
            system.vgraph, system.library, system.architecture, explorer
        )
        saving.add(fraction, total_independent - variant.design_time)
    return saving


def test_design_time_saving_vs_overlap(benchmark):
    saving = benchmark.pedantic(sweep_overlap, rounds=1, iterations=1)
    text = render_series(
        [saving],
        x_label="common fraction",
        title="X1: design-time saving vs. overlap",
    )
    write_artifact("scaling_overlap.txt", text)
    print("\n" + text)
    # More overlap -> more shared effort -> larger saving.
    values = list(saving.ys)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def _constrained_problem(n_variants, cluster_size=4, capacity=0.5):
    """A hardware-selection workload that forces a real search."""
    system = generate_system(
        seed=17, n_variants=n_variants, cluster_size=cluster_size,
        common_processes=4,
    )
    units, origins = variant_units(system.vgraph)
    architecture = ArchitectureTemplate(
        name="scaling-tight",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=capacity,
    )
    return SynthesisProblem(
        name=f"scaling-v{n_variants}",
        units=units,
        library=system.library,
        architecture=architecture,
        origins=origins,
    )


def sweep_incremental_throughput(
    n_variants_range=(2, 3, 4, 5), node_budget=8000
):
    """Evaluations/sec and nodes/sec, incremental vs. reference path.

    Both sides run the capacity-blind basic bound, so they prune alike:
    with the capacity-aware bound the incremental search proves these
    single-processor problems at the root presolve, with no tree whose
    node rate could be measured.
    """
    inc_nodes = Series("incremental nodes/s")
    ref_nodes = Series("reference nodes/s")
    inc_evals = Series("incremental evals/s")
    ref_evals = Series("reference evals/s")
    costs = []
    for n_variants in n_variants_range:
        problem = _constrained_problem(n_variants)
        pair = {}
        for label, explorer in (
            (
                "inc",
                BranchBoundExplorer(
                    node_budget=node_budget, capacity_bound=False
                ),
            ),
            (
                "ref",
                BranchBoundExplorer(
                    node_budget=node_budget, incremental=False
                ),
            ),
        ):
            start = time.perf_counter()
            result = explorer.explore(problem)
            elapsed = time.perf_counter() - start
            pair[label] = result
            nodes_rate = result.nodes_explored / elapsed
            evals_rate = result.evaluations / elapsed
            if label == "inc":
                inc_nodes.add(n_variants, round(nodes_rate))
                inc_evals.add(n_variants, round(evals_rate))
            else:
                ref_nodes.add(n_variants, round(nodes_rate))
                ref_evals.add(n_variants, round(evals_rate))
        costs.append((pair["inc"], pair["ref"]))
    return [inc_nodes, ref_nodes, inc_evals, ref_evals], costs


def _constrained_space(n_variants=8, cluster_size=6, capacity=0.45):
    """A hardware-selection space where each selection forces a search."""
    system = generate_system(
        seed=17, n_variants=n_variants, cluster_size=cluster_size,
        common_processes=6,
    )
    architecture = ArchitectureTemplate(
        name="scaling-parallel",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=capacity,
    )
    family = ProblemFamily(
        name=f"scaling-space-v{n_variants}",
        library=system.library,
        architecture=architecture,
    )
    return family, VariantSpace(system.vgraph)


def sweep_parallel_jobs(jobs_levels=(1, 2, 4), lineage_size=2):
    """Selections/sec of the identical lineage workload per jobs level."""
    family, space = _constrained_space()
    throughput = Series("selections/s")
    costs_per_level = []
    for jobs in jobs_levels:
        start = time.perf_counter()
        outcome = explore_space(
            family, space, jobs=jobs, lineage_size=lineage_size
        )
        elapsed = time.perf_counter() - start
        throughput.add(jobs, round(len(outcome) / elapsed, 2))
        costs_per_level.append([r.cost for r in outcome.results])
    return throughput, costs_per_level


def test_parallel_jobs_scaling(benchmark):
    throughput, costs_per_level = benchmark.pedantic(
        sweep_parallel_jobs, rounds=1, iterations=1
    )
    text = render_series(
        [throughput],
        x_label="jobs",
        title="X1: batch exploration throughput vs worker processes",
    )
    write_artifact("scaling_parallel.txt", text)
    print("\n" + text)
    # Correctness invariant of the jobs knob: identical results at
    # every worker count (speed is asserted in bench_explorer, where
    # the sweep is recorded with the machine's cpu count).
    reference = costs_per_level[0]
    for costs in costs_per_level[1:]:
        assert costs == reference


def sweep_bound_tightness(
    n_variants_range=(2, 3, 4, 5), completion_budget=500_000
):
    """Nodes to prove optimality, capacity-aware vs basic bound."""
    capacity_nodes = Series("capacity-aware bound nodes")
    basic_nodes = Series("basic bound nodes")
    pairs = []
    for n_variants in n_variants_range:
        problem = _constrained_problem(n_variants)
        capacity = BranchBoundExplorer(
            node_budget=completion_budget
        ).explore(problem)
        basic = BranchBoundExplorer(
            node_budget=completion_budget, capacity_bound=False
        ).explore(problem)
        capacity_nodes.add(n_variants, capacity.nodes_explored)
        basic_nodes.add(n_variants, basic.nodes_explored)
        pairs.append((capacity, basic))
    return [capacity_nodes, basic_nodes], pairs


def test_capacity_bound_shrinks_knapsack_trees(benchmark):
    series, pairs = benchmark.pedantic(
        sweep_bound_tightness, rounds=1, iterations=1
    )
    text = render_series(
        series,
        x_label="variants",
        title="X1: BnB nodes to optimality, capacity-aware vs basic bound",
    )
    write_artifact("scaling_bound_tightness.txt", text)
    print("\n" + text)
    for capacity, basic in pairs:
        # Same optimum either way: the tighter bound stays admissible.
        assert capacity.optimal and basic.optimal
        assert capacity.cost == basic.cost
        # The whole point: the capacity-aware bound prunes the
        # knapsack-hard tree at least 2x earlier on every space.
        assert capacity.nodes_explored * 2 <= basic.nodes_explored


def test_incremental_vs_reference_throughput(benchmark):
    series, costs = benchmark.pedantic(
        sweep_incremental_throughput, rounds=1, iterations=1
    )
    text = render_series(
        series[:2],
        x_label="variants",
        title="X1: search-node throughput, incremental vs reference",
    )
    text += "\n\n" + render_series(
        series[2:],
        x_label="variants",
        title="X1: evaluation throughput, incremental vs reference",
    )
    write_artifact("scaling_incremental.txt", text)
    print("\n" + text)
    # Correctness: whenever both paths complete the search, they agree.
    for incremental, reference in costs:
        if incremental.optimal and reference.optimal:
            assert incremental.cost == reference.cost
        # A provably optimal incremental result is never beaten by the
        # (possibly truncated) reference search.
        if incremental.optimal and reference.feasible:
            assert incremental.cost <= reference.cost + 1e-9


# ----------------------------------------------------------------------
# The chained ladder: one processor, 22-76 units
# ----------------------------------------------------------------------
#: ``n_interfaces`` of each rung (22, 28, 34, 40 and 76 units).
LADDER_INTERFACES = (3, 4, 5, 6, 12)


def ladder_problem(n_interfaces: int) -> SynthesisProblem:
    """The joint problem of one rung: three two-process variants per
    interface on a four-process common chain, one processor at 0.6."""
    system = generate_chained_system(
        seed=1,
        n_interfaces=n_interfaces,
        n_variants=3,
        cluster_size=2,
        common_processes=4,
        processor_capacity=0.6,
    )
    units, origins = variant_units(system.vgraph)
    return SynthesisProblem(
        name=f"ladder-i{n_interfaces}",
        units=units,
        library=system.library,
        architecture=system.architecture,
        origins=origins,
    )


def _timed_explore(explorer, problem):
    start = time.perf_counter()
    result = explorer.explore(problem)
    return {
        "cost": result.cost if result.feasible else None,
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
        "seconds": round(time.perf_counter() - start, 4),
    }


def sweep_ladder(interfaces=LADDER_INTERFACES, tree_budget=1.0):
    """Per rung: default DFS (root presolve), the tree alone
    (``capacity_bound=False`` DFS under ``tree_budget`` seconds), and
    the largest Pareto front the presolve built."""
    rows = []
    for n_interfaces in interfaces:
        problem = ladder_problem(n_interfaces)
        solution = pareto.solve(problem)
        rows.append(
            {
                "rung": problem.name,
                "units": len(problem.units),
                "default_dfs": _timed_explore(BranchBoundExplorer(), problem),
                "tree_only_dfs": _timed_explore(
                    BranchBoundExplorer(
                        capacity_bound=False, time_budget=tree_budget
                    ),
                    problem,
                ),
                "pareto_cost": solution.cost,
                "largest_front": solution.largest_front,
            }
        )
    return rows


def test_ladder_proved_at_the_root(benchmark):
    tree_budget = 0.25 if quick_mode() else 1.0
    rows = benchmark.pedantic(
        lambda: sweep_ladder(tree_budget=tree_budget),
        rounds=1,
        iterations=1,
    )
    write_json_artifact(
        "scaling_ladder.json",
        {
            "quick_mode": quick_mode(),
            "tree_budget_s": tree_budget,
            "rungs": rows,
        },
    )
    text = render_table(
        [
            "rung",
            "units",
            "default cost",
            "proved",
            "seconds",
            f"tree-only cost ({tree_budget:g} s)",
            "proved",
            "largest front",
        ],
        [
            [
                row["rung"],
                str(row["units"]),
                str(row["default_dfs"]["cost"]),
                "yes" if row["default_dfs"]["optimal"] else "no",
                str(row["default_dfs"]["seconds"]),
                str(row["tree_only_dfs"]["cost"]),
                "yes" if row["tree_only_dfs"]["optimal"] else "no",
                str(row["largest_front"]),
            ]
            for row in rows
        ],
        title="X1: chained ladder, root presolve vs the tree alone",
    )
    write_artifact("scaling_ladder.txt", text)
    print("\n" + text)
    for row in rows:
        default, tree = row["default_dfs"], row["tree_only_dfs"]
        # Default DFS proves every rung, at the presolve's optimum and
        # with no tree.
        assert default["optimal"], row
        assert default["nodes"] == 0, row
        assert default["cost"] == row["pareto_cost"], row
        assert row["largest_front"] <= pareto.MAX_FRONT, row
        # The tree alone never beats a proven optimum.
        if tree["cost"] is not None:
            assert tree["cost"] >= default["cost"] - 1e-9, row
            if tree["optimal"]:
                assert math.isclose(tree["cost"], default["cost"]), row
