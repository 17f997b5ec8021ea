"""Unit tests for the design-space explorers."""

import dataclasses
import sys
import time

import pytest

from repro.apps.generators import generate_system
from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.methods import variant_units
from repro.synth.ordering import (
    FRONTIERS,
    ORDERINGS,
    density_order,
    hardware_cost_order,
)


def toy_problem(**overrides):
    library = ComponentLibrary()
    library.component("a", sw_utilization=0.6, hw_cost=8)
    library.component("b", sw_utilization=0.7, hw_cost=12)
    library.component("c", sw_utilization=0.2, hw_cost=30)
    params = dict(
        name="toy",
        units=("a", "b", "c"),
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=1, processor_cost=10, processor_capacity=1.0
        ),
    )
    params.update(overrides)
    return SynthesisProblem(**params)


class TestExhaustive:
    def test_finds_optimum(self):
        result = ExhaustiveExplorer().explore(toy_problem())
        # all-SW infeasible (1.5); cheapest: hw{a} -> sw util 0.9, cost 18
        assert result.feasible
        assert result.cost == 18.0
        assert result.mapping.hardware_units() == ("a",)
        assert result.optimal

    def test_respects_fixed_assignments(self):
        problem = toy_problem(fixed={"b": Target.hw()})
        result = ExhaustiveExplorer().explore(problem)
        assert result.mapping.target_of("b").is_hardware
        assert result.cost == 10 + 12  # b in HW, a and c in SW (0.8)

    def test_infeasible_problem_reports_gracefully(self):
        library = ComponentLibrary()
        library.component("x", sw_utilization=2.0)  # SW-only, never fits
        problem = SynthesisProblem(
            name="impossible",
            units=("x",),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=1),
        )
        result = ExhaustiveExplorer().explore(problem)
        assert not result.feasible
        with pytest.raises(SynthesisError):
            result.require_feasible()


class TestBranchBound:
    def test_matches_exhaustive_optimum(self):
        problem = toy_problem()
        exhaustive = ExhaustiveExplorer().explore(problem)
        bnb = BranchBoundExplorer().explore(problem)
        assert bnb.cost == exhaustive.cost
        assert bnb.optimal

    def test_prunes_nodes(self):
        problem = toy_problem()
        exhaustive = ExhaustiveExplorer().explore(problem)
        bnb = BranchBoundExplorer().explore(problem)
        assert bnb.nodes_explored <= exhaustive.nodes_explored

    def test_multiprocessor_symmetry_breaking(self):
        problem = toy_problem(
            architecture=ArchitectureTemplate(
                max_processors=2, processor_cost=10, processor_capacity=1.0
            )
        )
        result = BranchBoundExplorer().explore(problem)
        # two CPUs (cost 20) beat one CPU + cheapest HW (18)? No: 18 < 20,
        # optimum stays hw{a}.
        assert result.cost == 18.0


def knapsack_problem(n_variants=4, cluster_size=4):
    """A capacity-tight generated problem with a non-trivial tree."""
    system = generate_system(
        seed=3,
        n_variants=n_variants,
        cluster_size=cluster_size,
        common_processes=4,
    )
    units, origins = variant_units(system.vgraph)
    architecture = ArchitectureTemplate(
        name="edge",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=0.45,
    )
    return SynthesisProblem(
        name="edge",
        units=units,
        library=system.library,
        architecture=architecture,
        origins=origins,
    )


def tree_knapsack_problem():
    """A knapsack problem on a two-processor template.

    The root presolve is exact on one processor only, so branch and
    bound still builds its tree here: the input of the tests about
    ordering and budgets, which :func:`knapsack_problem` now answers
    at the root.
    """
    return dataclasses.replace(
        knapsack_problem(n_variants=3, cluster_size=3),
        architecture=ArchitectureTemplate(
            name="edge2",
            max_processors=2,
            processor_cost=5.0,
            processor_capacity=0.3,
        ),
    )


class TestBranchingOrder:
    def test_all_orderings_reach_the_same_optimum(self):
        problem = knapsack_problem()
        reference = ExhaustiveExplorer().explore(knapsack_problem(2, 2))
        small = knapsack_problem(2, 2)
        for ordering in ORDERINGS:
            result = BranchBoundExplorer(ordering=ordering).explore(small)
            assert result.optimal
            assert result.cost == reference.cost
        costs = {
            ordering: BranchBoundExplorer(ordering=ordering)
            .explore(problem)
            .cost
            for ordering in ORDERINGS
        }
        assert len(set(costs.values())) == 1

    def test_adaptive_shrinks_the_knapsack_tree(self):
        problem = tree_knapsack_problem()
        static = BranchBoundExplorer(ordering="static").explore(problem)
        adaptive = BranchBoundExplorer().explore(problem)
        assert adaptive.optimal and static.optimal
        assert adaptive.cost == static.cost
        assert adaptive.nodes_explored < static.nodes_explored

    def test_adaptive_provenance_names_the_mode(self):
        result = BranchBoundExplorer().explore(toy_problem())
        assert result.provenance.startswith("branch_and_bound[adaptive]")
        static = BranchBoundExplorer(ordering="static").explore(
            toy_problem()
        )
        assert static.provenance.startswith("branch_and_bound")
        assert "[static]" not in static.provenance

    def test_invalid_ordering_rejected(self):
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(ordering="zigzag")

    def test_unit_orders_are_permutations(self):
        problem = knapsack_problem()
        units = problem.free_units
        for order in (
            hardware_cost_order(problem, units),
            density_order(problem, units),
        ):
            assert sorted(order) == sorted(units)

    def test_density_order_decides_forced_units_first(self):
        library = ComponentLibrary()
        library.component("hwonly", hw_cost=5)
        library.component("swonly", sw_utilization=0.4)
        library.component("flex", sw_utilization=0.5, hw_cost=20)
        problem = SynthesisProblem(
            name="forced",
            units=("flex", "swonly", "hwonly"),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=1),
        )
        assert density_order(problem, problem.units) == [
            "hwonly",
            "swonly",
            "flex",
        ]


class TestSearchFrontiers:
    def test_default_frontier_is_dfs(self):
        assert BranchBoundExplorer().frontier == "dfs"
        assert FRONTIERS == ("dfs", "best-first")

    def test_invalid_frontier_rejected(self):
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(frontier="breadth-first")

    def test_all_frontiers_prove_the_same_optimum(self):
        problem = knapsack_problem()
        reference = BranchBoundExplorer().explore(problem)
        for frontier in FRONTIERS:
            result = BranchBoundExplorer(frontier=frontier).explore(
                problem
            )
            assert result.optimal
            assert result.cost == reference.cost
            assert result.proof_floor == reference.proof_floor

    def test_best_first_never_needs_more_nodes_than_dfs(self):
        """Best-first expands only nodes whose bound beats the
        optimum; on this pinned knapsack-hard tree that is no more
        work than the depth-first dive (an empirical regression
        guard — the two frontiers shape their trees differently, so
        the inequality is measured, not derived)."""
        problem = knapsack_problem()
        dfs = BranchBoundExplorer().explore(problem)
        best_first = BranchBoundExplorer(
            frontier="best-first"
        ).explore(problem)
        assert best_first.optimal
        assert best_first.nodes_explored <= dfs.nodes_explored

    def test_frontier_provenance_tags(self):
        problem = toy_problem()
        best_first = BranchBoundExplorer(
            frontier="best-first"
        ).explore(problem)
        assert best_first.provenance.startswith(
            "branch_and_bound[adaptive,best-first]"
        )
        best_first_static = BranchBoundExplorer(
            frontier="best-first", ordering="static"
        ).explore(problem)
        assert best_first_static.provenance.startswith(
            "branch_and_bound[best-first]"
        )
        dfs = BranchBoundExplorer().explore(problem)
        assert dfs.provenance.startswith("branch_and_bound[adaptive]")
        assert "dfs" not in dfs.provenance

    def test_frontiers_work_on_the_reference_state(self):
        """incremental=False (full-recompute oracle state) still
        reaches the optimum under every frontier."""
        problem = toy_problem()
        for frontier in FRONTIERS:
            result = BranchBoundExplorer(
                frontier=frontier, incremental=False
            ).explore(problem)
            assert result.optimal
            assert result.cost == 18.0


class TestFrontierBudgetEdges:
    """The new frontiers mirror the DFS budget semantics exactly."""

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_node_budget_boundary_is_inclusive(self, frontier):
        """``nodes == node_budget`` completes; one less truncates."""
        problem = tree_knapsack_problem()
        full = BranchBoundExplorer(frontier=frontier).explore(problem)
        assert full.optimal and full.nodes_explored > 1
        exact = BranchBoundExplorer(
            frontier=frontier, node_budget=full.nodes_explored
        ).explore(problem)
        assert exact.optimal
        assert exact.nodes_explored == full.nodes_explored
        assert "(budget-truncated)" not in exact.provenance
        under = BranchBoundExplorer(
            frontier=frontier, node_budget=full.nodes_explored - 1
        ).explore(problem)
        assert not under.optimal
        assert under.provenance.endswith("(budget-truncated)")
        assert under.proof_floor == float("-inf")
        # the budget check fires on entering the first over-budget node
        assert under.nodes_explored == full.nodes_explored

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_time_budget_deadline_truncates(self, frontier):
        """An expired deadline stops the search at the next poll.

        The deadline is polled every 256 nodes; under the basic bound
        every frontier's tree is far beyond 256 nodes on this
        problem, so the expired run stops at exactly the first poll.
        """
        problem = knapsack_problem()
        big_tree = BranchBoundExplorer(
            frontier=frontier,
            capacity_bound=False,
            node_budget=100_000,
        ).explore(problem)
        assert big_tree.nodes_explored > 256
        result = BranchBoundExplorer(
            frontier=frontier,
            capacity_bound=False,
            time_budget=1e-9,
        ).explore(problem)
        assert not result.optimal
        assert result.provenance.endswith("(budget-truncated)")
        assert result.nodes_explored == 256

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_truncated_warm_start_keeps_the_incumbent(self, frontier):
        """A truncated warm-started run keeps the warm incumbent and
        names both the warm start and the truncation, exactly like
        the DFS frontier."""
        problem = tree_knapsack_problem()
        full = BranchBoundExplorer().explore(problem)
        truncated = BranchBoundExplorer(
            frontier=frontier, node_budget=1
        ).explore(problem, warm_start=full.mapping)
        assert not truncated.optimal
        assert truncated.provenance == (
            f"branch_and_bound[adaptive,{frontier}]"
            "+warm_start (budget-truncated)"
        )
        assert truncated.cost == full.cost
        # the budget check fires on entering the first over-budget node
        assert truncated.nodes_explored == 2

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_warm_started_full_run_still_proves(self, frontier):
        """Warm-start incumbent seeding mirrors DFS: the seeded run
        proves the same optimum in no more nodes than the cold one."""
        problem = knapsack_problem()
        cold = BranchBoundExplorer(frontier=frontier).explore(problem)
        warm = BranchBoundExplorer(frontier=frontier).explore(
            problem, warm_start=cold.mapping
        )
        assert warm.optimal
        assert warm.cost == cold.cost
        assert warm.nodes_explored <= cold.nodes_explored
        assert "+warm_start" in warm.provenance


def deep_problem(n_units=1200):
    """One processor and many units: every root-to-leaf path is
    ``n_units`` decisions deep, deeper than the recursion limit."""
    library = ComponentLibrary()
    names = tuple(f"u{i}" for i in range(n_units))
    for i, name in enumerate(names):
        library.component(
            name, sw_utilization=(1 + i % 7) / 4096, hw_cost=1 + i % 13
        )
    return SynthesisProblem(
        name="deep",
        units=names,
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=1, processor_cost=5, processor_capacity=1.0
        ),
    )


class TestDeepSearch:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_search_deeper_than_the_recursion_limit(self, frontier):
        """Search depth is bounded by memory, not by the interpreter:
        a budgeted run on a path longer than the recursion limit
        returns an honest truncated result."""
        problem = deep_problem()
        assert len(problem.free_units) > sys.getrecursionlimit()
        result = BranchBoundExplorer(
            frontier=frontier, node_budget=3000
        ).explore(problem)
        assert not result.optimal
        assert result.provenance.endswith("(budget-truncated)")
        assert result.nodes_explored == 3001
        assert result.proof_floor == float("-inf")

    def test_exhaustive_deadline_deeper_than_the_recursion_limit(self):
        """The oracle walks its own explicit stack: past the recursion
        limit its deadline still ends the run with an honest
        truncated result."""
        problem = deep_problem()
        explorer = ExhaustiveExplorer()
        explorer.deadline = time.monotonic() + 2
        result = explorer.explore(problem)
        assert not result.optimal
        assert result.provenance == "exhaustive (deadline-truncated)"
        assert result.proof_floor == float("-inf")
        assert result.nodes_explored > len(problem.free_units)


class TestBudgetEdges:
    def test_node_budget_boundary_is_inclusive(self):
        """``nodes == node_budget`` completes; one less truncates."""
        problem = tree_knapsack_problem()
        full = BranchBoundExplorer().explore(problem)
        assert full.optimal and full.nodes_explored > 1
        exact = BranchBoundExplorer(
            node_budget=full.nodes_explored
        ).explore(problem)
        assert exact.optimal
        assert exact.nodes_explored == full.nodes_explored
        assert "(budget-truncated)" not in exact.provenance
        under = BranchBoundExplorer(
            node_budget=full.nodes_explored - 1
        ).explore(problem)
        assert not under.optimal
        assert under.provenance.endswith("(budget-truncated)")
        # the budget check fires on entering the first over-budget node
        assert under.nodes_explored == full.nodes_explored

    def test_time_budget_deadline_truncates(self):
        """An expired deadline stops the search at the next poll.

        The deadline is polled every 256 nodes, so a static-order
        basic-bound run (a tree far beyond 256 nodes) must stop at
        exactly the first poll.
        """
        problem = knapsack_problem()
        big_tree = BranchBoundExplorer(
            ordering="static", capacity_bound=False, node_budget=100_000
        ).explore(problem)
        assert big_tree.nodes_explored > 256
        result = BranchBoundExplorer(
            ordering="static",
            capacity_bound=False,
            time_budget=1e-9,
        ).explore(problem)
        assert not result.optimal
        assert result.provenance.endswith("(budget-truncated)")
        assert result.nodes_explored == 256

    def test_truncated_warm_start_provenance_and_incumbent(self):
        """A truncated warm-started run keeps the warm incumbent."""
        problem = tree_knapsack_problem()
        full = BranchBoundExplorer().explore(problem)
        truncated = BranchBoundExplorer(node_budget=1).explore(
            problem, warm_start=full.mapping
        )
        assert not truncated.optimal
        assert truncated.provenance == (
            "branch_and_bound[adaptive]+warm_start (budget-truncated)"
        )
        assert truncated.cost == full.cost
        # the budget check fires on entering the first over-budget node
        assert truncated.nodes_explored == 2

    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_node_budget_one_proves_at_the_root(self, frontier):
        """The single-processor joint problem is solved by the root
        presolve: the smallest budget still returns the optimum, proved
        with zero nodes and no leaf evaluation."""
        problem = knapsack_problem()
        tree = BranchBoundExplorer(
            frontier=frontier, capacity_bound=False
        ).explore(problem)
        result = BranchBoundExplorer(
            frontier=frontier, node_budget=1
        ).explore(problem)
        assert tree.optimal and tree.nodes_explored > 1
        assert result.optimal
        assert result.cost == tree.cost
        # Both proofs read the kernel's quantized cost of the optimum.
        assert result.proof_floor == tree.proof_floor
        assert result.nodes_explored == 0
        assert result.evaluations == 0
        tags = "adaptive,pareto" if frontier == "dfs" else (
            f"adaptive,{frontier},pareto"
        )
        assert result.provenance == f"branch_and_bound[{tags}]"

    def test_root_proof_keeps_the_warm_start_tag(self):
        """``+warm_start`` still names a feasible warm incumbent when
        the root presolve proves the optimum."""
        problem = knapsack_problem()
        full = BranchBoundExplorer().explore(problem)
        warm = BranchBoundExplorer(node_budget=1).explore(
            problem, warm_start=full.mapping
        )
        assert warm.optimal and warm.nodes_explored == 0
        assert warm.cost == full.cost
        assert warm.provenance == (
            "branch_and_bound[adaptive,pareto]+warm_start"
        )

    def test_invalid_budgets_rejected(self):
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(node_budget=0)
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(time_budget=0.0)
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(time_budget=-1.0)


class TestExclusionInExploration:
    def test_exclusion_unlocks_cheaper_solutions(self):
        library = ComponentLibrary()
        library.component("K", sw_utilization=0.3, hw_cost=50)
        library.component("A", sw_utilization=0.6, hw_cost=20)
        library.component("B", sw_utilization=0.65, hw_cost=25)
        origins = {
            "A": VariantOrigin("t", "A"),
            "B": VariantOrigin("t", "B"),
        }
        base = dict(
            units=("K", "A", "B"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=15
            ),
            origins=origins,
        )
        with_exclusion = BranchBoundExplorer().explore(
            SynthesisProblem(name="yes", use_exclusion=True, **base)
        )
        without = BranchBoundExplorer().explore(
            SynthesisProblem(name="no", use_exclusion=False, **base)
        )
        # with exclusion everything fits in SW (0.3 + max = 0.95)
        assert with_exclusion.cost == 15.0
        # without, something must move to HW
        assert without.cost > with_exclusion.cost
