"""Tests for batch variant-space exploration and warm starts."""

import dataclasses

import pytest

from repro.apps import figure2
from repro.apps.generators import generate_system
from repro.errors import SynthesisError
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.mapping import SynthesisProblem
from repro.synth.methods import (
    ProblemFamily,
    explore_space,
    variant_units,
)
from repro.variants.variant_space import VariantSpace


def generated_space(seed=3, n_variants=3):
    system = generate_system(seed=seed, n_variants=n_variants)
    family = ProblemFamily(
        name="gen",
        library=system.library,
        architecture=system.architecture,
    )
    return family, VariantSpace(system.vgraph)


class TestVariantSpaceIteration:
    def test_iter_applications_is_lazy_and_complete(self):
        space = figure2.variant_space()
        iterator = space.iter_applications()
        assert not isinstance(iterator, list)
        pairs = list(iterator)
        assert len(pairs) == space.count() == 2
        selections = [selection for selection, _ in pairs]
        assert {"theta1": "gamma1"} in selections
        assert {"theta1": "gamma2"} in selections

    def test_applications_still_eager(self):
        space = figure2.variant_space()
        assert len(space.applications()) == 2

    def test_selection_key_is_canonical(self):
        key = VariantSpace.selection_key({"b": "y", "a": "x"})
        assert key == (("a", "x"), ("b", "y"))
        assert key == VariantSpace.selection_key({"a": "x", "b": "y"})


class TestExploreSpace:
    def test_table1_space_reproduces_application_rows(self):
        outcome = figure2.explore_table1_space()
        costs = {
            result.selection["theta1"]: result.cost
            for result in outcome.results
        }
        assert costs == {"gamma1": 34.0, "gamma2": 38.0}
        assert outcome.best().cost == 34.0
        assert outcome.worst().cost == 38.0
        assert len(outcome) == 2

    def test_warm_start_flags_and_equivalence(self):
        warm = figure2.explore_table1_space(warm_start=True)
        cold = figure2.explore_table1_space(warm_start=False)
        assert [r.cost for r in warm.results] == [
            r.cost for r in cold.results
        ]
        assert [r.warm_started for r in warm.results] == [False, True]
        assert all(not r.warm_started for r in cold.results)
        # the warm incumbent can only shrink the search
        assert warm.total_nodes <= cold.total_nodes

    def test_explorers_agree_across_generated_space(self):
        family, space = generated_space()
        bnb = explore_space(family, space, BranchBoundExplorer())
        exhaustive = explore_space(family, space, ExhaustiveExplorer())
        assert [r.cost for r in bnb.results] == [
            r.cost for r in exhaustive.results
        ]
        assert len(bnb) == space.count()

    def test_summary_rows_and_totals(self):
        family, space = generated_space()
        outcome = explore_space(family, space, BranchBoundExplorer())
        rows = outcome.summary_rows()
        assert len(rows) == len(outcome)
        assert all(
            set(row) == {
                "selection", "cost", "nodes", "evaluations", "optimal",
                "warm",
            }
            for row in rows
        )
        assert outcome.total_nodes == sum(
            r.exploration.nodes_explored for r in outcome.results
        )
        assert outcome.costs()

    def test_best_raises_when_nothing_feasible(self):
        family, space = generated_space()
        outcome = explore_space(
            family, space, BranchBoundExplorer(node_budget=1)
        )
        if not outcome.feasible_results():
            with pytest.raises(SynthesisError):
                outcome.best()


class TestBudgets:
    def table1_problem(self, max_processors=1):
        vgraph = figure2.build_variant_graph()
        units, origins = variant_units(vgraph)
        return SynthesisProblem(
            name="table1",
            units=units,
            library=figure2.table1_library(),
            architecture=dataclasses.replace(
                figure2.table1_architecture(), max_processors=max_processors
            ),
            origins=origins,
        )

    def tree_problem(self):
        """Table 1 on two processors: the root presolve (exact on one
        processor only) stays off, so budgets bound a real tree."""
        return self.table1_problem(max_processors=2)

    def test_node_budget_truncates_search(self):
        problem = self.tree_problem()
        result = BranchBoundExplorer(node_budget=3).explore(problem)
        assert result.nodes_explored <= 4
        assert not result.optimal
        assert "budget-truncated" in result.provenance

    def test_node_budget_one_proves_presolved_problem_at_the_root(self):
        result = BranchBoundExplorer(node_budget=1).explore(
            self.table1_problem()
        )
        assert result.optimal
        assert result.cost == 41.0
        assert result.proof_floor == result.cost
        assert result.nodes_explored == 0
        assert result.provenance == "branch_and_bound[adaptive,pareto]"

    def test_time_budget_accepted(self):
        problem = self.table1_problem()
        result = BranchBoundExplorer(time_budget=60.0).explore(problem)
        assert result.optimal
        assert result.cost == 41.0

    def test_invalid_budgets_rejected(self):
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(node_budget=0)
        with pytest.raises(SynthesisError):
            BranchBoundExplorer(time_budget=0.0)

    def test_warm_start_seeds_incumbent(self):
        problem = self.table1_problem()
        optimum = BranchBoundExplorer().explore(problem)
        warm = BranchBoundExplorer().explore(
            problem, warm_start=optimum.mapping
        )
        assert warm.cost == optimum.cost
        assert warm.nodes_explored <= optimum.nodes_explored
        assert "warm_start" in warm.provenance

    def test_truncated_search_keeps_warm_incumbent(self):
        problem = self.tree_problem()
        optimum = BranchBoundExplorer().explore(problem)
        truncated = BranchBoundExplorer(node_budget=1).explore(
            problem, warm_start=optimum.mapping
        )
        assert truncated.feasible
        assert truncated.cost == optimum.cost
        assert not truncated.optimal

