"""Unit tests for the incremental search state (delta-cost evaluator)."""

import pytest

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import (
    evaluate,
    lower_bound,
    processor_memory,
    processor_utilization,
)
from repro.synth.explorer import BranchBoundExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import Mapping, SynthesisProblem, Target, VariantOrigin
from repro.synth.state import (
    IncrementalEvaluator,
    ReferenceSearchState,
    SearchState,
)
from repro.zoo import FAMILIES, generate


def variant_problem(**overrides):
    library = ComponentLibrary()
    library.component("K", sw_utilization=0.3, hw_cost=30, sw_memory=0.25)
    library.component("A1", sw_utilization=0.5, hw_cost=10, sw_memory=0.5)
    library.component("B1", sw_utilization=0.6, hw_cost=12, sw_memory=0.75)
    params = dict(
        name="p",
        units=("K", "A1", "B1"),
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=2, processor_cost=15, processor_capacity=1.0
        ),
        origins={
            "A1": VariantOrigin("theta", "A"),
            "B1": VariantOrigin("theta", "B"),
        },
    )
    params.update(overrides)
    return SynthesisProblem(**params)


class TestDeltaAggregates:
    def test_exclusion_takes_max_over_clusters(self):
        state = SearchState(variant_problem())
        state.assign("K", Target.sw(0))
        state.assign("A1", Target.sw(0))
        state.assign("B1", Target.sw(0))
        assert state.utilization(0) == pytest.approx(0.3 + max(0.5, 0.6))

    def test_no_exclusion_sums_everything(self):
        state = SearchState(variant_problem(use_exclusion=False))
        for unit in ("K", "A1", "B1"):
            state.assign(unit, Target.sw(0))
        assert state.utilization(0) == pytest.approx(0.3 + 0.5 + 0.6)

    def test_unassign_restores_previous_loads(self):
        state = SearchState(variant_problem())
        state.assign("K", Target.sw(0))
        before = state.utilization(0)
        state.assign("B1", Target.sw(0))
        state.unassign("B1")
        assert state.utilization(0) == before
        state.unassign("K")
        assert state.utilization(0) == 0.0
        assert state.processor_count == 0

    def test_dominating_cluster_removal_rescans_interface(self):
        state = SearchState(variant_problem())
        state.assign("A1", Target.sw(0))
        state.assign("B1", Target.sw(0))
        assert state.utilization(0) == pytest.approx(0.6)
        state.unassign("B1")  # B (0.6) dominated A (0.5)
        assert state.utilization(0) == pytest.approx(0.5)

    def test_memory_resident_sums_all_variants(self):
        state = SearchState(variant_problem(), variants_resident=True)
        for unit in ("K", "A1", "B1"):
            state.assign(unit, Target.sw(0))
        assert state.memory(0) == pytest.approx(0.25 + 0.5 + 0.75)

    def test_memory_production_takes_max(self):
        state = SearchState(variant_problem(), variants_resident=False)
        for unit in ("K", "A1", "B1"):
            state.assign(unit, Target.sw(0))
        assert state.memory(0) == pytest.approx(0.25 + max(0.5, 0.75))

    def test_hardware_cost_and_processor_accounting(self):
        state = SearchState(variant_problem())
        state.assign("K", Target.hw())
        state.assign("A1", Target.sw(1))
        assert state.hardware_cost == 30
        assert state.software_cost == 15
        assert state.processors_used() == (1,)
        state.unassign("K")
        assert state.hardware_cost == 0.0


class TestFeasibilityAndLeaf:
    def test_overload_flips_feasibility(self):
        problem = variant_problem(
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=15, processor_capacity=1.0
            ),
            use_exclusion=False,
        )
        state = SearchState(problem)
        state.assign("K", Target.sw(0))
        state.assign("A1", Target.sw(0))
        assert state.feasible
        state.assign("B1", Target.sw(0))  # 1.4 > 1.0
        assert not state.feasible
        state.unassign("B1")
        assert state.feasible

    def test_leaf_matches_reference_evaluate(self):
        problem = variant_problem()
        state = SearchState(problem)
        targets = {"K": Target.hw(), "A1": Target.sw(0), "B1": Target.sw(0)}
        for unit, target in targets.items():
            state.assign(unit, target)
        feasible, cost = state.leaf()
        reference = evaluate(problem, Mapping(targets))
        assert feasible == reference.feasible
        assert cost == reference.total_cost

    def test_evaluation_raises_on_incomplete_mapping(self):
        state = SearchState(variant_problem())
        state.assign("K", Target.sw(0))
        with pytest.raises(SynthesisError):
            state.evaluation()

    def test_too_many_processors_infeasible(self):
        problem = variant_problem(
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=15, processor_capacity=1.0
            )
        )
        state = SearchState(problem)
        state.assign("K", Target.sw(0))
        state.assign("A1", Target.sw(1))
        state.assign("B1", Target.hw())
        assert not state.feasible
        result = state.evaluation()
        assert not result.feasible
        assert "processors" in result.violation


class TestLowerBound:
    def test_bound_at_least_module_bound(self):
        problem = variant_problem()
        state = SearchState(problem)
        state.assign("K", Target.hw())
        state.assign("A1", Target.sw(0))
        assert state.lower_bound() >= lower_bound(
            problem, state.assignment
        ) - 1e-9

    def test_bound_admissible_for_completions(self):
        problem = variant_problem()
        state = SearchState(problem)
        state.assign("K", Target.hw())
        partial_bound = state.lower_bound()
        state.assign("A1", Target.sw(0))
        state.assign("B1", Target.sw(0))
        result = state.evaluation()
        assert result.feasible
        assert partial_bound <= result.total_cost + 1e-9
        assert state.lower_bound() <= result.total_cost + 1e-9

    def test_bound_counts_allocated_processors(self):
        problem = variant_problem()
        state = SearchState(problem)
        state.assign("A1", Target.sw(0))
        state.assign("B1", Target.sw(1))
        # two allocated processors are paid in every completion
        assert state.lower_bound() >= 2 * 15

    def test_bound_counts_unassigned_hw_only_units(self):
        library = ComponentLibrary()
        library.component("hwonly", hw_cost=25)
        library.component("soft", sw_utilization=0.2, hw_cost=5)
        problem = SynthesisProblem(
            name="p",
            units=("hwonly", "soft"),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=7),
        )
        state = SearchState(problem)
        assert state.lower_bound() == pytest.approx(25)
        state.assign("hwonly", Target.hw())
        assert state.lower_bound() == pytest.approx(25)

    def test_bound_adds_processor_floor_for_sw_only_units(self):
        library = ComponentLibrary()
        library.component("swonly", sw_utilization=0.2)
        problem = SynthesisProblem(
            name="p",
            units=("swonly",),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=7),
        )
        state = SearchState(problem)
        assert state.lower_bound() == pytest.approx(7)


def explorer_state(problem):
    state = BranchBoundExplorer()._new_state(problem)
    assert type(state) is SearchState
    return state


#: The two ways a search state is obtained: ``auto`` lets an explorer
#: build it, ``python`` constructs the kernel directly.
STATE_BUILDS = {"auto": explorer_state, "python": SearchState}


class TestReassignAndExactMode:
    @pytest.mark.parametrize("build", sorted(STATE_BUILDS))
    def test_reassign_equals_unassign_assign(self, build):
        problem = variant_problem()
        moved = STATE_BUILDS[build](problem)
        stepped = STATE_BUILDS[build](problem)
        for state in (moved, stepped):
            state.assign("K", Target.sw(0))
            state.assign("A1", Target.sw(0))
            state.assign("B1", Target.hw())
        moved.reassign("A1", Target.sw(1))
        stepped.unassign("A1")
        stepped.assign("A1", Target.sw(1))
        assert moved.assignment == stepped.assignment
        assert moved.evaluation() == stepped.evaluation()

    @pytest.mark.parametrize("build", sorted(STATE_BUILDS))
    def test_reassign_flip_reelects_like_unassign_assign(self, build):
        """A HW→SW flip of a unit of the heavier cluster moves the
        static pools' committed software load exactly as the two-step
        move does, and back."""
        problem = variant_problem()
        moved = STATE_BUILDS[build](problem)
        stepped = STATE_BUILDS[build](problem)
        for state in (moved, stepped):
            state.assign("B1", Target.hw())

        def reads(state):
            return (
                list(state._iassigned_sw),
                state._icommon_sw,
                state._forced_term(),
                state.lower_bound(),
            )

        seen = [reads(moved)]
        for target in (Target.sw(0), Target.hw()):
            moved.reassign("B1", target)
            stepped.unassign("B1")
            stepped.assign("B1", target)
            assert reads(moved) == reads(stepped)
            seen.append(reads(moved))
        # The flip moved B1's load into the pools and back out.
        assert seen[1] != seen[0] == seen[2]

    def test_matches_reference_within_quantization_tolerance(self):
        """Off-binary-grid values agree with the oracle to ~2**-32."""
        problem = variant_problem()
        state = SearchState(problem)
        targets = {"K": Target.sw(0), "A1": Target.sw(0), "B1": Target.sw(1)}
        for unit, target in targets.items():
            state.assign(unit, target)
        mapping = Mapping(targets)
        reference = evaluate(problem, mapping)
        result = state.evaluation()
        assert result.feasible == reference.feasible
        assert result.total_cost == pytest.approx(
            reference.total_cost, abs=1e-8
        )
        for processor in (0, 1):
            assert state.utilization(processor) == pytest.approx(
                processor_utilization(problem, mapping, processor),
                abs=1e-8,
            )
            assert state.memory(processor) == pytest.approx(
                processor_memory(problem, mapping, processor), abs=1e-8
            )

    def test_binary_grid_values_match_reference_bit_for_bit(self):
        """On a 2**-6 grid the integer kernel is exact, any order."""
        library = ComponentLibrary()
        library.component("K", sw_utilization=19 / 64, hw_cost=30,
                          sw_memory=16 / 64)
        library.component("A1", sw_utilization=32 / 64, hw_cost=10,
                          sw_memory=32 / 64)
        library.component("B1", sw_utilization=38 / 64, hw_cost=12,
                          sw_memory=48 / 64)
        problem = variant_problem(library=library)
        targets = {"K": Target.sw(0), "A1": Target.sw(0), "B1": Target.sw(1)}
        mapping = Mapping(targets)
        reference = evaluate(problem, mapping)
        for order in (("K", "A1", "B1"), ("B1", "K", "A1")):
            state = SearchState(problem)
            for unit in order:
                state.assign(unit, targets[unit])
            assert state.evaluation() == reference
            for processor in (0, 1):
                assert state.utilization(processor) == (
                    processor_utilization(problem, mapping, processor)
                )
                assert state.memory(processor) == processor_memory(
                    problem, mapping, processor
                )

    def test_reads_byte_identical_across_mutation_orders(self):
        """Same assignment, different mutation history => same bytes."""
        problem = variant_problem()
        targets = {"K": Target.sw(0), "A1": Target.sw(0), "B1": Target.hw()}
        direct = SearchState(problem)
        for unit in ("K", "A1", "B1"):
            direct.assign(unit, targets[unit])
        detoured = SearchState(problem)
        detoured.assign("B1", Target.sw(1))
        detoured.assign("A1", Target.sw(1))
        detoured.assign("K", Target.hw())
        detoured.reassign("A1", Target.sw(0))
        detoured.reassign("K", Target.sw(0))
        detoured.reassign("B1", Target.hw())
        assert direct.evaluation() == detoured.evaluation()
        assert direct.leaf() == detoured.leaf()
        assert direct.lower_bound() == detoured.lower_bound()
        assert direct.utilization(0) == detoured.utilization(0)
        assert direct.memory(0) == detoured.memory(0)
        assert direct.hardware_cost == detoured.hardware_cost

    def test_incremental_evaluator_alias(self):
        assert IncrementalEvaluator is SearchState


class TestValidation:
    def test_unknown_unit_rejected(self):
        state = SearchState(variant_problem())
        with pytest.raises(SynthesisError):
            state.assign("nope", Target.sw(0))

    def test_double_assignment_rejected(self):
        state = SearchState(variant_problem())
        state.assign("K", Target.sw(0))
        with pytest.raises(SynthesisError):
            state.assign("K", Target.hw())

    def test_unassign_unassigned_rejected(self):
        state = SearchState(variant_problem())
        with pytest.raises(SynthesisError):
            state.unassign("K")

    def test_software_without_option_rejected(self):
        library = ComponentLibrary()
        library.component("hwonly", hw_cost=5)
        problem = SynthesisProblem(
            name="p",
            units=("hwonly",),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=1),
        )
        state = SearchState(problem)
        with pytest.raises(SynthesisError):
            state.assign("hwonly", Target.sw(0))

    def test_hardware_without_option_rejected(self):
        library = ComponentLibrary()
        library.component("swonly", sw_utilization=0.2)
        problem = SynthesisProblem(
            name="p",
            units=("swonly",),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=1),
        )
        state = SearchState(problem)
        with pytest.raises(SynthesisError):
            state.assign("swonly", Target.hw())


class TestReferenceSearchState:
    def test_same_interface_same_results(self):
        problem = variant_problem()
        incremental = SearchState(problem)
        reference = ReferenceSearchState(problem)
        targets = {"K": Target.hw(), "A1": Target.sw(0), "B1": Target.sw(0)}
        for unit, target in targets.items():
            incremental.assign(unit, target)
            reference.assign(unit, target)
        assert incremental.leaf()[0] == reference.leaf()[0]
        assert incremental.leaf()[1] == pytest.approx(
            reference.leaf()[1], abs=1e-8
        )
        result, oracle = incremental.evaluation(), reference.evaluation()
        assert result.feasible == oracle.feasible
        assert result.total_cost == pytest.approx(
            oracle.total_cost, abs=1e-8
        )
        assert result.utilizations == pytest.approx(
            oracle.utilizations, abs=1e-8
        )
        assert incremental.to_mapping().assignment == (
            reference.to_mapping().assignment
        )

    def test_reference_never_claims_infeasible_partials(self):
        reference = ReferenceSearchState(variant_problem(use_exclusion=False))
        reference.assign("K", Target.sw(0))
        reference.assign("A1", Target.sw(0))
        reference.assign("B1", Target.sw(0))
        assert reference.feasible  # unknown for partials: stays True
        assert not reference.can_prune_infeasible


class TestCapacityAwareBound:
    def knapsack_problem(self, max_processors=1, processor_cost=0.0):
        """Three flexible units, total load 1.2, capacity 0.5: at
        least 0.7 of load must buy hardware in every completion."""
        library = ComponentLibrary()
        library.component("a", sw_utilization=0.5, hw_cost=20)
        library.component("b", sw_utilization=0.4, hw_cost=4)
        library.component("c", sw_utilization=0.3, hw_cost=2)
        return SynthesisProblem(
            name="knap",
            units=("a", "b", "c"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=max_processors,
                processor_cost=processor_cost,
                processor_capacity=0.5,
            ),
        )

    def test_root_bound_charges_unavoidable_hardware(self):
        state = SearchState(self.knapsack_problem())
        # Keeping "a" (density 40/load) in software is optimal for the
        # adversary; "b" and "c" (0.7 load) must be bought: 4 + 2 = 6.
        assert state.lower_bound() == pytest.approx(6.0, abs=1e-6)
        assert state.basic_lower_bound() == 0.0

    def test_bound_tightens_as_software_commits(self):
        state = SearchState(self.knapsack_problem())
        root = state.lower_bound()
        state.assign("a", Target.sw(0))
        # All remaining capacity is gone: b and c are forced out.
        assert state.lower_bound() >= root
        assert state.lower_bound() == pytest.approx(6.0, abs=1e-6)
        state.assign("b", Target.hw())
        assert state.lower_bound() == pytest.approx(
            4.0 + 2.0, abs=1e-6
        )

    def test_fractional_refund_keeps_bound_admissible(self):
        state = SearchState(self.knapsack_problem(max_processors=2))
        # Two processors: capacity 1.0, load 1.2 — only a 0.2 sliver
        # must go to hardware; the cheapest-density sliver is from "c"
        # (2 / 0.3 per load): 0.2 * (2 / 0.3) ≈ 1.33.
        bound = state.lower_bound()
        assert bound <= 2.0 + 1e-9  # admissible vs buying all of "c"
        assert bound == pytest.approx(0.2 * 2 / 0.3, abs=1e-3)

    def test_software_only_overload_is_infinite(self):
        library = ComponentLibrary()
        library.component("x", sw_utilization=0.4)
        library.component("y", sw_utilization=0.4)
        problem = SynthesisProblem(
            name="dead",
            units=("x", "y"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=1.0,
                processor_capacity=0.5,
            ),
        )
        state = SearchState(problem)
        assert state.lower_bound() == float("inf")

    def test_exclusion_shadowed_clusters_are_not_counted(self):
        """Only the heaviest cluster per interface consumes budget in
        pool 0 — a lighter shadowable cluster must not inflate it."""
        library = ComponentLibrary()
        library.component("h", sw_utilization=0.5, hw_cost=10)
        library.component("l", sw_utilization=0.45, hw_cost=10)
        problem = SynthesisProblem(
            name="shadow",
            units=("h", "l"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=0.0,
                processor_capacity=0.5,
            ),
            origins={
                "h": VariantOrigin("theta", "A"),
                "l": VariantOrigin("theta", "B"),
            },
        )
        state = SearchState(problem)
        # Both fit together in software (max(0.5, 0.45) = 0.5): no
        # hardware is forced, and the bound must know that.
        assert state.lower_bound() == 0.0
        state.assign("h", Target.sw(0))
        state.assign("l", Target.sw(0))
        assert state.feasible

    def test_disabled_capacity_bound_falls_back_to_basic(self):
        state = SearchState(self.knapsack_problem(), capacity_bound=False)
        assert state.lower_bound() == state.basic_lower_bound()
        assert state.lower_bound() == 0.0


class TestDynamicPoolGate:
    """``exclusion_live``: whether the exclusion max can bind.

    It holds only where some interface has two or more
    software-capable clusters; branch and bound reads it to gate its
    root Pareto presolve.  (The class keeps the name of the
    re-elected pools this predicate used to gate.)
    """

    def test_single_cluster_interfaces_skip_the_pools(self):
        problem = variant_problem(
            units=("K", "A1"),
            origins={"A1": VariantOrigin("theta", "A")},
        )
        state = SearchState(problem)
        assert not state.exclusion_live
        state.assign("A1", Target.hw())
        state.assign("K", Target.sw(0))
        assert state.lower_bound() == state.leaf()[1]

    def test_two_software_clusters_build_the_pools(self):
        assert SearchState(variant_problem()).exclusion_live
        # Recorded by the capacity-aware bound's setup only.
        assert not SearchState(
            variant_problem(), capacity_bound=False
        ).exclusion_live

    def test_hardware_only_rival_is_no_election(self):
        library = ComponentLibrary()
        library.component("K", sw_utilization=0.3, hw_cost=30)
        library.component("A1", sw_utilization=0.5, hw_cost=10)
        library.component("B1", hw_cost=12)
        problem = variant_problem(library=library)
        assert not SearchState(problem).exclusion_live

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zoo_selection_problems_skip_and_joint_builds(self, family):
        scenario = generate(family, 0, "small")
        assert SearchState(scenario.joint_problem()).exclusion_live
        for _selection, problem in scenario.selection_problems():
            assert not SearchState(problem).exclusion_live
