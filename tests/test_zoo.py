"""Scenario zoo: family properties + differential fuzzing vs oracle."""

import pytest

from repro.errors import SynthesisError
from repro.synth.explorer import ExhaustiveExplorer
from repro.synth.parallel import ParallelSpaceExplorer
from repro.zoo import FAMILIES, generate
from repro.zoo.base import check_size, grid64
from repro.zoo.fuzz import (
    build_explorer,
    check_against_oracle,
    config_matrix,
    cross_check,
    describe,
    restrict_problem,
    sweep,
)

FAMILY_NAMES = sorted(FAMILIES)


class TestRegistry:
    def test_at_least_five_families(self):
        assert len(FAMILIES) >= 5

    def test_generate_dispatches(self):
        scenario = generate("deep_chain", 3, "small")
        assert scenario.family == "deep_chain"
        assert scenario.seed == 3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown zoo family"):
            generate("no_such_family", 0)

    def test_unknown_size_rejected(self):
        with pytest.raises(SynthesisError, match="unknown zoo size"):
            check_size("huge")

    def test_grid64_is_exact_binary(self):
        import random

        rng = random.Random(0)
        for _ in range(50):
            value = grid64(rng, 0, 64)
            assert value == round(value * 64) / 64


@pytest.mark.parametrize("family", FAMILY_NAMES)
class TestFamilyProperties:
    def test_deterministic(self, family):
        first = generate(family, 4, "small")
        second = generate(family, 4, "small")
        assert first.stats() == second.stats()
        assert first.joint_problem().units == second.joint_problem().units

    def test_seed_changes_numbers(self, family):
        a = generate(family, 0, "small").joint_problem()
        b = generate(family, 1, "small").joint_problem()
        library_a, library_b = a.library, b.library
        shared = [u for u in a.units if u in set(b.units)]
        assert shared

        def profile(library, unit):
            entry = library.entry(unit)
            return (
                entry.software.utilization if entry.software else None,
                entry.hardware.cost if entry.hardware else None,
            )

        assert any(
            profile(library_a, u) != profile(library_b, u)
            for u in shared
        )

    def test_sizes_build(self, family):
        small = generate(family, 0, "small").stats()
        medium = generate(family, 0, "medium").stats()
        assert small["selections"] >= 1
        assert medium["joint_units"] >= small["joint_units"]

    def test_values_on_grid(self, family):
        problem = generate(family, 2, "small").joint_problem()
        for unit in problem.units:
            entry = problem.library.entry(unit)
            if entry.software is not None:
                for value in (
                    entry.software.utilization,
                    entry.software.memory,
                ):
                    assert value == round(value * 64) / 64
            if entry.hardware is not None:
                assert entry.hardware.cost == int(entry.hardware.cost)

    def test_labels_roundtrip(self, family):
        scenario = generate(family, 1, "small")
        labels = [label for label, _ in scenario.problems()]
        assert labels[0] == "joint"
        for label in labels:
            problem = scenario.problem_by_label(label)
            assert problem.units

    def test_joint_has_variant_origins(self, family):
        problem = generate(family, 0, "small").joint_problem()
        assert problem.origins  # exclusion structure present

    def test_full_matrix_against_oracle(self, family):
        """Every explorer config agrees with the oracle (tentpole)."""
        scenario = generate(family, 0, "small")
        failures = []
        for label, problem in scenario.problems():
            oracle = ExhaustiveExplorer().explore(problem)
            for config in config_matrix(full=True):
                result = build_explorer(config).explore(problem)
                failures.extend(
                    f"{label}: {message}"
                    for message in check_against_oracle(
                        problem, result, oracle, config
                    )
                )
        assert not failures, failures[:5]


class TestScenarioViews:
    def test_selection_problems_match_space(self):
        scenario = generate("deep_chain", 0, "small")
        pairs = list(scenario.selection_problems())
        assert len(pairs) == scenario.space.count()
        for selection, problem in pairs:
            assert selection
            assert problem.units

    def test_joint_bigger_than_any_selection(self):
        scenario = generate("chained", 1, "small")
        joint = scenario.joint_problem()
        for _, problem in scenario.selection_problems():
            assert len(joint.units) >= len(problem.units)

    def test_exclusion_pathology_needs_exclusion(self):
        """The family's joint optimum degrades without the max rule."""
        on = generate("exclusion_pathology", 0, "small")
        off = FAMILIES["exclusion_pathology"](0, "small", False)
        cost_on = ExhaustiveExplorer().explore(on.joint_problem()).cost
        cost_off = ExhaustiveExplorer().explore(off.joint_problem()).cost
        assert cost_on < cost_off

    def test_memory_ladder_memory_binds(self):
        """Relaxing the memory capacity must not raise the optimum."""
        from dataclasses import replace

        scenario = generate("memory_ladder", 0, "small")
        problem = scenario.joint_problem()
        assert problem.architecture.memory_capacity > 0
        assert any(
            problem.library.entry(unit).software is not None
            and problem.library.entry(unit).software.memory > 0
            for unit in problem.units
        )
        tight = ExhaustiveExplorer().explore(problem)
        relaxed_problem = replace(
            problem,
            architecture=replace(
                problem.architecture, memory_capacity=0.0
            ),
            origins=dict(problem.origins),
            fixed=dict(problem.fixed),
        )
        relaxed = ExhaustiveExplorer().explore(relaxed_problem)
        assert tight.feasible
        assert relaxed.cost <= tight.cost


class TestFuzzHarness:
    def test_describe_stable_and_unique(self):
        configs = list(config_matrix(full=True))
        labels = [describe(c) for c in configs]
        assert len(labels) == len(set(labels))
        # exhaustive + frontier x ordering x bound x cap, every bnb
        # one on the only backend (its id segment kept).
        assert len(configs) == 1 + 2 * 3 * 2 * 2 == 25
        for config in configs:
            if config["kind"] == "bnb":
                assert config["backend"] == "python"
                assert "-python-" in describe(config)

    def test_build_explorer_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown explorer"):
            build_explorer({"kind": "quantum"})

    def test_sweep_clean_and_deterministic(self):
        report = sweep(
            seed=2,
            scenarios_per_family=1,
            families=("hetero_multiproc", "memory_ladder"),
        )
        again = sweep(
            seed=2,
            scenarios_per_family=1,
            families=("hetero_multiproc", "memory_ladder"),
        )
        assert report.ok, report.messages[:5]
        assert report.checks == again.checks
        assert report.problems == again.problems

    def test_sweep_time_budget_stops_early(self):
        report = sweep(seed=0, scenarios_per_family=50, time_budget=0.0)
        assert report.scenarios <= 1
        assert any("time budget" in m for m in report.messages)

    def test_cross_check_flags_disagreement(self):
        problem = generate("deep_chain", 0, "small").joint_problem()
        good = ExhaustiveExplorer().explore(problem)
        from dataclasses import replace

        bad = replace(good, provenance="forged")
        results = [
            ({"kind": "exhaustive"}, good),
            (
                {
                    "kind": "bnb",
                    "frontier": "dfs",
                    "ordering": "static",
                },
                bad,
            ),
        ]
        assert cross_check(results) == []
        # Forge a cheaper "proven" cost: must be flagged.
        import dataclasses

        forged_eval = dataclasses.replace(
            good.evaluation, total_cost=good.cost - 1
        )
        forged = replace(good, evaluation=forged_eval)
        results[1] = (results[1][0], forged)
        assert cross_check(results)

    def test_check_catches_false_optimality(self):
        problem = generate("deep_chain", 0, "small").joint_problem()
        oracle = ExhaustiveExplorer().explore(problem)
        from dataclasses import replace

        lying = replace(
            oracle,
            evaluation=None,
            mapping=None,
            optimal=True,
            proof_floor=float("inf"),
        )
        config = {"kind": "exhaustive"}
        failures = check_against_oracle(problem, lying, oracle, config)
        assert failures

    def test_restrict_problem_keeps_order_and_origins(self):
        problem = generate("deep_chain", 0, "small").joint_problem()
        subset = list(problem.units[::2])
        sub = restrict_problem(problem, subset)
        assert list(sub.units) == subset
        assert set(sub.origins) <= set(subset)
        result = ExhaustiveExplorer().explore(sub)
        assert result.cost < float("inf")


class TestFleetCertificate:
    """Fuzz-found regression (``portfolio-proof-floor``), kept on the
    shared-incumbent fleet, the path that still combines floors: every
    ``optimal=True`` carries its full proof."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_incumbent_optimal_selections_have_proof_floor(
        self, jobs
    ):
        scenario = generate("deep_chain", 0, "small")
        outcome = ParallelSpaceExplorer(
            jobs=jobs, lineage_size=1, share_incumbent=True
        ).explore(scenario.problem_family, scenario.space)
        proven = [
            r.exploration for r in outcome.results if r.exploration.optimal
        ]
        assert proven
        for result in proven:
            assert result.proof_floor == result.cost
        plain = ParallelSpaceExplorer(lineage_size=1).explore(
            scenario.problem_family, scenario.space
        )
        assert outcome.best().cost == plain.best().cost
