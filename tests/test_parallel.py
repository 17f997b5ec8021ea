"""Tests for process-parallel exploration and incumbent sharing.

The contract under test: the lineage decomposition — never the worker
count — defines the results.  ``jobs`` may only change wall-clock, so
every output (costs, mappings, node counts, warm flags, order) must be
byte-identical across jobs counts, and worker failures must surface as
:class:`SynthesisError` in the parent instead of vanishing in the pool.
"""

import dataclasses
import json
import pickle
import time

import pytest

from repro.apps import figure2
from repro.apps.generators import generate_system
from repro.errors import SynthesisError
from repro.synth.baselines import incremental_order_spread
from repro.synth.explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
    Explorer,
)
from repro.synth.mapping import Mapping, SynthesisProblem, Target
from repro.synth.methods import (
    ProblemFamily,
    explore_space,
    independent_flow,
    superposition_flow,
    synthesize_application,
    variant_units,
)
from repro.synth.parallel import (
    DEFAULT_LINEAGE_SIZE,
    LocalIncumbent,
    ParallelSpaceExplorer,
    SelectionTask,
    SharedIncumbent,
    attach_incumbent,
    parallel_map,
    shard_indices,
    shard_lineages,
    tasks_for_range,
    tasks_from_space,
)
from repro.variants.variant_space import VariantSpace


def canonical_bytes(outcome) -> bytes:
    """Byte-exact canonical serialization of a space exploration.

    Includes everything observable per selection — selection, cost,
    mapping, optimality, node/evaluation counts, warm flag — so two
    equal serializations mean byte-identical results.
    """
    rows = []
    for result in outcome.results:
        exploration = result.exploration
        mapping = exploration.mapping
        rows.append(
            {
                "selection": sorted(result.selection.items()),
                "cost": exploration.cost,
                "mapping": (
                    sorted(
                        (unit, repr(target))
                        for unit, target in mapping.assignment.items()
                    )
                    if mapping is not None
                    else None
                ),
                "optimal": exploration.optimal,
                "nodes": exploration.nodes_explored,
                "evaluations": exploration.evaluations,
                "warm": result.warm_started,
            }
        )
    return json.dumps(rows, sort_keys=True).encode()


def generated_space(seed=3, n_variants=6, cluster_size=3):
    system = generate_system(
        seed=seed, n_variants=n_variants, cluster_size=cluster_size
    )
    family = ProblemFamily(
        name="gen",
        library=system.library,
        architecture=system.architecture,
    )
    return family, VariantSpace(system.vgraph)


class SleepyExplorer(BranchBoundExplorer):
    """Finishes early lineages *last* to exercise out-of-order merge."""

    def explore(self, problem, warm_start=None):
        if problem.name.endswith("app1"):
            time.sleep(0.3)
        return super().explore(problem, warm_start=warm_start)


class CrashingExplorer(Explorer):
    """Raises on a chosen selection (inside the worker process)."""

    def __init__(self, crash_suffix: str) -> None:
        self.crash_suffix = crash_suffix

    def explore(self, problem, warm_start=None):
        if problem.name.endswith(self.crash_suffix):
            raise RuntimeError(f"injected crash on {problem.name}")
        return BranchBoundExplorer().explore(problem, warm_start)


def _boom(item):
    raise ValueError(f"bad item {item}")


def table1_problem(max_processors: int = 1) -> SynthesisProblem:
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


class TestPicklability:
    """The parallel path ships these across process boundaries."""

    def test_problem_round_trips(self):
        problem = table1_problem()
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.units == problem.units
        assert dict(clone.origins) == dict(problem.origins)
        assert clone.use_exclusion == problem.use_exclusion

    def test_mapping_round_trips(self):
        mapping = Mapping({"a": Target.hw(), "b": Target.sw(1)})
        clone = pickle.loads(pickle.dumps(mapping))
        assert dict(clone.assignment) == dict(mapping.assignment)

    def test_family_explorers_and_results_round_trip(self):
        family = figure2.table1_family()
        assert pickle.loads(pickle.dumps(family)).name == family.name
        for explorer in (
            BranchBoundExplorer(node_budget=10),
            BranchBoundExplorer(frontier="best-first", max_open=4),
            ExhaustiveExplorer(),
        ):
            pickle.loads(pickle.dumps(explorer))
        result = BranchBoundExplorer().explore(table1_problem())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cost == result.cost
        assert dict(clone.mapping.assignment) == dict(
            result.mapping.assignment
        )


class TestLineages:
    def test_shard_lineages_contiguous_and_deterministic(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        lineages = shard_lineages(tasks, 4)
        flattened = [t for lin in lineages for t in lin.tasks]
        assert flattened == tasks
        assert [lin.index for lin in lineages] == list(
            range(len(lineages))
        )
        assert all(len(lin.tasks) <= 4 for lin in lineages)
        assert shard_lineages(tasks, 4) == lineages

    def test_tasks_preserve_enumeration_order(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        selections = [dict(t.selection) for t in tasks]
        assert selections == list(space.selections())
        assert [t.index for t in tasks] == list(range(len(tasks)))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SynthesisError):
            ParallelSpaceExplorer(jobs=0)
        with pytest.raises(SynthesisError):
            ParallelSpaceExplorer(lineage_size=0)
        with pytest.raises(SynthesisError):
            shard_lineages([], 0)


class TestByteIdenticalResults:
    def test_table1_jobs_sweep_matches_sequential(self):
        """`--jobs N` output is byte-identical to the sequential path."""
        sequential = figure2.explore_table1_space()
        reference = canonical_bytes(sequential)
        for jobs in (1, 2, 4):
            parallel = figure2.explore_table1_space(jobs=jobs)
            assert canonical_bytes(parallel) == reference
        assert sequential.best().cost == 34.0

    def test_generated_space_jobs_invariant(self):
        family, space = generated_space()
        reference = None
        for jobs in (1, 2, 4):
            outcome = explore_space(
                family, space, jobs=jobs, lineage_size=2
            )
            payload = canonical_bytes(outcome)
            if reference is None:
                reference = payload
            assert payload == reference

    def test_lineage_path_costs_match_sequential_chain(self):
        family, space = generated_space()
        sequential = explore_space(family, space)
        sharded = explore_space(family, space, jobs=2, lineage_size=2)
        assert [r.cost for r in sharded.results] == [
            r.cost for r in sequential.results
        ]
        assert [dict(r.exploration.mapping.assignment)
                for r in sharded.results] == [
            dict(r.exploration.mapping.assignment)
            for r in sequential.results
        ]

    def test_warm_start_off_matches_cold_sequential(self):
        family, space = generated_space()
        cold = explore_space(family, space, warm_start=False)
        parallel_cold = explore_space(
            family, space, warm_start=False, jobs=2, lineage_size=1
        )
        assert canonical_bytes(parallel_cold) == canonical_bytes(cold)


class TestFrontierJobsDeterminism:
    """Non-default frontiers keep the PR 2 determinism contract with
    ``share_incumbent=False``: the best-first heap tie-break is the
    deterministic push counter (never object identity or timing), so
    the selection order — and with it every cost, mapping and node
    count — is byte-identical at any ``--jobs``."""

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_jobs_sweep_byte_identical(self, frontier):
        family, space = generated_space()
        explorer = BranchBoundExplorer(frontier=frontier)
        reference = None
        for jobs in (1, 2, 4):
            outcome = ParallelSpaceExplorer(
                explorer=explorer, jobs=jobs, lineage_size=2
            ).explore(family, space)
            payload = canonical_bytes(outcome)
            if reference is None:
                reference = payload
            assert payload == reference

    def test_best_first_repeat_runs_identical(self):
        """Two sequential sweeps replay the identical expansion order:
        every observable (including node counts) matches byte for
        byte, and crossing a process boundary changes nothing."""
        family, space = generated_space()
        explorer = BranchBoundExplorer(frontier="best-first")
        first = explore_space(family, space, explorer)
        second = explore_space(family, space, explorer)
        assert canonical_bytes(first) == canonical_bytes(second)
        # same lineage decomposition across a process boundary: the
        # pooled run must replay the jobs=1 run byte for byte
        sharded = explore_space(
            family, space, explorer, jobs=1, lineage_size=2
        )
        pooled = explore_space(
            family, space, explorer, jobs=2, lineage_size=2
        )
        assert canonical_bytes(pooled) == canonical_bytes(sharded)

    @pytest.mark.parametrize("frontier", ["best-first"])
    def test_frontier_matches_dfs_costs_across_the_space(
        self, frontier
    ):
        """Every frontier proves the same per-selection optima the
        DFS sweep proves (mappings may differ between equal-cost
        optima; costs and proofs may not)."""
        family, space = generated_space()
        dfs = explore_space(family, space)
        other = explore_space(
            family, space, BranchBoundExplorer(frontier=frontier)
        )
        assert [r.cost for r in other.results] == [
            r.cost for r in dfs.results
        ]
        assert [r.exploration.optimal for r in other.results] == [
            r.exploration.optimal for r in dfs.results
        ]


class TestDeterministicMerge:
    def test_results_merge_in_enumeration_order(self):
        """Lineages that finish out of order still merge in order."""
        family, space = generated_space(n_variants=3)
        fast = ParallelSpaceExplorer(
            explorer=BranchBoundExplorer(), jobs=3, lineage_size=1
        ).explore(family, space)
        sleepy = ParallelSpaceExplorer(
            explorer=SleepyExplorer(), jobs=3, lineage_size=1
        ).explore(family, space)
        assert canonical_bytes(sleepy) == canonical_bytes(fast)
        assert [dict(t.selection) for t in
                tasks_from_space(family, space)] == [
            r.selection for r in sleepy.results
        ]


class TestWorkerCrashes:
    def test_worker_exception_surfaces_with_context(self):
        family, space = generated_space(n_variants=4)
        runner = ParallelSpaceExplorer(
            explorer=CrashingExplorer("app3"), jobs=2, lineage_size=1
        )
        with pytest.raises(SynthesisError) as excinfo:
            runner.explore(family, space)
        message = str(excinfo.value)
        assert "exploration worker failed on lineage" in message
        assert "injected crash" in message
        assert "RuntimeError" in message

    def test_parallel_map_surfaces_crashes(self):
        with pytest.raises(SynthesisError) as excinfo:
            parallel_map(_boom, [1, 2, 3], jobs=2)
        assert "parallel worker failed" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        assert parallel_map(str, items, jobs=4) == [
            str(i) for i in items
        ]
        with pytest.raises(SynthesisError):
            parallel_map(str, items, jobs=0)


class TestIncumbentSharing:
    """share_incumbent=True: fleet pruning may shrink the per-search
    trees but never changes the best selection or its proven cost."""

    def test_incumbent_cells_are_monotone(self):
        for cell in (LocalIncumbent(), SharedIncumbent()):
            assert cell.get() == float("inf")
            assert cell.offer(10.0)
            assert not cell.offer(12.0)
            assert cell.get() == 10.0
            assert cell.offer(7.5)
            assert cell.get() == 7.5

    def test_attach_incumbent_copies_supporting_explorers(self):
        cell = LocalIncumbent()
        bnb = BranchBoundExplorer()
        wired = attach_incumbent(bnb, cell)
        assert wired is not bnb
        assert wired.shared_incumbent is cell
        assert bnb.shared_incumbent is None
        # explorers without the marker pass through untouched
        exhaustive = ExhaustiveExplorer()
        assert attach_incumbent(exhaustive, cell) is exhaustive
        assert attach_incumbent(bnb, None) is bnb

    def test_explore_space_share_keeps_best_cost_sequential(self):
        family, space = generated_space()
        base = explore_space(family, space)
        shared = explore_space(family, space, share_incumbent=True)
        assert shared.best().cost == base.best().cost
        assert shared.best().exploration.optimal
        assert dict(shared.best().exploration.mapping.assignment) == (
            dict(base.best().exploration.mapping.assignment)
        )
        # sequential sharing is deterministic: repeat runs agree
        again = explore_space(family, space, share_incumbent=True)
        assert canonical_bytes(again) == canonical_bytes(shared)

    def test_explore_space_share_keeps_best_cost_across_jobs(self):
        family, space = generated_space()
        base = explore_space(family, space, jobs=2, lineage_size=2)
        for jobs in (1, 2, 4):
            shared = explore_space(
                family,
                space,
                jobs=jobs,
                lineage_size=2,
                share_incumbent=True,
            )
            best = shared.best()
            assert best.cost == base.best().cost
            assert best.exploration.optimal

    def test_share_off_remains_byte_identical_across_jobs(self):
        """The default mode keeps the PR 2 determinism contract."""
        family, space = generated_space()
        reference = canonical_bytes(
            explore_space(family, space, jobs=1, lineage_size=2)
        )
        for jobs in (2, 4):
            assert canonical_bytes(
                explore_space(family, space, jobs=jobs, lineage_size=2)
            ) == reference

    def test_foreign_floor_below_optimum_is_reported_honestly(self):
        """A search pruned below its own optimum must not claim a
        per-problem proof — but the fleet's knowledge (cell + proof
        floor) still pins the optimal cost.  Two processors keep the
        root presolve off, so the foreign floor prunes a real tree."""
        problem = table1_problem(max_processors=2)
        cell = LocalIncumbent()
        cell.offer(29.0)  # below the true optimum of 30
        result = BranchBoundExplorer(
            shared_incumbent=cell
        ).explore(problem)
        assert not result.optimal
        assert result.proof_floor == 29.0
        assert not result.feasible
        assert "pruned by fleet incumbent" in result.provenance

    def test_root_proof_holds_under_a_foreign_floor_below_optimum(self):
        """A root presolve certifies the optimum on its own: no tree
        ran, so no foreign threshold pruned anything."""
        cell = LocalIncumbent()
        cell.offer(40.0)  # below the true optimum of 41
        result = BranchBoundExplorer(shared_incumbent=cell).explore(
            table1_problem()
        )
        assert result.optimal
        assert result.cost == 41.0
        assert result.proof_floor == result.cost
        assert result.nodes_explored == 0
        assert result.provenance == (
            "branch_and_bound[adaptive,pareto]+shared_incumbent"
        )

    def test_shared_incumbent_cell_crosses_processes(self):
        """Workers publish through the mp.Value; the parent observes
        the fleet-wide best after the pool finishes."""
        family, space = generated_space()
        runner = ParallelSpaceExplorer(
            jobs=2, lineage_size=2, share_incumbent=True
        )
        outcome = runner.explore(family, space)
        best = outcome.best()
        assert best.exploration.optimal
        reference = explore_space(family, space)
        assert best.cost == reference.best().cost


class TestTaskListFleet:
    """``explore_tasks`` over the fleet: prepared task lists (no
    backing space) ship whole lineages, and get the same crash
    surfacing and incumbent sharing as the index protocol."""

    def test_crash_names_lineage_and_selections(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        runner = ParallelSpaceExplorer(
            explorer=CrashingExplorer("app3"), jobs=2, lineage_size=2
        )
        with pytest.raises(SynthesisError) as excinfo:
            runner.explore_tasks(family, tasks)
        message = str(excinfo.value)
        assert message.startswith(
            "exploration worker failed on lineage 1 "
            "(selections ['gen.app3', 'gen.app4']): "
            "RuntimeError: injected crash on gen.app3\n"
        )
        assert "Traceback (most recent call last)" in message

    def test_share_incumbent_keeps_best_cost(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)

        def best_cost(share):
            results = ParallelSpaceExplorer(
                jobs=2, lineage_size=2, share_incumbent=share
            ).explore_tasks(family, tasks)
            best = min(
                (r for r in results if r.exploration.feasible),
                key=lambda r: r.cost,
            )
            assert best.exploration.optimal
            return best.cost

        assert best_cost(True) == best_cost(False)


class TestRemovedFleetOptions:
    """Options that no caller set are gone; passing one is a
    ``TypeError``, not a silently ignored keyword."""

    @pytest.mark.parametrize(
        "keyword",
        ["mp_context", "retry_backoff", "retry_backoff_cap", "retry_seed"],
    )
    def test_retry_and_context_options_are_type_errors(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            ParallelSpaceExplorer(**{keyword: None})
        with pytest.raises(TypeError, match=keyword):
            parallel_map(str, [1, 2], jobs=2, **{keyword: None})

    def test_frontier_option_is_a_type_error(self):
        family, space = generated_space(n_variants=3)
        with pytest.raises(TypeError, match="frontier"):
            ParallelSpaceExplorer(frontier="best-first")
        with pytest.raises(TypeError, match="frontier"):
            explore_space(family, space, frontier="best-first")


class TestFlowsThroughBatch:
    """The flows ride the batch machinery; results must be unchanged."""

    def test_independent_flow_reproduces_table1_rows(self):
        apps = figure2.applications()
        library = figure2.table1_library()
        architecture = figure2.table1_architecture()
        batch = independent_flow(apps, library, architecture)
        for name, graph in apps.items():
            scratch = synthesize_application(
                name, graph, library, architecture
            )
            assert batch[name].outcome == scratch.outcome
        assert batch["application1"].outcome.total_cost == 34.0
        assert batch["application2"].outcome.total_cost == 38.0
        assert batch["application1"].outcome.design_time == 67.0
        assert batch["application2"].outcome.design_time == 73.0
        # warm-start chaining only shrinks the later searches
        assert batch["application2"].exploration.nodes_explored <= (
            synthesize_application(
                "application2",
                apps["application2"],
                library,
                architecture,
            ).exploration.nodes_explored
        )

    def test_independent_flow_jobs_invariant(self):
        apps = figure2.applications()
        library = figure2.table1_library()
        architecture = figure2.table1_architecture()
        sequential = independent_flow(apps, library, architecture)
        for jobs in (1, 2):
            parallel = independent_flow(
                apps, library, architecture, jobs=jobs, lineage_size=1
            )
            for name in apps:
                assert (
                    parallel[name].outcome.total_cost
                    == sequential[name].outcome.total_cost
                )
                assert dict(
                    parallel[name].exploration.mapping.assignment
                ) == dict(sequential[name].exploration.mapping.assignment)

    def test_superposition_over_batch_independent_unchanged(self):
        apps = figure2.applications()
        library = figure2.table1_library()
        architecture = figure2.table1_architecture()
        independent = independent_flow(apps, library, architecture)
        superposed = superposition_flow(
            independent, library, architecture
        )
        assert superposed.total_cost == 57.0
        assert superposed.design_time == 140.0

    def test_order_spread_jobs_invariant(self):
        system = generate_system(seed=7, n_variants=3)
        apps = system.applications()
        sequential = incremental_order_spread(
            apps, system.library, system.architecture
        )
        parallel = incremental_order_spread(
            apps, system.library, system.architecture, jobs=2
        )
        assert list(sequential) == list(parallel)
        for order in sequential:
            assert (
                sequential[order].outcome == parallel[order].outcome
            )

    def test_default_lineage_size_documented(self):
        assert DEFAULT_LINEAGE_SIZE == 4
        task = SelectionTask(
            index=0, selection=(), name="t", units=("u",), origins=()
        )
        assert shard_lineages([task], DEFAULT_LINEAGE_SIZE)[0].tasks == (
            task,
        )


class TestIndexProtocol:
    """Selection-index task shipping: (start, count) shards that
    workers re-enumerate must be byte-compatible with shipping the
    tasks themselves, at a fraction of the pickling volume."""

    def test_shard_indices_mirrors_shard_lineages(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        legacy = shard_lineages(tasks, 4)
        shards = shard_indices(len(tasks), 4)
        assert [s.index for s in shards] == [lin.index for lin in legacy]
        assert [s.count for s in shards] == [
            len(lin.tasks) for lin in legacy
        ]
        assert [s.start for s in shards] == [
            lin.tasks[0].index for lin in legacy
        ]
        with pytest.raises(SynthesisError):
            shard_indices(8, 0)

    def test_tasks_for_range_matches_full_enumeration(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        for start, count in ((0, 2), (3, 2), (4, None), (0, None)):
            window = tasks_for_range(family, space, start, count)
            stop = len(tasks) if count is None else start + count
            assert window == tasks[start:stop]

    def test_index_explore_matches_task_explore(self):
        family, space = generated_space()
        runner = ParallelSpaceExplorer(jobs=2, lineage_size=2)
        via_index = runner.explore(family, space)
        via_tasks = runner.explore_tasks(
            family, tasks_from_space(family, space)
        )
        assert canonical_bytes(via_index) == canonical_bytes(
            type(via_index)(family=family, results=via_tasks)
        )

    def test_shards_pickle_much_smaller_than_tasks(self):
        family, space = generated_space()
        tasks = tasks_from_space(family, space)
        legacy = shard_lineages(tasks, 2)
        shards = shard_indices(len(tasks), 2)
        task_bytes = sum(len(pickle.dumps(lin)) for lin in legacy)
        index_bytes = sum(len(pickle.dumps(s)) for s in shards)
        # Constant-size shards: at least 2x less traffic per lineage
        # on this small space; the gap grows with units per selection.
        assert index_bytes * 2 <= task_bytes

    def test_variant_space_pickle_round_trip(self):
        """The once-per-worker payload of the index protocol."""
        family, space = generated_space()
        clone = pickle.loads(pickle.dumps(space))
        assert clone.count() == space.count()
        assert list(clone.selections()) == list(space.selections())
        outcome = ParallelSpaceExplorer(lineage_size=2).explore(
            family, clone
        )
        reference = explore_space(family, space, lineage_size=2)
        assert canonical_bytes(outcome) == canonical_bytes(reference)

    def test_index_worker_crash_surfaces_with_range(self):
        family, space = generated_space(n_variants=4)
        runner = ParallelSpaceExplorer(
            explorer=CrashingExplorer("app3"), jobs=2, lineage_size=1
        )
        with pytest.raises(SynthesisError) as excinfo:
            runner.explore(family, space)
        message = str(excinfo.value)
        assert "exploration worker failed on lineage" in message
        assert "selections 2..2" in message
        assert "injected crash" in message
