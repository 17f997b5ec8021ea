"""The exact Pareto program and branch and bound's root presolve.

:mod:`repro.synth.pareto` solves single-processor problems by a
bottom-up dynamic program over Pareto fronts.  Branch and bound runs it
at the root of a fresh capacity-aware incremental search on one
processor with live exclusion, and then proves the optimum with zero
nodes.  Checked here:

* **exactness** — the program's optimum equals exhaustive enumeration
  on every small zoo joint problem and on generated problems with
  fixed targets, software-only, hardware-only and zero-load units,
  memory capacities and free processors;
* **the gate** — every input it leaves to the tree (selection
  problems, ``use_exclusion=False``, two processors,
  ``capacity_bound=False``, ``incremental=False``, resumed blobs)
  never calls the program and gives results, node counts and
  checkpoint blobs identical to a run with the presolve patched out;
* **behaviour** — a front over the cap or a mapping the reference
  evaluator rejects falls back to the tree; a presolved checkpointed
  run emits one complete snapshot that resumes to the same result;
  the shared incumbent receives the program's cost; and
  ``+warm_start`` still means only a feasible warm start.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.synth import pareto
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.checkpoint import Checkpointer
from repro.synth.cost import evaluate
from repro.synth.explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
    _Search,
)
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import Mapping, SynthesisProblem, Target
from repro.synth.mapping import VariantOrigin
from repro.synth.ordering import FRONTIERS
from repro.synth.parallel import LocalIncumbent
from repro.synth.state import SearchState
from repro.zoo import FAMILIES, generate


def single_processor(problem: SynthesisProblem) -> SynthesisProblem:
    """``problem`` on a one-processor copy of its template."""
    if problem.architecture.max_processors == 1:
        return problem
    return dataclasses.replace(
        problem,
        architecture=dataclasses.replace(
            problem.architecture, max_processors=1
        ),
    )


def joint(family: str, seed: int, size: str = "small") -> SynthesisProblem:
    return generate(family, seed, size).joint_problem()


def observable(result, blobs=()):
    """Everything a caller can see of one run, checkpoint blobs too."""
    mapping = result.mapping
    return (
        None if mapping is None else sorted(mapping.assignment.items()),
        repr(result.evaluation),
        result.nodes_explored,
        result.evaluations,
        result.optimal,
        result.provenance,
        result.proof_floor,
        result.open_high_water,
        result.evicted_subtrees,
        [blob.to_json() for blob in blobs],
    )


def run(explorer, problem, checkpointed=False, resume=None):
    """One run's observables; checkpointed runs snapshot every few
    nodes."""
    blobs = []
    checkpoint = None
    if checkpointed or resume is not None:
        checkpoint = Checkpointer(
            every_nodes=7, sink=blobs.append, resume=resume
        )
    result = explorer.explore(problem, checkpoint=checkpoint)
    return observable(result, blobs)


@pytest.fixture
def presolve_spy(monkeypatch):
    """Count calls of the program made by branch and bound."""
    calls = []
    solve = pareto.solve

    def spy(problem):
        calls.append(problem.name)
        return solve(problem)

    monkeypatch.setattr(pareto, "solve", spy)
    return calls


def without_presolve(monkeypatch, thunk):
    """``thunk()`` with the root presolve patched out."""
    with monkeypatch.context() as patch:
        patch.setattr(_Search, "_presolve", lambda self: None)
        return thunk()


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
class TestZooOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_optimum_equals_exhaustive_on_small_joint_problems(
        self, family
    ):
        """All six families, seeds 0-7; the multi-processor family
        runs on a one-processor copy of its template."""
        presolved = 0
        for seed in range(8):
            problem = single_processor(joint(family, seed))
            oracle = ExhaustiveExplorer().explore(problem)
            solution = pareto.solve(problem)
            assert solution is not None
            assert solution.cost == oracle.cost
            reference = evaluate(problem, solution.mapping)
            assert reference.feasible
            assert reference.total_cost == oracle.cost
            result = BranchBoundExplorer().explore(problem)
            assert result.optimal
            assert result.cost == oracle.cost
            assert result.proof_floor == oracle.cost
            # Where no interface has two software-capable clusters the
            # gate leaves the problem to the tree.
            if SearchState(problem).exclusion_live:
                presolved += 1
                assert result.nodes_explored == 0
                assert result.evaluations == 0
                assert result.provenance == (
                    "branch_and_bound[adaptive,pareto]"
                )
            else:
                assert result.nodes_explored > 0
                assert "pareto" not in result.provenance
        assert presolved >= 6


@st.composite
def single_processor_problems(draw):
    """One-processor problems small enough to enumerate.

    Units draw software-only, hardware-only or flexible options,
    zero loads included, sit in the common part or in one of two
    interfaces' clusters, and may be fixed to one of their admissible
    targets.  Memory capacity is 0 (unconstrained) or a real limit,
    and the processor may be free.
    """
    n_units = draw(st.integers(min_value=1, max_value=8))
    memory_capacity = draw(st.sampled_from([0.0, 0.5, 1.0]))
    library = ComponentLibrary()
    units, origins, fixed = [], {}, {}
    for index in range(n_units):
        name = f"u{index}"
        units.append(name)
        kind = draw(st.sampled_from(["flex", "flex", "sw", "hw"]))
        has_sw, has_hw = kind != "hw", kind != "sw"
        library.component(
            name,
            sw_utilization=(
                draw(st.integers(min_value=0, max_value=48)) / 64
                if has_sw
                else None
            ),
            sw_memory=draw(st.integers(min_value=0, max_value=32)) / 64,
            hw_cost=(
                draw(st.integers(min_value=0, max_value=30))
                if has_hw
                else None
            ),
        )
        if draw(st.integers(min_value=0, max_value=3)):
            origins[name] = VariantOrigin(
                draw(st.sampled_from(["t1", "t2"])),
                draw(st.sampled_from(["A", "B", "C"])),
            )
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            options = ([Target.sw(0)] if has_sw else []) + (
                [Target.hw()] if has_hw else []
            )
            fixed[name] = draw(st.sampled_from(options))
    architecture = ArchitectureTemplate(
        max_processors=1,
        processor_cost=draw(st.sampled_from([0, 3, 12, 60])),
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
        memory_capacity=memory_capacity,
    )
    return SynthesisProblem(
        name="pareto",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        fixed=fixed,
        use_exclusion=draw(st.integers(min_value=0, max_value=3)) > 0,
    )


class TestGeneratedOracle:
    @given(single_processor_problems())
    @settings(max_examples=150, deadline=None)
    def test_program_and_search_match_exhaustive(self, problem):
        oracle = ExhaustiveExplorer().explore(problem)
        solution = pareto.solve(problem)
        if not oracle.feasible:
            assert solution is None
        else:
            assert solution is not None
            assert solution.cost == oracle.cost
            reference = evaluate(problem, solution.mapping)
            assert reference.feasible
            assert reference.total_cost == oracle.cost
            for unit, target in problem.fixed.items():
                assert solution.mapping.target_of(unit) == target
        for frontier in FRONTIERS:
            result = BranchBoundExplorer(frontier=frontier).explore(problem)
            assert result.optimal
            assert result.cost == oracle.cost
            assert result.proof_floor == oracle.cost

    def test_all_hardware_optimum_beats_a_dominating_software_point(self):
        """Zero-load software points dominate their hardware twins in
        every front, yet mapping everything to hardware pays no
        processor and is the optimum here."""
        library = ComponentLibrary()
        library.component("k", sw_utilization=0.0, hw_cost=1)
        for cluster in ("A", "B"):
            library.component(f"t.{cluster}.x", sw_utilization=0.0, hw_cost=1)
        problem = SynthesisProblem(
            name="all-hw",
            units=("k", "t.A.x", "t.B.x"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=10
            ),
            origins={
                "t.A.x": VariantOrigin("t", "A"),
                "t.B.x": VariantOrigin("t", "B"),
            },
        )
        oracle = ExhaustiveExplorer().explore(problem)
        assert oracle.cost == 3.0
        assert oracle.mapping.software_units() == ()
        assert pareto.solve(problem).cost == 3.0
        result = BranchBoundExplorer().explore(problem)
        assert result.optimal and result.nodes_explored == 0
        assert result.cost == 3.0

    def test_fixed_targets_are_honoured(self):
        """A unit fixed to hardware stays there even where software is
        free, and the program's optimum pays for it."""
        library = ComponentLibrary()
        library.component("k", sw_utilization=0.1, hw_cost=9)
        for cluster in ("A", "B"):
            library.component(
                f"t.{cluster}.x", sw_utilization=0.5, hw_cost=4
            )
        problem = SynthesisProblem(
            name="fixed",
            units=("k", "t.A.x", "t.B.x"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=2
            ),
            origins={
                "t.A.x": VariantOrigin("t", "A"),
                "t.B.x": VariantOrigin("t", "B"),
            },
            fixed={"k": Target.hw(), "t.A.x": Target.sw(0)},
        )
        oracle = ExhaustiveExplorer().explore(problem)
        solution = pareto.solve(problem)
        assert solution.cost == oracle.cost == 11.0
        assert solution.mapping.target_of("k") == Target.hw()
        assert solution.mapping.target_of("t.A.x") == Target.sw(0)
        result = BranchBoundExplorer().explore(problem)
        assert result.optimal and result.nodes_explored == 0
        assert result.cost == 11.0

    def test_fixed_software_off_processor_zero_is_left_to_the_tree(self):
        library = ComponentLibrary()
        library.component("k", sw_utilization=0.1, hw_cost=9)
        problem = SynthesisProblem(
            name="proc1",
            units=("k",),
            library=library,
            architecture=ArchitectureTemplate(max_processors=1),
            fixed={"k": Target.sw(1)},
        )
        assert pareto.solve(problem) is None

    def test_multi_processor_problems_are_refused(self):
        problem = joint("hetero_multiproc", 0)
        assert problem.architecture.max_processors > 1
        assert pareto.solve(problem) is None


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
def gated_inputs():
    """``(label, explorer factory, problem)`` the gate leaves to the
    tree: the presolve is never attempted on them."""
    chained = generate("chained", 0, "small")
    selection = next(chained.selection_problems())[1]
    presolvable = chained.joint_problem()
    return [
        ("selection", BranchBoundExplorer, selection),
        (
            "no-exclusion",
            BranchBoundExplorer,
            dataclasses.replace(presolvable, use_exclusion=False),
        ),
        ("two-processors", BranchBoundExplorer, joint("hetero_multiproc", 0)),
        (
            "basic-bound",
            lambda **kw: BranchBoundExplorer(capacity_bound=False, **kw),
            presolvable,
        ),
        (
            "reference-state",
            lambda **kw: BranchBoundExplorer(incremental=False, **kw),
            presolvable,
        ),
    ]


class TestGate:
    @pytest.mark.parametrize(
        "label, factory, problem",
        gated_inputs(),
        ids=[label for label, _f, _p in gated_inputs()],
    )
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_gated_inputs_keep_the_tree(
        self, monkeypatch, presolve_spy, label, factory, problem, frontier
    ):
        def runs():
            explorer = factory(frontier=frontier)
            return (
                run(explorer, problem),
                run(explorer, problem, checkpointed=True),
            )

        actual = runs()
        assert presolve_spy == []
        assert actual == without_presolve(monkeypatch, runs)
        assert actual[0][2] > 0  # a real tree ran

    def test_per_selection_problems_skip_it_without_a_walk(
        self, presolve_spy
    ):
        """Every selection of a space has one cluster per interface:
        the gate reads one recorded flag, the program never runs."""
        scenario = generate("chained", 1, "small")
        for _selection, problem in scenario.selection_problems():
            BranchBoundExplorer().explore(problem)
        assert presolve_spy == []

    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_resumed_blob_continues_the_tree(
        self, monkeypatch, presolve_spy, frontier
    ):
        """A blob taken mid-tree (presolve patched out) resumes on the
        tree, as at the parent: the presolve only runs on fresh
        searches."""
        problem = joint("chained", 0)
        explorer = BranchBoundExplorer(frontier=frontier, node_budget=3)

        def truncated_blob():
            blobs = []
            explorer.explore(
                problem, checkpoint=Checkpointer(sink=blobs.append)
            )
            return blobs[-1]

        blob = without_presolve(monkeypatch, truncated_blob)
        assert not blob.complete
        presolve_spy.clear()
        resumed_explorer = BranchBoundExplorer(frontier=frontier)
        actual = run(resumed_explorer, problem, resume=blob)
        assert presolve_spy == []
        expected = without_presolve(
            monkeypatch, lambda: run(resumed_explorer, problem, resume=blob)
        )
        assert actual == expected
        assert "pareto" not in actual[5]


# ----------------------------------------------------------------------
# Behaviour
# ----------------------------------------------------------------------
class TestBehaviour:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_front_over_the_cap_falls_back_to_the_tree(
        self, monkeypatch, frontier
    ):
        problem = joint("chained", 0)
        explorer = BranchBoundExplorer(frontier=frontier)
        tree = without_presolve(monkeypatch, lambda: run(explorer, problem))
        monkeypatch.setattr(pareto, "MAX_FRONT", 1)
        assert pareto.solve(problem) is None
        assert run(explorer, problem) == tree
        assert tree[2] > 0 and "pareto" not in tree[5]

    def test_reference_infeasible_mapping_falls_back_to_the_tree(
        self, monkeypatch
    ):
        """The kernel's capacity slack admits a load 1e-8 over capacity
        that the reference evaluator rejects: the program's mapping is
        then refused and the tree runs as without the presolve."""
        library = ComponentLibrary()
        for cluster in ("A", "B"):
            library.component(
                f"t.{cluster}.x", sw_utilization=1.0 + 1e-8, hw_cost=5
            )
        problem = SynthesisProblem(
            name="slack",
            units=("t.A.x", "t.B.x"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=1
            ),
            origins={
                "t.A.x": VariantOrigin("t", "A"),
                "t.B.x": VariantOrigin("t", "B"),
            },
        )
        solution = pareto.solve(problem)
        assert solution is not None
        assert not evaluate(problem, solution.mapping).feasible
        explorer = BranchBoundExplorer()
        tree = without_presolve(monkeypatch, lambda: run(explorer, problem))
        assert run(explorer, problem) == tree
        assert tree[2] > 0 and "pareto" not in tree[5]

    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_presolved_checkpoint_is_one_complete_snapshot(self, frontier):
        problem = joint("deep_chain", 2)
        explorer = BranchBoundExplorer(frontier=frontier)
        blobs = []
        result = explorer.explore(
            problem,
            checkpoint=Checkpointer(every_nodes=1, sink=blobs.append),
        )
        assert result.nodes_explored == 0 and result.optimal
        assert len(blobs) == 1
        (blob,) = blobs
        assert blob.complete and blob.nodes == 0 and blob.evaluations == 0
        assert blob.best_cost == result.cost
        frontier_rows = blob.frontier_state.get(
            "stack", blob.frontier_state.get("heap")
        )
        assert frontier_rows == []
        resumed = explorer.explore(
            problem, checkpoint=Checkpointer(resume=blob)
        )
        assert resumed.optimal
        assert resumed.cost == result.cost
        assert resumed.proof_floor == result.proof_floor
        assert resumed.nodes_explored == 0
        assert resumed.mapping == result.mapping

    def test_shared_incumbent_receives_the_program_cost(self):
        problem = joint("memory_ladder", 1)
        cell = LocalIncumbent()
        result = BranchBoundExplorer(shared_incumbent=cell).explore(problem)
        assert result.nodes_explored == 0
        assert cell.get() == result.cost
        assert result.provenance == (
            "branch_and_bound[adaptive,pareto]+shared_incumbent"
        )

    def test_warm_start_tag_only_for_a_feasible_warm_start(self):
        problem = joint("memory_ladder", 0)
        cold = BranchBoundExplorer().explore(problem)
        assert "+warm_start" not in cold.provenance
        everything_software = Mapping(
            {
                unit: Target.sw(0)
                if problem.entry(unit).software is not None
                else Target.hw()
                for unit in problem.units
            }
        )
        assert not evaluate(problem, everything_software).feasible
        stale = BranchBoundExplorer().explore(
            problem, warm_start=everything_software
        )
        assert stale.provenance == "branch_and_bound[adaptive,pareto]"
        warm = BranchBoundExplorer().explore(
            problem, warm_start=cold.mapping
        )
        assert warm.provenance == (
            "branch_and_bound[adaptive,pareto]+warm_start"
        )
        assert cold.nodes_explored == stale.nodes_explored == 0
        assert cold.cost == stale.cost == warm.cost
