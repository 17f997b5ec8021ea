"""Property harness: bounded-memory search degrades *honestly*.

``max_open`` caps the open frontier of the non-DFS searches by
deterministic worst-bound eviction.  The searches are then no longer
complete, so the safety net shifts from "equals the oracle" to three
weaker-but-still-sharp contracts, checked against exhaustive
enumeration on exact ``k/64`` binary-grid values:

* **honesty** — whatever a capped run returns, its ``proof_floor``
  is a true lower bound on the exhaustive optimum, any mapping it
  returns is feasible and no better than that optimum, and a run
  that still claims ``optimal`` really did match the oracle (caps
  that never evict lose nothing);
* **accounting** — ``open_high_water`` never exceeds the cap, and a
  run that lost optimality to eviction says so in its provenance;
* **determinism** — capped runs are byte-identical on repeat, and a
  capped search killed at an arbitrary node budget and resumed from
  its checkpoint finishes with the capped straight-run's exact
  totals, gauges included.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.checkpoint import Checkpointer, SearchCheckpoint
from repro.synth.cost import evaluate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, VariantOrigin

#: The frontiers whose open set ``max_open`` actually bounds (DFS keeps
#: one frame of siblings per depth; the cap is meaningless there).
CAPPED_FRONTIERS = ("best-first",)


@st.composite
def small_problems(draw):
    """Tight-capacity problems small enough to enumerate exhaustively."""
    n_units = draw(st.integers(min_value=1, max_value=5))
    library = ComponentLibrary()
    units = []
    origins = {}
    for index in range(n_units):
        name = f"u{index}"
        units.append(name)
        has_sw = draw(st.booleans())
        has_hw = draw(st.booleans()) or not has_sw
        library.component(
            name,
            sw_utilization=(
                draw(st.integers(min_value=1, max_value=96)) / 64
                if has_sw
                else None
            ),
            hw_cost=(
                draw(st.integers(min_value=0, max_value=40))
                if has_hw
                else None
            ),
        )
        if draw(st.booleans()):
            origins[name] = VariantOrigin(
                draw(st.sampled_from(["t1", "t2"])),
                draw(st.sampled_from(["A", "B", "C"])),
            )
    architecture = ArchitectureTemplate(
        max_processors=draw(st.integers(min_value=1, max_value=2)),
        processor_cost=draw(st.integers(min_value=0, max_value=20)),
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
    )
    return SynthesisProblem(
        name="bounded",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


def make_problem(n_units=6, cap=0.75, procs=2, pcost=7):
    library = ComponentLibrary()
    units = []
    for i in range(n_units):
        name = f"u{i}"
        units.append(name)
        sw = (8 + 11 * i) % 64 / 64 if i % 3 != 2 else None
        hw = (5 + 9 * i) % 37 if i % 4 != 1 else None
        if sw is None and hw is None:
            hw = 3
        library.component(name, sw_utilization=sw, hw_cost=hw)
    arch = ArchitectureTemplate(
        max_processors=procs, processor_cost=pcost, processor_capacity=cap
    )
    return SynthesisProblem(
        name="bounded", units=tuple(units), library=library,
        architecture=arch,
    )


class TestCappedHonesty:
    @given(small_problems())
    @settings(max_examples=15, deadline=None)
    def test_floor_stays_honest_under_every_cap(self, problem):
        oracle = ExhaustiveExplorer().explore(problem)
        for frontier, max_open in itertools.product(
            CAPPED_FRONTIERS, (1, 2, 4)
        ):
            result = BranchBoundExplorer(
                frontier=frontier, max_open=max_open
            ).explore(problem)
            # The floor is a certified bound on the true optimum,
            # eviction or not.
            assert result.proof_floor <= oracle.cost
            assert result.open_high_water <= max_open
            if result.mapping is not None:
                ev = evaluate(problem, result.mapping)
                assert ev.feasible
                assert ev.total_cost == result.cost
                assert result.cost >= oracle.cost
                assert result.cost >= result.proof_floor
            if result.optimal:
                assert result.cost == oracle.cost
                assert result.proof_floor == oracle.cost
                assert "memory-truncated" not in result.provenance
            else:
                # Only eviction can cost these runs their proof —
                # there is no node/time budget in play.
                assert result.evicted_subtrees > 0
                assert "memory-truncated" in result.provenance
                assert "budget-truncated" not in result.provenance

    @given(small_problems())
    @settings(max_examples=15, deadline=None)
    def test_generous_cap_is_byte_identical_to_uncapped(self, problem):
        for frontier in CAPPED_FRONTIERS:
            free = BranchBoundExplorer(frontier=frontier).explore(problem)
            capped = BranchBoundExplorer(
                frontier=frontier, max_open=10_000
            ).explore(problem)
            assert capped.optimal and free.optimal
            assert capped.cost == free.cost
            assert capped.nodes_explored == free.nodes_explored
            assert capped.evaluations == free.evaluations
            assert capped.provenance == free.provenance
            assert capped.evicted_subtrees == 0


class TestCappedDeterminism:
    @given(small_problems())
    @settings(max_examples=10, deadline=None)
    def test_capped_repeats_are_byte_identical(self, problem):
        for frontier, max_open in itertools.product(
            CAPPED_FRONTIERS, (1, 3)
        ):
            runs = [
                BranchBoundExplorer(
                    frontier=frontier, max_open=max_open
                ).explore(problem)
                for _ in range(2)
            ]
            first, second = runs
            assert first.cost == second.cost
            assert first.proof_floor == second.proof_floor
            assert first.nodes_explored == second.nodes_explored
            assert first.evaluations == second.evaluations
            assert first.provenance == second.provenance
            assert first.open_high_water == second.open_high_water
            assert first.evicted_subtrees == second.evicted_subtrees
            if first.mapping is not None:
                assert dict(first.mapping.assignment) == dict(
                    second.mapping.assignment
                )
            else:
                assert second.mapping is None


class TestCappedCheckpointRoundTrip:
    @pytest.mark.parametrize("frontier", CAPPED_FRONTIERS)
    @pytest.mark.parametrize("max_open", (2, 5))
    def test_kill_and_resume_matches_capped_straight_run(
        self, frontier, max_open
    ):
        problem = make_problem()
        plain = BranchBoundExplorer(
            frontier=frontier, max_open=max_open
        ).explore(problem)
        total = plain.nodes_explored
        for budget in range(1, total, max(1, total // 4)):
            killed = BranchBoundExplorer(
                frontier=frontier, max_open=max_open, node_budget=budget
            )
            ck = Checkpointer()
            partial = killed.explore(problem, checkpoint=ck)
            assert not partial.optimal
            assert ck.latest is not None and not ck.latest.complete
            resume = SearchCheckpoint.from_json(ck.latest.to_json())
            resumed = BranchBoundExplorer(
                frontier=frontier, max_open=max_open
            ).explore(problem, checkpoint=Checkpointer(resume=resume))
            assert resumed.cost == plain.cost
            assert resumed.optimal == plain.optimal
            assert resumed.proof_floor == plain.proof_floor
            assert resumed.nodes_explored == plain.nodes_explored
            assert resumed.evaluations == plain.evaluations
            assert resumed.provenance == plain.provenance
            assert resumed.open_high_water == plain.open_high_water
            assert resumed.evicted_subtrees == plain.evicted_subtrees

    @pytest.mark.parametrize("frontier", CAPPED_FRONTIERS)
    def test_snapshot_cadence_never_perturbs_search_under_cap(
        self, frontier
    ):
        problem = make_problem()
        plain = BranchBoundExplorer(
            frontier=frontier, max_open=3
        ).explore(problem)
        snaps = []
        ck = Checkpointer(every_nodes=3, sink=snaps.append)
        driven = BranchBoundExplorer(
            frontier=frontier, max_open=3
        ).explore(problem, checkpoint=ck)
        assert driven.cost == plain.cost
        assert driven.nodes_explored == plain.nodes_explored
        assert driven.evaluations == plain.evaluations
        assert driven.provenance == plain.provenance
        assert driven.open_high_water == plain.open_high_water
        assert driven.evicted_subtrees == plain.evicted_subtrees
        assert snaps and snaps[-1].complete


class TestCapValidation:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(SynthesisError, match="max_open"):
            BranchBoundExplorer(max_open=0)

    def test_dfs_ignores_the_cap_without_evicting(self):
        problem = make_problem()
        free = BranchBoundExplorer(frontier="dfs").explore(problem)
        capped = BranchBoundExplorer(
            frontier="dfs", max_open=1
        ).explore(problem)
        assert capped.optimal
        assert capped.cost == free.cost
        assert capped.nodes_explored == free.nodes_explored
        assert capped.evicted_subtrees == 0
