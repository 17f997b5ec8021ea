"""Property tests for adaptive search ordering and incumbent sharing.

Two contracts (all on exact ``k/64`` binary-grid values, where the
integer kernel has no quantization error):

* **flag-combination agreement** — branch-and-bound reaches the same
  proven optimum as exhaustive enumeration under every
  ``ordering`` × incumbent-sharing combination;
* **fleet knowledge is preserved** — pre-seeding the shared incumbent
  never loses the optimum: seeded above it the search still proves it;
  seeded *at* it the search may prune everything, but the incumbent
  cell plus the search's proof floor still pin the optimal cost.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import evaluate
from repro.synth.explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
)
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, VariantOrigin
from repro.synth.ordering import ORDERINGS
from repro.synth.parallel import LocalIncumbent


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
        # Deliberately tight so the knapsack pools actually engage.
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
    )
    return SynthesisProblem(
        name="adaptive",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


class TestFlagCombinationsAgree:
    @given(small_problems())
    @settings(max_examples=60, deadline=None)
    def test_every_combination_matches_the_exhaustive_oracle(
        self, problem
    ):
        oracle = ExhaustiveExplorer().explore(problem)
        for ordering, share in itertools.product(ORDERINGS, (True, False)):
            incumbent = LocalIncumbent() if share else None
            result = BranchBoundExplorer(
                ordering=ordering,
                shared_incumbent=incumbent,
            ).explore(problem)
            assert result.optimal
            assert result.cost == oracle.cost
            if oracle.feasible:
                assert result.feasible
                ev = evaluate(problem, result.mapping)
                assert ev.feasible
                assert ev.total_cost == oracle.cost

    @given(small_problems())
    @settings(max_examples=40, deadline=None)
    def test_incumbent_seeded_above_optimum_still_proves_it(
        self, problem
    ):
        oracle = ExhaustiveExplorer().explore(problem)
        if not oracle.feasible:
            return
        incumbent = LocalIncumbent()
        incumbent.offer(oracle.cost + 1.0)
        result = BranchBoundExplorer(
            shared_incumbent=incumbent
        ).explore(problem)
        assert result.optimal
        assert result.cost == oracle.cost
        # the search published its own best back to the fleet
        assert incumbent.get() == oracle.cost

    @given(small_problems())
    @settings(max_examples=40, deadline=None)
    def test_incumbent_seeded_at_optimum_keeps_fleet_knowledge(
        self, problem
    ):
        """Pruning against an exact foreign optimum never loses it.

        The search may return nothing (every subtree bounds >= the
        seeded cost), but then it must say so: ``optimal`` may not
        claim a per-problem proof, and the combination of the cell and
        the proof floor still pins the optimal cost.
        """
        oracle = ExhaustiveExplorer().explore(problem)
        if not oracle.feasible:
            return
        incumbent = LocalIncumbent()
        incumbent.offer(oracle.cost)
        result = BranchBoundExplorer(
            shared_incumbent=incumbent
        ).explore(problem)
        assert min(result.cost, incumbent.get()) == oracle.cost
        assert result.proof_floor >= oracle.cost
        if result.cost > oracle.cost:
            assert not result.optimal
            assert "pruned by fleet incumbent" in result.provenance
