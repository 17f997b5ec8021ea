"""Property-based tests of the explorers on random synthesis problems."""

from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import evaluate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, VariantOrigin


@st.composite
def problems(draw):
    """Random small problems; every unit has a hardware fallback."""
    n_units = draw(st.integers(min_value=1, max_value=5))
    library = ComponentLibrary()
    units = []
    origins = {}
    for index in range(n_units):
        name = f"u{index}"
        units.append(name)
        library.component(
            name,
            sw_utilization=draw(
                st.floats(min_value=0.05, max_value=0.9)
            ),
            hw_cost=draw(st.integers(min_value=1, max_value=40)),
            effort=1.0,
        )
        if draw(st.booleans()):
            origins[name] = VariantOrigin(
                "theta", draw(st.sampled_from(["A", "B"]))
            )
    architecture = ArchitectureTemplate(
        max_processors=draw(st.integers(min_value=1, max_value=2)),
        processor_cost=draw(st.integers(min_value=1, max_value=30)),
        processor_capacity=1.0,
    )
    return SynthesisProblem(
        name="rand",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


class TestOptimality:
    @given(problems())
    @settings(max_examples=40, deadline=None)
    def test_branch_bound_matches_exhaustive(self, problem):
        exhaustive = ExhaustiveExplorer().explore(problem)
        bnb = BranchBoundExplorer().explore(problem)
        assert bnb.feasible == exhaustive.feasible
        if exhaustive.feasible:
            assert bnb.cost == exhaustive.cost

    @given(problems())
    @settings(max_examples=40, deadline=None)
    def test_best_mapping_evaluates_to_reported_cost(self, problem):
        result = BranchBoundExplorer().explore(problem)
        if result.feasible:
            check = evaluate(problem, result.mapping)
            assert check.feasible
            assert check.total_cost == result.cost

    @given(problems())
    @settings(max_examples=40, deadline=None)
    def test_all_hardware_is_always_feasible(self, problem):
        """Every unit has a HW option, so feasibility is guaranteed."""
        result = BranchBoundExplorer().explore(problem)
        assert result.feasible
