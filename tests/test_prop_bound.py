"""Property tests for the capacity-aware incremental lower bound.

The two contracted properties (both on exact ``k/64`` binary-grid
values, where the integer kernel has no quantization error):

* **admissible** — at every partial state, ``lower_bound()`` never
  exceeds the cost of the best feasible completion found by exhaustive
  enumeration of the remaining decisions;
* **at least as tight as the old bound** — pointwise ``>=`` both the
  capacity-blind bound (a ``capacity_bound=False`` twin state) and the
  module-level :func:`repro.synth.cost.lower_bound` oracle.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import evaluate, lower_bound
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import (
    Mapping,
    SynthesisProblem,
    Target,
    VariantOrigin,
)
from repro.synth.state import SearchState


def _twin_states(problem, partial):
    """The capacity-aware state and its capacity-blind twin."""
    states = (
        SearchState(problem),
        SearchState(problem, capacity_bound=False),
    )
    for state in states:
        for unit, target in partial.items():
            state.assign(unit, target)
    return states


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
        # Deliberately tight so the knapsack term actually engages.
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
    )
    return SynthesisProblem(
        name="bound",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


def _targets(problem, unit):
    entry = problem.entry(unit)
    targets = []
    if entry.software is not None:
        targets.extend(
            Target.sw(cpu)
            for cpu in range(problem.architecture.max_processors)
        )
    if entry.hardware is not None:
        targets.append(Target.hw())
    return targets


def best_completion_cost(problem, partial):
    """Exhaustive minimum total cost over all completions of ``partial``."""
    free = [u for u in problem.units if u not in partial]
    best = float("inf")
    for combo in itertools.product(*(_targets(problem, u) for u in free)):
        assignment = dict(partial)
        assignment.update(zip(free, combo))
        result = evaluate(problem, Mapping(assignment))
        if result.feasible and result.total_cost < best:
            best = result.total_cost
    return best


@st.composite
def partial_states(draw):
    """A problem plus a random partial assignment prefix."""
    problem = draw(small_problems())
    order = list(problem.units)
    draw(st.randoms(use_true_random=False)).shuffle(order)
    depth = draw(st.integers(min_value=0, max_value=len(order)))
    partial = {}
    for unit in order[:depth]:
        partial[unit] = draw(st.sampled_from(_targets(problem, unit)))
    return problem, partial


class TestCapacityAwareBound:
    @given(partial_states())
    @settings(max_examples=150, deadline=None)
    def test_admissible_against_exhaustive_completions(self, scenario):
        problem, partial = scenario
        state = SearchState(problem)
        for unit, target in partial.items():
            state.assign(unit, target)
        bound = state.lower_bound()
        best = best_completion_cost(problem, partial)
        if best == float("inf"):
            return  # every bound is admissible for a dead subtree
        assert bound <= best + 1e-9

    @given(partial_states())
    @settings(max_examples=150, deadline=None)
    def test_at_least_as_tight_as_old_bound_pointwise(self, scenario):
        problem, partial = scenario
        state, blind = _twin_states(problem, partial)
        bound = state.lower_bound()
        assert bound >= blind.lower_bound()
        assert bound >= lower_bound(problem, state.assignment) - 1e-9

    @given(partial_states())
    @settings(max_examples=60, deadline=None)
    def test_infinite_bound_means_dead_subtree(self, scenario):
        problem, partial = scenario
        state = SearchState(problem)
        for unit, target in partial.items():
            state.assign(unit, target)
        if state.lower_bound() == float("inf"):
            assert best_completion_cost(problem, partial) == float("inf")

    @given(partial_states())
    @settings(max_examples=60, deadline=None)
    def test_bound_round_trips_with_unassign(self, scenario):
        """Knapsack maintenance must restore state exactly on backtrack."""
        problem, partial = scenario
        state, blind = _twin_states(problem, {})
        pristine = state.lower_bound()
        for unit, target in partial.items():
            state.assign(unit, target)
            blind.assign(unit, target)
        for unit in reversed(list(partial)):
            state.unassign(unit)
            blind.unassign(unit)
        assert state.lower_bound() == pristine
        assert state.lower_bound() >= blind.lower_bound()
