"""Property harness: the non-mutating scorer equals the mutate oracle.

``SearchState.score_candidates`` reads every sibling's ``(bound,
feasible)`` from the current aggregates without touching the state.
Every contract here pins it to the definitional loop exactly (no
tolerances):

* **scorer == oracle** — ``score_candidates`` equals the explicit
  assign / ``lower_bound`` / ``feasible`` / unassign loop for every
  candidate, on arbitrary partial states, across ``capacity_bound`` ×
  ``variants_resident``, and leaves the state untouched: assignment
  order, violation counters, and every knapsack pool's Fenwick arrays
  and totals;
* **no kernel option** — passing ``backend=`` or the removed ``exact=``
  flag raises ``TypeError``, and the three read-only names
  ``perfbench`` uses keep their shape.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.backend import HAS_NUMPY
from repro.synth.explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
    SearchExplorer,
)
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.ordering import FRONTIERS
from repro.synth.parallel import ParallelSpaceExplorer
from repro.synth.state import (
    ReferenceSearchState,
    SearchState,
    _KnapsackBound,
    _NumpySearchState,
)

@st.composite
def small_problems(draw):
    """Tight-capacity problems exercising every bookkeeping branch."""
    n_units = draw(st.integers(min_value=1, max_value=6))
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
            sw_memory=(
                draw(st.integers(min_value=0, max_value=80)) / 64
                if has_sw
                else 0.0
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
        max_processors=draw(st.integers(min_value=1, max_value=3)),
        processor_cost=draw(st.integers(min_value=0, max_value=20)),
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
        memory_capacity=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    return SynthesisProblem(
        name="batch",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


def _admissible_targets(problem, unit):
    """Every probe-able target, including over-cap processor indices."""
    entry = problem.entry(unit)
    targets = []
    if entry.software is not None:
        for cpu in range(problem.architecture.max_processors + 1):
            targets.append(Target.sw(cpu))
    if entry.hardware is not None:
        targets.append(Target.hw())
    return targets


@st.composite
def partial_scenarios(draw):
    """A problem plus a partial assignment prefix and a unit to probe."""
    problem = draw(small_problems())
    order = list(problem.units)
    draw(st.randoms(use_true_random=False)).shuffle(order)
    prefix_len = draw(st.integers(min_value=0, max_value=len(order) - 1))
    prefix = [
        (unit, draw(st.sampled_from(_admissible_targets(problem, unit))))
        for unit in order[:prefix_len]
    ]
    unit = draw(st.sampled_from(order[prefix_len:]))
    capacity_bound = draw(st.booleans())
    return problem, prefix, unit, capacity_bound


def _build(problem, prefix, capacity_bound, variants_resident=True):
    state = SearchState(
        problem,
        variants_resident=variants_resident,
        capacity_bound=capacity_bound,
    )
    for unit, target in prefix:
        state.assign(unit, target)
    return state


def _scalar_oracle(state, unit, targets):
    """The definitional loop: assign, read bound + feasibility, undo."""
    scored = []
    for target in targets:
        state.assign(unit, target)
        try:
            scored.append((state.lower_bound(), state.feasible))
        finally:
            state.unassign(unit)
    return scored


def _kernel_snapshot(state):
    """Everything scoring must leave untouched, in comparable form."""
    return (
        list(state.assignment.items()),
        state._util_viol,
        state._mem_viol,
        [
            (list(p.bit_load), list(p.bit_cost), p.total_load, p.total_cost)
            for p in state._pools
        ],
    )


class TestBatchEqualsScalar:
    @given(partial_scenarios(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_score_candidates_matches_probe_loop(
        self, scenario, variants_resident
    ):
        problem, prefix, unit, capacity_bound = scenario
        targets = _admissible_targets(problem, unit)
        assume(targets)
        oracle_state = _build(
            problem, prefix, capacity_bound, variants_resident
        )
        expected = _scalar_oracle(oracle_state, unit, targets)
        state = _build(problem, prefix, capacity_bound, variants_resident)
        before = _kernel_snapshot(state)
        scored = state.score_candidates(unit, targets)
        # Byte-identity: same floats, same feasibility flags.
        assert scored == expected
        # Scoring never mutates the state.
        assert _kernel_snapshot(state) == before

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=64),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=19,
        ),
        st.integers(min_value=0, max_value=600),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_forced_cost_skip_equals_removal(self, entries, budget, data):
        entries = sorted(entries, key=lambda e: -(e[1] / e[0]))
        pool = _KnapsackBound(entries)
        removed = data.draw(
            st.sets(st.integers(min_value=1, max_value=len(entries)))
        )
        for slot in removed:
            pool.remove(slot)
        present = [s for s in range(1, len(entries) + 1) if s not in removed]
        for skip in present:
            probed = pool.forced_cost(budget, skip)
            pool.remove(skip)
            assert probed == pool.forced_cost(budget), skip
            pool.add(skip)

    @given(partial_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_reference_state_batch_api_matches_loop(self, scenario):
        problem, prefix, unit, _capacity = scenario
        targets = _admissible_targets(problem, unit)
        assume(targets)
        state = ReferenceSearchState(problem)
        for prefix_unit, target in prefix:
            state.assign(prefix_unit, target)
        scored = state.score_candidates(unit, targets)
        expected = []
        for target in targets:
            state.assign(unit, target)
            expected.append((state.lower_bound(), state.feasible))
            state.unassign(unit)
        assert scored == expected


def _tiny_problem():
    library = ComponentLibrary()
    library.component("u0", sw_utilization=0.5, hw_cost=4)
    return SynthesisProblem(
        name="tiny",
        units=("u0",),
        library=library,
        architecture=ArchitectureTemplate(max_processors=1),
    )


class TestBackendRemoved:
    def test_backend_is_a_type_error(self):
        # Every value the option ever took named the one kernel; now
        # no constructor accepts it at all.
        for request in (None, "auto", "python", "numpy"):
            for cls in (SearchState, ReferenceSearchState):
                with pytest.raises(TypeError):
                    cls(_tiny_problem(), backend=request)
            for cls in (
                SearchExplorer,
                BranchBoundExplorer,
                ExhaustiveExplorer,
                ParallelSpaceExplorer,
            ):
                with pytest.raises(TypeError):
                    cls(backend=request)

    def test_perfbench_reads_keep_their_shape(self):
        # perfbench records ``HAS_NUMPY`` and each frontier's
        # ``.backend`` with its environment, and CI checks the latter.
        assert isinstance(HAS_NUMPY, bool)
        for frontier in FRONTIERS:
            explorer = BranchBoundExplorer(frontier=frontier)
            assert explorer.backend == "python"
            assert type(explorer._new_state(_tiny_problem())) is SearchState
        # perfbench's tracer wraps the kernel methods each state class
        # defines itself: the stub must stay a distinct, empty class,
        # or every traced call would be counted twice.
        assert _NumpySearchState is not SearchState
        assert issubclass(_NumpySearchState, SearchState)
        assert not [
            name
            for name, value in vars(_NumpySearchState).items()
            if callable(value) or isinstance(value, property)
        ]


class TestExactFlagRemoved:
    def test_exact_is_a_type_error(self):
        # The no-op ``exact=`` flag is gone on every state class.
        for cls in (SearchState, ReferenceSearchState):
            with pytest.raises(TypeError):
                cls(_tiny_problem(), exact=True)
