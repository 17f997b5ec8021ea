"""Cross-checks for the integerized fixed-point cost kernel.

Contract under test (see :mod:`repro.synth.state`):

* against the float reference oracle (:class:`ReferenceSearchState` /
  :func:`evaluate`), the integer kernel agrees **within quantization
  tolerance** on arbitrary decimal-grid values — the regime of every
  shipped workload — and **bit for bit** on binary-fraction grids;
* its reads are **byte-identical across mutation orders**: any
  assign/unassign/reassign history reaching the same assignment
  produces exactly equal floats, which is what makes search results
  and parallel lineage results machine-deterministic.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import (
    CAPACITY_SLACK_QUANTA,
    QUANT_SCALE,
    QUANT_SHIFT,
    evaluate,
    quantize,
    quantize_capacity,
)
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.state import ReferenceSearchState, SearchState

#: Worst-case absolute error of one aggregate: half a quantum per
#: contribution, plus the capacity slack, with margin.
QUANT_TOL = (CAPACITY_SLACK_QUANTA + 64) / QUANT_SCALE


@st.composite
def decimal_problems(draw):
    """Problems on 4-decimal utilization / 2-decimal cost grids.

    This mirrors the generated benchmark libraries (``round(x, 4)`` /
    ``round(x, 2)``) — values *off* the binary grid, so quantization
    error is real but bounded far below the value grid's spacing.
    """
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
                draw(st.integers(min_value=1, max_value=15000)) / 10000
                if has_sw
                else None
            ),
            sw_memory=(
                draw(st.integers(min_value=0, max_value=15000)) / 10000
                if has_sw
                else 0.0
            ),
            hw_cost=(
                draw(st.integers(min_value=0, max_value=4000)) / 100
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
        processor_cost=draw(st.integers(min_value=0, max_value=3000)) / 100,
        processor_capacity=draw(st.sampled_from([0.45, 1.0, 1.5])),
        memory_capacity=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    return SynthesisProblem(
        name="decimal",
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


@st.composite
def assignments(draw):
    problem = draw(decimal_problems())
    targets = {
        unit: draw(st.sampled_from(_targets(problem, unit)))
        for unit in problem.units
    }
    return problem, targets


class TestQuantizationTolerance:
    @given(assignments())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_within_tolerance(self, scenario):
        problem, targets = scenario
        state = SearchState(problem)
        reference = ReferenceSearchState(problem)
        for unit, target in targets.items():
            state.assign(unit, target)
            reference.assign(unit, target)
        oracle = evaluate(problem, state.to_mapping())
        # Decimal grids sit >= 1e-4 apart; quantization drifts < 1e-7,
        # so feasibility can never flip.
        feasible, cost = state.leaf()
        reference_feasible, reference_cost = reference.leaf()
        assert feasible == state.feasible == reference_feasible
        assert len(state.used_processors()) == oracle.processors_used
        n = len(problem.units)
        if feasible:
            assert abs(cost - reference_cost) <= n * QUANT_TOL
            assert len(oracle.utilizations) == oracle.processors_used
            for processor, theirs in zip(
                state.used_processors(), oracle.utilizations
            ):
                mine = state.utilization(processor)
                assert abs(mine - theirs) <= n * QUANT_TOL

    @given(assignments(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_byte_identical_across_mutation_orders(
        self, scenario, capacity_bound
    ):
        """Two histories, same assignment => exactly equal reads, with
        and without the capacity-aware bound."""
        problem, targets = scenario
        rng = random.Random(99)

        direct = SearchState(problem, capacity_bound=capacity_bound)
        for unit in problem.units:
            direct.assign(unit, targets[unit])

        detoured = SearchState(problem, capacity_bound=capacity_bound)
        order = list(problem.units)
        rng.shuffle(order)
        for unit in order:
            choice = rng.choice(_targets(problem, unit))
            detoured.assign(unit, choice)
        # Random reassign churn, then settle on the target assignment.
        for _ in range(2 * len(order)):
            unit = rng.choice(order)
            detoured.reassign(unit, rng.choice(_targets(problem, unit)))
        rng.shuffle(order)
        for unit in order:
            detoured.reassign(unit, targets[unit])

        assert direct.feasible == detoured.feasible
        assert direct.leaf() == detoured.leaf()
        assert direct.lower_bound() == detoured.lower_bound()
        assert direct.used_processors() == detoured.used_processors()
        for processor in direct.used_processors():
            assert direct.utilization(processor) == detoured.utilization(
                processor
            )
            assert direct.memory(processor) == detoured.memory(processor)


class TestQuantizationPrimitives:
    def test_binary_fractions_quantize_exactly(self):
        for value in (0.0, 0.5, 3 / 64, 1.25, 100.0, 7 / 1024):
            assert quantize(value) == value * QUANT_SCALE
            assert quantize(value) / QUANT_SCALE == value

    def test_scale_is_a_power_of_two(self):
        assert QUANT_SCALE == 2**QUANT_SHIFT

    def test_capacity_threshold_is_permissive_not_strict(self):
        # The threshold sits just above the capacity: a load equal to
        # the capacity is feasible, a grid step above it is not.
        icap = quantize_capacity(1.0)
        assert quantize(1.0) <= icap
        assert quantize(1.0 + 1 / 64) > icap

    def test_grid_loads_reproduce_oracle_feasibility(self):
        library = ComponentLibrary()
        library.component("a", sw_utilization=33 / 64)
        library.component("b", sw_utilization=31 / 64)
        library.component("c", sw_utilization=1 / 64)
        problem = SynthesisProblem(
            name="edge",
            units=("a", "b", "c"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=1.0,
                processor_capacity=1.0,
            ),
        )
        state = SearchState(problem)
        state.assign("a", Target.sw(0))
        state.assign("b", Target.sw(0))
        assert state.feasible  # exactly at capacity
        state.assign("c", Target.sw(0))
        assert not state.feasible  # one grid step over
