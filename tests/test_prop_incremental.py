"""Property tests: the incremental evaluator agrees with the oracle.

Strategy note: software utilizations and memories are drawn on a
``k/64`` grid (exact binary fractions) and costs are integers, so sums
and maxima are exact in double precision regardless of summation
order — the incremental (delta) path and the from-scratch reference
``evaluate()`` must then agree *exactly*, not approximately.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import (
    evaluate,
    lower_bound,
    memory_of_units,
    processor_memory,
    processor_utilization,
    quantize,
    utilization_of_units,
)
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.state import SearchState


@st.composite
def problems(draw):
    """Random problems: grid loads, optional origins, optional memory cap."""
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
                draw(st.integers(min_value=1, max_value=80)) / 64
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
            effort=1.0,
        )
        if draw(st.booleans()):
            origins[name] = VariantOrigin(
                draw(st.sampled_from(["t1", "t2"])),
                draw(st.sampled_from(["A", "B", "C"])),
            )
    architecture = ArchitectureTemplate(
        max_processors=draw(st.integers(min_value=1, max_value=3)),
        processor_cost=draw(st.integers(min_value=0, max_value=30)),
        processor_capacity=1.0,
        memory_capacity=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    return SynthesisProblem(
        name="rand",
        units=tuple(units),
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=draw(st.booleans()),
    )


def _admissible_targets(problem, unit):
    """Every target the oracle accepts — including processor indices
    beyond the template cap (the 'too many processors' infeasible
    branch must be covered too)."""
    entry = problem.entry(unit)
    targets = []
    if entry.software is not None:
        for cpu in range(problem.architecture.max_processors + 1):
            targets.append(Target.sw(cpu))
    if entry.hardware is not None:
        targets.append(Target.hw())
    return targets


@st.composite
def scenarios(draw):
    """A problem + complete mapping + shuffled build order + moves."""
    problem = draw(problems())
    targets = {
        unit: draw(st.sampled_from(_admissible_targets(problem, unit)))
        for unit in problem.units
    }
    order = list(problem.units)
    draw(st.randoms(use_true_random=False)).shuffle(order)
    n_moves = draw(st.integers(min_value=0, max_value=8))
    moves = []
    for _ in range(n_moves):
        unit = draw(st.sampled_from(sorted(problem.units)))
        moves.append(
            (unit, draw(st.sampled_from(_admissible_targets(problem, unit))))
        )
    return problem, targets, order, moves


def _assert_state_matches_reference(state, problem, variants_resident):
    mapping = state.to_mapping()
    reference = evaluate(problem, mapping, variants_resident)
    result = state.evaluation()
    assert result.feasible == reference.feasible
    assert result.total_cost == reference.total_cost
    assert result.software_cost == reference.software_cost
    assert result.hardware_cost == reference.hardware_cost
    assert result.processors_used == reference.processors_used
    assert result.utilizations == reference.utilizations
    assert result.violation == reference.violation
    for processor in state.processors_used():
        assert state.utilization(processor) == processor_utilization(
            problem, mapping, processor
        )
        assert state.memory(processor) == processor_memory(
            problem, mapping, processor, variants_resident
        )
    # fast leaf read agrees with the full evaluation
    feasible, cost = state.leaf()
    assert feasible == reference.feasible
    if feasible:
        assert cost == reference.total_cost
    # the O(1) bound is admissible and at least as tight as the oracle's
    bound = state.lower_bound()
    assert bound >= lower_bound(problem, state.assignment) - 1e-9
    if reference.feasible:
        assert bound <= reference.total_cost + 1e-9


class TestIncrementalMatchesReference:
    @given(scenarios(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_cross_check_after_builds_and_moves(
        self, scenario, variants_resident
    ):
        problem, targets, order, moves = scenario
        state = SearchState(problem, variants_resident=variants_resident)
        for unit in order:
            state.assign(unit, targets[unit])
        _assert_state_matches_reference(state, problem, variants_resident)
        for unit, new_target in moves:
            state.reassign(unit, new_target)
            _assert_state_matches_reference(
                state, problem, variants_resident
            )

    @given(scenarios(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_partial_states_match_bucket_aggregation(
        self, scenario, variants_resident
    ):
        """Assign/unassign sequences leave partial aggregates exact."""
        problem, targets, order, _ = scenario
        state = SearchState(problem, variants_resident=variants_resident)
        assigned = []
        rng = random.Random(1234)
        for unit in order:
            state.assign(unit, targets[unit])
            assigned.append(unit)
            if len(assigned) > 1 and rng.random() < 0.4:
                victim = assigned.pop(rng.randrange(len(assigned)))
                state.unassign(victim)
            for processor in state.processors_used():
                bucket = [
                    u
                    for u in problem.units
                    if u in state.assignment
                    and state.assignment[u].is_software
                    and state.assignment[u].processor == processor
                ]
                assert state.utilization(processor) == utilization_of_units(
                    problem, bucket
                )
                assert state.memory(processor) == memory_of_units(
                    problem, bucket, variants_resident
                )

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_unassign_all_returns_to_pristine_state(self, scenario):
        problem, targets, order, _ = scenario
        state = SearchState(problem)
        pristine_bound = state.lower_bound()
        for unit in order:
            state.assign(unit, targets[unit])
        for unit in reversed(order):
            state.unassign(unit)
        assert state.assignment == {}
        assert state.processor_count == 0
        assert state.hardware_cost == 0.0
        assert state.feasible
        assert state.lower_bound() == pristine_bound


def _kernel_reads(state):
    """Every read a search takes from the kernel."""
    return (
        dict(state.assignment),
        state._icommon_sw,
        list(state._iassigned_sw),
        state.lower_bound(),
        state._forced_term(),
        state.feasible,
        state.leaf(),
        state.used_processors(),
    )


def _foreign_targets(problem, unit):
    """Targets of the kind the unit has no implementation for."""
    entry = problem.entry(unit)
    if entry.software is None:
        return [Target.sw(0)]
    if entry.hardware is None:
        return [Target.hw()]
    return []


class TestReassignMatchesUnassignAssign:
    @given(
        scenarios(),
        st.booleans(),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_move_equals_the_two_step_move(
        self, scenario, capacity_bound, depth
    ):
        """The pool-preserving ``reassign`` reads exactly like
        ``unassign`` + ``assign`` for every kind pair (SW→SW, SW→HW,
        HW→SW, same target), and a rejected move mutates nothing."""
        problem, targets, order, _ = scenario
        moved = SearchState(problem, capacity_bound=capacity_bound)
        stepped = SearchState(problem, capacity_bound=capacity_bound)
        for unit in order[: max(1, depth)]:
            moved.assign(unit, targets[unit])
            stepped.assign(unit, targets[unit])
        for unit in list(moved.assignment):
            old = moved.assignment[unit]
            for target in _admissible_targets(problem, unit):
                moved.reassign(unit, target)
                stepped.unassign(unit)
                stepped.assign(unit, target)
                assert _kernel_reads(moved) == _kernel_reads(stepped)
                moved.reassign(unit, old)
                stepped.unassign(unit)
                stepped.assign(unit, old)
                assert _kernel_reads(moved) == _kernel_reads(stepped)
            before = _kernel_reads(moved)
            order_before = list(moved.assignment.items())
            for target in _foreign_targets(problem, unit):
                with pytest.raises(SynthesisError):
                    moved.reassign(unit, target)
                assert _kernel_reads(moved) == before
                assert list(moved.assignment.items()) == order_before


# -- kernel invariants of the scalar per-processor aggregates ---------------

#: Few distinct loads, so clusters tie for their interface's max often.
_WALK_LOADS = (0.0, 16 / 64, 32 / 64, 48 / 64)


def _walk_problem(loads, memories, origins, hw, max_processors, memcap):
    library = ComponentLibrary()
    units = tuple(f"u{index}" for index in range(len(loads)))
    for unit, load, memory, has_hw in zip(units, loads, memories, hw):
        library.component(
            unit,
            sw_utilization=load,
            sw_memory=memory,
            hw_cost=3 if has_hw else None,
            effort=1.0,
        )
    return SynthesisProblem(
        name="walk",
        units=units,
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=max_processors,
            processor_cost=5,
            processor_capacity=1.0,
            memory_capacity=memcap,
        ),
        origins={
            unit: VariantOrigin(*origin)
            for unit, origin in zip(units, origins)
            if origin is not None
        },
        use_exclusion=True,
    )


def _recount_total(pairs):
    """``common + Σ_iface max_cluster Σ`` of (group key, load) pairs."""
    common = 0
    clusters = {}
    for key, value in pairs:
        if key is None:
            common += value
        else:
            clusters[key] = clusters.get(key, 0) + value
    imax = {}
    for (interface, _cluster), value in clusters.items():
        imax[interface] = max(imax.get(interface, value), value)
    return common + sum(imax.values())


def _assert_kernel_invariants(state):
    """Maintained totals and violation counters equal a recount."""
    problem = state.problem
    columns = {}
    for unit, target in state.assignment.items():
        if target.is_software:
            columns.setdefault(target.processor, []).append(unit)
    assert set(state._uload) == set(columns)
    assert set(state._mload) == set(columns)
    util_viol = mem_viol = 0
    for processor, units in columns.items():
        software = [problem.entry(unit).software for unit in units]
        util = _recount_total(
            (problem.exclusion_group(unit), quantize(sw.utilization))
            for unit, sw in zip(units, software)
        )
        memory = _recount_total(
            (
                None if state.variants_resident else problem.variant_group(u),
                quantize(sw.memory),
            )
            for u, sw in zip(units, software)
        )
        for load, expected in (
            (state._uload[processor], util),
            (state._mload[processor], memory),
        ):
            assert load.total == load.common + sum(load.imax.values())
            assert load.total == expected
        util_viol += util > state._icap
        if state._imcap is not None:
            mem_viol += memory > state._imcap
    assert state._util_viol == util_viol
    assert state._mem_viol == mem_viol


def _walk(state, steps):
    """Apply (unit, choice) steps: assign, reassign, or unassign."""
    problem = state.problem
    for unit, choice in steps:
        targets = _admissible_targets(problem, unit)
        have = state.assignment.get(unit)
        if choice >= len(targets):
            if have is not None:
                state.unassign(unit)
        elif have is None:
            state.assign(unit, targets[choice])
        else:
            state.reassign(unit, targets[choice])
        _assert_kernel_invariants(state)


@st.composite
def kernel_walks(draw):
    """A tie-prone problem plus an assign/unassign/reassign sequence."""
    n_units = draw(st.integers(min_value=2, max_value=7))
    column = st.lists(
        st.sampled_from(_WALK_LOADS), min_size=n_units, max_size=n_units
    )
    origin = st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["t1", "t2"]), st.sampled_from("AB")),
    )
    problem = _walk_problem(
        loads=draw(column),
        memories=draw(column),
        origins=draw(st.lists(origin, min_size=n_units, max_size=n_units)),
        hw=draw(st.lists(st.booleans(), min_size=n_units, max_size=n_units)),
        max_processors=draw(st.integers(min_value=1, max_value=3)),
        memcap=draw(st.sampled_from([0.0, 0.75, 1.0])),
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(problem.units),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return problem, steps


class TestScalarKernelInvariants:
    @given(kernel_walks(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_walks_keep_totals_and_violations_exact(
        self, walk, variants_resident
    ):
        problem, steps = walk
        state = SearchState(problem, variants_resident=variants_resident)
        _walk(state, steps)

    @pytest.mark.parametrize("memcap", [0.0, 0.75])
    @pytest.mark.parametrize("variants_resident", [True, False])
    def test_ties_and_emptied_groups(self, memcap, variants_resident):
        # u0/u1 tie as t1's max on cpu0 (clusters A and B); u2 is a
        # common unit; u3 is t2's only unit; u4 joins t1's cluster B.
        problem = _walk_problem(
            loads=[32 / 64, 32 / 64, 16 / 64, 48 / 64, 16 / 64],
            memories=[48 / 64, 48 / 64, 16 / 64, 32 / 64, 16 / 64],
            origins=[("t1", "A"), ("t1", "B"), None, ("t2", "A"), ("t1", "B")],
            hw=[True] * 5,
            max_processors=2,
            memcap=memcap,
        )
        state = SearchState(problem, variants_resident=variants_resident)
        sw0, sw1, hw, drop = 0, 1, 3, 9
        _walk(
            state,
            [
                ("u0", sw0),
                ("u1", sw0),  # tie for t1's max
                ("u2", sw0),
                ("u3", sw0),  # over capacity: 2 + 1 + 3 quarters
                ("u0", hw),  # tied max leaves: re-scan keeps the max
                ("u3", sw1),  # t2 emptied on cpu0, back under capacity
                ("u1", sw1),  # t1 emptied on cpu0
                ("u0", sw1),  # tie again, on cpu1
                ("u4", sw1),  # cluster B now the strict max
                ("u1", hw),  # the strict max shrinks below A: re-scan
                ("u2", drop),  # cpu0 emptied
                ("u0", drop),
                ("u4", drop),
                ("u3", hw),  # cpu1 emptied
                ("u1", drop),
                ("u3", drop),
            ],
        )
        assert not state._uload and not state._mload
        assert state._util_viol == 0 and state._mem_viol == 0
