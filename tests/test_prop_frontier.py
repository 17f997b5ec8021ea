"""Property harness: every search frontier equals the exhaustive oracle.

Each new frontier (and each flag it composes with) multiplies the
configuration matrix of the exact search; this suite is the safety
net that keeps the whole matrix provably equivalent to exhaustive
enumeration.  Three contracts, all on exact ``k/64`` binary-grid
values (no quantization error):

* **full flag matrix** — branch-and-bound under every ``frontier`` ×
  ``ordering`` × ``capacity_bound`` combination
  proves the exhaustive optimum (cost, feasibility, and a
  reference-oracle-validated mapping), and every proven-optimal run
  reports the identical ``proof_floor``;
* **frontier semantics** — warm starts never change what a frontier
  proves, and the :class:`PathTrail` net-delta restore the best-first
  frontier rides reads exactly like a fresh replay at every hop, with
  no more mutations than unwinding and replaying would take;
* **determinism** — repeated runs of every frontier return
  byte-identical mappings and node counts (the best-first heap
  tie-break is the deterministic push order, not object identity).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import evaluate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.ordering import FRONTIERS, ORDERINGS
from repro.synth.state import PathTrail, SearchState


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
        # Deliberately tight so bound pruning actually engages.
        processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
    )
    return SynthesisProblem(
        name="frontier",
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


class TestFullFlagMatrix:
    @given(small_problems())
    @settings(max_examples=30, deadline=None)
    def test_every_frontier_flag_combination_matches_the_oracle(
        self, problem
    ):
        oracle = ExhaustiveExplorer().explore(problem)
        floors = []
        combos = itertools.product(FRONTIERS, ORDERINGS, (True, False))
        for frontier, ordering, capacity_bound in combos:
            result = BranchBoundExplorer(
                frontier=frontier,
                ordering=ordering,
                capacity_bound=capacity_bound,
            ).explore(problem)
            assert result.optimal
            assert result.cost == oracle.cost
            floors.append(result.proof_floor)
            if oracle.feasible:
                assert result.feasible
                ev = evaluate(problem, result.mapping)
                assert ev.feasible
                assert ev.total_cost == oracle.cost
        # every proven-optimal run certifies the same floor: the
        # optimal cost itself (inf when nothing is feasible).
        assert set(floors) == {oracle.cost}
        assert oracle.proof_floor == oracle.cost

    @given(small_problems())
    @settings(max_examples=25, deadline=None)
    def test_warm_starts_never_change_what_a_frontier_proves(
        self, problem
    ):
        oracle = ExhaustiveExplorer().explore(problem)
        if not oracle.feasible:
            return
        for frontier in FRONTIERS:
            result = BranchBoundExplorer(frontier=frontier).explore(
                problem, warm_start=oracle.mapping
            )
            assert result.optimal
            assert result.cost == oracle.cost
            assert result.proof_floor == oracle.cost
            assert "+warm_start" in result.provenance


class TestFrontierDeterminism:
    @given(small_problems())
    @settings(max_examples=20, deadline=None)
    def test_repeated_runs_are_byte_identical(self, problem):
        for frontier in FRONTIERS:
            first = BranchBoundExplorer(frontier=frontier).explore(
                problem
            )
            second = BranchBoundExplorer(frontier=frontier).explore(
                problem
            )
            assert first.cost == second.cost
            assert first.nodes_explored == second.nodes_explored
            assert first.evaluations == second.evaluations
            assert first.provenance == second.provenance
            if first.mapping is not None:
                assert dict(first.mapping.assignment) == dict(
                    second.mapping.assignment
                )
            else:
                assert second.mapping is None


@st.composite
def trail_scenarios(draw):
    """A problem plus a few random decision paths to hop between.

    Each path draws its own unit order, as strong branching picks a
    different unit per node, so two paths can decide the same units
    in different orders below their common prefix.
    """
    problem = draw(small_problems())
    paths = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        order = list(problem.units)
        draw(st.randoms(use_true_random=False)).shuffle(order)
        depth = draw(st.integers(min_value=0, max_value=len(order)))
        path = tuple(
            (unit, draw(st.sampled_from(_targets(problem, unit))))
            for unit in order[:depth]
        )
        paths.append(path)
    return problem, paths


def _common_prefix(applied, path):
    common = 0
    for have, want in zip(applied, path):
        if have != want:
            break
        common += 1
    return common


def _replay_distance(applied, path):
    """Mutations of a plain unwind-to-common-prefix-then-replay hop."""
    return len(applied) + len(path) - 2 * _common_prefix(applied, path)


def _net_distance(applied, path):
    """Mutations of a net-delta hop: decisions that differ below the
    common prefix (a changed target is one move).  Depth-first-shaped
    hops replay plainly."""
    common = _common_prefix(applied, path)
    old, new = dict(applied[common:]), dict(path[common:])
    if not old or len(new) <= 1:
        return _replay_distance(applied, path)
    changed = sum(old[unit] != new[unit] for unit in old.keys() & new)
    return len(old.keys() ^ new.keys()) + changed


class TestPathTrailReplay:
    @given(trail_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_trail_restores_bounds_and_feasibility_exactly(self, scenario):
        """Hopping between arbitrary nodes reads the same state a
        fresh replay of each node would — bounds, feasibility, leaf,
        processors and the assignment's iteration order — the property
        the best-first frontier's snapshot/restore leans on."""
        problem, paths = scenario
        state = SearchState(problem)
        trail = PathTrail(state)
        for path in paths:
            distance = _replay_distance(trail.path, path)
            expected = _net_distance(trail.path, path)
            moves = trail.moves
            trail.restore(path)
            assert trail.moves - moves == expected <= distance
            assert trail.path == path
            fresh = SearchState(problem)
            for unit, target in path:
                fresh.assign(unit, target)
            assert list(state.assignment.items()) == list(
                fresh.assignment.items()
            )
            assert state.lower_bound() == fresh.lower_bound()
            assert state.feasible == fresh.feasible
            assert state.leaf() == fresh.leaf()
            assert state.used_processors() == fresh.used_processors()
        # unwinding to the root leaves a pristine state
        trail.restore(())
        assert state.lower_bound() == SearchState(problem).lower_bound()
        assert not state.assignment

    def test_two_branch_hop_moves_only_the_differing_decision(self):
        """Sibling subtrees that decide the same units below the
        divergence cost one ``reassign``, not a full unwind/replay."""
        library = ComponentLibrary()
        for name in ("a", "b", "c"):
            library.component(name, sw_utilization=16 / 64, hw_cost=5)
        problem = SynthesisProblem(
            name="branches",
            units=("a", "b", "c"),
            library=library,
            architecture=ArchitectureTemplate(
                max_processors=1, processor_cost=3, processor_capacity=1.0
            ),
        )
        left = (("a", Target.sw(0)), ("b", Target.hw()), ("c", Target.sw(0)))
        right = (("a", Target.hw()), ("b", Target.hw()), ("c", Target.sw(0)))
        # ``a`` flips, ``b`` is kept and ``c`` is no longer decided.
        shallow = (("a", Target.sw(0)), ("b", Target.hw()))
        state = SearchState(problem)
        trail = PathTrail(state)
        trail.restore(left)
        for path, moves in ((right, 1), (shallow, 2)):
            before, applied = trail.moves, trail.path
            trail.restore(path)
            assert trail.moves - before == moves
            assert moves < _replay_distance(applied, path)
            assert list(state.assignment.items()) == list(path)
