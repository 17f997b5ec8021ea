"""Property harness: the batch kernel is byte-identical to the oracle.

The NumPy structure-of-arrays backend exists purely for speed — its
``score_candidates`` vectorizes the per-candidate probing the scalar
kernel does one assign/unassign pair at a time.  Every contract here
pins the two backends together exactly (no tolerances):

* **batch == scalar** — ``score_candidates`` on either backend equals
  the explicit assign / ``lower_bound`` / ``feasible`` / unassign loop
  on the scalar kernel, for every candidate, on arbitrary partial
  states, across ``capacity_bound`` × ``dynamic_pool``; the probed
  state is restored exactly;
* **explorer byte-identity** — branch-and-bound on the NumPy backend
  returns the identical cost, mapping, node count, evaluation count,
  proof floor, and provenance as the scalar backend across the full
  ``frontier`` × ``ordering`` × ``dynamic_pool`` matrix, and the
  annealing trajectory is byte-identical for a seed;
* **backend selection** — auto-detection, forced fallback (numpy made
  invisible), explicit-request errors, and the removed ``exact=``
  flag.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.backend import BACKENDS, HAS_NUMPY, resolve_backend
from repro.synth.explorer import AnnealingExplorer, BranchBoundExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem, Target, VariantOrigin
from repro.synth.ordering import FRONTIERS, ORDERINGS
from repro.synth.parallel import RacingPortfolioExplorer
from repro.synth.state import ReferenceSearchState, SearchState

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy backend not available"
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
    dynamic_pool = draw(st.booleans())
    return problem, prefix, unit, capacity_bound, dynamic_pool


def _build(problem, prefix, backend, capacity_bound, dynamic_pool):
    state = SearchState(
        problem,
        capacity_bound=capacity_bound,
        dynamic_pool=dynamic_pool,
        backend=backend,
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


class TestBatchEqualsScalar:
    @given(partial_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_score_candidates_matches_probe_loop(self, scenario):
        problem, prefix, unit, capacity_bound, dynamic_pool = scenario
        targets = _admissible_targets(problem, unit)
        assume(targets)
        oracle_state = _build(
            problem, prefix, "python", capacity_bound, dynamic_pool
        )
        expected = _scalar_oracle(oracle_state, unit, targets)
        for backend in BACKENDS if HAS_NUMPY else ("python",):
            state = _build(
                problem, prefix, backend, capacity_bound, dynamic_pool
            )
            before = (dict(state.assignment), state.lower_bound())
            scored = state.score_candidates(unit, targets)
            # Byte-identity: same floats, same feasibility flags.
            assert scored == expected, backend
            # Probing must restore the state exactly.
            assert dict(state.assignment) == before[0]
            assert state.lower_bound() == before[1]

    @given(partial_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_probe_move_matches_mutate_oracle(self, scenario):
        problem, prefix, _unit, capacity_bound, dynamic_pool = scenario
        # probe_move evaluates a complete mapping (the annealing use
        # case): extend the drawn prefix to cover every unit, then
        # probe moves of one assigned unit.
        assigned = {u for u, _ in prefix}
        prefix = list(prefix) + [
            (u, _admissible_targets(problem, u)[0])
            for u in problem.units
            if u not in assigned
        ]
        unit = prefix[len(prefix) // 2][0]
        targets = _admissible_targets(problem, unit)
        for backend in BACKENDS if HAS_NUMPY else ("python",):
            state = _build(
                problem, prefix, backend, capacity_bound, dynamic_pool
            )
            for target in targets:
                probed = state.probe_move(unit, target)
                oracle = _build(
                    problem, prefix, "python", capacity_bound, dynamic_pool
                )
                oracle.reassign(unit, target)
                assert probed == oracle.evaluation(), backend

    @given(partial_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_reference_state_batch_api_matches_loop(self, scenario):
        problem, prefix, unit, _capacity, _pool = scenario
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


@needs_numpy
class TestExplorerByteIdentity:
    @given(small_problems())
    @settings(max_examples=12, deadline=None)
    def test_branch_and_bound_identical_across_backends(self, problem):
        for frontier, ordering, dynamic_pool in itertools.product(
            FRONTIERS, ORDERINGS, (True, False)
        ):
            results = [
                BranchBoundExplorer(
                    ordering=ordering,
                    frontier=frontier,
                    dynamic_pool=dynamic_pool,
                    backend=backend,
                ).explore(problem)
                for backend in ("python", "numpy")
            ]
            scalar, batched = results
            combo = (frontier, ordering, dynamic_pool)
            assert batched.cost == scalar.cost, combo
            assert batched.feasible == scalar.feasible, combo
            assert batched.mapping == scalar.mapping, combo
            assert batched.nodes_explored == scalar.nodes_explored, combo
            assert batched.evaluations == scalar.evaluations, combo
            assert batched.proof_floor == scalar.proof_floor, combo
            assert batched.provenance == scalar.provenance, combo

    @given(small_problems(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_annealing_trajectory_identical_across_backends(
        self, problem, seed
    ):
        results = [
            AnnealingExplorer(
                seed=seed, iterations=300, backend=backend
            ).explore(problem)
            for backend in ("python", "numpy")
        ]
        scalar, batched = results
        assert batched.cost == scalar.cost
        assert batched.mapping == scalar.mapping
        assert batched.evaluations == scalar.evaluations


def _tiny_problem():
    library = ComponentLibrary()
    library.component("u0", sw_utilization=0.5, hw_cost=4)
    return SynthesisProblem(
        name="tiny",
        units=("u0",),
        library=library,
        architecture=ArchitectureTemplate(max_processors=1),
    )


class TestBackendSelection:
    def test_auto_resolution_tracks_numpy_availability(self):
        expected = "numpy" if HAS_NUMPY else "python"
        assert resolve_backend(None) == expected
        assert resolve_backend("auto") == expected
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SynthesisError):
            resolve_backend("cupy")
        with pytest.raises(SynthesisError):
            SearchState(_tiny_problem(), backend="cupy")

    @needs_numpy
    def test_auto_detection_dispatches_to_numpy(self):
        assert SearchState(_tiny_problem()).backend == "numpy"
        assert SearchState(_tiny_problem(), backend="auto").backend == "numpy"

    def test_explicit_python_bypasses_dispatch(self):
        state = SearchState(_tiny_problem(), backend="python")
        assert state.backend == "python"
        assert type(state) is SearchState

    def test_explorer_auto_policy_is_scalar_on_every_frontier(self):
        # Sibling batches are a few targets wide, so every search is
        # mutation-bound and auto resolves to the scalar backend on
        # every frontier.  An explicit request is always honored.
        explicit = ("python", "numpy") if HAS_NUMPY else ("python",)
        for frontier in FRONTIERS:
            for request in (None, "auto") + explicit:
                explorer = BranchBoundExplorer(
                    frontier=frontier, backend=request
                )
                want = "numpy" if request == "numpy" else "python"
                assert explorer.backend == want
                assert explorer._new_state(_tiny_problem()).backend == want
        for request in (None, "auto") + explicit:
            want = "numpy" if request == "numpy" else "python"
            assert AnnealingExplorer(backend=request).backend == want

    def test_racing_members_resolve_auto_to_scalar(self):
        explicit = ("python", "numpy") if HAS_NUMPY else ("python",)
        for frontier in FRONTIERS:
            for request in (None, "auto") + explicit:
                want = "numpy" if request == "numpy" else "python"
                racing = RacingPortfolioExplorer(
                    frontier=frontier, backend=request
                )
                for name, member in racing.members():
                    assert member.backend == want, name

    def test_forced_fallback_when_numpy_invisible(self, monkeypatch):
        monkeypatch.setattr("repro.synth.backend.HAS_NUMPY", False)
        assert resolve_backend(None) == "python"
        assert resolve_backend("auto") == "python"
        state = SearchState(_tiny_problem())
        assert state.backend == "python"
        assert type(state) is SearchState
        with pytest.raises(SynthesisError):
            resolve_backend("numpy")
        with pytest.raises(SynthesisError):
            SearchState(_tiny_problem(), backend="numpy")


class TestExactFlagRemoved:
    def test_exact_is_a_type_error(self):
        # The no-op ``exact=`` flag is gone on every state class.
        for cls in (SearchState, ReferenceSearchState):
            with pytest.raises(TypeError):
                cls(_tiny_problem(), exact=True)
