"""Chaos suite: deterministic fault injection against the pool.

Every test here follows the same shape — install a seeded
:class:`~repro.faults.FaultPlan`, run the normal API, and assert that
recovery is not just *eventual* but **byte-identical**: a lineage
whose worker was killed or whose evaluator raised is re-dispatched
and merged into exactly the bytes a crash-free run produces, with the
retry count recorded honestly on the results (outside the canonical
payload).

Faults match explicit (index, attempt) coordinates, never timing, so
each test replays the identical failure on every run.
"""

import json
import os

import pytest

from repro import faults
from repro.apps.generators import generate_system
from repro.errors import SynthesisError
from repro.synth.methods import ProblemFamily, explore_space
from repro.synth.parallel import ParallelSpaceExplorer, parallel_map
from repro.variants.variant_space import VariantSpace


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


def generated_space(seed=3, n_variants=6, cluster_size=3):
    system = generate_system(
        seed=seed, n_variants=n_variants, cluster_size=cluster_size
    )
    family = ProblemFamily(
        name="chaos",
        library=system.library,
        architecture=system.architecture,
    )
    return family, VariantSpace(system.vgraph)


def canonical_bytes(outcome) -> bytes:
    rows = []
    for result in outcome.results:
        exploration = result.exploration
        mapping = exploration.mapping
        rows.append(
            {
                "selection": sorted(result.selection.items()),
                "cost": exploration.cost,
                "mapping": (
                    sorted(
                        (unit, repr(target))
                        for unit, target in mapping.assignment.items()
                    )
                    if mapping is not None
                    else None
                ),
                "optimal": exploration.optimal,
                "nodes": exploration.nodes_explored,
                "evaluations": exploration.evaluations,
                "warm": result.warm_started,
            }
        )
    return json.dumps(rows, sort_keys=True).encode()


def _square(value):
    return value * value


# ----------------------------------------------------------------------
# Plan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = faults.FaultPlan(
            seed=7,
            ops=[{"op": "kill", "scope": "pool", "index": 1,
                  "attempt": 0}],
        )
        again = faults.FaultPlan.from_json(plan.to_json())
        assert again.seed == 7
        assert again.ops == plan.ops

    def test_unknown_op_and_scope_rejected(self):
        with pytest.raises(ValueError, match="op"):
            faults.FaultPlan(ops=[{"op": "explode", "scope": "pool"}])
        with pytest.raises(ValueError, match="scope"):
            faults.FaultPlan(ops=[{"op": "kill", "scope": "moon"}])

    def test_env_var_resolution(self, monkeypatch):
        plan = faults.FaultPlan(
            ops=[{"op": "delay", "scope": "pool", "index": 0,
                  "seconds": 0.0}]
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        faults.clear()  # re-arm lazy resolution
        active = faults.active()
        assert active is not None and active.ops == plan.ops
        monkeypatch.delenv(faults.ENV_VAR)
        faults.clear()
        assert faults.active() is None

    def test_absent_key_is_wildcard(self):
        plan = faults.FaultPlan(
            ops=[{"op": "delay", "scope": "pool", "seconds": 0.0}]
        )
        assert list(plan.matching("pool", index=5, attempt=2))
        assert not list(plan.matching("serve", lineage=0))

    def test_raise_hook(self):
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "raise", "scope": "pool", "index": 3,
                      "attempt": 0, "message": "boom"}]
            )
        )
        with pytest.raises(faults.FaultInjected, match="boom"):
            faults.on_pool_task(3, 0)
        faults.on_pool_task(3, 1)  # other attempts unharmed
        faults.on_pool_task(2, 0)  # other tasks unharmed


# ----------------------------------------------------------------------
# Worker crash recovery: byte-identical results, honest retry counts
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fault pool tests need fork"
)
class TestPoolRecovery:
    def test_killed_worker_recovers_byte_identically(self):
        family, space = generated_space()
        reference = ParallelSpaceExplorer(
            jobs=2, lineage_size=2
        ).explore(family, space)
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 1,
                      "attempt": 0}]
            )
        )
        recovered = ParallelSpaceExplorer(
            jobs=2, lineage_size=2, max_retries=2
        ).explore(family, space)
        assert canonical_bytes(recovered) == canonical_bytes(reference)
        retried = [
            r for r in recovered.results if r.exploration.retries
        ]
        assert retried, "the re-dispatched lineage must record retries"
        assert all(r.exploration.retries == 1 for r in retried)
        clean = [
            r for r in reference.results if r.exploration.retries
        ]
        assert not clean, "crash-free runs record zero retries"

    def test_evaluator_raise_recovers_byte_identically(self):
        family, space = generated_space(seed=5)
        reference = ParallelSpaceExplorer(
            jobs=2, lineage_size=2
        ).explore(family, space)
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "raise", "scope": "pool", "index": 0,
                      "attempt": 0}]
            )
        )
        recovered = ParallelSpaceExplorer(
            jobs=2, lineage_size=2, max_retries=1
        ).explore(family, space)
        assert canonical_bytes(recovered) == canonical_bytes(reference)

    def test_exhausted_retries_raise_naming_the_shard(self):
        family, space = generated_space()
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 1}]
            )
        )
        with pytest.raises(SynthesisError, match="lineage 1"):
            ParallelSpaceExplorer(
                jobs=2, lineage_size=2, max_retries=1
            ).explore(family, space)

    def test_zero_retries_preserves_fail_fast(self):
        family, space = generated_space()
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 0,
                      "attempt": 0}]
            )
        )
        with pytest.raises(SynthesisError, match="selections"):
            ParallelSpaceExplorer(
                jobs=2, lineage_size=2
            ).explore(family, space)

    def test_explore_space_forwards_max_retries(self):
        family, space = generated_space(seed=9, n_variants=4)
        reference = explore_space(family, space, jobs=1, lineage_size=2)
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 0,
                      "attempt": 0}]
            )
        )
        recovered = explore_space(
            family, space, jobs=2, lineage_size=2, max_retries=2
        )
        assert canonical_bytes(recovered) == canonical_bytes(reference)

    def test_delay_fault_changes_nothing(self):
        family, space = generated_space(seed=2, n_variants=4)
        reference = ParallelSpaceExplorer(
            jobs=2, lineage_size=2
        ).explore(family, space)
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "delay", "scope": "pool", "index": 0,
                      "seconds": 0.05}]
            )
        )
        delayed = ParallelSpaceExplorer(
            jobs=2, lineage_size=2, max_retries=1
        ).explore(family, space)
        assert canonical_bytes(delayed) == canonical_bytes(reference)


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fault pool tests need fork"
)
class TestParallelMapRecovery:
    def test_map_recovers_from_killed_worker(self):
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 2,
                      "attempt": 0}]
            )
        )
        out = parallel_map(
            _square, list(range(6)), jobs=2, max_retries=2
        )
        assert out == [v * v for v in range(6)]

    def test_map_names_the_crashed_item(self):
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 2,
                      "attempt": 0}]
            )
        )
        with pytest.raises(SynthesisError, match="item 2"):
            parallel_map(_square, list(range(6)), jobs=2)

    def test_map_surfaces_worker_death_detail(self):
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "kill", "scope": "pool", "index": 1,
                      "attempt": 0, "exitcode": 11}]
            )
        )
        with pytest.raises(SynthesisError, match="died"):
            parallel_map(_square, list(range(4)), jobs=2)


# ----------------------------------------------------------------------
# Search-scope ops: injected eviction pressure and allocation failure.
# ----------------------------------------------------------------------
def _search_problem(n_units=6):
    from repro.synth.architecture import ArchitectureTemplate
    from repro.synth.library import ComponentLibrary
    from repro.synth.mapping import SynthesisProblem

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
        max_processors=2, processor_cost=7, processor_capacity=0.75
    )
    return SynthesisProblem(
        name="chaos-search", units=tuple(units), library=library,
        architecture=arch,
    )


class TestSearchFaults:
    def test_evict_op_forces_cap_and_keeps_floor_honest(self):
        from repro.synth.explorer import (
            BranchBoundExplorer,
            ExhaustiveExplorer,
        )

        problem = _search_problem()
        oracle = ExhaustiveExplorer().explore(problem)
        plan = faults.FaultPlan(
            ops=[{"op": "evict", "scope": "search", "at_node": 2,
                  "keep": 1}]
        )
        faults.install(plan)
        result = BranchBoundExplorer(frontier="best-first").explore(
            problem
        )
        assert result.evicted_subtrees > 0
        assert result.proof_floor <= oracle.cost
        if result.mapping is not None:
            assert result.cost >= oracle.cost
        if not result.optimal:
            assert "memory-truncated" in result.provenance
        # Same plan, same bytes: the fault is a coordinate, not a race.
        faults.install(plan)
        again = BranchBoundExplorer(frontier="best-first").explore(
            problem
        )
        assert again.cost == result.cost
        assert again.nodes_explored == result.nodes_explored
        assert again.evicted_subtrees == result.evicted_subtrees
        assert again.provenance == result.provenance

    def test_evict_op_tightens_but_never_loosens_max_open(self):
        from repro.synth.explorer import BranchBoundExplorer

        problem = _search_problem()
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "evict", "scope": "search", "at_node": 0,
                      "keep": 50}]
            )
        )
        # keep=50 is looser than max_open=1: the explorer's own cap
        # must win (min of the two).
        loose = BranchBoundExplorer(
            frontier="best-first", max_open=1
        ).explore(problem)
        faults.clear()
        capped = BranchBoundExplorer(
            frontier="best-first", max_open=1
        ).explore(problem)
        assert loose.nodes_explored == capped.nodes_explored
        assert loose.cost == capped.cost
        assert loose.evicted_subtrees == capped.evicted_subtrees

    def test_oom_op_fires_once_and_search_degrades(self):
        from repro.synth.explorer import (
            BranchBoundExplorer,
            ExhaustiveExplorer,
        )

        problem = _search_problem()
        oracle = ExhaustiveExplorer().explore(problem)
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "oom", "scope": "search", "at_node": 3}]
            )
        )
        result = BranchBoundExplorer(frontier="best-first").explore(
            problem
        )
        # The injected MemoryError is answered by halving the open
        # frontier once; the search then completes with an honest
        # floor instead of crashing.
        assert result.proof_floor <= oracle.cost
        if result.mapping is not None:
            assert result.cost >= oracle.cost

    def test_dfs_ignores_search_scope_plans(self):
        from repro.synth.explorer import BranchBoundExplorer

        problem = _search_problem()
        clean = BranchBoundExplorer(frontier="dfs").explore(problem)
        faults.install(
            faults.FaultPlan(
                ops=[
                    {"op": "evict", "scope": "search", "at_node": 0,
                     "keep": 1},
                    {"op": "oom", "scope": "search", "at_node": 1},
                ]
            )
        )
        chaotic = BranchBoundExplorer(frontier="dfs").explore(problem)
        assert chaotic.optimal and clean.optimal
        assert chaotic.nodes_explored == clean.nodes_explored
        assert chaotic.provenance == clean.provenance

    def test_drive_matches_explore_under_search_faults(self):
        from repro.synth.checkpoint import Checkpointer
        from repro.synth.explorer import BranchBoundExplorer

        problem = _search_problem()
        plan = faults.FaultPlan(
            ops=[{"op": "evict", "scope": "search", "at_node": 2,
                  "keep": 2}]
        )
        faults.install(plan)
        plain = BranchBoundExplorer(frontier="best-first").explore(problem)
        faults.install(plan)
        driven = BranchBoundExplorer(frontier="best-first").explore(
            problem, checkpoint=Checkpointer(every_nodes=3)
        )
        assert driven.cost == plain.cost
        assert driven.nodes_explored == plain.nodes_explored
        assert driven.evicted_subtrees == plain.evicted_subtrees
        assert driven.provenance == plain.provenance
