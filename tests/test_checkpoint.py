"""Checkpoint/resume correctness of the branch-and-bound search.

The property under test is *seamlessness*: a search killed at an
arbitrary point and resumed from its checkpoint must reach the same
proven optimum as the uninterrupted run — with **byte-identical node
and evaluation counts**, because the checkpoint captures the frontier
as decision-path snapshots and the resumed driver replays the exact
expansion order the uninterrupted search takes.

The oracle is :class:`~repro.synth.explorer.ExhaustiveExplorer`, so
"proven optimum" means proven against full enumeration, not just
internal consistency.
"""

import itertools

import pytest

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    SearchCheckpoint,
    problem_fingerprint,
)
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem
from repro.synth.ordering import FRONTIERS, ORDERINGS

#: The full driver matrix: every frontier x every ordering x both
#: ``capacity_bound`` settings.  Twelve drivers sharing one checkpoint
#: layer.
MATRIX = sorted(
    itertools.product(FRONTIERS, ORDERINGS, (True, False))
)


def make_problem(n_units=5, cap=0.75, procs=2, pcost=7):
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
        name="ckpt", units=tuple(units), library=library, architecture=arch
    )


@pytest.fixture(scope="module")
def problem():
    return make_problem()

@pytest.fixture(scope="module")
def oracle(problem):
    return ExhaustiveExplorer().explore(problem)


# ----------------------------------------------------------------------
# Snapshot parity (no resume): every frontier runs on one driver with
# or without a checkpointer, and snapshot cadence must never perturb it.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frontier,ordering,bound", MATRIX)
def test_snapshot_cadence_never_perturbs_search(problem, oracle, frontier,
                                                ordering, bound):
    plain = BranchBoundExplorer(
        frontier=frontier, ordering=ordering, capacity_bound=bound
    ).explore(problem)
    snaps = []
    ck = Checkpointer(every_nodes=3, sink=snaps.append)
    driven = BranchBoundExplorer(
        frontier=frontier, ordering=ordering, capacity_bound=bound
    ).explore(problem, checkpoint=ck)
    assert driven.cost == plain.cost == oracle.cost
    assert driven.optimal and plain.optimal
    assert driven.nodes_explored == plain.nodes_explored
    assert driven.evaluations == plain.evaluations
    assert driven.provenance == plain.provenance
    assert driven.mapping.assignment == plain.mapping.assignment
    # Periodic emission happened and ended on a complete checkpoint.
    assert snaps, "every_nodes should have emitted snapshots"
    assert snaps[-1].complete
    assert [s.nodes for s in snaps] == sorted(s.nodes for s in snaps)


# ----------------------------------------------------------------------
# Kill + resume: the headline property.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("frontier,ordering,bound", MATRIX)
def test_kill_and_resume_reaches_proven_optimum(problem, oracle,
                                                frontier, ordering,
                                                bound):
    plain = BranchBoundExplorer(
        frontier=frontier, ordering=ordering, capacity_bound=bound
    ).explore(problem)
    total = plain.nodes_explored
    for budget in range(1, total, max(1, total // 5)):
        killed = BranchBoundExplorer(
            frontier=frontier,
            ordering=ordering,
            capacity_bound=bound,
            node_budget=budget,
        )
        ck = Checkpointer()
        partial = killed.explore(problem, checkpoint=ck)
        assert not partial.optimal
        assert ck.latest is not None and not ck.latest.complete
        # Round-trip through JSON: what a crash leaves on disk.
        resume = SearchCheckpoint.from_json(ck.latest.to_json())
        resumed = BranchBoundExplorer(
            frontier=frontier, ordering=ordering, capacity_bound=bound
        ).explore(problem, checkpoint=Checkpointer(resume=resume))
        assert resumed.optimal
        assert resumed.cost == plain.cost == oracle.cost
        assert resumed.nodes_explored == plain.nodes_explored
        assert resumed.evaluations == plain.evaluations


def test_multi_segment_relay_reaches_optimum(problem, oracle):
    """A search relayed across many small budget increments.

    Budgets are totals across segments, so each leg extends the node
    budget; the final leg (no budget) must finish with the exact
    uninterrupted totals.
    """
    plain = BranchBoundExplorer().explore(problem)
    ck_blob = None
    step = max(2, plain.nodes_explored // 6)
    for leg in range(1, 6):
        resume = (
            SearchCheckpoint.from_json(ck_blob) if ck_blob else None
        )
        ck = Checkpointer(resume=resume)
        result = BranchBoundExplorer(node_budget=leg * step).explore(
            problem, checkpoint=ck
        )
        if result.optimal:
            break
        ck_blob = ck.latest.to_json()
    else:
        ck = Checkpointer(resume=SearchCheckpoint.from_json(ck_blob))
        result = BranchBoundExplorer().explore(problem, checkpoint=ck)
    assert result.optimal
    assert result.cost == plain.cost == oracle.cost
    assert result.nodes_explored == plain.nodes_explored
    assert result.evaluations == plain.evaluations


def test_python_backend_checkpoint_parity(problem):
    """A half-budget run resumed from its snapshot matches a plain run
    on the one kernel, the one ``perfbench`` records as ``"python"``."""
    plain = BranchBoundExplorer().explore(problem)
    assert BranchBoundExplorer.backend == "python"
    ck = Checkpointer()
    partial = BranchBoundExplorer(
        node_budget=max(1, plain.nodes_explored // 2)
    ).explore(problem, checkpoint=ck)
    assert not partial.optimal
    resumed = BranchBoundExplorer().explore(
        problem, checkpoint=Checkpointer(resume=ck.latest)
    )
    assert resumed.optimal
    assert resumed.cost == plain.cost
    assert resumed.nodes_explored == plain.nodes_explored


# ----------------------------------------------------------------------
# The depth-indexed DFS stack: entries store their depth and last
# decision, and snapshots rebuild full paths from the applied trail.
# ----------------------------------------------------------------------
def _dfs_snapshots(problem, ordering):
    snaps = []
    result = BranchBoundExplorer(ordering=ordering).explore(
        problem, checkpoint=Checkpointer(every_nodes=1, sink=snaps.append)
    )
    return result, [snap.to_json() for snap in snaps]


@pytest.mark.parametrize("ordering", ["adaptive", "density", "static"])
def test_dfs_resume_from_every_snapshot(ordering):
    problem = make_problem(n_units=9, cap=0.75)
    plain = BranchBoundExplorer(ordering=ordering).explore(problem)
    driven, blobs = _dfs_snapshots(problem, ordering)
    assert driven.nodes_explored == plain.nodes_explored
    assert len(blobs) > 10
    for index, blob in enumerate(blobs[:-1]):
        later = []
        resumed = BranchBoundExplorer(ordering=ordering).explore(
            problem,
            checkpoint=Checkpointer(
                every_nodes=1,
                sink=later.append,
                resume=SearchCheckpoint.from_json(blob),
            ),
        )
        assert resumed.optimal, index
        assert resumed.cost == plain.cost, index
        assert resumed.nodes_explored == plain.nodes_explored, index
        assert resumed.evaluations == plain.evaluations, index
        assert resumed.mapping.assignment == plain.mapping.assignment
        # The resumed segment re-emits the uninterrupted run's blobs.
        assert [snap.to_json() for snap in later] == blobs[index + 1:]


def test_unchecked_dfs_rows_encode_no_scores():
    problem = make_problem(n_units=9, cap=0.75)
    _result, blobs = _dfs_snapshots(problem, "static")
    unchecked = 0
    for blob in blobs:
        payload = SearchCheckpoint.from_json(blob).to_payload()
        for row in payload["frontier_state"]["stack"]:
            if row["kind"] == "node" and not row["checked"]:
                assert row["bound"] is None and row["feasible"] is None
                if payload["best_cost"] != "inf":
                    unchecked += 1
    # Rows pushed once an incumbent exists were pre-scored in memory.
    assert unchecked


def test_dfs_stack_not_prefix_consistent_refused():
    problem = make_problem(n_units=9, cap=0.75)
    _result, blobs = _dfs_snapshots(problem, "static")
    # A snapshot with an open entry two or more decisions deep.
    for blob in blobs:
        payload = SearchCheckpoint.from_json(blob).to_payload()
        stack = payload["frontier_state"]["stack"]
        if any(len(row["path"]) > 1 for row in stack):
            break
    deepest = max(stack, key=lambda row: len(row["path"]))
    unit, target = deepest["path"][0]
    deepest["path"][0] = [unit, "sw:0" if target == "hw" else "hw"]
    with pytest.raises(SynthesisError, match="prefix-consistent"):
        BranchBoundExplorer(ordering="static").explore(
            problem,
            checkpoint=Checkpointer(
                resume=SearchCheckpoint.from_payload(payload)
            ),
        )


# ----------------------------------------------------------------------
# Guard rails: a checkpoint must only resume what it snapshotted.
# ----------------------------------------------------------------------
def _checkpoint_of(problem, **explorer_kw):
    ck = Checkpointer()
    BranchBoundExplorer(node_budget=2, **explorer_kw).explore(
        problem, checkpoint=ck
    )
    assert ck.latest is not None
    return ck.latest

def test_resume_rejects_different_problem(problem):
    snapshot = _checkpoint_of(problem)
    other = make_problem(n_units=6)
    assert problem_fingerprint(other) != problem_fingerprint(problem)
    with pytest.raises(SynthesisError, match="fingerprint"):
        BranchBoundExplorer().explore(
            other, checkpoint=Checkpointer(resume=snapshot)
        )

def test_resume_rejects_mismatched_frontier_or_ordering(problem):
    snapshot = _checkpoint_of(problem, frontier="dfs", ordering="adaptive")
    with pytest.raises(SynthesisError, match="frontier"):
        BranchBoundExplorer(frontier="best-first").explore(
            problem, checkpoint=Checkpointer(resume=snapshot)
        )
    with pytest.raises(SynthesisError, match="ordering"):
        BranchBoundExplorer(ordering="static").explore(
            problem, checkpoint=Checkpointer(resume=snapshot)
        )

def test_version_mismatch_rejected(problem):
    payload = _checkpoint_of(problem).to_payload()
    payload["version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(SynthesisError, match="version"):
        SearchCheckpoint.from_payload(payload)

def test_unknown_frontier_or_ordering_refused_at_load(problem):
    """v2 blobs naming a removed frontier or unknown ordering fail to
    load (surviving frontiers' v2 blobs resume in the matrix above)."""
    payload = _checkpoint_of(problem, frontier="best-first").to_payload()
    assert payload["version"] == CHECKPOINT_VERSION == 2
    for field, value in (
        ("frontier", "lds"),
        ("frontier", "beam"),
        ("frontier", "hybrid"),
        ("ordering", "random"),
    ):
        with pytest.raises(SynthesisError, match=f"unknown {field}"):
            SearchCheckpoint.from_payload({**payload, field: value})

def _resume_with_state(problem, frontier, frontier_state):
    payload = _checkpoint_of(problem, frontier=frontier).to_payload()
    payload["frontier_state"] = frontier_state
    resume = SearchCheckpoint.from_payload(payload)
    BranchBoundExplorer(frontier=frontier).explore(
        problem, checkpoint=Checkpointer(resume=resume)
    )


def _with_field(problem, **fields):
    return SearchCheckpoint.from_payload(
        {**_checkpoint_of(problem).to_payload(), **fields}
    )


#: Blobs are read from disk: each malformation is refused with a
#: SynthesisError naming the bad field, at load or at resume.
MALFORMED = {
    "missing-field": (
        "frontier",
        lambda p: SearchCheckpoint.from_payload(
            {"version": CHECKPOINT_VERSION}
        ),
    ),
    "non-integer-nodes": ("nodes", lambda p: _with_field(p, nodes="abc")),
    "bool-nodes": ("nodes", lambda p: _with_field(p, nodes=True)),
    "bad-best-mapping": (
        "best_mapping", lambda p: _with_field(p, best_mapping={"u0": "gpu"})
    ),
    "not-json": ("JSON", lambda p: SearchCheckpoint.from_json("{not json")),
    "dfs-without-stack": ("stack", lambda p: _resume_with_state(p, "dfs", {})),
    "dfs-row-without-path": (
        "stack",
        lambda p: _resume_with_state(p, "dfs", {"stack": [{"kind": "node"}]}),
    ),
    "best-first-without-heap": (
        "heap", lambda p: _resume_with_state(p, "best-first", {"pushes": 0})
    ),
    "best-first-without-pushes": (
        "pushes", lambda p: _resume_with_state(p, "best-first", {"heap": []})
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_blob_refused_naming_the_field(problem, case):
    field, load = MALFORMED[case]
    with pytest.raises(SynthesisError, match=field):
        load(problem)

def test_resume_requires_checkpoint_or_path():
    with pytest.raises(SynthesisError, match="SearchCheckpoint"):
        Checkpointer(resume=42)

def test_negative_interval_rejected():
    with pytest.raises(SynthesisError, match="every_nodes"):
        Checkpointer(every_nodes=-1)


# ----------------------------------------------------------------------
# Serialization: JSON blob and atomic file round-trips.
# ----------------------------------------------------------------------
def test_file_roundtrip_and_resume_by_path(problem, tmp_path):
    target = tmp_path / "search.ckpt"
    ck = Checkpointer(path=str(target))
    BranchBoundExplorer(node_budget=3).explore(problem, checkpoint=ck)
    assert target.exists()
    loaded = SearchCheckpoint.load(str(target))
    assert loaded.to_payload() == ck.latest.to_payload()
    # Resume directly from the path (what a restarted job does).
    plain = BranchBoundExplorer().explore(problem)
    resumed = BranchBoundExplorer().explore(
        problem, checkpoint=Checkpointer(resume=str(target))
    )
    assert resumed.optimal
    assert resumed.cost == plain.cost
    assert resumed.nodes_explored == plain.nodes_explored

def test_payload_is_pure_json(problem):
    import json

    snapshot = _checkpoint_of(problem)
    blob = snapshot.to_json()
    assert json.loads(blob) == snapshot.to_payload()
    twice = SearchCheckpoint.from_json(blob).to_json()
    assert twice == blob
