"""Checkpoint/resume for in-flight branch-and-bound searches.

A multi-minute proof search that dies at 99% used to restart from
node one.  This module serializes the *live* search state of a
:class:`~repro.synth.explorer.BranchBoundExplorer` — incumbent, proof
floor, node/evaluation counts, and the open frontier — to a versioned
JSON blob, and drives checkpoint-capable twins of the three search
frontiers that can resume from one.

The open frontier serializes as **decision paths** (PR 5's
:class:`~repro.synth.state.PathTrail` snapshot form): a search node is
its ``(unit, target)`` assignments from the root, nothing more.  That
works because the integer cost kernel makes every aggregate
order-independent and pool elections are pure functions of the
committed loads — a node restored by the trail's net-delta restore
reads byte-identical bounds and feasibility however the search got
there.  No evaluator state or Fenwick pool ever touches disk.

Equivalence contract (property-tested against the exhaustive oracle):

* With no resume, a checkpoint-driven search returns byte-identical
  results — same best mapping, proven cost, node and evaluation
  counts — as the plain recursive/heap drivers in ``explorer.py``.
* A search killed by its budget at an *arbitrary* node, then resumed
  from the emitted checkpoint, reaches the same proven optimum as an
  uninterrupted run, and the resumed run's final node count equals the
  uninterrupted one's (node budgets are **totals across segments**:
  the clock resumes from the recorded count).

The depth-first driver replays the recursive control flow with an
explicit stack whose entries are either open *nodes* or resumable
*sibling groups* — a group re-applies the recursion's loop-time
incumbent checks when it is popped, not when it was pushed, which is
what keeps node counts identical when an earlier sibling's subtree
improves the incumbent in between.

What is **not** byte-identical after a resume: provenance strings
(a truncated segment reports itself truncated) and wall-clock timing.
Shared-incumbent runs checkpoint the fleet floor they last saw, but
their node counts are timing-dependent with or without checkpoints.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SynthesisError
from .mapping import Mapping, SynthesisProblem, Target
from .ordering import (
    STRONG_BRANCH_DEPTH,
    probe_targets,
    strong_branch,
    validate_frontier,
    validate_ordering,
)
from .state import EvictionLog, PathTrail

#: Blob format version.  Bump on any change to the payload shape; a
#: mismatched resume is refused, never misread.  Version 2 added the
#: resource-governance fields (eviction gauges, the hybrid frontier
#: state) — version-1 blobs predate ``max_open`` and cannot express
#: what a capped search dropped, so they are refused.  A version-2
#: blob naming a frontier or ordering this build does not know is
#: refused at load time.
CHECKPOINT_VERSION = 2

_INF = float("inf")


# ----------------------------------------------------------------------
# Encoding helpers (JSON-safe targets, paths, infinities)
# ----------------------------------------------------------------------
def _encode_target(target: Target) -> str:
    return "hw" if target.is_hardware else f"sw:{target.processor}"


def _decode_target(text: str) -> Target:
    if text == "hw":
        return Target.hw()
    if text.startswith("sw:"):
        return Target.sw(int(text[3:]))
    raise SynthesisError(f"unknown target encoding {text!r}")


def _encode_path(path: Tuple[Tuple[str, Target], ...]) -> List[List[str]]:
    return [[unit, _encode_target(target)] for unit, target in path]


def _decode_path(rows: List[List[str]]) -> Tuple[Tuple[str, Target], ...]:
    return tuple((unit, _decode_target(text)) for unit, text in rows)


def _encode_num(value: Optional[float]):
    """JSON-safe number: ``inf`` crosses as the string ``"inf"``."""
    if value is None:
        return None
    if value == _INF:
        return "inf"
    if value == -_INF:
        return "-inf"
    return value


def _decode_num(value) -> Optional[float]:
    if value is None:
        return None
    if value == "inf":
        return _INF
    if value == "-inf":
        return -_INF
    return float(value)


def problem_fingerprint(problem: SynthesisProblem) -> str:
    """A stable content hash of everything the search depends on.

    Resuming a checkpoint against a *different* problem would silently
    produce garbage (paths replayed onto the wrong units); the
    fingerprint turns that into a refusal.  Covers the unit set, the
    per-unit implementation options, the architecture envelope, the
    fixed targets, and the exclusion semantics.
    """
    payload = {
        "name": problem.name,
        "units": list(problem.units),
        "fixed": {
            unit: _encode_target(target)
            for unit, target in sorted(problem.fixed.items())
        },
        "architecture": repr(problem.architecture),
        "entries": {
            unit: repr(problem.entry(unit)) for unit in problem.units
        },
        "use_exclusion": problem.use_exclusion,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The checkpoint blob
# ----------------------------------------------------------------------
@dataclass
class SearchCheckpoint:
    """One serialized moment of an in-flight (or finished) search."""

    frontier: str
    ordering: str
    fingerprint: str
    nodes: int
    evaluations: int
    best_cost: float
    best_mapping: Optional[Dict[str, str]]
    warm_started: bool
    shared_floor: float
    complete: bool
    frontier_state: Dict[str, object]
    version: int = CHECKPOINT_VERSION
    #: Eviction gauges: a resumed capped search must keep reporting
    #: the subtrees its earlier segments dropped, or its proof floor
    #: would silently forget them across the resume boundary.
    open_high_water: int = 0
    evicted_subtrees: int = 0
    evicted_floor: float = _INF

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "frontier": self.frontier,
            "ordering": self.ordering,
            "fingerprint": self.fingerprint,
            "nodes": self.nodes,
            "evaluations": self.evaluations,
            "best_cost": _encode_num(self.best_cost),
            "best_mapping": self.best_mapping,
            "warm_started": self.warm_started,
            "shared_floor": _encode_num(self.shared_floor),
            "complete": self.complete,
            "frontier_state": self.frontier_state,
            "open_high_water": self.open_high_water,
            "evicted_subtrees": self.evicted_subtrees,
            "evicted_floor": _encode_num(self.evicted_floor),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SearchCheckpoint":
        if not isinstance(payload, dict):
            raise SynthesisError("checkpoint payload must be an object")
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise SynthesisError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        return cls(
            frontier=validate_frontier(payload["frontier"]),
            ordering=validate_ordering(payload["ordering"]),
            fingerprint=payload["fingerprint"],
            nodes=int(payload["nodes"]),
            evaluations=int(payload["evaluations"]),
            best_cost=_decode_num(payload["best_cost"]),
            best_mapping=payload["best_mapping"],
            warm_started=bool(payload["warm_started"]),
            shared_floor=_decode_num(payload["shared_floor"]),
            complete=bool(payload["complete"]),
            frontier_state=payload["frontier_state"],
            version=version,
            open_high_water=int(payload.get("open_high_water", 0)),
            evicted_subtrees=int(payload.get("evicted_subtrees", 0)),
            evicted_floor=_decode_num(
                payload.get("evicted_floor", "inf")
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        return cls.from_payload(json.loads(text))

    def save(self, path: str) -> None:
        """Atomic write: tmp file + fsync + rename.

        A crash mid-save leaves either the old checkpoint or the new
        one, never a torn blob — resuming from a half-written
        checkpoint is the one failure mode this layer must not have.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(
            prefix=".checkpoint-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self.to_json() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class Checkpointer:
    """Checkpoint policy + sink handed to ``explore(checkpoint=)``.

    Parameters
    ----------
    path:
        Atomic save target of every emitted checkpoint (optional).
    every_nodes:
        Emit a checkpoint each time this many *new* nodes have been
        expanded since the last emission (0 = only on completion and
        budget exhaustion, which are always emitted).
    sink:
        Callback receiving every emitted :class:`SearchCheckpoint`
        (tests use this to capture mid-flight snapshots).
    resume:
        A :class:`SearchCheckpoint` (or a path to one) to resume
        from.  The search continues exactly where the checkpoint
        stopped; node budgets count the recorded nodes, so a budget
        is a total across segments.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        every_nodes: int = 0,
        sink: Optional[Callable[[SearchCheckpoint], None]] = None,
        resume: Optional[object] = None,
    ) -> None:
        if every_nodes < 0:
            raise SynthesisError("every_nodes must be >= 0")
        if isinstance(resume, (str, os.PathLike)):
            resume = SearchCheckpoint.load(os.fspath(resume))
        if resume is not None and not isinstance(resume, SearchCheckpoint):
            raise SynthesisError(
                "resume must be a SearchCheckpoint or a path to one"
            )
        self.path = path
        self.every_nodes = every_nodes
        self.sink = sink
        self.resume = resume
        #: The most recently emitted checkpoint (or the resume source
        #: until the first emission).
        self.latest: Optional[SearchCheckpoint] = resume
        self._last_nodes = resume.nodes if resume is not None else 0

    def due(self, nodes: int) -> bool:
        return (
            self.every_nodes > 0
            and nodes - self._last_nodes >= self.every_nodes
        )

    def emit(self, checkpoint: SearchCheckpoint) -> None:
        self.latest = checkpoint
        self._last_nodes = checkpoint.nodes
        if self.sink is not None:
            self.sink(checkpoint)
        if self.path is not None:
            checkpoint.save(self.path)


# ----------------------------------------------------------------------
# Driver scaffolding
# ----------------------------------------------------------------------
@dataclass
class _Search:
    """The live search context shared by the three drivers."""

    explorer: object
    problem: SynthesisProblem
    free: List[str]
    state: object
    trail: PathTrail
    clock: object
    shared: object
    best: Optional[Mapping]
    best_cost: float
    evaluations: int
    warm_started: bool
    fingerprint: str
    adaptive: bool = field(init=False)
    prune_infeasible: bool = field(init=False)
    total: int = field(init=False)

    def __post_init__(self) -> None:
        self.adaptive = self.explorer.ordering == "adaptive"
        self.prune_infeasible = self.state.can_prune_infeasible
        self.total = len(self.free)

    def offer_leaf(self) -> None:
        """Evaluate the restored full assignment as a leaf."""
        self.evaluations += 1
        feasible, cost = self.state.leaf()
        if feasible and cost < self.best_cost:
            self.best, self.best_cost = self.state.to_mapping(), cost
            if self.shared is not None:
                self.shared.offer(self.best_cost)

    def limit(self) -> float:
        floor = self.clock.shared_floor
        return self.best_cost if self.best_cost < floor else floor

    def snapshot(
        self,
        frontier_state: Dict[str, object],
        nodes: int,
        complete: bool,
    ) -> SearchCheckpoint:
        return SearchCheckpoint(
            frontier=self.explorer.frontier,
            ordering=self.explorer.ordering,
            fingerprint=self.fingerprint,
            nodes=nodes,
            evaluations=self.evaluations,
            best_cost=self.best_cost,
            best_mapping=(
                {
                    unit: _encode_target(target)
                    for unit, target in sorted(
                        self.best.assignment.items()
                    )
                }
                if self.best is not None
                else None
            ),
            warm_started=self.warm_started,
            shared_floor=self.clock.shared_floor,
            complete=complete,
            frontier_state=frontier_state,
            open_high_water=self.clock.open_high_water,
            evicted_subtrees=self.clock.evictions.count,
            evicted_floor=self.clock.evictions.floor,
        )


def _begin(explorer, problem, warm_start, ck: Checkpointer) -> _Search:
    """Shared prologue: plain search setup + resume reconciliation."""
    free, state, best, best_cost, clock, shared = explorer._begin_search(
        problem, warm_start
    )
    fingerprint = problem_fingerprint(problem)
    search = _Search(
        explorer=explorer,
        problem=problem,
        free=free,
        state=state,
        trail=PathTrail(state),
        clock=clock,
        shared=shared,
        best=best,
        best_cost=best_cost,
        evaluations=0,
        warm_started=best is not None,
        fingerprint=fingerprint,
    )
    resume = ck.resume
    if resume is None:
        return search
    if resume.frontier != explorer.frontier:
        raise SynthesisError(
            f"checkpoint was taken on frontier {resume.frontier!r}, "
            f"cannot resume on {explorer.frontier!r}"
        )
    if resume.ordering != explorer.ordering:
        raise SynthesisError(
            f"checkpoint was taken under ordering {resume.ordering!r}, "
            f"cannot resume under {explorer.ordering!r}"
        )
    if resume.fingerprint != fingerprint:
        raise SynthesisError(
            f"checkpoint does not belong to problem {problem.name!r} "
            f"(problem fingerprint mismatch)"
        )
    clock.nodes = resume.nodes
    clock.open_high_water = resume.open_high_water
    clock.evictions = EvictionLog(
        resume.evicted_subtrees, resume.evicted_floor
    )
    search.evaluations = resume.evaluations
    search.warm_started = resume.warm_started
    if resume.best_cost < search.best_cost:
        search.best_cost = resume.best_cost
        search.best = (
            Mapping(
                {
                    unit: _decode_target(text)
                    for unit, text in resume.best_mapping.items()
                }
            )
            if resume.best_mapping is not None
            else None
        )
        if shared is not None and search.best is not None:
            shared.offer(search.best_cost)
    # The recorded floor only ever tightens the live one; min keeps
    # both segments' pruning thresholds honest.
    if resume.shared_floor < clock.shared_floor:
        clock.shared_floor = resume.shared_floor
    return search


def drive(explorer, problem, warm_start, ck: Checkpointer):
    """Run one checkpointed exploration; the ``explore()`` twin."""
    search = _begin(explorer, problem, warm_start, ck)
    if explorer.frontier == "best-first":
        truncated = _drive_best_first(search, ck)
    elif explorer.frontier == "hybrid":
        truncated = _drive_hybrid(search, ck)
    else:
        truncated = _drive_dfs(search, ck)
    return explorer._finish_search(
        problem,
        search.best,
        search.best_cost,
        search.clock,
        search.evaluations,
        search.shared,
        search.warm_started,
        truncated,
    )


# ----------------------------------------------------------------------
# Depth-first driver (stack of nodes + resumable sibling groups)
# ----------------------------------------------------------------------
# Stack entry shapes (bottom -> top, popped LIFO).  Entries are indexed
# by depth, not by path: every open entry's parent path is a prefix of
# the path the trail has applied (a depth-first stack only holds
# children of the current node's ancestors), so an entry needs only its
# depth and its own last decision, and the trail enters it with one
# ``PathTrail.step``.
#   ("node", depth, pair, checked, bound, feasible)
#       An open node to enter: ``pair`` is its last decision (``None``
#       at the root).  ``checked`` means the parent's probe already
#       vetted it; otherwise a non-``None`` ``bound``/``feasible`` is
#       the parent's non-mutating sibling score, checked against the
#       limit of the moment without touching the trail, and ``None``
#       means the node computes its entry reads itself.
#   ("group", depth, unit, scored, pos)
#       A probed sibling set of the node at ``depth`` mid-iteration:
#       popping it re-applies the recursion's loop-time incumbent
#       filter from ``pos`` on, pushes the next viable child plus its
#       own continuation, and otherwise ends the group.  This is what
#       keeps incumbent improvements made *inside* an earlier sibling's
#       subtree visible to later siblings exactly as in the recursive
#       driver.


def _encode_dfs_stack(stack, applied) -> List[Dict[str, object]]:
    """JSON rows of the stack, full paths rebuilt from ``applied``.

    Unchecked node rows carry no bound: a pre-score is a pure function
    of the parent state, so a resumed run simply recomputes it.
    """
    prefix = _encode_path(applied)
    rows: List[Dict[str, object]] = []
    for entry in stack:
        if entry[0] == "node":
            _, depth, pair, checked, bound, feasible = entry
            rows.append(
                {
                    "kind": "node",
                    "path": (
                        prefix[: depth - 1] + _encode_path((pair,))
                        if depth
                        else []
                    ),
                    "checked": checked,
                    "bound": _encode_num(bound) if checked else None,
                    "feasible": feasible if checked else None,
                }
            )
        else:
            _, depth, unit, scored, pos = entry
            rows.append(
                {
                    "kind": "group",
                    "path": prefix[:depth],
                    "unit": unit,
                    "scored": [
                        [_encode_num(bound), _encode_target(target)]
                        for bound, target in scored
                    ],
                    "pos": pos,
                }
            )
    return rows


def _decode_dfs_stack(rows, trail: PathTrail) -> List[tuple]:
    """Decode stack rows and restore ``trail`` to their deepest parent.

    Refuses a stack whose parent paths are not all prefixes of that
    deepest one: no depth-first search can have produced it, and
    entering its entries by depth would silently explore wrong nodes.
    """
    stack: List[tuple] = []
    parents = []
    for row in rows:
        path = _decode_path(row["path"])
        depth = len(path)
        if row["kind"] == "node":
            stack.append(
                (
                    "node",
                    depth,
                    path[-1] if path else None,
                    bool(row["checked"]),
                    _decode_num(row["bound"]),
                    row["feasible"],
                )
            )
            parents.append(path[:-1])
        else:
            stack.append(
                (
                    "group",
                    depth,
                    row["unit"],
                    tuple(
                        (_decode_num(bound), _decode_target(target))
                        for bound, target in row["scored"]
                    ),
                    int(row["pos"]),
                )
            )
            parents.append(path)
    deepest = max(parents, key=len, default=())
    for parent in parents:
        if deepest[: len(parent)] != parent:
            raise SynthesisError(
                "checkpoint DFS stack is not prefix-consistent: open "
                "entries do not share one root path"
            )
    trail.restore(deepest)
    return stack


def _probe_children(search: _Search, depth: int) -> Tuple[str, tuple]:
    """The probed (unit, scored-children) of the restored state."""
    state, problem = search.state, search.problem
    assignment = state.assignment
    if search.adaptive and depth < STRONG_BRANCH_DEPTH:
        undecided = [u for u in search.free if u not in assignment]
        unit, scored = strong_branch(
            state, problem, undecided, search.explorer.state_targets
        )
    else:
        unit = next(u for u in search.free if u not in assignment)
        scored = probe_targets(
            state,
            unit,
            search.explorer.state_targets(problem, unit, state),
        )
    return unit, tuple((bound, target) for bound, _i, target in scored)


def _push_plain_children(search: _Search, stack, depth, unit) -> None:
    """Push the children of the plain (unprobed) descent.

    Once a limit exists the siblings are scored in one non-mutating
    pass, so each child meets its entry checks without being entered.
    """
    state = search.state
    targets = search.explorer.state_targets(search.problem, unit, state)
    if search.limit() < _INF:
        scored = state.score_candidates(unit, targets)
    else:
        scored = [(None, None)] * len(targets)
    for position in range(len(targets) - 1, -1, -1):
        bound, feasible = scored[position]
        stack.append(
            (
                "node",
                depth + 1,
                (unit, targets[position]),
                False,
                bound,
                feasible,
            )
        )


def _drive_dfs(search: _Search, ck: Checkpointer) -> bool:
    from .explorer import _BudgetExceeded

    trail = search.trail
    resume = ck.resume
    if resume is not None:
        stack = _decode_dfs_stack(resume.frontier_state["stack"], trail)
    else:
        stack = [("node", 0, None, False, None, None)]

    def enter(depth, checked) -> None:
        # The node is applied; run its entry checks unless the
        # parent's probe already vetted this exact state.
        state = search.state
        if not checked:
            limit = search.limit()
            # Mirrors the recursion: the adaptive entry reads the bound
            # unconditionally, the non-adaptive one once a limit exists.
            if search.adaptive or limit < _INF:
                if state.lower_bound() >= limit:
                    return
            if search.prune_infeasible and not state.feasible:
                return
        expand(depth)

    def expand(depth) -> None:
        if depth == search.total:
            search.offer_leaf()
            return
        if search.adaptive:
            # Probing — and hence sibling groups — only while hunting
            # the first incumbent.
            if search.best is None:
                unit, scored = _probe_children(search, depth)
                stack.append(("group", depth, unit, scored, 0))
                return
            assignment = search.state.assignment
            unit = next(u for u in search.free if u not in assignment)
        else:
            unit = search.free[depth]
        _push_plain_children(search, stack, depth, unit)

    truncated = False
    entry = None
    try:
        while stack:
            entry = stack.pop()
            if entry[0] == "group":
                _, depth, unit, scored, pos = entry
                floor = search.clock.shared_floor
                for rank in range(pos, len(scored)):
                    bound, target = scored[rank]
                    if bound >= search.best_cost or bound >= floor:
                        continue
                    stack.append(("group", depth, unit, scored, rank + 1))
                    stack.append(
                        ("node", depth + 1, (unit, target), True, bound, None)
                    )
                    break
            else:
                _, depth, pair, checked, bound, feasible = entry
                search.clock.tick()
                if checked or bound is None:
                    if depth:
                        trail.step(depth, pair)
                    enter(depth, checked)
                elif bound < search.limit() and (
                    feasible or not search.prune_infeasible
                ):
                    # Pre-scored and within the limit: enter it checked.
                    # A pruned one never touches the trail.
                    trail.step(depth, pair)
                    expand(depth)
            if ck.due(search.clock.nodes):
                ck.emit(
                    search.snapshot(
                        {"stack": _encode_dfs_stack(stack, trail.path)},
                        search.clock.nodes,
                        complete=False,
                    )
                )
    except _BudgetExceeded:
        # The in-flight node was counted by tick() but never expanded;
        # push it back and record the pre-tick count so the resumed
        # run's total matches an uninterrupted one exactly.
        truncated = True
        stack.append(entry)
        ck.emit(
            search.snapshot(
                {"stack": _encode_dfs_stack(stack, trail.path)},
                search.clock.nodes - 1,
                complete=False,
            )
        )
    else:
        ck.emit(
            search.snapshot(
                {"stack": []}, search.clock.nodes, complete=True
            )
        )
    return truncated


# ----------------------------------------------------------------------
# Best-first / hybrid drivers (heap-shaped frontiers)
# ----------------------------------------------------------------------
def _encode_heap(heap) -> List[List[object]]:
    return [
        [_encode_num(bound), tie, _encode_path(path)]
        for bound, tie, path in heap
    ]


def _decode_heap(rows) -> List[tuple]:
    heap = [
        (_decode_num(bound), int(tie), _decode_path(path))
        for bound, tie, path in rows
    ]
    heapq.heapify(heap)
    return heap


def _heap_loop(search: _Search, ck: Checkpointer, heap, pushes, make_state):
    """The heap pump shared by the best-first and hybrid drivers.

    ``make_state(heap, pushes)`` builds the frontier_state dict of an
    emitted checkpoint (the hybrid driver wraps it with its phase
    tag).  Returns the truncation flag.
    """
    from .explorer import _BudgetExceeded, _cap_frontier

    truncated = False
    popped = None
    try:
        while heap:
            popped = heapq.heappop(heap)
            bound, _tie, path = popped
            if bound >= search.limit():
                # Bound-ordered heap: nothing left can beat the
                # incumbent, the proof is complete.
                break
            search.clock.tick()
            search.trail.restore(path)
            if len(path) == search.total:
                search.offer_leaf()
            else:
                unit, scored = _probe_children(search, len(path))
                floor = search.clock.shared_floor
                for child_bound, target in scored:
                    if (
                        child_bound >= search.best_cost
                        or child_bound >= floor
                    ):
                        continue
                    pushes += 1
                    heapq.heappush(
                        heap,
                        (child_bound, pushes, path + ((unit, target),)),
                    )
                _cap_frontier(
                    heap, search.clock, search.explorer.max_open
                )
                search.clock.note_open(len(heap))
            if ck.due(search.clock.nodes):
                ck.emit(
                    search.snapshot(
                        make_state(heap, pushes),
                        search.clock.nodes,
                        complete=False,
                    )
                )
    except _BudgetExceeded:
        truncated = True
        heapq.heappush(heap, popped)
        ck.emit(
            search.snapshot(
                make_state(heap, pushes),
                search.clock.nodes - 1,
                complete=False,
            )
        )
    else:
        ck.emit(
            search.snapshot(
                make_state([], pushes),
                search.clock.nodes,
                complete=True,
            )
        )
    return truncated


def _drive_best_first(search: _Search, ck: Checkpointer) -> bool:
    state = search.state
    resume = ck.resume
    if resume is not None:
        frontier = resume.frontier_state
        heap = _decode_heap(frontier["heap"])
        pushes = int(frontier["pushes"])
    else:
        pushes = 0
        root_bound = (
            _INF
            if search.prune_infeasible and not state.feasible
            else state.lower_bound()
        )
        heap = [(root_bound, pushes, ())]

    def bf_state(heap_now, pushes_now) -> Dict[str, object]:
        return {"heap": _encode_heap(heap_now), "pushes": pushes_now}

    return _heap_loop(search, ck, heap, pushes, bf_state)


def _drive_hybrid(search: _Search, ck: Checkpointer) -> bool:
    """Dive-then-best-first: the dive is its own checkpoint phase.

    A checkpoint emitted mid-dive records ``{"phase": "dive", "path"}``
    — the single open node of the walk; one emitted afterwards records
    the usual heap shape under ``{"phase": "heap"}``.  Resume re-enters
    whichever phase the blob froze.
    """
    state = search.state
    resume = ck.resume
    pushes = 0
    heap = None
    dive_path = None
    if resume is not None:
        frontier = resume.frontier_state
        if frontier["phase"] == "heap":
            heap = _decode_heap(frontier["heap"])
            pushes = int(frontier["pushes"])
        else:
            dive_path = _decode_path(frontier["path"])
    elif search.best is None and not (
        search.prune_infeasible and not state.feasible
    ):
        dive_path = ()

    if dive_path is not None:
        if _hybrid_dive(search, ck, dive_path):
            return True
        search.trail.restore(())
    if heap is None:
        root_bound = (
            _INF
            if search.prune_infeasible and not state.feasible
            else state.lower_bound()
        )
        heap = [(root_bound, pushes, ())]

    def hybrid_state(heap_now, pushes_now) -> Dict[str, object]:
        return {
            "phase": "heap",
            "heap": _encode_heap(heap_now),
            "pushes": pushes_now,
        }

    return _heap_loop(search, ck, heap, pushes, hybrid_state)


def _hybrid_dive(search: _Search, ck: Checkpointer, path) -> bool:
    """The hybrid frontier's incumbent-seeding greedy dive."""
    from .explorer import _BudgetExceeded

    def dive_state(path_now) -> Dict[str, object]:
        return {"phase": "dive", "path": _encode_path(path_now)}

    try:
        while True:
            search.clock.tick()
            search.trail.restore(path)
            if len(path) == search.total:
                search.offer_leaf()
                return False
            unit, scored = _probe_children(search, len(path))
            bound, target = scored[0]
            if (
                bound >= search.best_cost
                or bound >= search.clock.shared_floor
            ):
                return False
            path += ((unit, target),)
            if ck.due(search.clock.nodes):
                ck.emit(
                    search.snapshot(
                        dive_state(path),
                        search.clock.nodes,
                        complete=False,
                    )
                )
    except _BudgetExceeded:
        ck.emit(
            search.snapshot(
                dive_state(path),
                search.clock.nodes - 1,
                complete=False,
            )
        )
        return True
