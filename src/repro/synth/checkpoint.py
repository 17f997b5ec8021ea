"""Checkpoint/resume for in-flight branch-and-bound searches.

A multi-minute proof search that dies at 99% used to restart from
node one.  This module serializes the *live* search state of a
:class:`~repro.synth.explorer.BranchBoundExplorer` — incumbent, proof
floor, node/evaluation counts, and the open frontier — to a versioned
JSON blob, and reads it back.  The search loops themselves live in
``explorer.py``: every frontier runs on one resumable stack driver,
which calls this module only when a :class:`Checkpointer` asks for a
snapshot or a resume.

The open frontier serializes as **decision paths** (PR 5's
:class:`~repro.synth.state.PathTrail` snapshot form): a search node is
its ``(unit, target)`` assignments from the root, nothing more.  That
works because the integer cost kernel makes every aggregate
order-independent and pool elections are pure functions of the
committed loads — a node restored by the trail's net-delta restore
reads byte-identical bounds and feasibility however the search got
there.  No evaluator state or Fenwick pool ever touches disk.

Equivalence contract (property-tested against the exhaustive oracle):

* A checkpointer never perturbs the search: with no resume, a run
  with snapshots returns byte-identical results — same best mapping,
  proven cost, node and evaluation counts — as a run without.
* A search killed by its budget at an *arbitrary* node, then resumed
  from the emitted checkpoint, reaches the same proven optimum as an
  uninterrupted run, and the resumed run's final node count equals the
  uninterrupted one's (node budgets are **totals across segments**:
  the clock resumes from the recorded count).

What is **not** byte-identical after a resume: provenance strings
(a truncated segment reports itself truncated, and a run proved by the
root presolve — one complete snapshot at 0 nodes — resumes without its
``pareto`` tag) and wall-clock timing.
Shared-incumbent runs checkpoint the fleet floor they last saw, but
their node counts are timing-dependent with or without checkpoints.

Blobs are read from disk, so they are outside input: a malformed one
is refused with a :class:`~repro.errors.SynthesisError` naming the
bad field, never a ``KeyError`` from deep inside a driver.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SynthesisError
from .mapping import (
    Mapping,
    SynthesisProblem,
    Target,
    encode_target,
    problem_payload,
)
from .ordering import validate_frontier, validate_ordering

#: Blob format version.  Bump on any change to the payload shape; a
#: mismatched resume is refused, never misread.  Version 2 added the
#: resource-governance fields (eviction gauges) — version-1 blobs
#: predate ``max_open`` and cannot express what a capped search
#: dropped, so they are refused.  A version-2 blob naming a frontier
#: or ordering this build does not know (a removed frontier included)
#: is refused at load time.
CHECKPOINT_VERSION = 2

_INF = float("inf")


# ----------------------------------------------------------------------
# Encoding helpers (JSON-safe targets, paths, infinities)
# ----------------------------------------------------------------------
def _decode_target(text: str) -> Target:
    if text == "hw":
        return Target.hw()
    if isinstance(text, str) and text.startswith("sw:"):
        return Target.sw(int(text[3:]))
    raise SynthesisError(f"unknown target encoding {text!r}")


def _encode_path(path: Tuple[Tuple[str, Target], ...]) -> List[List[str]]:
    return [[unit, encode_target(target)] for unit, target in path]


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


def encode_mapping(mapping: Optional[Mapping]) -> Optional[Dict[str, str]]:
    """A mapping as a sorted ``unit -> "hw"/"sw:N"`` object."""
    if mapping is None:
        return None
    return {
        unit: encode_target(target)
        for unit, target in sorted(mapping.assignment.items())
    }


def decode_mapping(rows: Optional[Dict[str, str]]) -> Optional[Mapping]:
    if rows is None:
        return None
    if not isinstance(rows, dict):
        raise TypeError(f"expected an object, got {rows!r}")
    return Mapping(
        {unit: _decode_target(text) for unit, text in rows.items()}
    )


def _field(payload, key: str, decode=None, where="checkpoint"):
    """``payload[key]``, decoded; a missing or malformed value is a
    :class:`SynthesisError` naming the field."""
    if not isinstance(payload, dict):
        raise SynthesisError(f"{where} must be an object")
    if key not in payload:
        raise SynthesisError(f"{where} has no {key!r} field")
    value = payload[key]
    if decode is None:
        return value
    try:
        return decode(value)
    except (
        TypeError,
        ValueError,
        KeyError,
        IndexError,
        SynthesisError,
    ) as exc:
        raise SynthesisError(
            f"{where} field {key!r} is malformed: {exc}"
        ) from None


def _int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _mapping_rows(rows):
    decode_mapping(rows)
    return rows


def problem_fingerprint(problem: SynthesisProblem) -> str:
    """A stable content hash of everything the search depends on.

    Resuming a checkpoint against a *different* problem would silently
    produce garbage (paths replayed onto the wrong units, or a proof
    carried over to a different feasible region); the fingerprint
    turns that into a refusal.  It hashes the canonical problem
    payload the serve cache also keys on
    (:func:`~repro.synth.mapping.problem_payload`: units, their
    library entries, the architecture envelope, variant origins, fixed
    targets and the exclusion semantics) plus the problem name and
    the unit order the search branches in.
    """
    payload = {
        "name": problem.name,
        "order": list(problem.units),
        "problem": problem_payload(problem),
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
            frontier=validate_frontier(_field(payload, "frontier")),
            ordering=validate_ordering(_field(payload, "ordering")),
            fingerprint=_field(payload, "fingerprint"),
            nodes=_field(payload, "nodes", _int),
            evaluations=_field(payload, "evaluations", _int),
            best_cost=_field(payload, "best_cost", _decode_num),
            best_mapping=_field(payload, "best_mapping", _mapping_rows),
            warm_started=bool(_field(payload, "warm_started")),
            shared_floor=_field(payload, "shared_floor", _decode_num),
            complete=bool(_field(payload, "complete")),
            frontier_state=_field(payload, "frontier_state"),
            version=version,
            open_high_water=_field(payload, "open_high_water", _int),
            evicted_subtrees=_field(payload, "evicted_subtrees", _int),
            evicted_floor=_field(payload, "evicted_floor", _decode_num),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise SynthesisError(
                f"checkpoint is not valid JSON: {exc}"
            ) from None
        return cls.from_payload(payload)

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

    def next_due(self) -> float:
        """The node count at which the next periodic snapshot is due
        (``inf`` when only the final snapshot is wanted)."""
        if self.every_nodes > 0:
            return self._last_nodes + self.every_nodes
        return _INF

    def emit(self, checkpoint: SearchCheckpoint) -> None:
        self.latest = checkpoint
        self._last_nodes = checkpoint.nodes
        if self.sink is not None:
            self.sink(checkpoint)
        if self.path is not None:
            checkpoint.save(self.path)


# ----------------------------------------------------------------------
# Frontier states: one encoding per frontier kind
# ----------------------------------------------------------------------
# The depth-first driver's stack holds *frames* (bottom -> top, the top
# one yields the next node).  Frames are indexed by depth, not by path:
# every open frame's parent path is a prefix of the applied path (a
# depth-first stack only holds children of the current node's
# ancestors), so a frame needs only its depth and its own decisions.
#   (DFS_NODE, depth, pair, checked, bound)
#       One open node to enter: ``pair`` is its last decision (``None``
#       at the root); ``checked`` means its parent's probe already
#       vetted it at ``bound``, otherwise it runs its own entry checks.
#   [DFS_PLAIN, depth, unit, targets, scored, pos, index]
#       The unprobed children of the node at ``depth``: ``targets[pos:]``
#       are still open.  ``scored`` is the parent's non-mutating
#       sibling score, taken when the first child meets a finite limit;
#       ``index`` is the position of ``unit`` in the search's unit order.
#   [DFS_GROUP, depth, unit, scored, pos]
#       A probed sibling set of the node at ``depth``: ``scored`` holds
#       ``(bound, index, target)`` triples, ``pos`` the next rank to
#       reconsider.  The incumbent filter runs when a rank is taken, so
#       an improvement found inside an earlier sibling's subtree prunes
#       later siblings.
# A blob lists the same frontier as rows of open nodes and groups: one
# unchecked node row per open plain child (in stack order, last
# target lowest), so the rows do not depend on how the frames group
# them.
DFS_NODE, DFS_PLAIN, DFS_GROUP = 0, 1, 2


def _encode_dfs_stack(stack, applied) -> List[Dict[str, object]]:
    """JSON rows of the stack, full paths rebuilt from ``applied``.

    Unchecked node rows carry no bound: a pre-score is a pure function
    of the parent state, so a resumed run simply recomputes it.
    """
    prefix = _encode_path(applied)
    rows: List[Dict[str, object]] = []
    for frame in stack:
        kind = frame[0]
        if kind == DFS_NODE:
            _, depth, pair, checked, bound = frame
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
                    "feasible": None,
                }
            )
        elif kind == DFS_PLAIN:
            _, depth, unit, targets, _scored, pos, _index = frame
            for position in range(len(targets) - 1, pos - 1, -1):
                rows.append(
                    {
                        "kind": "node",
                        "path": prefix[:depth]
                        + [[unit, encode_target(targets[position])]],
                        "checked": False,
                        "bound": None,
                        "feasible": None,
                    }
                )
        else:
            _, depth, unit, scored, pos = frame
            rows.append(
                {
                    "kind": "group",
                    "path": prefix[:depth],
                    "unit": unit,
                    "scored": [
                        [_encode_num(bound), encode_target(target)]
                        for bound, _index, target in scored
                    ],
                    "pos": pos,
                }
            )
    return rows


def encode_dfs_state(stack, units, assignment) -> Dict[str, object]:
    """The DFS frontier state; ``units`` are the decided units of the
    applied path, in order, and ``assignment`` holds their targets."""
    applied = [(unit, assignment[unit]) for unit in units]
    return {"stack": _encode_dfs_stack(stack, applied)}


def _decode_dfs_rows(rows) -> Tuple[list, tuple]:
    stack: List[object] = []
    parents = []
    for row in rows:
        path = _decode_path(row["path"])
        depth = len(path)
        if row["kind"] == "node":
            checked = bool(row["checked"])
            stack.append(
                (
                    DFS_NODE,
                    depth,
                    path[-1] if path else None,
                    checked,
                    _decode_num(row["bound"]) if checked else None,
                )
            )
            parents.append(path[:-1])
        elif row["kind"] == "group":
            stack.append(
                [
                    DFS_GROUP,
                    depth,
                    row["unit"],
                    tuple(
                        (_decode_num(bound), rank, _decode_target(target))
                        for rank, (bound, target) in enumerate(row["scored"])
                    ),
                    _int(row["pos"]),
                ]
            )
            parents.append(path)
        else:
            raise ValueError(f"unknown row kind {row['kind']!r}")
    deepest = max(parents, key=len, default=())
    for parent in parents:
        if deepest[: len(parent)] != parent:
            raise SynthesisError(
                "checkpoint DFS stack is not prefix-consistent: open "
                "entries do not share one root path"
            )
    return stack, deepest


def decode_dfs_state(frontier_state) -> Tuple[list, tuple]:
    """``(stack frames, deepest parent path)`` of a DFS frontier state.

    Refuses a stack whose parent paths are not all prefixes of the
    deepest one: no depth-first search can have produced it, and
    entering its entries by depth would silently explore wrong nodes.
    """
    return _field(
        frontier_state, "stack", _decode_dfs_rows, "checkpoint frontier_state"
    )


def encode_heap_state(heap, pushes) -> Dict[str, object]:
    return {
        "heap": [
            [_encode_num(bound), tie, _encode_path(path)]
            for bound, tie, path in heap
        ],
        "pushes": pushes,
    }


def _decode_heap_rows(rows) -> List[tuple]:
    heap = [
        (_decode_num(bound), _int(tie), _decode_path(path))
        for bound, tie, path in rows
    ]
    heapq.heapify(heap)
    return heap


def decode_heap_state(frontier_state) -> Tuple[List[tuple], int]:
    """``(heap, push counter)`` of a best-first heap state."""
    where = "checkpoint frontier_state"
    heap = _field(frontier_state, "heap", _decode_heap_rows, where)
    return heap, _field(frontier_state, "pushes", _int, where)

