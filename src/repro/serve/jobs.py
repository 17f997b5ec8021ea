"""Job schema of the exploration service: specs, workloads, records.

A **job** is one variant-space (or single-selection) exploration
request, submitted as a plain JSON object (see :class:`JobSpec`).  The
schema is validated eagerly at submit time — a malformed job is a 400
at the HTTP edge, never a worker crash — and normalized so that two
payloads meaning the same job build identical canonical hashes.

Key invariants:

* **Specs are data, workloads are objects.**  :class:`JobSpec` holds
  only JSON-shaped values; :func:`build_workload` turns a spec into
  the live :class:`~repro.synth.methods.ProblemFamily`, task list and
  explorer exactly once, and computes the job's content hash and
  family key from the built objects (the cache is addressed by
  problem *content*, not by spec spelling).
* **Result payloads are canonical.**  :func:`job_result_payload`
  contains no timing or scheduling data — only selections, costs,
  mappings, node/evaluation counts and provenance — so an exact cache
  hit can return the stored bytes verbatim and remain byte-identical
  to the cold run that produced them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SynthesisError
from ..synth.explorer import BranchBoundExplorer, ExhaustiveExplorer, Explorer
from ..synth.mapping import Mapping, Target, encode_target
from ..synth.methods import (
    ProblemFamily,
    SelectionResult,
    selection_units,
)
from ..synth.ordering import validate_frontier, validate_ordering
from ..synth.parallel import (
    DEFAULT_LINEAGE_SIZE,
    SelectionTask,
    tasks_from_space,
)
from ..variants.variant_space import VariantSpace
from .canonical import content_hash, family_key, space_payload


class JobValidationError(SynthesisError):
    """A submitted job payload is malformed (HTTP 400 at the edge)."""


#: Explorers a job may request.  Both are exact: a warm incumbent
#: only prunes, it never changes the proven optimum, so every job may
#: take a warm-start-adjacent cache seed.
EXPLORER_NAMES = ("bnb", "exhaustive")

_SPACE_KINDS = ("figure2", "generated")

_GENERATED_DEFAULTS = {
    "seed": 0,
    "n_variants": 3,
    "cluster_size": 2,
    "common_processes": 2,
}

_EXPLORER_DEFAULTS = {
    "name": "bnb",
    "ordering": "adaptive",
    "frontier": "dfs",
    "node_budget": None,
    "time_budget": None,
    "max_open": None,
    # Read by no explorer, but accepted and part of the job key: a
    # client can still vary it to force a distinct (cache-missing) job.
    "seed": 0,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobValidationError(message)


def _is_int(value: object) -> bool:
    """An integer that is not a bool (JSON ``true`` parses as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    """A number with a finite float value.

    Refuses bools, ``NaN``, ``Infinity`` and integers too large for a
    float (JSON allows them; ``float()`` would overflow downstream).
    """
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalized exploration request.

    Built from a JSON payload via :meth:`from_payload`; every field is
    JSON-shaped so specs can cross the HTTP edge, land in logs, and be
    re-normalized into identical canonical hashes.
    """

    space: Dict[str, object]
    selection: Optional[Dict[str, str]]
    explorer: Dict[str, object]
    warm_start: bool = True
    lineage_size: int = DEFAULT_LINEAGE_SIZE
    share_incumbent: bool = False
    priority: int = 0
    time_budget: Optional[float] = None
    use_cache: bool = True
    warm_cache: bool = True

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate and normalize one submitted job payload."""
        _require(isinstance(payload, dict), "job payload must be an object")
        unknown = set(payload) - {
            "space",
            "selection",
            "explorer",
            "warm_start",
            "lineage_size",
            "share_incumbent",
            "priority",
            "time_budget",
            "use_cache",
            "warm_cache",
        }
        _require(not unknown, f"unknown job fields: {sorted(unknown)}")

        space = payload.get("space", {"kind": "figure2"})
        _require(isinstance(space, dict), "space must be an object")
        kind = space.get("kind", "figure2")
        _require(
            kind in _SPACE_KINDS,
            f"space.kind must be one of {list(_SPACE_KINDS)}",
        )
        normalized_space: Dict[str, object] = {"kind": kind}
        if kind == "generated":
            for key, default in _GENERATED_DEFAULTS.items():
                value = space.get(key, default)
                _require(
                    _is_int(value) and value >= (0 if key == "seed" else 1),
                    f"space.{key} must be a positive integer",
                )
                normalized_space[key] = value
            for key in (
                "max_processors",
                "processor_cost",
                "processor_capacity",
                "memory_capacity",
            ):
                if key in space:
                    value = space[key]
                    _require(
                        _is_finite(value),
                        f"space.{key} must be a finite number",
                    )
                    normalized_space[key] = value
            extra = set(space) - set(normalized_space) - {"kind"}
            _require(not extra, f"unknown space fields: {sorted(extra)}")
        else:
            extra = set(space) - {"kind"}
            _require(not extra, f"unknown space fields: {sorted(extra)}")

        selection = payload.get("selection")
        if selection is not None:
            _require(
                isinstance(selection, dict)
                and selection
                and all(
                    isinstance(k, str) and isinstance(v, str)
                    for k, v in selection.items()
                ),
                "selection must map interface names to cluster names",
            )
            selection = dict(sorted(selection.items()))

        explorer_payload = payload.get("explorer", {})
        _require(
            isinstance(explorer_payload, dict), "explorer must be an object"
        )
        unknown = set(explorer_payload) - set(_EXPLORER_DEFAULTS)
        _require(not unknown, f"unknown explorer fields: {sorted(unknown)}")
        explorer = dict(_EXPLORER_DEFAULTS)
        explorer.update(explorer_payload)
        _require(
            explorer["name"] in EXPLORER_NAMES,
            f"explorer.name must be one of {list(EXPLORER_NAMES)}",
        )
        try:
            validate_ordering(explorer["ordering"])
            validate_frontier(explorer["frontier"])
        except SynthesisError as exc:
            raise JobValidationError(str(exc)) from None
        node_budget = explorer["node_budget"]
        _require(
            node_budget is None or (_is_int(node_budget) and node_budget >= 1),
            "explorer.node_budget must be null or an integer >= 1",
        )
        max_open = explorer["max_open"]
        _require(
            max_open is None or (_is_int(max_open) and max_open >= 1),
            "explorer.max_open must be null or an integer >= 1",
        )
        _require(_is_int(explorer["seed"]), "explorer.seed must be an integer")

        lineage_size = payload.get("lineage_size", DEFAULT_LINEAGE_SIZE)
        _require(
            _is_int(lineage_size) and lineage_size >= 1,
            "lineage_size must be an integer >= 1",
        )
        priority = payload.get("priority", 0)
        _require(_is_int(priority), "priority must be an integer")
        time_budget = payload.get("time_budget")
        _require(
            time_budget is None
            or (_is_finite(time_budget) and time_budget > 0),
            "time_budget must be null or finite positive seconds",
        )
        explorer_time = explorer["time_budget"]
        _require(
            explorer_time is None
            or (_is_finite(explorer_time) and explorer_time > 0),
            "explorer.time_budget must be null or finite positive seconds",
        )
        flags = {}
        for key, default in (
            ("warm_start", True),
            ("share_incumbent", False),
            ("use_cache", True),
            ("warm_cache", True),
        ):
            value = payload.get(key, default)
            _require(isinstance(value, bool), f"{key} must be a boolean")
            flags[key] = value

        return cls(
            space=normalized_space,
            selection=selection,
            explorer=explorer,
            lineage_size=lineage_size,
            priority=priority,
            time_budget=(
                float(time_budget) if time_budget is not None else None
            ),
            **flags,
        )


def spec_payload(spec: JobSpec) -> Dict[str, object]:
    """A spec back in submitted-payload form (journal round-trip).

    ``JobSpec.from_payload(spec_payload(s))`` rebuilds an identical
    spec — every field is already normalized and JSON-shaped — which
    is what lets a recovering daemon re-enqueue an interrupted job
    with the same job key and the same canonical result bytes.
    """
    payload: Dict[str, object] = {
        "space": dict(spec.space),
        "explorer": dict(spec.explorer),
        "warm_start": spec.warm_start,
        "lineage_size": spec.lineage_size,
        "share_incumbent": spec.share_incumbent,
        "priority": spec.priority,
        "time_budget": spec.time_budget,
        "use_cache": spec.use_cache,
        "warm_cache": spec.warm_cache,
    }
    if spec.selection is not None:
        payload["selection"] = dict(spec.selection)
    return payload


def build_explorer(config: Dict[str, object]) -> Explorer:
    """The live explorer of one normalized explorer config."""
    if config["name"] == "exhaustive":
        return ExhaustiveExplorer()
    return BranchBoundExplorer(
        ordering=config["ordering"],
        frontier=config["frontier"],
        node_budget=config["node_budget"],
        time_budget=config["time_budget"],
        max_open=config["max_open"],
    )


#: Memo of normalized space spec -> built (family, space).  Families
#: and spaces are immutable once built, jobs get fresh explorer
#: instances, and the engine is single-loop — so sharing them across
#: jobs is safe and keeps repeat-submit (and cache-hit) latency at
#: O(axes) instead of rebuilding the generator system per request.
_SPACE_CACHE: Dict[str, Tuple[ProblemFamily, VariantSpace]] = {}
_SPACE_CACHE_MAX = 64


def _build_space(spec: JobSpec) -> Tuple[ProblemFamily, VariantSpace]:
    from .canonical import canonical_json

    memo_key = canonical_json(spec.space)
    cached = _SPACE_CACHE.get(memo_key)
    if cached is not None:
        return cached
    built = _build_space_uncached(spec)
    if len(_SPACE_CACHE) >= _SPACE_CACHE_MAX:
        _SPACE_CACHE.pop(next(iter(_SPACE_CACHE)))
    _SPACE_CACHE[memo_key] = built
    return built


def _build_space_uncached(
    spec: JobSpec,
) -> Tuple[ProblemFamily, VariantSpace]:
    if spec.space["kind"] == "figure2":
        from ..apps import figure2

        return figure2.table1_family(), figure2.variant_space()
    from ..apps.generators import generate_system

    system = generate_system(
        seed=spec.space["seed"],
        n_variants=spec.space["n_variants"],
        cluster_size=spec.space["cluster_size"],
        common_processes=spec.space["common_processes"],
    )
    architecture = system.architecture
    overrides = {
        key: spec.space[key]
        for key in (
            "max_processors",
            "processor_cost",
            "processor_capacity",
            "memory_capacity",
        )
        if key in spec.space
    }
    if overrides:
        import dataclasses

        if "max_processors" in overrides:
            overrides["max_processors"] = int(overrides["max_processors"])
        architecture = dataclasses.replace(architecture, **overrides)
    family = ProblemFamily(
        name=f"serve.generated(seed={spec.space['seed']})",
        library=system.library,
        architecture=architecture,
    )
    return family, VariantSpace(system.vgraph)


@dataclass
class Workload:
    """A spec resolved into live objects plus its cache addresses.

    Task derivation is **lazy**: the cache keys are pure functions of
    the space's axes (O(axes)), so an exact cache hit never pays the
    O(selections) cost of deriving every selection's task — the
    10x-hit-latency contract depends on this.  ``tasks`` derives on
    first access and is only touched by jobs that actually run.
    """

    spec: JobSpec
    family: ProblemFamily
    space: VariantSpace
    explorer: Explorer
    job_key: str
    family_key: str
    selection_count: int
    _tasks: Optional[List[SelectionTask]] = field(
        default=None, repr=False
    )

    @property
    def tasks(self) -> List[SelectionTask]:
        """The task list (derived on first access)."""
        if self._tasks is None:
            spec = self.spec
            if spec.selection is None:
                self._tasks = tasks_from_space(self.family, self.space)
            else:
                units, origins = selection_units(self.space.vgraph)(
                    spec.selection
                )
                self._tasks = [
                    SelectionTask(
                        index=0,
                        selection=VariantSpace.selection_key(
                            spec.selection
                        ),
                        name=f"{self.family.name}.selection",
                        units=units,
                        origins=origins,
                    )
                ]
        return self._tasks


def build_workload(spec: JobSpec) -> Workload:
    """Build the family, space, explorer and cache keys of a job.

    Raises :class:`JobValidationError` when the selection names an
    unknown interface or cluster.
    """
    family, space = _build_space(spec)
    if spec.selection is None:
        target: Dict[str, object] = {"space": space_payload(space)}
        selection_count = space.count()
    else:
        interfaces = space.vgraph.interfaces
        for iface, cluster in spec.selection.items():
            _require(
                iface in interfaces,
                f"selection names unknown interface {iface!r}",
            )
            _require(
                cluster in interfaces[iface].cluster_names(),
                f"selection names unknown cluster {cluster!r} "
                f"for interface {iface!r}",
            )
        target = {"selection": dict(spec.selection)}
        selection_count = 1
    payload = {
        "family": family.canonical_payload(),
        "target": target,
        "explorer": dict(spec.explorer),
        "warm_start": spec.warm_start,
        "lineage_size": spec.lineage_size,
        "share_incumbent": spec.share_incumbent,
    }
    return Workload(
        spec=spec,
        family=family,
        space=space,
        explorer=build_explorer(spec.explorer),
        job_key=content_hash(payload),
        family_key=family_key(
            family.library, family.architecture, family.use_exclusion
        ),
        selection_count=selection_count,
    )


# ----------------------------------------------------------------------
# Result (de)serialization
# ----------------------------------------------------------------------
def mapping_payload(mapping: Optional[Mapping]) -> Optional[Dict[str, str]]:
    """A mapping as ``{unit: "hw" | "sw:<cpu>"}`` (None passes through)."""
    if mapping is None:
        return None
    return {
        unit: encode_target(target)
        for unit, target in sorted(mapping.assignment.items())
    }


def mapping_from_payload(payload: Dict[str, str]) -> Mapping:
    """Rebuild a :class:`Mapping` from its payload form."""
    assignment: Dict[str, Target] = {}
    for unit, text in payload.items():
        if text == "hw":
            assignment[unit] = Target.hw()
        elif text.startswith("sw:"):
            assignment[unit] = Target.sw(int(text[3:]))
        else:
            raise JobValidationError(
                f"unknown target encoding {text!r} for unit {unit!r}"
            )
    return Mapping(assignment)


def selection_payload(result: SelectionResult) -> Dict[str, object]:
    """One selection's canonical result record (no timing data)."""
    exploration = result.exploration
    return {
        "selection": dict(result.selection),
        "feasible": exploration.feasible,
        "cost": exploration.cost if exploration.feasible else None,
        "optimal": exploration.optimal,
        "nodes": exploration.nodes_explored,
        "evaluations": exploration.evaluations,
        "provenance": exploration.provenance,
        "warm_started": result.warm_started,
        "mapping": mapping_payload(
            exploration.mapping if exploration.feasible else None
        ),
    }


def job_result_payload(
    results: List[SelectionResult],
) -> Dict[str, object]:
    """The canonical result of a whole job.

    Contains only reproducible search outputs — an exact cache hit
    returns these bytes verbatim, so anything timing- or
    scheduling-dependent is banned here (it lives on the job record
    instead).
    """
    selections = [selection_payload(result) for result in results]
    feasible = [s for s in selections if s["feasible"]]
    best = (
        min(feasible, key=lambda s: (s["cost"], canonical_selection(s)))
        if feasible
        else None
    )
    return {
        "selections": selections,
        "best": best,
        "total_nodes": sum(s["nodes"] for s in selections),
        "total_evaluations": sum(s["evaluations"] for s in selections),
        "feasible_count": len(feasible),
    }


def canonical_selection(selection_record: Dict[str, object]) -> str:
    """Deterministic tie-break key for equal-cost selections."""
    return ",".join(
        f"{k}={v}"
        for k, v in sorted(selection_record["selection"].items())
    )


# ----------------------------------------------------------------------
# Job records
# ----------------------------------------------------------------------
#: Terminal job states; a job in one of these never changes again.
#: ``shed`` is admission control's refusal: the job waited past the
#: daemon's ``queue_deadline`` (or its own ``time_budget``) and never
#: ran at all — resubmission is safe and cheap by content addressing.
TERMINAL_STATES = frozenset({"done", "failed", "timeout", "shed"})

_JOB_IDS = itertools.count(1)


def ensure_job_ids_above(minimum: int) -> None:
    """Advance the job-id counter past ``minimum``.

    Called by a recovering engine after journal replay so fresh ids
    never collide with the recovered ones it is about to re-enqueue.
    """
    global _JOB_IDS
    current = next(_JOB_IDS)
    _JOB_IDS = itertools.count(max(current, minimum + 1))


@dataclass
class JobRecord:
    """One job's lifecycle: spec, state machine, events, result.

    States: ``queued → running → done | failed | timeout``, plus
    ``queued → shed`` when admission control refuses a stale job.
    Exact cache hits go ``queued → done`` without ever running.  The
    ``events`` list is the replayable SSE history; ``result`` holds
    the parsed canonical result payload once terminal.
    """

    spec: JobSpec
    workload: Workload
    job_id: str = field(
        default_factory=lambda: f"job-{next(_JOB_IDS):06d}"
    )
    state: str = "queued"
    cache_status: str = "miss"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    result_text: Optional[str] = None
    error: Optional[str] = None
    events: List[Dict[str, object]] = field(default_factory=list)

    def describe(self) -> Dict[str, object]:
        """The job's status view (``GET /jobs/<id>``)."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state,
            "cache": self.cache_status,
            "priority": self.spec.priority,
            "selections": self.workload.selection_count,
            "explorer": self.spec.explorer["name"],
        }
        if self.started is not None and self.finished is not None:
            payload["elapsed_seconds"] = round(
                self.finished - self.started, 6
            )
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload
