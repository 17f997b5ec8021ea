"""Design-space exploration.

Two interchangeable optimizers over :class:`SynthesisProblem`, both
built on the :class:`SearchExplorer` scaffold (candidate-target
generation, processor-symmetry breaking, node accounting, and the
delta-cost :class:`~repro.synth.state.SearchState`):

* :class:`ExhaustiveExplorer` — enumerates every mapping (with
  processor-symmetry breaking); ground truth for the others.
* :class:`BranchBoundExplorer` — depth-first search pruned by an
  admissible lower bound and by monotone partial-mapping
  infeasibility; provably optimal, far fewer nodes.  Accepts node/time
  budgets and a warm-start incumbent.  Each search frontier has one
  loop, an explicit-stack driver at the end of this module, which
  ``synth/checkpoint.py`` can snapshot and resume.  Single-processor
  joint problems are first solved exactly at the root by
  :mod:`repro.synth.pareto`, which then proves them with no tree.

Every explorer accepts ``incremental=False`` to run on the
full-recompute :class:`~repro.synth.state.ReferenceSearchState` (the
seed behavior) instead — benchmarks use this to *measure* the speedup
of the incremental evaluator rather than asserting it.  The reported
best mapping is always re-evaluated by the from-scratch reference
oracle, whatever path found it.

The synthesis *flows* (paper reproduction) are optimizer-agnostic —
bench X3 demonstrates the explorers find the same optimum on the
Table 1 space.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from .. import faults
from ..errors import SynthesisError
from . import pareto
from .backend import resolve_backend
from .checkpoint import (
    DFS_GROUP,
    DFS_NODE,
    DFS_PLAIN,
    SearchCheckpoint,
    decode_dfs_state,
    decode_heap_state,
    decode_mapping,
    encode_dfs_state,
    encode_heap_state,
    encode_mapping,
    problem_fingerprint,
)
from .cost import Evaluation, evaluate
from .mapping import Mapping, SynthesisProblem, Target
from .ordering import (
    STRONG_BRANCH_DEPTH,
    probe_targets,
    strong_branch,
    unit_order,
    validate_frontier,
    validate_ordering,
)
from .state import (
    EvictionLog,
    PathTrail,
    ReferenceSearchState,
    SearchState,
)

_SearchStateT = Union[SearchState, ReferenceSearchState]

_INF = float("inf")


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    problem: SynthesisProblem
    mapping: Optional[Mapping]
    evaluation: Optional[Evaluation]
    nodes_explored: int
    optimal: bool
    evaluations: int = 0
    provenance: str = ""
    #: The cost this run *proved* no complete mapping can beat:
    #: ``-inf`` for heuristic/truncated runs (no proof), the optimal
    #: cost for complete exact runs, and — under shared-incumbent
    #: pruning — the lowest pruning threshold used, so a fleet of
    #: searches can combine proofs (a member that got pruned by a
    #: foreign incumbent still certifies everything below that floor).
    proof_floor: float = float("-inf")
    #: Worker-crash/evaluator-fault retries this result absorbed on
    #: its way through a process pool (0 for in-process runs).  Honest
    #: operational metadata: deliberately *outside* the canonical
    #: result payload, which stays byte-identical whether or not a
    #: crash was recovered along the way.
    retries: int = 0
    #: Peak retained open-frontier size of the run (0 for DFS, whose
    #: open set is one frame of siblings per depth).
    #: Operational metadata like :attr:`retries` — outside the
    #: canonical payload; the serve layer exports the daemon-wide
    #: maximum as a ``/stats`` gauge.
    open_high_water: int = 0
    #: Open subtrees dropped by ``max_open`` frontier eviction.  Any
    #: nonzero count that compromised the proof is already reflected
    #: in ``optimal``/``proof_floor``/provenance; the raw count is
    #: operational metadata outside the canonical payload.
    evicted_subtrees: int = 0

    @property
    def feasible(self) -> bool:
        """True if a feasible mapping was found."""
        return self.evaluation is not None and self.evaluation.feasible

    @property
    def cost(self) -> float:
        """Total cost of the best mapping (inf if none)."""
        if not self.feasible:
            return float("inf")
        return self.evaluation.total_cost

    def require_feasible(self) -> "ExplorationResult":
        """Raise :class:`SynthesisError` when nothing feasible was found."""
        if not self.feasible:
            raise SynthesisError(
                f"no feasible implementation for problem "
                f"{self.problem.name!r}"
            )
        return self


class _BudgetExceeded(Exception):
    """Internal: node/time budget ran out mid-search."""


#: Interned targets — immutable value objects, so search nodes reuse
#: them instead of constructing dataclass instances per candidate.
_HW_TARGET = Target.hw()
_SW_TARGETS: List[Target] = []


def _sw_target(processor: int) -> Target:
    while len(_SW_TARGETS) <= processor:
        _SW_TARGETS.append(Target.sw(len(_SW_TARGETS)))
    return _SW_TARGETS[processor]


def _targets_from_used(
    problem: SynthesisProblem, unit: str, used: List[int]
) -> List[Target]:
    """Symmetry-broken targets given the sorted used-processor list.

    Identical processors make ``sw:0 / sw:1`` swaps equivalent; only
    one unused processor index (the one after the highest used) is
    offered in addition to the already-populated ones, and only while
    fewer than ``max_processors`` are in use.  The template limits how
    many processors a mapping uses, not their indices, so a unit fixed
    to ``sw:N`` with ``N >= max_processors`` still hosts software.
    """
    allowed_cpus = list(used)
    if len(used) < problem.architecture.max_processors:
        allowed_cpus.append(used[-1] + 1 if used else 0)
    entry = problem.entry(unit)
    result: List[Target] = []
    if entry.software is not None:
        result.extend(_sw_target(cpu) for cpu in allowed_cpus)
    if entry.hardware is not None:
        result.append(_HW_TARGET)
    if not result:
        raise SynthesisError(f"unit {unit!r} has no admissible target")
    return result


class Explorer:
    """Common interface of the optimizers."""

    def explore(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping] = None,
    ) -> ExplorationResult:
        """Search the mapping space of ``problem``.

        ``warm_start`` is an optional (possibly partial, possibly
        stale) mapping from a related problem — e.g. the neighboring
        selection of a variant space — used to seed the search.
        Explorers that cannot exploit it ignore it.
        """
        raise NotImplementedError


class SearchExplorer(Explorer):
    """Shared search scaffold.

    Owns candidate-target generation (with processor-symmetry
    breaking), search-state construction (incremental or reference),
    warm-start adaptation, node/evaluation accounting, and final
    re-evaluation of the best mapping by the reference oracle.
    """

    def __init__(
        self,
        incremental: bool = True,
        capacity_bound: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self.incremental = incremental
        self.capacity_bound = capacity_bound
        #: Evaluation backend of the search state: always the scalar
        #: kernel (``"python"``); the argument is validated so a
        #: request for the removed ``"numpy"`` backend fails loudly.
        self.backend = resolve_backend(backend)
        #: Optional *absolute* :func:`time.monotonic` deadline.  Not a
        #: constructor argument: callers that enforce a wall-clock
        #: deadline across many explorations (the serve engine's
        #: per-job budget threading into ``run_lineage``) set it on a
        #: per-lineage copy.  Deliberately outside every canonical
        #: job key — it is operational, like ``retries``.  Budgeted
        #: searches fold it into their :class:`_BudgetClock`;
        #: exhaustive runs poll it every 256 nodes and report a
        #: deadline-truncated, non-optimal result when it fires.
        self.deadline: Optional[float] = None

    # -- state ----------------------------------------------------------
    def _new_state(
        self,
        problem: SynthesisProblem,
        capacity_bound: Optional[bool] = None,
    ) -> _SearchStateT:
        if self.incremental:
            state = SearchState(
                problem,
                capacity_bound=(
                    self.capacity_bound
                    if capacity_bound is None
                    else capacity_bound
                ),
                backend=self.backend,
            )
        else:
            state = ReferenceSearchState(problem)
        for unit, target in problem.fixed.items():
            state.assign(unit, target)
        return state

    # -- candidates -----------------------------------------------------
    def state_targets(
        self,
        problem: SynthesisProblem,
        unit: str,
        state: _SearchStateT,
    ) -> List[Target]:
        """Admissible targets of ``unit`` in the state's partial mapping.

        Processor-symmetry broken (see :func:`_targets_from_used`); the
        used-processor set comes from the state's bucket index —
        O(allocated processors) instead of a scan over every assigned
        unit.
        """
        return _targets_from_used(problem, unit, state.used_processors())

    # -- warm starts ----------------------------------------------------
    def _warm_incumbent(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping],
    ) -> Tuple[Optional[Mapping], float]:
        """Reference-evaluated feasible incumbent from a warm start.

        Adapts the warm mapping to this problem's unit set: keeps every
        admissible target it has for a problem unit, completes missing
        units (hardware first — it never violates capacity — else
        processor 0), and lets ``problem.fixed`` override.  Returns
        ``(None, inf)`` when no warm start was given or the adapted
        mapping is infeasible.
        """
        if warm_start is None:
            return None, float("inf")
        source = warm_start.restricted_to(problem.units).assignment
        assignment: Dict[str, Target] = {}
        for unit in problem.units:
            entry = problem.entry(unit)
            target = source.get(unit)
            if target is not None:
                if target.is_software and entry.software is not None:
                    assignment[unit] = target
                    continue
                if target.is_hardware and entry.hardware is not None:
                    assignment[unit] = target
                    continue
            if entry.hardware is not None:
                assignment[unit] = Target.hw()
            else:
                assignment[unit] = Target.sw(0)
        assignment.update(problem.fixed)
        mapping = Mapping(assignment)
        result = evaluate(problem, mapping)
        if result.feasible:
            return mapping, result.total_cost
        return None, float("inf")

    # -- result assembly ------------------------------------------------
    def _finish(
        self,
        problem: SynthesisProblem,
        mapping: Optional[Mapping],
        nodes: int,
        evaluations: int,
        optimal: bool,
        provenance: str,
        proof_floor: float = float("-inf"),
        open_high_water: int = 0,
        evicted_subtrees: int = 0,
    ) -> ExplorationResult:
        """Re-evaluate the best mapping with the reference oracle."""
        evaluation = (
            evaluate(problem, mapping) if mapping is not None else None
        )
        return ExplorationResult(
            problem=problem,
            mapping=mapping,
            evaluation=evaluation,
            nodes_explored=nodes,
            optimal=optimal,
            evaluations=evaluations,
            provenance=provenance,
            proof_floor=proof_floor,
            open_high_water=open_high_water,
            evicted_subtrees=evicted_subtrees,
        )


class ExhaustiveExplorer(SearchExplorer):
    """Complete enumeration; optimal by construction.

    Ground truth for the other explorers, so it never prunes — every
    symmetry-distinct mapping is visited (``warm_start`` is ignored).
    An externally set :attr:`deadline` is the one thing that can stop
    it early; a truncated run honestly reports ``optimal=False`` with
    a ``(deadline-truncated)`` provenance and no proof floor.

    The walk keeps its own explicit stack (one frame per decided unit)
    and shares no search loop with the branch-and-bound drivers it
    checks; depth is bounded by memory, not by the interpreter's
    recursion limit.
    """

    def explore(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping] = None,
    ) -> ExplorationResult:
        free = problem.free_units
        # Enumeration never reads the lower bound — skip its upkeep.
        state = self._new_state(problem, capacity_bound=False)
        best: Optional[Mapping] = None
        best_cost = float("inf")
        evaluations = 0
        state_targets = self.state_targets
        clock = _BudgetClock(None, None, None, deadline=self.deadline)
        # Frame ``[unit, targets, next position]`` per decided depth;
        # the child at ``position - 1`` is the one assigned on the state.
        stack: List[list] = []
        truncated = False
        try:
            while True:
                clock.tick()
                depth = len(stack)
                if depth == len(free):
                    evaluations += 1
                    feasible, cost = state.leaf()
                    if feasible and cost < best_cost:
                        best, best_cost = state.to_mapping(), cost
                else:
                    unit = free[depth]
                    targets = state_targets(problem, unit, state)
                    stack.append([unit, targets, 0])
                # Step to the next sibling, backtracking out of exhausted
                # frames; an empty stack means the walk is complete.
                while stack:
                    frame = stack[-1]
                    unit, targets, position = frame
                    if position:
                        state.unassign(unit)
                    if position < len(targets):
                        state.assign(unit, targets[position])
                        frame[2] = position + 1
                        break
                    stack.pop()
                else:
                    break
        except _BudgetExceeded:
            truncated = True
        return self._finish(
            problem,
            best,
            clock.nodes,
            evaluations,
            optimal=not truncated,
            provenance=(
                "exhaustive (deadline-truncated)"
                if truncated
                else "exhaustive"
            ),
            proof_floor=float("-inf") if truncated else best_cost,
        )


#: Refresh the fleet-wide shared incumbent every this-many nodes: the
#: read takes a cross-process lock, and a stale value is merely a
#: conservative (still valid) pruning threshold.
_SHARED_REFRESH_MASK = 63


class _BudgetClock:
    """Node accounting + budget/shared-incumbent upkeep.

    One implementation shared by every search frontier, so truncation
    semantics can never drift between them: ``tick()`` counts the
    entered node, raises :class:`_BudgetExceeded` on the first
    over-budget node (the boundary itself is inclusive), polls the
    deadline every 256 nodes, and refreshes the fleet-wide shared
    floor every :data:`_SHARED_REFRESH_MASK` + 1 nodes.
    ``shared_floor`` only ever decreases, so the last refresh is the
    tightest foreign threshold any pruning step used.

    ``deadline`` is an *absolute* :func:`time.monotonic` instant (the
    serve layer's in-lineage job deadline); it composes with the
    relative ``time_budget`` by taking whichever expires first, and
    shares the 256-node poll granularity.

    The clock also carries the run's resource-governance gauges:
    ``open_high_water`` (peak retained open-frontier size) and the
    :class:`~repro.synth.state.EvictionLog` of ``max_open`` frontier
    evictions, whose floor is what keeps ``proof_floor`` honest when
    memory pressure drops open subtrees.
    """

    __slots__ = (
        "nodes",
        "shared_floor",
        "open_high_water",
        "evictions",
        "_budget",
        "_deadline",
        "_shared",
    )

    def __init__(
        self, node_budget, time_budget, shared, deadline=None
    ) -> None:
        self.nodes = 0
        self._budget = node_budget if node_budget is not None else _INF
        relative = (
            time.monotonic() + time_budget
            if time_budget is not None
            else None
        )
        if relative is None:
            self._deadline = deadline
        elif deadline is None:
            self._deadline = relative
        else:
            self._deadline = min(relative, deadline)
        self._shared = shared
        self.shared_floor = (
            shared.get() if shared is not None else float("inf")
        )
        self.open_high_water = 0
        self.evictions = EvictionLog()

    def tick(self) -> int:
        """Count one entered node; returns the new node count."""
        nodes = self.nodes = self.nodes + 1
        if nodes > self._budget:
            raise _BudgetExceeded
        if (
            self._deadline is not None
            and (nodes & 255) == 0
            and time.monotonic() > self._deadline
        ):
            raise _BudgetExceeded
        if self._shared is not None and (nodes & _SHARED_REFRESH_MASK) == 0:
            self.shared_floor = self._shared.get()
        return nodes

    def note_open(self, count: int) -> None:
        """Track the peak retained open-frontier size."""
        if count > self.open_high_water:
            self.open_high_water = count


def _cap_frontier(entries, clock, max_open) -> None:
    """Deterministic worst-bound eviction of a sorted-tuple frontier.

    ``entries`` is a heap of ``(bound, tie, ...)`` tuples (ties are
    unique push counters, so sorting never compares payloads).  When
    the heap exceeds the cap, it is sorted and the worst-bound tail
    evicted — a sorted list is a valid heap, so callers keep popping
    untouched.  Evicted bounds land in the clock's
    :class:`EvictionLog`, which is what keeps the run's
    ``proof_floor`` honest.

    The fault harness's ``search`` scope hooks in here: an ``evict``
    op forces the cap down at a chosen node, and an ``oom`` op
    simulates an allocation failure — answered by shedding the worst
    half of the frontier and carrying on, which *is* the production
    graceful-degradation path under real memory pressure.
    """
    cap = max_open
    oom = False
    try:
        forced = faults.on_search_frontier(clock.nodes)
    except MemoryError:
        oom = True
    if oom:
        # Halved outside the handler, whose live traceback pins the
        # exhausted heap: nothing is allocated while it runs.
        forced = max(1, len(entries) // 2)
    if forced is not None:
        cap = forced if cap is None else min(cap, forced)
    if cap is not None and len(entries) > cap:
        entries.sort()
        clock.evictions.record(entry[0] for entry in entries[cap:])
        del entries[cap:]


class BranchBoundExplorer(SearchExplorer):
    """Depth-first search with admissible lower-bound pruning.

    The incremental path additionally prunes on partial-mapping
    infeasibility (loads are monotone along a search path, so a
    violated partial has no feasible completion) — the optimum is
    unchanged, the tree is much smaller.

    ``node_budget`` / ``time_budget`` (seconds) truncate the search
    tree; a truncated run reports ``optimal=False`` and the best
    incumbent found so far.  ``warm_start`` seeds the incumbent,
    tightening pruning from the first node.  ``capacity_bound=False``
    falls back to the capacity-blind basic bound (the pre-knapsack
    behavior) — benchmarks use it to measure the bound-tightness win.

    **Root presolve.**  A fresh capacity-aware incremental search on
    one processor with live exclusion (some interface with two or more
    software-capable clusters) first runs the exact Pareto program of
    :mod:`repro.synth.pareto`.  Its reference-feasible optimum becomes
    the incumbent and proves itself: the run returns ``optimal=True``,
    ``proof_floor`` equal to the cost, ``nodes_explored == 0`` and
    ``evaluations == 0``, with ``pareto`` among the provenance tags
    (``branch_and_bound[adaptive,pareto]``).  A root proof builds no
    tree, so it costs no node of ``node_budget`` and holds even when
    a shared incumbent reports a floor below it.  Per-selection,
    ``use_exclusion=False``, multi-processor, ``capacity_bound=False``,
    ``incremental=False`` and resumed searches run the tree as before,
    and so does any problem whose fronts outgrow
    :data:`~repro.synth.pareto.MAX_FRONT`.

    ``ordering`` picks the branching order (:mod:`repro.synth.ordering`):

    * ``"static"`` — fixed descending-hardware-cost unit order, targets
      in generation order (the historical behavior);
    * ``"density"`` — forced units first, flexible units by descending
      knapsack density; targets still in generation order;
    * ``"adaptive"`` (default) — density unit order with shallow-depth
      strong-branching re-sorts, plus value ordering while hunting the
      first incumbent: each unit's candidate targets are probed
      through the incremental bound and descended
      cheapest-bound-first, so the first dive lands a near-optimal
      leaf; children whose probed bound already meets the incumbent
      are skipped without becoming nodes.  Once an incumbent exists
      (found or warm-started) the deep probes stop — entry-check
      pruning against it is strictly cheaper.

    ``frontier`` picks the search *frontier* — which open node is
    expanded next — independently of ``ordering`` (which ranks a
    node's children):

    * ``"dfs"`` (default) — the depth-first walk; byte-identical to
      the pre-frontier behavior in results, node counts and
      provenance;
    * ``"best-first"`` — a priority queue keyed on each open node's
      incremental lower bound (push-order tie-break, so the expansion
      order is deterministic).  Nodes are snapshotted as decision
      paths and restored by :class:`~repro.synth.state.PathTrail`'s
      net-delta restore; the search stops — with a complete optimality
      proof — as soon as the cheapest open bound meets the incumbent,
      so it expands only nodes whose bound beats the optimum.

    ``max_open`` bounds the retained open frontier of best-first (DFS
    keeps one frame of siblings per depth and ignores the cap).  When
    the open set would exceed it, the worst-bound nodes are evicted
    *deterministically* and their bounds recorded: the run degrades
    gracefully instead of aborting, ``proof_floor`` drops to the
    minimum evicted bound (everything below it is still certified),
    and ``optimal`` survives exactly when the final cost meets that
    floor — otherwise the provenance says ``(memory-truncated)``
    rather than silently losing optimality.  Peak retained frontier
    size and eviction counts ride the result as
    ``open_high_water``/``evicted_subtrees``.

    Node/time budgets, warm starts, incumbent sharing, ``optimal``
    and ``proof_floor`` semantics are uniform across frontiers; a
    non-default frontier is recorded in the provenance tag (e.g.
    ``branch_and_bound[adaptive,best-first]``).

    ``shared_incumbent`` accepts an object with ``get()``/``offer(cost)``
    (e.g. :class:`repro.synth.parallel.SharedIncumbent`): the search
    prunes against the *fleet-wide* best cost published by concurrent
    searches and publishes its own improvements.  Every pruning
    threshold it ever uses is a then-current upper bound, so the search
    still proves there is no completion cheaper than
    ``min(own best, lowest foreign cost seen)``; ``optimal`` is only
    claimed when the returned cost itself meets that proof.
    """

    #: Duck-typing marker for the parallel dispatcher: worker-side
    #: copies of this explorer may be handed a shared incumbent.
    accepts_shared_incumbent = True

    def __init__(
        self,
        incremental: bool = True,
        node_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        capacity_bound: bool = True,
        ordering: str = "adaptive",
        frontier: str = "dfs",
        shared_incumbent=None,
        backend: Optional[str] = None,
        max_open: Optional[int] = None,
    ) -> None:
        super().__init__(
            incremental=incremental,
            capacity_bound=capacity_bound,
            backend=backend,
        )
        if node_budget is not None and node_budget < 1:
            raise SynthesisError("node_budget must be >= 1")
        if time_budget is not None and time_budget <= 0:
            raise SynthesisError("time_budget must be positive")
        if max_open is not None and max_open < 1:
            raise SynthesisError("max_open must be >= 1")
        self.node_budget = node_budget
        self.time_budget = time_budget
        self.ordering = validate_ordering(ordering)
        self.frontier = validate_frontier(frontier)
        self.shared_incumbent = shared_incumbent
        self.max_open = max_open

    def explore(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping] = None,
        checkpoint=None,
    ) -> ExplorationResult:
        """Search the mapping space of ``problem``.

        Every frontier runs on one explicit-stack driver, so search
        depth is bounded by memory, not by the interpreter's recursion
        limit.  ``checkpoint`` is an optional
        :class:`~repro.synth.checkpoint.Checkpointer`: the driver then
        emits resumable snapshots periodically and on completion or
        budget exhaustion, and resumes from ``checkpoint.resume`` when
        set (see ``synth/checkpoint.py``).  Snapshots never change the
        search: results and node counts are byte-identical with or
        without one.
        """
        search = _Search(self, problem, warm_start, checkpoint)
        if self.frontier == "dfs":
            truncated = _drive_dfs(search)
        else:
            truncated = _drive_heap(search)
        # Foreign thresholds can cut subtrees our own incumbent would
        # have kept, and ``max_open`` eviction can drop open subtrees
        # whose bounds were still below the returned cost; the
        # per-problem optimality claim survives only when that cost
        # meets every threshold used *and* every evicted bound.  An
        # eviction whose bound the final cost does meet loses nothing —
        # graceful degradation, not a silent lie.  A root proof ran no
        # tree, so no threshold or eviction touched it: it certifies
        # the run on its own.
        clock, best_cost = search.clock, search.best_cost
        evicted_floor = clock.evictions.floor
        root_proved = search.root_proved
        proved = root_proved or (
            not truncated
            and best_cost <= clock.shared_floor
            and best_cost <= evicted_floor
        )
        memory_truncated = not truncated and evicted_floor < best_cost
        if root_proved:
            proof_floor = best_cost
        elif truncated:
            proof_floor = float("-inf")
        else:
            proof_floor = min(best_cost, clock.shared_floor, evicted_floor)
        return self._finish(
            search.problem,
            search.best,
            clock.nodes,
            search.evaluations,
            optimal=proved,
            provenance=self._provenance(
                search.warm_started,
                search.shared,
                truncated,
                proved,
                memory_truncated,
                root_proved,
            ),
            proof_floor=proof_floor,
            open_high_water=clock.open_high_water,
            evicted_subtrees=clock.evictions.count,
        )

    def _provenance(
        self,
        warm_started: bool,
        shared,
        truncated: bool,
        proved: bool,
        memory_truncated: bool = False,
        root_proved: bool = False,
    ) -> str:
        """The uniform provenance string of every frontier.

        ``frontier="dfs"`` reproduces the pre-frontier strings byte
        for byte; non-default frontiers join the tag list (e.g.
        ``branch_and_bound[adaptive,best-first]``).
        ``(memory-truncated)`` marks a run whose ``max_open`` evictions
        dropped a subtree the proof needed — the result may still be
        the optimum, but the run can no longer certify it.  ``pareto``
        joins the tags when the root presolve proved the optimum.
        """
        tags = []
        if self.ordering != "static":
            tags.append(self.ordering)
        if self.frontier != "dfs":
            tags.append(self.frontier)
        if root_proved:
            tags.append("pareto")
        provenance = "branch_and_bound"
        if tags:
            provenance += f"[{','.join(tags)}]"
        if warm_started:
            provenance += "+warm_start"
        if shared is not None:
            provenance += "+shared_incumbent"
            if not truncated and not proved and not memory_truncated:
                provenance += " (pruned by fleet incumbent)"
        if truncated:
            provenance += " (budget-truncated)"
        elif memory_truncated:
            provenance += " (memory-truncated)"
        return provenance


# ----------------------------------------------------------------------
# The frontier drivers
# ----------------------------------------------------------------------
class _Search:
    """The live context of one branch-and-bound run.

    Built once per :meth:`BranchBoundExplorer.explore` call: the unit
    order, the search state, the warm-start incumbent (published to
    the fleet when sharing), the budget clock, and — when a
    checkpointer resumes — the recorded counts, gauges and incumbent
    of the earlier segment.  The depth-first driver keeps the incumbent
    in locals while it runs and writes it back here before every
    snapshot and when it returns.
    """

    def __init__(self, explorer, problem, warm_start, checkpoint) -> None:
        self.explorer = explorer
        self.problem = problem
        self.free = unit_order(problem, problem.free_units, explorer.ordering)
        self.state = state = explorer._new_state(problem)
        self.best, self.best_cost = explorer._warm_incumbent(
            problem, warm_start
        )
        self.shared = explorer.shared_incumbent
        if self.shared is not None and self.best is not None:
            self.shared.offer(self.best_cost)
        self.clock = _BudgetClock(
            explorer.node_budget,
            explorer.time_budget,
            self.shared,
            deadline=explorer.deadline,
        )
        self.evaluations = 0
        self.warm_started = self.best is not None
        self.adaptive = explorer.ordering == "adaptive"
        self.prune_infeasible = state.can_prune_infeasible
        self.total = len(self.free)
        self.checkpoint = checkpoint
        self.resume = None
        #: Node count of the next periodic snapshot (``inf``: none).
        self.due_at = _INF
        #: A proven lower bound on the optimum from the root presolve
        #: (``-inf``: none).  An incumbent that meets it is optimal, and
        #: the drivers then start with an empty frontier.
        self.root_floor = -_INF
        if checkpoint is not None:
            self.due_at = checkpoint.next_due()
            if checkpoint.resume is not None:
                self._resume(checkpoint.resume)
        if self.resume is None:
            self._presolve()
        self.root_proved = self.best_cost <= self.root_floor

    def _presolve(self) -> None:
        """Solve the problem at the root with the Pareto program.

        Runs only where :mod:`repro.synth.pareto` is exact and the tree
        would read the capacity-aware bound: the incremental state, one
        processor, and exclusion live (some interface with two or more
        software-capable clusters, recorded by the bound's setup).
        Per-selection, ``use_exclusion=False`` and multi-processor
        problems keep the tree unchanged.  A reference-feasible optimum
        becomes the incumbent (no evaluation is counted, as no leaf is
        entered) and its cost the root floor.
        """
        explorer, problem = self.explorer, self.problem
        if not (
            explorer.incremental
            and explorer.capacity_bound
            and self.state.exclusion_live
            and problem.architecture.max_processors == 1
        ):
            return
        solution = pareto.solve(problem)
        if solution is None:
            return
        if not evaluate(problem, solution.mapping).feasible:
            return
        if solution.cost < self.best_cost:
            self.best, self.best_cost = solution.mapping, solution.cost
            if self.shared is not None:
                self.shared.offer(solution.cost)
        self.root_floor = solution.cost

    @cached_property
    def fingerprint(self) -> str:
        """The problem fingerprint, hashed once and only when read."""
        return problem_fingerprint(self.problem)

    def _resume(self, resume: SearchCheckpoint) -> None:
        """Adopt an earlier segment's counts, gauges and incumbent."""
        explorer = self.explorer
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
        if resume.fingerprint != self.fingerprint:
            raise SynthesisError(
                f"checkpoint does not belong to problem "
                f"{self.problem.name!r} (problem fingerprint mismatch)"
            )
        clock = self.clock
        clock.nodes = resume.nodes
        clock.open_high_water = resume.open_high_water
        clock.evictions = EvictionLog(
            resume.evicted_subtrees, resume.evicted_floor
        )
        self.evaluations = resume.evaluations
        self.warm_started = resume.warm_started
        if resume.best_cost < self.best_cost:
            self.best_cost = resume.best_cost
            self.best = decode_mapping(resume.best_mapping)
            if self.shared is not None and self.best is not None:
                self.shared.offer(self.best_cost)
        # The recorded floor only ever tightens the live one; min keeps
        # both segments' pruning thresholds honest.
        if resume.shared_floor < clock.shared_floor:
            clock.shared_floor = resume.shared_floor
        self.resume = resume

    def emit(self, frontier_state, nodes: int, complete: bool) -> float:
        """Hand one snapshot to the checkpointer.

        Returns the node count at which the next periodic snapshot is
        due, which the calling driver keeps in a local.
        """
        clock = self.clock
        self.checkpoint.emit(
            SearchCheckpoint(
                frontier=self.explorer.frontier,
                ordering=self.explorer.ordering,
                fingerprint=self.fingerprint,
                nodes=nodes,
                evaluations=self.evaluations,
                best_cost=self.best_cost,
                best_mapping=encode_mapping(self.best),
                warm_started=self.warm_started,
                shared_floor=clock.shared_floor,
                complete=complete,
                frontier_state=frontier_state,
                open_high_water=clock.open_high_water,
                evicted_subtrees=clock.evictions.count,
                evicted_floor=clock.evictions.floor,
            )
        )
        self.due_at = self.checkpoint.next_due()
        return self.due_at

    def offer_leaf(self) -> None:
        """Evaluate the applied full assignment as a leaf."""
        self.evaluations += 1
        feasible, cost = self.state.leaf()
        if feasible and cost < self.best_cost:
            self.best, self.best_cost = self.state.to_mapping(), cost
            if self.shared is not None:
                self.shared.offer(cost)


def _probe(search: _Search, state_targets, depth: int):
    """The next unit and its probed ``(bound, index, target)`` children:
    strong branching near the root under ``adaptive``, a value-ordering
    probe of the next undecided unit otherwise.  ``state_targets`` is
    the explorer's bound method, fetched once per search."""
    state, free = search.state, search.free
    assignment = state.assignment
    if search.adaptive and depth < STRONG_BRANCH_DEPTH:
        undecided = [u for u in free if u not in assignment]
        return strong_branch(state, search.problem, undecided, state_targets)
    unit = next(u for u in free if u not in assignment)
    return unit, probe_targets(
        state, unit, state_targets(search.problem, unit, state)
    )


def _drive_dfs(search: _Search) -> bool:
    """The depth-first frontier; returns the truncation flag.

    An explicit stack of frames (shapes in ``checkpoint.py``) replays
    the depth-first recursion: each entered node pushes one frame of
    children, and the top frame yields the next child.  Every child
    counts as a node and meets the limit of the moment it is reached.
    While ``adaptive`` hunts the first incumbent, children are probed
    (strong branching + value ordering) and skipped without becoming
    nodes once their probed bound meets the incumbent.  Otherwise they
    come in unit order, and once a limit exists the siblings are scored
    in one non-mutating pass, so a pruned child is never assigned.
    ``applied`` lists the units of the decision path on the state; a
    frame's parent is always a prefix of it, so entering a child
    unwinds to the frame's depth and assigns one decision.
    """
    problem, state, free, clock = (
        search.problem,
        search.state,
        search.free,
        search.clock,
    )
    shared, checkpoint = search.shared, search.checkpoint
    best, best_cost = search.best, search.best_cost
    evaluations = search.evaluations
    state_targets = search.explorer.state_targets
    assign, unassign = state.assign, state.unassign
    score_candidates = state.score_candidates
    tick = clock.tick
    adaptive = search.adaptive
    prune_infeasible = search.prune_infeasible
    total = search.total
    due_at = search.due_at
    applied: List[str] = []
    if search.resume is not None:
        stack, deepest = decode_dfs_state(search.resume.frontier_state)
        for unit, target in deepest:
            assign(unit, target)
            applied.append(unit)
    elif search.root_proved:
        stack = []
    else:
        stack = [(DFS_NODE, 0, None, False, None)]
    truncated = False
    try:
        while stack:
            frame = stack[-1]
            kind = frame[0]
            # ``entered`` ends as the depth of the node to expand, or -1.
            if kind == DFS_PLAIN:
                # The siblings run in an inner loop, like the recursion's
                # ``for``: a pruned child costs no frame round trip.
                _, depth, unit, targets, scored, pos, start = frame
                while len(applied) > depth:
                    unassign(applied.pop())
                count = len(targets)
                entered = -1
                while pos < count:
                    nodes = tick()
                    target = targets[pos]
                    pos += 1
                    floor = clock.shared_floor
                    limit = best_cost if best_cost < floor else floor
                    if limit < _INF:
                        if scored is None:
                            scored = frame[4] = score_candidates(unit, targets)
                        bound, feasible = scored[pos - 1]
                        if bound < limit and (
                            feasible or not prune_infeasible
                        ):
                            assign(unit, target)
                            entered = depth + 1
                    else:
                        assign(unit, target)
                        if not prune_infeasible or state.feasible:
                            entered = depth + 1
                        else:
                            unassign(unit)
                    # Leave to expand an entered child, or to snapshot.
                    if entered >= 0 or nodes >= due_at:
                        break
                else:
                    stack.pop()
                    continue
                frame[5] = pos
                if entered >= 0:
                    applied.append(unit)
                    start += 1
            elif kind == DFS_GROUP:
                _, depth, unit, scored, pos = frame
                floor = clock.shared_floor
                count = len(scored)
                while pos < count:
                    bound, _index, target = scored[pos]
                    if bound < best_cost and bound < floor:
                        break
                    pos += 1
                else:
                    stack.pop()
                    continue
                frame[4] = pos + 1
                nodes = tick()
                while len(applied) > depth:
                    unassign(applied.pop())
                assign(unit, target)
                applied.append(unit)
                entered = depth + 1
                start = 0
            else:
                nodes = tick()
                stack.pop()
                _, entered, pair, checked, _bound = frame
                start = 0
                if entered:
                    while len(applied) >= entered:
                        unassign(applied.pop())
                    assign(pair[0], pair[1])
                    applied.append(pair[0])
                if not checked:
                    # The adaptive entry reads the bound unconditionally
                    # (an ``inf`` bound prunes), the others once a limit
                    # exists.
                    floor = clock.shared_floor
                    limit = best_cost if best_cost < floor else floor
                    if (adaptive or limit < _INF) and (
                        state.lower_bound() >= limit
                    ):
                        entered = -1
                    elif prune_infeasible and not state.feasible:
                        entered = -1
            if entered == total:
                evaluations += 1
                feasible, cost = state.leaf()
                if feasible and cost < best_cost:
                    best, best_cost = state.to_mapping(), cost
                    if shared is not None:
                        shared.offer(cost)
            elif entered >= 0:
                if adaptive and best is None:
                    unit, scored = _probe(search, state_targets, entered)
                    stack.append([DFS_GROUP, entered, unit, scored, 0])
                else:
                    # The first undecided unit in ``free`` order; it lies
                    # past the parent's own unit (``start``) when the
                    # parent came from the same kind of frame.
                    assignment = state.assignment
                    while free[start] in assignment:
                        start += 1
                    unit = free[start]
                    targets = state_targets(problem, unit, state)
                    stack.append(
                        [DFS_PLAIN, entered, unit, targets, None, 0, start]
                    )
            if nodes >= due_at:
                search.best, search.best_cost = best, best_cost
                search.evaluations = evaluations
                frontier_state = encode_dfs_state(
                    stack, applied, state.assignment
                )
                due_at = search.emit(frontier_state, nodes, False)
    except _BudgetExceeded:
        # The in-flight node was counted by tick() but never entered:
        # leave it open on top and record the pre-tick count, so a
        # resumed run's total matches an uninterrupted one exactly.
        # ``kind`` and ``pos`` still describe the top frame's child.
        truncated = True
        if kind == DFS_PLAIN:
            frame[5] = pos
        elif kind == DFS_GROUP:
            bound, _index, target = scored[pos]
            stack.append((DFS_NODE, depth + 1, (unit, target), True, bound))
    search.best, search.best_cost = best, best_cost
    search.evaluations = evaluations
    if checkpoint is not None:
        frontier_state = encode_dfs_state(stack, applied, state.assignment)
        nodes = clock.nodes - 1 if truncated else clock.nodes
        search.emit(frontier_state, nodes, not truncated)
    return truncated


def _drive_heap(search: _Search) -> bool:
    """The best-first frontier; returns the truncation flag.

    Every open node rides the heap as ``(bound, tie, path)``: the
    bound probed when its parent pushed it, a monotone push counter
    (equal bounds pop in deterministic push order), and the decision
    path that :class:`PathTrail` replays to restore the node's search
    state.  The heap starts as the root (or as the heap a resumed blob
    froze).  Expanding the cheapest bound first means the moment the
    cheapest open bound meets the incumbent, *every* open node is
    prunable — the search returns with a complete optimality proof
    after expanding only nodes whose bound beats the optimum.  With
    ``max_open`` set, the heap is truncated to the cheapest
    ``max_open`` entries after every expansion — streaming top-K
    eviction is exact, an evicted entry could never have re-entered a
    smaller frontier.
    """
    state, clock = search.state, search.clock
    if search.resume is not None:
        heap, pushes = decode_heap_state(search.resume.frontier_state)
    elif search.root_proved:
        heap, pushes = [], 0
    else:
        dead_root = search.prune_infeasible and not state.feasible
        root_bound = _INF if dead_root else state.lower_bound()
        heap, pushes = [(root_bound, 0, ())], 0
    restore = PathTrail(state).restore
    state_targets = search.explorer.state_targets
    max_open, total = search.explorer.max_open, search.total
    truncated = False
    popped = None
    try:
        while heap:
            popped = heapq.heappop(heap)
            bound, _tie, path = popped
            best_cost, floor = search.best_cost, clock.shared_floor
            if bound >= (best_cost if best_cost < floor else floor):
                # The heap is bound-ordered: every other open node is
                # at least as expensive, so nothing left can beat the
                # incumbent — the proof is complete.  The popped node
                # is never restored or expanded, so it does not count
                # as a search node.
                break
            nodes = clock.tick()
            restore(path)
            if len(path) == total:
                search.offer_leaf()
            else:
                unit, scored = _probe(search, state_targets, len(path))
                best_cost, floor = search.best_cost, clock.shared_floor
                limit = best_cost if best_cost < floor else floor
                for child_bound, _index, target in scored:
                    # Probed child bounds are admissible for the child
                    # subtree; one already at the incumbent (or fleet
                    # floor) never enters the frontier.
                    if child_bound < limit:
                        pushes += 1
                        child = path + ((unit, target),)
                        heapq.heappush(heap, (child_bound, pushes, child))
                # A sorted list is a valid min-heap, so capping (which
                # sorts in place) preserves the pop order.
                _cap_frontier(heap, clock, max_open)
                clock.note_open(len(heap))
            if nodes >= search.due_at:
                frontier_state = encode_heap_state(heap, pushes)
                search.emit(frontier_state, nodes, False)
    except _BudgetExceeded:
        truncated = True
        heapq.heappush(heap, popped)
    if search.checkpoint is not None:
        frontier_state = encode_heap_state(heap if truncated else [], pushes)
        nodes = clock.nodes - 1 if truncated else clock.nodes
        search.emit(frontier_state, nodes, not truncated)
    return truncated
