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
  budgets and a warm-start incumbent.

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
from typing import Dict, List, Mapping as TMapping, Optional, Tuple, Union

from .. import faults
from ..errors import SynthesisError
from .backend import resolve_backend
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
    #: Peak retained open-frontier size of the run (0 for frontiers
    #: that keep their open set on the call stack, i.e. plain DFS).
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
    the first unused processor index is offered in addition to the
    already-populated ones.
    """
    cap = problem.architecture.max_processors
    allowed_cpus = [cpu for cpu in used if cpu < cap]
    fresh = (used[-1] + 1) if used else 0
    if fresh < cap and fresh not in allowed_cpus:
        allowed_cpus.append(fresh)
    entry = problem.entry(unit)
    result: List[Target] = []
    if entry.software is not None:
        result.extend(_sw_target(cpu) for cpu in allowed_cpus)
    if entry.hardware is not None:
        result.append(_HW_TARGET)
    if not result:
        raise SynthesisError(f"unit {unit!r} has no admissible target")
    return result


def _candidate_targets(
    problem: SynthesisProblem,
    unit: str,
    partial: TMapping[str, Target],
) -> Tuple[Target, ...]:
    """Admissible targets with processor-symmetry breaking."""
    used = sorted(
        {
            target.processor
            for target in partial.values()
            if target.is_software
        }
    )
    return tuple(_targets_from_used(problem, unit, used))


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
        dynamic_pool: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        self.incremental = incremental
        self.capacity_bound = capacity_bound
        self.dynamic_pool = dynamic_pool
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
                dynamic_pool=self.dynamic_pool,
                backend=self.backend,
            )
        else:
            state = ReferenceSearchState(problem)
        for unit, target in problem.fixed.items():
            state.assign(unit, target)
        return state

    # -- candidates -----------------------------------------------------
    @staticmethod
    def candidate_targets(
        problem: SynthesisProblem,
        unit: str,
        partial: TMapping[str, Target],
    ) -> Tuple[Target, ...]:
        """Admissible targets of ``unit`` given the partial mapping."""
        return _candidate_targets(problem, unit, partial)

    def state_targets(
        self,
        problem: SynthesisProblem,
        unit: str,
        state: _SearchStateT,
    ) -> List[Target]:
        """Admissible targets read from the search state.

        Same symmetry-broken candidate list (and order) as
        :meth:`candidate_targets`, but the used-processor set comes
        from the state's bucket index — O(allocated processors)
        instead of a scan over every assigned unit.
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

        def recurse(index: int) -> None:
            nonlocal best, best_cost, evaluations
            clock.tick()
            if index == len(free):
                evaluations += 1
                feasible, cost = state.leaf()
                if feasible and cost < best_cost:
                    best, best_cost = state.to_mapping(), cost
                return
            unit = free[index]
            for target in state_targets(problem, unit, state):
                state.assign(unit, target)
                recurse(index + 1)
                state.unassign(unit)

        truncated = False
        try:
            recurse(0)
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
        self._budget = node_budget
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

    def tick(self) -> None:
        self.nodes += 1
        if self._budget is not None and self.nodes > self._budget:
            raise _BudgetExceeded
        if (
            self._deadline is not None
            and (self.nodes & 255) == 0
            and time.monotonic() > self._deadline
        ):
            raise _BudgetExceeded
        if (
            self._shared is not None
            and (self.nodes & _SHARED_REFRESH_MASK) == 0
        ):
            self.shared_floor = self._shared.get()

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

    ``node_budget`` / ``time_budget`` (seconds) truncate the search;
    a truncated run reports ``optimal=False`` and the best incumbent
    found so far.  ``warm_start`` seeds the incumbent, tightening
    pruning from the first node.  ``capacity_bound=False`` falls back
    to the capacity-blind basic bound (the pre-knapsack behavior) —
    benchmarks use it to measure the bound-tightness win.

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

    ``dynamic_pool=False`` freezes the capacity bound's per-interface
    cluster election to the static choice (the PR 3 pools).

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
      so it expands only nodes whose bound beats the optimum;
    * ``"hybrid"`` — a greedy depth-first dive (always following the
      cheapest probed child) seeds the incumbent, then a best-first
      pass — typically capped by ``max_open`` — finishes the proof.
      The dive costs at most one node per depth and lands near the
      optimum, so the following best-first frontier stays small: the
      bounded-memory way to both a good answer *and* a proof.

    ``max_open`` bounds the retained open frontier of the heap frontiers
    (best-first and hybrid; plain DFS keeps its frontier on the call
    stack and ignores the cap).  When the open set would exceed it, the
    worst-bound nodes are evicted *deterministically* and their bounds
    recorded: the run degrades gracefully instead of aborting,
    ``proof_floor`` drops to the minimum evicted bound (everything below
    it is still certified), and ``optimal`` survives exactly when the
    final cost meets that floor — otherwise the provenance says
    ``(memory-truncated)`` rather than silently losing optimality.  Peak
    retained frontier size and eviction counts ride the result as
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
        dynamic_pool: bool = True,
        frontier: str = "dfs",
        shared_incumbent=None,
        backend: Optional[str] = None,
        max_open: Optional[int] = None,
    ) -> None:
        super().__init__(
            incremental=incremental,
            capacity_bound=capacity_bound,
            dynamic_pool=dynamic_pool,
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

        ``checkpoint`` is an optional
        :class:`~repro.synth.checkpoint.Checkpointer`: the search then
        runs on the checkpointable stack drivers — byte-identical
        results and node counts — emitting resumable snapshots
        periodically and on budget exhaustion, and resuming from
        ``checkpoint.resume`` when set (see ``synth/checkpoint.py``).
        """
        if checkpoint is not None:
            from .checkpoint import drive

            return drive(self, problem, warm_start, checkpoint)
        if self.frontier == "best-first":
            return self._explore_heap(problem, warm_start, dive=False)
        if self.frontier == "hybrid":
            return self._explore_heap(problem, warm_start, dive=True)
        return self._explore_dfs(problem, warm_start)

    def _begin_search(self, problem, warm_start):
        """Shared search prologue of every frontier.

        Builds the unit order and search state, reference-evaluates
        the warm-start incumbent (publishing it to the fleet when
        sharing), and arms the budget clock.
        """
        free = unit_order(problem, problem.free_units, self.ordering)
        state = self._new_state(problem)
        best, best_cost = self._warm_incumbent(problem, warm_start)
        shared = self.shared_incumbent
        if shared is not None and best is not None:
            shared.offer(best_cost)
        clock = _BudgetClock(
            self.node_budget,
            self.time_budget,
            shared,
            deadline=self.deadline,
        )
        return free, state, best, best_cost, clock, shared

    def _finish_search(
        self,
        problem,
        best,
        best_cost,
        clock,
        evaluations,
        shared,
        warm_started,
        truncated,
    ) -> ExplorationResult:
        """Shared search epilogue: proof bookkeeping + provenance.

        Foreign thresholds can cut subtrees our own incumbent would
        have kept, and ``max_open`` eviction can drop open subtrees
        whose bounds were still below the returned cost; the
        per-problem optimality claim survives only when that cost
        meets every threshold used *and* every evicted bound.  An
        eviction whose bound the final cost does meet loses nothing —
        graceful degradation, not a silent lie.
        """
        evicted_floor = clock.evictions.floor
        proved = (
            not truncated
            and best_cost <= clock.shared_floor
            and best_cost <= evicted_floor
        )
        memory_truncated = not truncated and evicted_floor < best_cost
        return self._finish(
            problem,
            best,
            clock.nodes,
            evaluations,
            optimal=proved,
            provenance=self._provenance(
                warm_started, shared, truncated, proved, memory_truncated
            ),
            proof_floor=(
                float("-inf")
                if truncated
                else min(best_cost, clock.shared_floor, evicted_floor)
            ),
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
    ) -> str:
        """The uniform provenance string of every frontier.

        ``frontier="dfs"`` reproduces the pre-frontier strings byte
        for byte; non-default frontiers join the tag list (e.g.
        ``branch_and_bound[adaptive,hybrid]``).  ``(memory-truncated)``
        marks a run whose ``max_open`` evictions dropped a subtree the
        proof needed — the result may still be the optimum, but the
        run can no longer certify it.
        """
        tags = []
        if self.ordering != "static":
            tags.append(self.ordering)
        if self.frontier != "dfs":
            tags.append(self.frontier)
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

    def _explore_dfs(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping] = None,
    ) -> ExplorationResult:
        free, state, best, best_cost, clock, shared = (
            self._begin_search(problem, warm_start)
        )
        warm_started = best is not None
        evaluations = 0
        state_targets = self.state_targets
        prune_infeasible = state.can_prune_infeasible
        adaptive = self.ordering == "adaptive"
        total = len(free)
        inf = float("inf")

        def _leaf() -> None:
            nonlocal best, best_cost, evaluations
            evaluations += 1
            feasible, cost = state.leaf()
            if feasible and cost < best_cost:
                best, best_cost = state.to_mapping(), cost
                if shared is not None:
                    shared.offer(best_cost)

        def enter_root() -> None:
            # The root's entry checks; every other node is checked by
            # its parent's loop before it is entered.  The non-adaptive
            # walk reads the bound only once a limit exists, the
            # adaptive one always (an ``inf`` bound prunes there).
            clock.tick()
            shared_floor = clock.shared_floor
            limit = best_cost if best_cost < shared_floor else shared_floor
            if adaptive or limit < inf:
                if state.lower_bound() >= limit:
                    return
            if prune_infeasible and not state.feasible:
                return
            expand(0)

        def expand(depth: int) -> None:
            # The current state is an entered node that passed its
            # entry checks.
            if depth == total:
                _leaf()
                return
            assignment = state.assignment
            if adaptive and best is None:
                # Probing (strong branching + value ordering) serves
                # the incumbent hunt: it steers the first dive onto a
                # near-optimal leaf.  Probed bounds are admissible for
                # the child subtree whenever they were computed, so
                # comparing against the *current* incumbent is sound —
                # skipped children never become nodes.
                if depth < STRONG_BRANCH_DEPTH:
                    undecided = [u for u in free if u not in assignment]
                    unit, scored = strong_branch(
                        state, problem, undecided, state_targets
                    )
                else:
                    unit = next(u for u in free if u not in assignment)
                    scored = probe_targets(
                        state, unit, state_targets(problem, unit, state)
                    )
                for bound, _index, target in scored:
                    if bound >= best_cost or bound >= clock.shared_floor:
                        continue
                    clock.tick()
                    state.assign(unit, target)
                    expand(depth + 1)
                    state.unassign(unit)
                return
            # Plain descent in unit order (adaptive once an incumbent
            # exists: entry-check pruning is cheaper than probing).
            # Each child is a node: it ticks, then meets the limit of
            # the moment it is reached.  Once a limit exists the
            # siblings are scored in one non-mutating pass, so a pruned
            # child is never assigned.
            unit = (
                next(u for u in free if u not in assignment)
                if adaptive
                else free[depth]
            )
            targets = state_targets(problem, unit, state)
            scored = None
            for position, target in enumerate(targets):
                clock.tick()
                shared_floor = clock.shared_floor
                limit = (
                    best_cost if best_cost < shared_floor else shared_floor
                )
                if limit < inf:
                    if scored is None:
                        scored = state.score_candidates(unit, targets)
                    bound, feasible = scored[position]
                    if bound >= limit or (prune_infeasible and not feasible):
                        continue
                    state.assign(unit, target)
                else:
                    state.assign(unit, target)
                    if prune_infeasible and not state.feasible:
                        state.unassign(unit)
                        continue
                expand(depth + 1)
                state.unassign(unit)

        truncated = False
        try:
            enter_root()
        except _BudgetExceeded:
            truncated = True
        return self._finish_search(
            problem,
            best,
            best_cost,
            clock,
            evaluations,
            shared,
            warm_started,
            truncated,
        )

    def _explore_heap(
        self,
        problem: SynthesisProblem,
        warm_start: Optional[Mapping] = None,
        dive: bool = False,
    ) -> ExplorationResult:
        """Priority-queue search over the incremental lower bound.

        Every open node rides the heap as ``(bound, tie, path)``: the
        bound probed when its parent pushed it, a monotone push
        counter (equal bounds pop in deterministic push order), and
        the decision path that :class:`PathTrail` replays to restore
        the node's search state.  Expanding the cheapest bound first
        means the moment the cheapest open bound meets the incumbent,
        *every* open node is prunable — the search returns with a
        complete optimality proof after expanding only nodes whose
        bound beats the optimum.

        ``dive=True`` is the ``hybrid`` frontier: a greedy depth-first
        dive runs first to seed the incumbent (best-first finds its
        first leaf late, so a capped heap otherwise evicts half the
        tree before it has any prune threshold), then the heap pass
        finishes the proof.  With ``max_open`` set, the heap is
        truncated to the cheapest ``max_open`` entries after every
        expansion — streaming top-K eviction is exact, an evicted
        entry could never have re-entered a smaller frontier.
        """
        free, state, best, best_cost, clock, shared = (
            self._begin_search(problem, warm_start)
        )
        warm_started = best is not None
        evaluations = 0
        state_targets = self.state_targets
        prune_infeasible = state.can_prune_infeasible
        adaptive = self.ordering == "adaptive"
        total = len(free)
        trail = PathTrail(state)
        pushes = 0
        truncated = False

        try:
            if dive and best is None:
                best, best_cost, evaluations = self._greedy_dive(
                    problem,
                    free,
                    state,
                    trail,
                    clock,
                    shared,
                    best,
                    best_cost,
                    evaluations,
                )
                trail.restore(())
            root_bound = (
                float("inf")
                if prune_infeasible and not state.feasible
                else state.lower_bound()
            )
            heap: List[tuple] = [(root_bound, pushes, ())]
            while heap:
                bound, _tie, path = heapq.heappop(heap)
                shared_floor = clock.shared_floor
                limit = (
                    best_cost if best_cost < shared_floor else shared_floor
                )
                if bound >= limit:
                    # The heap is bound-ordered: every other open node
                    # is at least as expensive, so nothing left can
                    # beat the incumbent — the proof is complete.  The
                    # popped node is never restored or expanded, so it
                    # does not count as a search node.
                    break
                clock.tick()
                trail.restore(path)
                if len(path) == total:
                    evaluations += 1
                    feasible, cost = state.leaf()
                    if feasible and cost < best_cost:
                        best, best_cost = state.to_mapping(), cost
                        if shared is not None:
                            shared.offer(best_cost)
                    continue
                assignment = state.assignment
                if adaptive and len(path) < STRONG_BRANCH_DEPTH:
                    undecided = [u for u in free if u not in assignment]
                    unit, scored = strong_branch(
                        state, problem, undecided, state_targets
                    )
                else:
                    unit = next(u for u in free if u not in assignment)
                    scored = probe_targets(
                        state, unit, state_targets(problem, unit, state)
                    )
                for child_bound, _index, target in scored:
                    # Probed child bounds are admissible for the child
                    # subtree; one already at the incumbent (or fleet
                    # floor) never enters the frontier.
                    if (
                        child_bound >= best_cost
                        or child_bound >= clock.shared_floor
                    ):
                        continue
                    pushes += 1
                    heapq.heappush(
                        heap,
                        (child_bound, pushes, path + ((unit, target),)),
                    )
                # A sorted list is a valid min-heap, so capping (which
                # sorts in place) preserves the pop order.
                _cap_frontier(heap, clock, self.max_open)
                clock.note_open(len(heap))
        except _BudgetExceeded:
            truncated = True
        return self._finish_search(
            problem,
            best,
            best_cost,
            clock,
            evaluations,
            shared,
            warm_started,
            truncated,
        )

    def _greedy_dive(
        self,
        problem: SynthesisProblem,
        free,
        state,
        trail,
        clock,
        shared,
        best,
        best_cost,
        evaluations,
    ):
        """Root-to-leaf dive along the cheapest probed child.

        The hybrid frontier's incumbent seed: one walk taking the
        best-looking child at every level — the same path a DFS
        explores first — so the subsequent (typically capped) heap
        pass starts with a strong prune threshold instead of an
        open-ended one.  A dead end (every child bound at or above
        the incumbent/fleet floor) abandons the dive; the heap pass
        still covers the whole space, so nothing is lost.
        """
        state_targets = self.state_targets
        prune_infeasible = state.can_prune_infeasible
        adaptive = self.ordering == "adaptive"
        total = len(free)
        if prune_infeasible and not state.feasible:
            return best, best_cost, evaluations
        path: tuple = ()
        while True:
            clock.tick()
            trail.restore(path)
            if len(path) == total:
                evaluations += 1
                feasible, cost = state.leaf()
                if feasible and cost < best_cost:
                    best, best_cost = state.to_mapping(), cost
                    if shared is not None:
                        shared.offer(best_cost)
                return best, best_cost, evaluations
            assignment = state.assignment
            if adaptive and len(path) < STRONG_BRANCH_DEPTH:
                undecided = [u for u in free if u not in assignment]
                unit, scored = strong_branch(
                    state, problem, undecided, state_targets
                )
            else:
                unit = next(u for u in free if u not in assignment)
                scored = probe_targets(
                    state, unit, state_targets(problem, unit, state)
                )
            bound, _index, target = scored[0]
            if bound >= best_cost or bound >= clock.shared_floor:
                return best, best_cost, evaluations
            path += ((unit, target),)
