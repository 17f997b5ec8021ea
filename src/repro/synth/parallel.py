"""Process-parallel variant-space exploration.

The variant-space representation makes each selection's mapping
problem independent — only the warm-start chaining of
:func:`~repro.synth.methods.explore_space` couples neighbors.  This
module exploits that:

* :func:`shard_lineages` splits a space's selections into contiguous
  **warm-start lineages**: within a lineage each exploration seeds the
  next (the PR-1 chaining), across lineages there is no coupling, so
  lineages are embarrassingly parallel.
* :class:`ParallelSpaceExplorer` dispatches lineages over a
  supervised process fleet using a **selection-index task protocol**:
  the (picklable) :class:`~repro.synth.methods.ProblemFamily` and
  :class:`~repro.variants.variant_space.VariantSpace` ship **once per
  worker** inside the one callable each worker runs (fork-inherited
  on Linux, pickled once per worker elsewhere), and each lineage
  crosses the process boundary as a tiny :class:`LineageShard` —
  ``(start_index, count)`` into the space's canonical selection
  enumeration.  Workers re-enumerate their shard locally
  (:func:`tasks_for_range`, deriving only their own selections'
  units), rebuild each
  :class:`~repro.synth.mapping.SynthesisProblem` (and through it the
  delta-cost :class:`~repro.synth.state.SearchState`), and stream
  lineage results back; the parent merges them in lineage-index
  order, so the output is **byte-identical for every jobs count** —
  ``jobs`` changes wall-clock only, never results.  The lineage
  decomposition is controlled solely by ``lineage_size``; with an
  exact explorer the per-selection costs also equal the unsharded
  sequential chain's.  Pre-materialized task lists (e.g. the
  independent flow's applications, which have no backing space) keep
  the per-task shipping path via :meth:`ParallelSpaceExplorer.explore_tasks`.
* :func:`parallel_map` is the shared order-preserving process map with
  worker-crash surfacing, reused by the flows (e.g.
  :func:`~repro.synth.baselines.incremental_order_spread`).
* :class:`SharedIncumbent` (and its in-process twin
  :class:`LocalIncumbent`) is the opt-in **cross-lineage incumbent
  channel**: one ``multiprocessing.Value`` holding the fleet-wide best
  cost, published by every worker's search and read back as an extra
  pruning threshold.  ``share_incumbent=True`` on
  :class:`ParallelSpaceExplorer`/:func:`~repro.synth.methods.explore_space`
  turns it on; the default stays off because fleet pruning makes
  per-search *node counts* — never the proven best cost —
  timing-dependent.

Every fleet — space shards, task lineages and :func:`parallel_map`
items — runs on one worker loop (:func:`_supervised_worker`) around
one shipped callable.  A worker exception never vanishes into the
fleet: the loop captures it with its traceback and the parent
re-raises it as a :class:`~repro.errors.SynthesisError` naming the
lineage or item.
"""

from __future__ import annotations

import collections
import copy
import functools
import heapq
import multiprocessing
from multiprocessing import connection as mp_connection
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import faults
from ..errors import SynthesisError
from ..variants.variant_space import VariantSpace
from .explorer import (
    BranchBoundExplorer,
    ExplorationResult,
    Explorer,
)
from .mapping import (
    Mapping,
    SynthesisProblem,
    VariantOrigin,
)

#: Selections per warm-start lineage.  The lineage decomposition — not
#: the worker count — defines the result, so this default is
#: deliberately independent of ``jobs``.
DEFAULT_LINEAGE_SIZE = 4


#: Retry schedule of the supervised fleet: a failed task waits
#: ``min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2**attempt)`` seconds,
#: scaled by a jitter factor in ``[0.5, 1.5)`` drawn from a generator
#: seeded with ``RETRY_JITTER_SEED``.
RETRY_BACKOFF = 0.05
RETRY_BACKOFF_CAP = 1.0
RETRY_JITTER_SEED = 0


def _start_context():
    """The multiprocessing context every fleet starts its workers in.

    Prefers ``fork`` on Linux (cheap, no re-import); everywhere else
    the platform default stands — macOS lists ``fork`` as available
    but defaults to ``spawn`` because forking its runtime is unsafe.
    """
    if (
        sys.platform.startswith("linux")
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context(None)


# ----------------------------------------------------------------------
# Incumbent sharing
# ----------------------------------------------------------------------
class LocalIncumbent:
    """In-process best-cost cell — the ``jobs=1``/sequential twin of
    :class:`SharedIncumbent`, so single-process runs share incumbents
    across lineages through the identical interface."""

    __slots__ = ("_cost",)

    def __init__(self) -> None:
        self._cost = float("inf")

    def get(self) -> float:
        """The best cost published so far (``inf`` when none)."""
        return self._cost

    def offer(self, cost: float) -> bool:
        """Publish a cost; True when it improved the incumbent."""
        if cost < self._cost:
            self._cost = cost
            return True
        return False


class SharedIncumbent:
    """Fleet-wide best-cost cell over multiprocessing shared memory.

    One ``multiprocessing.Value('d')`` guarded by its lock: workers
    ``offer()`` every improvement and read the floor with ``get()``.
    The cell is monotone non-increasing, so a stale read is always a
    *valid* (merely conservative) pruning threshold — searches refresh
    it periodically instead of locking per node.  Shared ctypes may
    only cross process boundaries by inheritance, so the cell travels
    inside the fleet's ``Process`` arguments, never through task
    pipes.  It is created in the fleet's start context unless ``ctx``
    names another.
    """

    __slots__ = ("_cell",)

    def __init__(self, ctx=None) -> None:
        context = ctx if ctx is not None else _start_context()
        self._cell = context.Value("d", float("inf"))

    def get(self) -> float:
        """The fleet-wide best cost published so far."""
        with self._cell.get_lock():
            return self._cell.value

    def offer(self, cost: float) -> bool:
        """Publish a cost; True when it improved the fleet incumbent."""
        with self._cell.get_lock():
            if cost < self._cell.value:
                self._cell.value = cost
                return True
        return False


def attach_incumbent(explorer: Explorer, incumbent) -> Explorer:
    """A shallow copy of ``explorer`` wired to the incumbent cell.

    Explorers opt in via the ``accepts_shared_incumbent`` marker
    (branch-and-bound publishes to the cell and prunes against it);
    anything else is returned unchanged.  The copy keeps the
    caller's explorer reusable without a lingering cell reference.
    """
    if incumbent is None or not getattr(
        explorer, "accepts_shared_incumbent", False
    ):
        return explorer
    clone = copy.copy(explorer)
    clone.shared_incumbent = incumbent
    return clone


# ----------------------------------------------------------------------
# Tasks and lineages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SelectionTask:
    """One selection's synthesis problem, reduced to picklable parts.

    Only what a worker needs to rebuild the problem from the shared
    family: the unit names and their variant origins, derived from
    the variant structure without binding the selection's graph.
    """

    index: int
    selection: Tuple[Tuple[str, str], ...]
    name: str
    units: Tuple[str, ...]
    origins: Tuple[Tuple[str, VariantOrigin], ...]


@dataclass(frozen=True)
class Lineage:
    """A contiguous run of selections chained by warm starts."""

    index: int
    tasks: Tuple[SelectionTask, ...]


@dataclass(frozen=True)
class LineageShard:
    """One lineage as indices into the canonical selection enumeration.

    The shared-memory task protocol: instead of pickling every
    selection's unit/origin tuples, the parent sends this constant-size
    triple and the worker re-enumerates ``[start, start + count)`` from
    the family + space shipped once with its callable — see
    :func:`tasks_for_range`.
    """

    index: int
    start: int
    count: int


def tasks_for_range(
    family, space: VariantSpace, start: int, count: Optional[int] = None
) -> List[SelectionTask]:
    """Derive one contiguous selection range as picklable tasks.

    Decodes each index directly via
    :meth:`VariantSpace.selection_at` (mixed-radix, O(axes) per
    selection — no skip-enumeration of the space's prefix), so a
    worker materializing its shard does O(count) work however deep
    into a 10^5-selection space the shard starts.  The decoded order —
    and with it the task indices and application names — is identical
    to :meth:`VariantSpace.selections`, which is what keeps the index
    protocol byte-compatible with shipping the tasks themselves.
    Units and origins come from
    :func:`~repro.synth.methods.selection_units`: the common part's
    units plus one table row per chosen cluster, equal to what binding
    each selection's graph would yield, with no graph built.
    """
    from .methods import selection_units

    derive = selection_units(space.vgraph)
    stop = space.count() if count is None else start + count
    tasks: List[SelectionTask] = []
    for index in range(start, stop):
        selection = space.selection_at(index)
        units, origins = derive(selection)
        tasks.append(
            SelectionTask(
                index=index,
                selection=VariantSpace.selection_key(selection),
                name=f"{family.name}.app{index + 1}",
                units=units,
                origins=origins,
            )
        )
    return tasks


def tasks_from_space(family, space: VariantSpace) -> List[SelectionTask]:
    """Derive every consistent selection as a picklable task list."""
    return tasks_for_range(family, space, 0)


def shard_lineages(
    tasks: Sequence[SelectionTask], lineage_size: int
) -> List[Lineage]:
    """Contiguous, deterministic lineage decomposition."""
    if lineage_size < 1:
        raise SynthesisError("lineage_size must be >= 1")
    return [
        Lineage(
            index=start // lineage_size,
            tasks=tuple(tasks[start : start + lineage_size]),
        )
        for start in range(0, len(tasks), lineage_size)
    ]


def shard_indices(total: int, lineage_size: int) -> List[LineageShard]:
    """The index-protocol twin of :func:`shard_lineages`."""
    if lineage_size < 1:
        raise SynthesisError("lineage_size must be >= 1")
    return [
        LineageShard(
            index=start // lineage_size,
            start=start,
            count=min(lineage_size, total - start),
        )
        for start in range(0, total, lineage_size)
    ]


def run_lineage(
    family,
    explorer: Explorer,
    warm_start: bool,
    lineage,
    seed: Optional[Mapping] = None,
    deadline: Optional[float] = None,
):
    """Explore one lineage with warm-start chaining.

    The single shared implementation of the batch semantics: the
    sequential path runs it inline, fleet workers run it remotely —
    which is what makes the parallel output byte-identical.

    ``seed`` optionally provides an external incumbent mapping (for
    example from the serve layer's cross-request warm cache) used
    before the lineage has produced a feasible result of its own.
    The default ``None`` preserves the historical behavior exactly.
    For exact explorers a seed only tightens pruning — the proven
    cost is unchanged — though node counts may differ from an
    unseeded run.

    ``deadline`` (absolute ``time.monotonic`` instant) stops the
    lineage between tasks once it passes, returning the tasks finished
    so far.  A task that was still running when the deadline hit is
    dropped rather than kept: its explorer was deadline-truncated
    mid-proof, and the serve layer's resumable-partial contract
    re-runs incomplete tasks anyway — a suspect result is worth less
    than an honest "not done".
    """
    from .methods import SelectionResult

    results: List[SelectionResult] = []
    previous_best: Optional[Mapping] = seed
    for task in lineage.tasks:
        if deadline is not None and time.monotonic() >= deadline:
            break
        problem = family.problem_for_units(
            task.name, task.units, origins=task.origins
        )
        warm = previous_best if warm_start else seed
        exploration = explorer.explore(problem, warm_start=warm)
        if deadline is not None and time.monotonic() >= deadline:
            break
        results.append(
            SelectionResult(
                selection=dict(task.selection),
                problem=problem,
                exploration=exploration,
                warm_started=warm is not None,
            )
        )
        if exploration.feasible:
            previous_best = exploration.mapping
    return results


# ----------------------------------------------------------------------
# The supervised worker fleet
# ----------------------------------------------------------------------
def _explore_shard(
    family, explorer, warm_start, space, shard: LineageShard
):
    """Index-protocol work: re-enumerate the shard, then explore it."""
    tasks = tasks_for_range(family, space, shard.start, shard.count)
    return run_lineage(
        family,
        explorer,
        warm_start,
        Lineage(index=shard.index, tasks=tuple(tasks)),
    )


def _supervised_worker(worker_id, fn, conn) -> None:
    """Resident worker loop of the crash-tolerant supervisor.

    ``fn`` is the fleet's one callable, shipped once per worker as a
    ``Process`` argument (inherited under ``fork``, pickled once
    elsewhere).  The exploration fleets pass a ``functools.partial``
    carrying the family, explorer and space, so only the small
    per-task payloads cross the pipe.
    Pulls ``(index, attempt, payload)`` tasks from its *private* duplex
    pipe (``None`` = shut down), runs the fault-injection hook and then
    ``fn(payload)``, and reports ``(worker_id, index, attempt, error,
    result)`` on the same pipe.  Every exception — including an
    injected one — becomes an error report carrying its traceback; a
    hard death (``os._exit``, segfault, OOM kill) is detected by the
    parent via process liveness instead.

    The pipe is deliberately a raw :func:`multiprocessing.Pipe`, not a
    ``multiprocessing.Queue``: a queue's shared write lock is held by a
    background feeder thread, so a worker dying at the wrong instant
    leaves the lock acquired forever and deadlocks every *surviving*
    worker's result delivery.  With one private pipe per worker —
    written from the worker's main thread, no feeder, no shared lock —
    a crash can only ever break the crashed worker's own channel, which
    the parent observes as EOF and reaps.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        index, attempt, payload = task
        try:
            faults.on_pool_task(index, attempt)
            result = fn(payload)
            error = None
        except Exception as exc:
            error = (
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
            result = None
        conn.send((worker_id, index, attempt, error, result))


def _retry_delay(attempt: int, rng: random.Random) -> float:
    """Capped exponential backoff with deterministic seeded jitter."""
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * (2.0 ** attempt)) * (
        0.5 + rng.random()
    )


def _run_supervised(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    max_retries: int,
    error_for: Callable[[int, str], str],
) -> Tuple[Dict[int, object], Dict[int, int]]:
    """Run ``fn`` over ``payloads`` on a crash-tolerant process fleet.

    The replacement for ``Pool.imap_unordered``: a ``multiprocessing``
    pool aborts wholesale when any worker dies hard, so recovery needs
    manually supervised processes.  Each worker gets ``fn`` once and a
    *private* duplex pipe — the parent therefore always knows exactly
    which task a dead worker held (no claim-message race against
    ``os._exit``) and re-dispatches it to survivors with capped
    exponential backoff + seeded jitter (:data:`RETRY_BACKOFF`,
    :data:`RETRY_BACKOFF_CAP`, :data:`RETRY_JITTER_SEED`), up to
    ``max_retries`` per task.  A task failing beyond its budget (or
    outliving every worker) raises :class:`SynthesisError` via
    ``error_for(index, detail)``.

    No channel is shared between workers (see
    :func:`_supervised_worker`), so one worker's death — at any instant
    — cannot wedge another worker's result delivery.

    Returns ``(results by task index, retry counts by task index)`` —
    callers merge by index, so scheduling and recovery never reorder
    results.
    """
    ctx = _start_context()
    n_workers = min(jobs, len(payloads))
    conns: Dict[int, object] = {}
    workers: Dict[int, object] = {}
    for wid in range(n_workers):
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_supervised_worker,
            args=(wid, fn, child_conn),
        )
        process.daemon = True
        process.start()
        child_conn.close()
        conns[wid] = parent_conn
        workers[wid] = process

    pending = set(range(len(payloads)))
    collected: Dict[int, object] = {}
    retries: Dict[int, int] = {}
    busy: Dict[int, Tuple[int, int]] = {}
    idle = collections.deque(sorted(workers))
    ready = collections.deque((i, 0) for i in range(len(payloads)))
    delayed: List[Tuple[float, int, int]] = []
    rng = random.Random(RETRY_JITTER_SEED)

    def fail_task(index: int, attempt: int, detail: str) -> None:
        if attempt >= max_retries:
            raise SynthesisError(error_for(index, detail))
        retries[index] = attempt + 1
        delay = _retry_delay(attempt, rng)
        heapq.heappush(
            delayed, (time.monotonic() + delay, index, attempt + 1)
        )

    def handle(message) -> None:
        wid, index, attempt, error, result = message
        if busy.get(wid) == (index, attempt):
            del busy[wid]
            idle.append(wid)
        if index not in pending:
            return
        if error is None:
            collected[index] = result
            pending.discard(index)
        else:
            fail_task(index, attempt, error)

    def reap_dead() -> None:
        dead = [w for w, p in workers.items() if not p.is_alive()]
        if not dead:
            return
        # A dying worker may have flushed its final report before the
        # end: drain everything in flight first, so an already-done
        # task is never retried as a phantom crash.
        for conn in conns.values():
            try:
                while conn.poll(0):
                    handle(conn.recv())
            except (EOFError, OSError):
                pass
        for wid in dead:
            process = workers.pop(wid)
            conns.pop(wid).close()
            if wid in idle:
                idle.remove(wid)
            claim = busy.pop(wid, None)
            if claim is not None:
                index, attempt = claim
                if index in pending:
                    fail_task(
                        index,
                        attempt,
                        f"worker process died while running this "
                        f"task (exit code {process.exitcode})",
                    )
        if not workers and pending:
            raise SynthesisError(
                error_for(
                    min(pending),
                    f"every worker process died ({n_workers} started, "
                    f"0 left) with tasks outstanding",
                )
            )

    try:
        while pending:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                ready.append((index, attempt))
            while idle and ready:
                wid = idle.popleft()
                index, attempt = ready.popleft()
                busy[wid] = (index, attempt)
                try:
                    conns[wid].send(
                        (index, attempt, payloads[index])
                    )
                except (BrokenPipeError, OSError):
                    # The worker died between dispatches; the claim
                    # stays on it and reap_dead fails the task over.
                    pass
            ready_conns = mp_connection.wait(
                list(conns.values()), timeout=0.05
            )
            saw_eof = not ready_conns
            for conn in ready_conns:
                try:
                    handle(conn.recv())
                except (EOFError, OSError):
                    # EOF = that worker died; its pipe stays readable
                    # forever, so reap it now rather than spin.
                    saw_eof = True
            if saw_eof:
                reap_dead()
    finally:
        for wid, process in workers.items():
            if process.is_alive():
                try:
                    conns[wid].send(None)
                except (BrokenPipeError, OSError, ValueError):
                    pass
        for process in workers.values():
            process.join(timeout=1.0)
        for process in workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in conns.values():
            conn.close()
    return collected, retries


def parallel_map(
    fn: Callable, items: Sequence, jobs: int = 1, max_retries: int = 0
):
    """Order-preserving process map with worker-crash recovery.

    ``fn`` must be picklable (a module-level callable or a
    ``functools.partial`` of one); it is shipped once per worker, so a
    closed-over library/explorer is not re-pickled per item.  Results
    stream back unordered and are merged by item index, so the output
    order never depends on scheduling.

    ``max_retries`` re-dispatches a failed item — a worker exception
    *or* a hard worker death — up to that many times per item, with
    capped exponential backoff and deterministic jitter.  A failure
    beyond the budget is re-raised in the parent as
    :class:`SynthesisError` naming the item and carrying the worker
    traceback (or the dead worker's exit code).  Retries only apply to
    the fleet path: with ``jobs=1`` the map runs in-process, where an
    exception is the caller's own.
    """
    if jobs < 1:
        raise SynthesisError("jobs must be >= 1")
    if max_retries < 0:
        raise SynthesisError("max_retries must be >= 0")
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    collected, _retries = _run_supervised(
        fn,
        payloads=items,
        jobs=jobs,
        max_retries=max_retries,
        error_for=lambda index, detail: (
            f"parallel worker failed on item {index}: {detail}"
        ),
    )
    return [collected[index] for index in range(len(items))]


# ----------------------------------------------------------------------
# Parallel space exploration
# ----------------------------------------------------------------------
class ParallelSpaceExplorer:
    """Batch-explore a variant space over a process fleet.

    Parameters
    ----------
    explorer:
        The per-problem optimizer (must be picklable; every built-in
        explorer is).  Defaults to :class:`BranchBoundExplorer`; pass
        ``BranchBoundExplorer(frontier=...)`` for another frontier.
        Every frontier keeps the byte-identical-for-every-jobs
        contract — frontier expansion order is deterministic, and
        lineages stay the unit of work.
    jobs:
        Worker processes.  ``jobs=1`` runs the identical lineage
        machinery in-process — results are byte-identical for every
        jobs count because only the lineage decomposition (not the
        worker count) defines them.
    lineage_size:
        Selections per warm-start lineage.  Larger lineages reuse more
        warm starts; smaller ones expose more parallelism.
    warm_start:
        Chain warm starts within each lineage (off = every selection
        explored cold, matching ``explore_space(warm_start=False)``).
    share_incumbent:
        Publish every lineage's best cost through a
        :class:`SharedIncumbent` cell so all workers' branch-and-bound
        searches prune against the **fleet-wide** best (workers only
        keep exploring selections that could still beat it).  The best
        selection and its proven-optimal cost are unchanged; *node
        counts* become timing-dependent, which is why the default
        (``False``) keeps the byte-identical-for-every-jobs contract.
    max_retries:
        Re-dispatch a lineage whose worker crashed (hard death or
        evaluator exception) up to this many times, with capped
        exponential backoff and deterministic jitter.  Lineages are
        pure functions of the space, so a re-run returns
        byte-identical results and the lineage-order merge keeps the
        output unchanged at any jobs count; recovered retry counts are
        recorded on each :class:`~repro.synth.explorer.ExplorationResult`
        (``retries``) — honest provenance *outside* the canonical
        result payload.  Crashes beyond the budget still raise, naming
        the shard.
    """

    def __init__(
        self,
        explorer: Optional[Explorer] = None,
        jobs: int = 1,
        lineage_size: int = DEFAULT_LINEAGE_SIZE,
        warm_start: bool = True,
        share_incumbent: bool = False,
        max_retries: int = 0,
    ) -> None:
        if jobs < 1:
            raise SynthesisError("jobs must be >= 1")
        if lineage_size < 1:
            raise SynthesisError("lineage_size must be >= 1")
        if max_retries < 0:
            raise SynthesisError("max_retries must be >= 0")
        self.explorer = (
            explorer if explorer is not None else BranchBoundExplorer()
        )
        self.jobs = jobs
        self.lineage_size = lineage_size
        self.warm_start = warm_start
        self.share_incumbent = share_incumbent
        self.max_retries = max_retries

    def _wired_explorer(self, new_cell: Callable[[], object]) -> Explorer:
        """The explorer, wired to a fresh incumbent cell when sharing.

        In-process runs pass :class:`LocalIncumbent`, fleets
        :class:`SharedIncumbent`: a cell spanning every lineage gives
        ``jobs=1`` the same cross-lineage pruning semantics as the
        fleet — deterministically, since there is no timing.  The
        fleet's cell is attached here in the parent and reaches the
        workers inside their shipped callable.
        """
        if not self.share_incumbent:
            return self.explorer
        return attach_incumbent(self.explorer, new_cell())

    def explore(self, family, space: VariantSpace):
        """Explore every consistent selection; deterministic output.

        Uses the selection-index task protocol: lineages cross the
        process boundary as ``(start, count)`` shards and workers
        re-enumerate them from the once-shipped family + space.
        """
        from .methods import SpaceExploration

        shards = shard_indices(space.count(), self.lineage_size)
        if self.jobs == 1 or len(shards) <= 1:
            # In-process: nothing to ship, so enumerate the space once
            # and run the task list (the worker-side re-enumeration
            # would redo it per shard).
            results = self.explore_tasks(
                family, tasks_from_space(family, space)
            )
        else:
            per_lineage = self._run_fleet(
                functools.partial(
                    _explore_shard,
                    family,
                    self._wired_explorer(SharedIncumbent),
                    self.warm_start,
                    space,
                ),
                shards,
                describe=lambda shard: (
                    f"selections {shard.start}.."
                    f"{shard.start + shard.count - 1}"
                ),
            )
            results = [result for chunk in per_lineage for result in chunk]
        return SpaceExploration(family=family, results=results)

    def explore_tasks(self, family, tasks: Sequence[SelectionTask]):
        """Run a prepared task list through the lineage machinery.

        The per-task shipping path, for task lists with no backing
        :class:`VariantSpace` to re-enumerate from (e.g. the
        independent flow's prebound applications).
        """
        lineages = shard_lineages(list(tasks), self.lineage_size)
        if self.jobs == 1 or len(lineages) <= 1:
            explorer = self._wired_explorer(LocalIncumbent)
            per_lineage = [
                run_lineage(family, explorer, self.warm_start, lin)
                for lin in lineages
            ]
        else:
            per_lineage = self._run_fleet(
                functools.partial(
                    run_lineage,
                    family,
                    self._wired_explorer(SharedIncumbent),
                    self.warm_start,
                ),
                lineages,
                describe=lambda lineage: (
                    f"selections {[t.name for t in lineage.tasks]}"
                ),
            )
        return [result for chunk in per_lineage for result in chunk]

    def _run_fleet(self, fn, payloads, describe):
        """Run one lineage callable over the supervised fleet.

        Streams results back unordered, re-dispatches crashed
        lineages to surviving workers (``max_retries``), surfaces an
        unrecovered worker error as :class:`SynthesisError` naming the
        lineage *and its selections* (``describe(payload)``), and
        merges in lineage-index order so neither scheduling nor
        recovery ever shows in the output.
        """
        collected, retries = _run_supervised(
            fn,
            payloads=payloads,
            jobs=self.jobs,
            max_retries=self.max_retries,
            error_for=lambda index, detail: (
                f"exploration worker failed on lineage {index} "
                f"({describe(payloads[index])}): {detail}"
            ),
        )
        for index, count in retries.items():
            for sel_result in collected[index]:
                sel_result.exploration.retries = count
        return [collected[index] for index in range(len(payloads))]
