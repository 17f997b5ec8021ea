"""The resident exploration engine: queue, worker fleet, lifecycle.

This is the transport-free core of the service — the HTTP layer
(:mod:`repro.serve.http`) only translates requests into these calls,
which is what lets the test suite drive full job lifecycles without a
socket.

Structure:

* One :class:`asyncio.PriorityQueue` of ``(-priority, seq, job)``
  items: higher ``priority`` drains sooner, the submission sequence
  number breaks ties FIFO.
* A fleet of worker coroutines pulls jobs and runs each lineage in a
  dedicated :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``run_in_executor``, so the event loop stays responsive while the
  search burns CPU; between lineages the worker is back on the loop
  and publishes a progress event (the SSE stream's payload) and
  checks the job's wall-clock deadline.
* All engine state (jobs table, cache, counters) is touched only from
  the event loop thread — workers marshal results back before
  mutating anything — so the engine needs no locks.

Cache integration (:mod:`repro.serve.cache`): exact hits are resolved
*at submit time* and return an already-terminal job whose result text
is the cold run's bytes verbatim; warm-start-adjacent hits seed the
first lineage's incumbent, and only for exact explorers, where a warm
seed can change node counts but never the proven cost.  The exact
store only ever holds results that are pure functions of the job key
(:func:`result_is_cacheable`): warm-seeded runs and wall-clock
truncated runs are served to their own client but never stored, so
equal keys always map to the deterministic cold-run bytes regardless
of daemon history.

Budget granularity: a job's ``time_budget`` is enforced *inside*
lineages — the absolute deadline is threaded onto the explorer
(every explorer polls it at 256-node granularity) and into
:func:`~repro.synth.parallel.run_lineage` (which stops between tasks
and drops a task the deadline interrupted), so a ``timeout`` lands
within one poll interval of the budget instead of overshooting by up
to one lineage.  The completed selections become the same
resumable-partial payload either way.

Admission control: ``max_open_nodes`` clamps every explorer that
takes a ``max_open`` frontier cap (results that actually evicted
under an engine-imposed cap are served but never cached — the bytes
would depend on daemon flags, not the job key); ``queue_deadline``
sheds jobs that waited in queue longer than that (or whose own
``time_budget`` already elapsed before a worker picked them up) with
the distinct terminal state ``shed`` instead of silently running
them late.  503 rejections carry a ``retry_after`` hint derived from
queue depth × a completion-time EMA.

The jobs table is bounded: terminal :class:`JobRecord`\\ s beyond
``max_jobs`` are evicted oldest-first (their ids then 404), so a
long-running daemon's memory does not grow with lifetime traffic.

Graceful shutdown: :meth:`ServeEngine.shutdown` flips ``draining`` so
new submissions are rejected (HTTP 503), waits for the queue and
in-flight jobs to drain, then stops the workers and executor.

Crash safety (``state_dir``): with a state directory the engine
journals job submissions, terminal transitions and cache stores to an
append-only fsync'd log (:mod:`repro.serve.persist`).  On boot it
replays the journal — re-installing exact-cache entries *verbatim*
(the byte-identity contract survives the crash) and re-enqueueing
jobs that were submitted but never reached a terminal state, under
their original ids.  Jobs killed mid-run also leave a *partial*
result: the deadline path stores the completed selections plus a
``partial`` marker on the job record, so a ``timeout`` status view
shows what was proven before the clock ran out and where a resubmit
would pick up.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Set

from .. import faults
from ..errors import SynthesisError
from ..synth.parallel import (
    LocalIncumbent,
    attach_incumbent,
    run_lineage,
    shard_lineages,
)
from . import persist
from .cache import ResultCache
from .canonical import canonical_json
from .jobs import (
    JobRecord,
    JobSpec,
    TERMINAL_STATES,
    Workload,
    build_workload,
    ensure_job_ids_above,
    job_result_payload,
    mapping_from_payload,
    spec_payload,
)


def _run_lineage_guarded(
    family, explorer, warm_start, lineage, seed, deadline=None
):
    """Executor entry point: fault hook, then the real lineage run."""
    faults.on_serve_lineage(lineage.index)
    return run_lineage(
        family, explorer, warm_start, lineage, seed, deadline=deadline
    )


class ServiceUnavailable(SynthesisError):
    """Submission rejected: draining, shedding, or queue full (503).

    ``retry_after`` is the server's backoff hint in seconds; the HTTP
    layer surfaces it as a ``Retry-After`` header plus a JSON field,
    and :class:`~repro.serve.client.ServeClient` honors it.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class UnknownJob(SynthesisError):
    """No job with the requested id (HTTP 404)."""


def result_is_cacheable(
    spec: JobSpec, payload: Dict[str, object], warm_seeded: bool
) -> bool:
    """Whether a finished job's bytes may enter the exact store.

    The exact store promises equal keys → equal bytes, so only results
    that are pure functions of the job key qualify:

    * a warm-adjacent seed changes node counts and provenance (daemon
      history leaking into the bytes), so seeded runs are served to
      their client but never stored;
    * a wall-clock budget — job-level ``time_budget`` (excluded from
      the key) or the keyed ``explorer.time_budget`` — can truncate
      the search at a machine-speed-dependent point, so a budgeted
      run is stored only when every selection still proved optimality
      (then its bytes match the budget-free search exactly).

    Deterministic truncation (node budgets) remains cacheable.
    """
    if warm_seeded:
        return False
    if spec.time_budget is None and spec.explorer["time_budget"] is None:
        return True
    return all(s["optimal"] for s in payload["selections"])


class ServeEngine:
    """Job queue + worker fleet + cache, owned by one event loop."""

    def __init__(
        self,
        workers: int = 2,
        cache_size: int = 1024,
        max_queue: int = 256,
        max_jobs: int = 4096,
        state_dir: Optional[str] = None,
        max_open_nodes: Optional[int] = None,
        queue_deadline: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise SynthesisError("workers must be >= 1")
        if max_queue < 1:
            raise SynthesisError("max_queue must be >= 1")
        if max_jobs < 1:
            raise SynthesisError("max_jobs must be >= 1")
        if max_open_nodes is not None and max_open_nodes < 1:
            raise SynthesisError("max_open_nodes must be >= 1")
        if queue_deadline is not None and queue_deadline <= 0:
            raise SynthesisError("queue_deadline must be > 0")
        self.workers = workers
        self.max_queue = max_queue
        self.max_jobs = max_jobs
        self.max_open_nodes = max_open_nodes
        self.queue_deadline = queue_deadline
        self.state_dir = state_dir
        self._journal: Optional[persist.Journal] = None
        # Only jobs with a journaled ``submit`` get an ``end`` record
        # (cache hits and queue-full rejections never touch the disk).
        self._journaled: Set[str] = set()
        self.jobs_recovered = 0
        self.cache = ResultCache(max_entries=cache_size)
        self.jobs: Dict[str, JobRecord] = {}
        self._retired: Deque[str] = deque()
        self.draining = False
        self.started_at = time.monotonic()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_timed_out = 0
        self.jobs_shed = 0
        #: Largest open-frontier size any exploration reported and the
        #: total subtrees evicted under ``max_open`` caps — the
        #: ``/stats`` gauges that show how close the fleet runs to its
        #: memory ceiling and how often degradation actually engages.
        self.frontier_high_water = 0
        self.subtrees_evicted = 0
        #: EMA of completed-job wall seconds, feeding ``retry_after``.
        self._job_seconds_ema: Optional[float] = None
        # Created lazily from inside the event loop: on Python 3.9
        # asyncio primitives bind their loop at construction time, and
        # the engine may be built on a different thread than it runs.
        self._queue: Optional["asyncio.PriorityQueue"] = None
        self._seq = 0
        self._in_flight = 0
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}

    def _ensure_queue(self) -> "asyncio.PriorityQueue":
        if self._queue is None:
            self._queue = asyncio.PriorityQueue()
        return self._queue

    def _queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker fleet (idempotent).

        With a ``state_dir`` this first runs crash recovery: journal
        replay, cache re-install, compaction, and re-enqueueing of
        interrupted jobs — all before the first worker wakes up, so
        recovered jobs keep their submission order at the queue head.
        """
        if self._workers:
            return
        self._ensure_queue()
        if self.state_dir is not None and self._journal is None:
            self._recover()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.workers)
        ]

    def _recover(self) -> None:
        """Replay the journal, seed the cache, re-enqueue survivors."""
        os.makedirs(self.state_dir, exist_ok=True)
        path = persist.journal_path(self.state_dir)
        recovered = persist.replay(path)
        for key, text in recovered.cache_entries.items():
            self.cache.store(key, text)
        for family, (cost, mapping) in recovered.warm_entries.items():
            self.cache.offer_warm(family, cost, mapping)
        persist.compact(path, recovered)
        self._journal = persist.Journal(path)
        ensure_job_ids_above(recovered.max_job_number)
        for job_id, payload in recovered.pending.items():
            try:
                self.submit(payload, _job_id=job_id)
            except SynthesisError:
                # A journaled spec the current build rejects (schema
                # drift, full queue) is dropped, not fatal to boot.
                continue
            self.jobs_recovered += 1

    async def shutdown(self) -> None:
        """Drain in-flight work, then stop workers and executor."""
        self.draining = True
        while self._queue_depth() or self._in_flight:
            await asyncio.sleep(0.01)
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- submission ----------------------------------------------------
    def submit(
        self, payload: object, _job_id: Optional[str] = None
    ) -> JobRecord:
        """Validate, cache-check, and enqueue one job payload.

        Raises :class:`~repro.serve.jobs.JobValidationError` on a
        malformed payload (400) and :class:`ServiceUnavailable` when
        draining or over the queue bound (503).  Exact cache hits
        return an already-``done`` record without touching the queue.

        ``_job_id`` is recovery-only: a journal replay re-enqueues an
        interrupted job under the id its original client was given.
        """
        if self.draining:
            raise ServiceUnavailable(
                "service is draining; retry later", retry_after=2.0
            )
        spec = JobSpec.from_payload(payload)
        workload = build_workload(spec)
        if _job_id is None:
            job = JobRecord(
                spec=spec, workload=workload, created=time.monotonic()
            )
        else:
            job = JobRecord(
                spec=spec,
                workload=workload,
                created=time.monotonic(),
                job_id=_job_id,
            )
        self.jobs[job.job_id] = job
        self.jobs_submitted += 1

        if spec.use_cache:
            cached = self.cache.lookup(workload.job_key)
            if cached is not None:
                job.cache_status = "hit"
                job.started = job.created
                job.finished = time.monotonic()
                job.result_text = cached
                job.result = json.loads(cached)
                job.state = "done"
                self.jobs_completed += 1
                self._publish(job, {"event": "queued", "job": job.job_id})
                self._publish(
                    job,
                    {
                        "event": "done",
                        "job": job.job_id,
                        "cache": "hit",
                        "best": job.result.get("best"),
                    },
                )
                return job

        if self._ensure_queue().qsize() >= self.max_queue:
            # The record stays queryable so clients can see the
            # rejection, but it never enters the queue.
            job.state = "failed"
            job.error = "queue full"
            self.jobs_failed += 1
            self._publish(
                job,
                {
                    "event": "failed",
                    "job": job.job_id,
                    "error": job.error,
                },
            )
            raise ServiceUnavailable(
                "job queue is full; retry later",
                retry_after=self._retry_hint(),
            )

        if self._journal is not None:
            # Journal before enqueueing: once a worker can see the
            # job, a crash must find it in the log.  Cache hits and
            # rejections above never touch the disk.
            self._journal.submit(job.job_id, spec_payload(spec))
            self._journaled.add(job.job_id)
        self._seq += 1
        self._ensure_queue().put_nowait((-spec.priority, self._seq, job))
        self._publish(job, {"event": "queued", "job": job.job_id})
        return job

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        """The job record of ``job_id`` (raises :class:`UnknownJob`)."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(f"no job named {job_id!r}") from None

    def subscribe(self, job_id: str) -> "asyncio.Queue":
        """An event queue replaying the job's history, then live.

        Terminal events are the stream's natural end; subscribers to
        already-terminal jobs get the full replay immediately.
        """
        job = self.get(job_id)
        queue: "asyncio.Queue" = asyncio.Queue()
        for event in job.events:
            queue.put_nowait(event)
        if job.state not in TERMINAL_STATES:
            self._subscribers.setdefault(job_id, []).append(queue)
        return queue

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` payload: queue, throughput, cache, limits."""
        uptime = max(time.monotonic() - self.started_at, 1e-9)
        return {
            "uptime_seconds": round(uptime, 3),
            "draining": self.draining,
            "workers": self.workers,
            "jobs_tracked": len(self.jobs),
            "queue_depth": self._queue_depth(),
            "in_flight": self._in_flight,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_timed_out": self.jobs_timed_out,
            "jobs_shed": self.jobs_shed,
            "jobs_recovered": self.jobs_recovered,
            "persistent": self.state_dir is not None,
            "jobs_per_sec": round(self.jobs_completed / uptime, 6),
            "cache": self.cache.stats(),
            "frontier_high_water": self.frontier_high_water,
            "subtrees_evicted": self.subtrees_evicted,
            "max_open_nodes": self.max_open_nodes,
            "queue_deadline": self.queue_deadline,
        }

    def _retry_hint(self) -> float:
        """Seconds until the queue likely has room again.

        Queue depth × the completion-time EMA spread over the worker
        fleet, clamped to [1, 60] — rough, but it turns a thundering
        herd of instant resubmits into a paced one.
        """
        ema = self._job_seconds_ema
        if ema is None:
            return 1.0
        estimate = self._queue_depth() * ema / self.workers
        return min(60.0, max(1.0, estimate))

    # -- internals -----------------------------------------------------
    def _publish(self, job: JobRecord, event: Dict[str, object]) -> None:
        job.events.append(event)
        for queue in self._subscribers.get(job.job_id, ()):
            queue.put_nowait(event)
        if event.get("event") in TERMINAL_STATES:
            if self._journal is not None and job.job_id in self._journaled:
                self._journaled.discard(job.job_id)
                self._journal.end(job.job_id, job.state)
            self._subscribers.pop(job.job_id, None)
            self._retire(job)

    def _retire(self, job: JobRecord) -> None:
        """Bound the jobs table: evict the oldest terminal records.

        Every terminal transition publishes exactly one terminal
        event, so each job is retired once.  Only terminal jobs enter
        the eviction queue — queued/running records are bounded by
        ``max_queue`` + the worker count and never evicted.
        """
        self._retired.append(job.job_id)
        while len(self._retired) > self.max_jobs:
            evicted = self._retired.popleft()
            self.jobs.pop(evicted, None)
            self._subscribers.pop(evicted, None)

    async def _worker_loop(self) -> None:
        while True:
            _, _, job = await self._ensure_queue().get()
            self._in_flight += 1
            try:
                failure: Optional[Exception] = None
                try:
                    if self._should_shed(job):
                        self._shed(job)
                    else:
                        await self._run_job(job)
                except Exception as exc:  # backstop
                    # Only capture it: while the handler runs, the live
                    # traceback pins the failed search's frames, so an
                    # allocation here could fail again after a real
                    # MemoryError.
                    failure = exc
                if failure is not None:
                    self._fail(job, failure)
                    del failure
            finally:
                self._in_flight -= 1
                self._queue.task_done()

    def _fail(self, job: JobRecord, exc: Exception) -> None:
        """Backstop: end a job whose run raised unexpectedly."""
        if isinstance(exc, MemoryError):
            # Release the frames of the search that exhausted the heap
            # before building the error text.
            exc.__traceback__ = None
        job.error = f"{type(exc).__name__}: {exc}"
        job.state = "failed"
        self.jobs_failed += 1
        self._publish(
            job,
            {"event": "failed", "job": job.job_id, "error": job.error},
        )
        traceback.print_exception(type(exc), exc, exc.__traceback__)

    def _seed_for(self, workload: Workload):
        """The warm-adjacent incumbent of this job's family, if sound."""
        spec = workload.spec
        if not spec.warm_cache:
            return None
        seed = self.cache.warm_seed(workload.family_key)
        if seed is None:
            return None
        return mapping_from_payload(seed[1])

    def _should_shed(self, job: JobRecord) -> bool:
        """Whether admission control refuses to start this job now.

        Only with a configured ``queue_deadline``: a job that waited
        past it — or whose own ``time_budget`` fully elapsed before a
        worker freed up — would start already doomed, so it is shed
        instead of run late.
        """
        if self.queue_deadline is None:
            return False
        now = time.monotonic()
        if now - job.created > self.queue_deadline:
            return True
        budget = job.spec.time_budget
        return budget is not None and now >= job.created + budget

    def _shed(self, job: JobRecord) -> None:
        """Load-shed one queued job: distinct terminal state, no run."""
        now = time.monotonic()
        waited = now - job.created
        job.finished = now
        job.state = "shed"
        job.error = (
            f"shed after {waited:.3f}s in queue "
            f"(queue_deadline={self.queue_deadline}s)"
        )
        self.jobs_shed += 1
        self._publish(
            job,
            {
                "event": "shed",
                "job": job.job_id,
                "error": job.error,
                "waited_seconds": round(waited, 6),
                "retry_after": self._retry_hint(),
            },
        )

    def _lineage_explorer(self, job: JobRecord, deadline: Optional[float]):
        """A per-job explorer copy with deadline + daemon cap applied.

        Returns ``(explorer, engine_capped)``.  The job deadline is
        threaded as an absolute instant (every explorer polls it at
        256-node granularity, so the in-search overshoot is bounded by
        one poll interval, not one lineage).  ``engine_capped`` flags
        that the daemon-wide ``max_open_nodes`` tightened the
        explorer's frontier cap below what the job key asked for —
        the caller must keep such results out of the exact cache if
        the cap actually evicted, because the bytes then depend on
        daemon flags rather than the key alone.
        """
        explorer = job.workload.explorer
        cap = self.max_open_nodes
        can_cap = cap is not None and hasattr(explorer, "max_open")
        if deadline is None and not can_cap:
            return explorer, False
        clone = copy.copy(explorer)
        engine_capped = False
        if deadline is not None:
            clone.deadline = deadline
        if can_cap and (clone.max_open is None or clone.max_open > cap):
            clone.max_open = cap
            engine_capped = True
        return clone, engine_capped

    def _timeout_job(
        self, job: JobRecord, results, next_lineage: int
    ) -> None:
        """Flip a deadline-hit job to ``timeout`` with its partial.

        The completed selections become a *partial* result on the
        status view (but never ``result_text`` — ``/result`` stays
        409 and partial bytes never enter the exact cache).
        ``next_lineage`` is the first lineage a resubmission must
        redo: the one the deadline landed in (its finished tasks, if
        any, ride along in the partial but are re-proven on resume).
        """
        spec = job.spec
        workload = job.workload
        job.finished = time.monotonic()
        job.state = "timeout"
        job.error = (
            f"time budget {spec.time_budget}s exhausted after "
            f"{len(results)} of {workload.selection_count} selections"
        )
        partial = job_result_payload(results)
        partial["partial"] = {
            "completed_selections": len(results),
            "total_selections": workload.selection_count,
            "next_lineage": next_lineage,
            "resumable": True,
        }
        job.result = partial
        self.jobs_timed_out += 1
        self._publish(
            job,
            {
                "event": "timeout",
                "job": job.job_id,
                "error": job.error,
                "completed_selections": len(results),
                "partial": partial["partial"],
            },
        )

    async def _run_job(self, job: JobRecord) -> None:
        loop = asyncio.get_event_loop()
        spec = job.spec
        workload = job.workload
        job.state = "running"
        job.started = time.monotonic()
        deadline = (
            job.started + spec.time_budget
            if spec.time_budget is not None
            else None
        )
        seed = self._seed_for(workload)
        if seed is not None:
            job.cache_status = "warm"
        self._publish(
            job,
            {
                "event": "running",
                "job": job.job_id,
                "cache": job.cache_status,
                "selections": workload.selection_count,
            },
        )

        lineages = shard_lineages(workload.tasks, spec.lineage_size)
        incumbent = LocalIncumbent() if spec.share_incumbent else None
        results = []
        evicted = 0
        for lineage in lineages:
            if deadline is not None and time.monotonic() >= deadline:
                self._timeout_job(job, results, lineage.index)
                return
            explorer, engine_capped = self._lineage_explorer(
                job, deadline
            )
            explorer = attach_incumbent(explorer, incumbent)
            lineage_results = await loop.run_in_executor(
                self._executor,
                _run_lineage_guarded,
                workload.family,
                explorer,
                spec.warm_start,
                lineage,
                seed,
                deadline,
            )
            results.extend(lineage_results)
            for r in lineage_results:
                exploration = r.exploration
                if exploration.open_high_water > self.frontier_high_water:
                    self.frontier_high_water = exploration.open_high_water
                self.subtrees_evicted += exploration.evicted_subtrees
                if engine_capped:
                    evicted += exploration.evicted_subtrees
            if len(lineage_results) < len(lineage.tasks):
                # The deadline interrupted this lineage mid-flight:
                # run_lineage returned only the tasks it finished
                # cleanly, and this lineage must be redone on resume.
                self._timeout_job(job, results, lineage.index)
                return
            best = min(
                (
                    r.exploration.cost
                    for r in results
                    if r.exploration.feasible
                ),
                default=None,
            )
            self._publish(
                job,
                {
                    "event": "lineage",
                    "job": job.job_id,
                    "lineage": lineage.index,
                    "completed_selections": len(results),
                    "total_selections": workload.selection_count,
                    "best_cost": best,
                },
            )

        payload = job_result_payload(results)
        text = canonical_json(payload)
        job.result = payload
        job.result_text = text
        job.finished = time.monotonic()
        job.state = "done"
        self.jobs_completed += 1
        elapsed = job.finished - job.started
        self._job_seconds_ema = (
            elapsed
            if self._job_seconds_ema is None
            else 0.8 * self._job_seconds_ema + 0.2 * elapsed
        )
        # A daemon-imposed frontier cap that actually evicted makes
        # the bytes a function of daemon flags, not the job key alone;
        # a cap that never engaged leaves them byte-identical to the
        # uncapped run (gauges live outside the canonical payload).
        if spec.use_cache and evicted == 0 and result_is_cacheable(
            spec, payload, warm_seeded=seed is not None
        ):
            self.cache.store(workload.job_key, text)
            if self._journal is not None:
                self._journal.cache(workload.job_key, text)
        best = payload.get("best")
        if best is not None:
            improved = self.cache.offer_warm(
                workload.family_key, best["cost"], best["mapping"]
            )
            if improved and self._journal is not None:
                self._journal.warm(
                    workload.family_key, best["cost"], best["mapping"]
                )
        self._publish(
            job,
            {
                "event": "done",
                "job": job.job_id,
                "cache": job.cache_status,
                "elapsed_seconds": round(job.finished - job.started, 6),
                "best": best,
            },
        )
