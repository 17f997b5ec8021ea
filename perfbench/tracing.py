"""In-memory span tracer and the layer wrappers of the traced run.

The tracer wraps the public entry points of each layer *from outside*
the package: nothing under ``src/`` changes.  A wrapped call becomes a
span (name, start, end, parent).  Self time — a span's duration minus
the part its child spans cover — is accumulated per span name as the
call returns, so the per-layer breakdown never needs the raw spans.
Raw span records are kept in memory for every layer except the kernel
(``state.*``), whose millions of calls are only aggregated, and are
written out once, when the run ends.

Names are patched where they are looked up: a module that imported a
function by name (``from .ordering import probe_targets``) keeps its
own reference, so each such module gets the wrapper too, and
``_NumpySearchState`` overrides of wrapped ``SearchState`` methods are
wrapped on that class as well.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span-name prefixes whose raw records are not retained (aggregated
#: only): the kernel is called per search node and would dominate the
#: tracer's memory.
AGGREGATE_ONLY = ("state.",)


class _ThreadLog:
    """One thread's span stack, aggregates and retained spans."""

    __slots__ = ("stack", "agg", "spans")

    def __init__(self) -> None:
        # Each frame: [child_seconds, span_id] (-1 id: no parent).
        self.stack: List[list] = []
        # name -> [calls, inclusive_seconds, self_seconds]
        self.agg: Dict[str, List[float]] = {}
        # (name, start, end, span_id, parent_id, tag)
        self.spans: List[tuple] = []


class Tracer:
    """Thread-aware span recorder shared by every wrapper."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        #: Free-form samples (name -> values), e.g. queue waits.
        self.samples: Dict[str, List[float]] = {}
        #: Plain counters (name -> int), e.g. PathTrail replay moves.
        self.counters: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """A span-recording wrapper of ``fn``.

        ``tag(args)`` attaches a value to the retained span record;
        ``on_exit(args, result, seconds)`` runs after the span closed.
        """
        retain = not name.startswith(AGGREGATE_ONLY)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            parent = stack[-1][1] if stack else -1
            # An aggregated-only span passes its parent on to children.
            frame = [0.0, next(ids) if retain else parent]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][0] += seconds
                entry = log.agg.get(name)
                if entry is None:
                    entry = log.agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame[0]
                if retain:
                    log.spans.append(
                        (
                            name,
                            start,
                            end,
                            frame[1],
                            parent,
                            tag(args) if tag is not None else None,
                        )
                    )
                if on_exit is not None:
                    on_exit(args, result, seconds)

        return wrapper

    # -- reading -------------------------------------------------------
    def aggregates(self) -> Dict[str, List[float]]:
        """Merged ``name -> [calls, inclusive_s, self_s]``."""
        merged: Dict[str, List[float]] = {}
        for log in list(self._logs):
            for name, (calls, total, own) in log.agg.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def spans(self) -> List[tuple]:
        out: List[tuple] = []
        for log in list(self._logs):
            out.extend(log.spans)
        return out

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._lock:
            for log in self._logs:
                log.agg.clear()
                log.spans.clear()
            self.samples.clear()
            self.counters.clear()

    def dump(self, path: str) -> None:
        """Write aggregates, samples, counters and spans as one JSON."""
        payload = {
            "aggregates": self.aggregates(),
            "samples": self.samples,
            "counters": self.counters,
            "spans": [list(span) for span in self.spans()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
#: Public ``SearchState`` entry points wrapped as kernel spans.
STATE_METHODS = (
    "__init__",
    "assign",
    "unassign",
    "reassign",
    "lower_bound",
    "basic_lower_bound",
    "leaf",
    "to_mapping",
    "evaluation",
    "score_candidates",
    "probe_move",
    "used_processors",
)


class _Patches:
    """Attribute replacements that remember what they replaced."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[tuple] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def span(self, owner, attr: str, name: str, **hooks) -> None:
        """Wrap ``owner.attr`` as span ``name``."""
        wrapped = self.tracer.wrap(getattr(owner, attr), name, **hooks)
        self.replace(owner, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer, search=False, space=False, serve=False):
    """Install the chosen layer wrappers; restore the originals on exit."""
    patches = _Patches(tracer)
    try:
        if search:
            _install_search(patches)
        if space:
            _install_space(patches)
        if serve:
            _install_serve(patches)
        yield tracer
    finally:
        patches.undo()


def _install_search(patches: _Patches) -> None:
    """Kernel, ordering, frontier, trail and checkpoint layers."""
    from repro.synth import checkpoint, explorer, ordering, state

    tracer = patches.tracer
    for cls in (state.SearchState, state._NumpySearchState):
        for method in STATE_METHODS:
            if method in vars(cls):
                patches.span(cls, method, f"state.{method}")
        if "feasible" in vars(cls):
            getter = vars(cls)["feasible"].fget
            wrapped = tracer.wrap(getter, "state.feasible")
            patches.replace(cls, "feasible", property(wrapped))

    for module in (ordering, explorer, checkpoint):
        for func in ("probe_targets", "strong_branch"):
            if hasattr(module, func):
                patches.span(module, func, f"ordering.{func}")
    patches.span(explorer, "unit_order", "ordering.unit_order")
    patches.span(
        explorer.BranchBoundExplorer, "explore", "frontier.explore"
    )

    original_restore = state.PathTrail.restore
    traced_restore = tracer.wrap(original_restore, "trail.restore")

    @functools.wraps(original_restore)
    def restore(self, path):
        # Replay distance: unwind to the common prefix, then replay.
        applied = self.path
        common = 0
        for have, want in zip(applied, path):
            if have != want:
                break
            common += 1
        moves = len(applied) + len(path) - 2 * common
        tracer.count("trail.replay_moves", moves)
        return traced_restore(self, path)

    patches.replace(state.PathTrail, "restore", restore)

    patches.span(checkpoint.Checkpointer, "emit", "checkpoint.emit")
    patches.span(
        checkpoint.SearchCheckpoint, "to_json", "checkpoint.to_json"
    )
    # Private, but it is where resumable DFS encodes its stack for
    # every snapshot, before ``emit`` is called.
    patches.span(
        checkpoint, "_encode_dfs_stack", "checkpoint.encode_stack"
    )


def _install_space(patches: _Patches) -> None:
    """Variant enumeration, problem build and fleet layers."""
    from repro.synth import methods, parallel

    tracer = patches.tracer
    # ``tasks_from_space`` enumerates through ``tasks_for_range``.
    patches.span(parallel, "tasks_for_range", "variants.enumerate")
    for attr in ("problem_for_units", "problem_for"):
        patches.span(methods.ProblemFamily, attr, "methods.problem_build")
    patches.span(parallel, "run_lineage", "parallel.run_lineage")

    # ``_run_supervised`` is where every worker fleet starts; its
    # payloads are the dispatched lineages.
    original = parallel._run_supervised
    traced_fleet = tracer.wrap(original, "parallel.fleet")

    @functools.wraps(original)
    def fleet(*args, **kwargs):
        payloads = kwargs["payloads"] if "payloads" in kwargs else args[3]
        tracer.count("parallel.lineages", len(payloads))
        return traced_fleet(*args, **kwargs)

    patches.replace(parallel, "_run_supervised", fleet)


def _install_serve(patches: _Patches) -> None:
    """Daemon submit, cache, queue, search, encode and journal."""
    from repro.serve import cache, engine, persist

    tracer = patches.tracer

    def submit_outcome(_args, job, seconds):
        if job is not None:
            kind = "hit" if job.cache_status == "hit" else "miss"
            tracer.sample(f"serve.submit.{kind}", seconds)

    def lookup_outcome(_args, text, _seconds):
        tracer.count("serve.cache_lookups")
        if text is not None:
            tracer.count("serve.cache_hits")

    patches.span(
        engine.ServeEngine, "submit", "serve.submit", on_exit=submit_outcome
    )
    patches.span(engine, "build_workload", "serve.build_workload")
    patches.span(
        cache.ResultCache,
        "lookup",
        "serve.cache_lookup",
        on_exit=lookup_outcome,
    )
    # A job runs its lineages one after another on an executor thread,
    # all with the job's own explorer object, so that object's id
    # groups the lineage spans into per-job search time.
    patches.span(
        engine, "run_lineage", "serve.search", tag=lambda args: id(args[1])
    )
    # A finished job's result is encoded by these two calls, back to
    # back on the loop thread.
    patches.span(engine, "job_result_payload", "serve.encode_payload")
    patches.span(engine, "canonical_json", "serve.encode_json")
    patches.span(persist.Journal, "append", "serve.journal_append")

    run_job = engine.ServeEngine._run_job

    @functools.wraps(run_job)
    async def run_job_with_wait(self, job):
        # Coroutines interleave on the loop thread, so this one gets no
        # span; its queue wait is a plain sample.
        try:
            return await run_job(self, job)
        finally:
            if job.started is not None:
                wait = job.started - job.created
                tracer.sample("serve.queue_wait", wait)

    patches.replace(engine.ServeEngine, "_run_job", run_job_with_wait)
