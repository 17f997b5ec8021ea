"""The traced run: per-layer counts, self times and tracing overhead.

Every traced run covers every layer, whatever ``--workload`` names: it
makes one pass of each workload's inputs untraced (the reference wall
time), then the same pass with the layer wrappers of ``tracing.py``
installed, and derives the per-layer metrics from the traced pass.
Metric names start with the workload they describe (``joint_dfs.``,
``joint_best_first.``, ``joint_checkpointed.``, ``space_sweep.``) or
with ``serve.`` for the daemon, which is traced under the
``serve_mix`` load.  ``*.trace_overhead_s`` is traced wall time minus
untraced wall time of the same pass.

Counts (nodes, kernel calls, replay moves, checkpoint emits and bytes,
journal appends) are pure functions of the inputs and repeat exactly
from one traced run to the next.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import serve_load
import tracing
from workloads import (
    JOINT_CONFIGS,
    JointSolver,
    PassStats,
    build_joint_cases,
    build_sweep_cases,
    load_expected,
    quantile,
    run_joint_pass,
    run_sweep_pass,
)

#: Jobs of the traced (and of the untraced reference) serve pass.
SERVE_JOBS = 240

#: Client threads of the serve passes.  Two jobs in flight put queue
#: waits and the interpreter-lock contention between the daemon's
#: workers and its event loop into the per-layer numbers; the measured
#: ``serve_mix`` load has one client, which keeps it steady.
SERVE_CLIENTS = 2


class _Metrics:
    """Metric values with their units, in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.units: Dict[str, str] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = value
        self.units[name] = unit


def _calls(agg, name: str) -> int:
    return int(agg.get(name, (0, 0.0, 0.0))[0])


def _inclusive_s(agg, name: str) -> float:
    return agg.get(name, (0, 0.0, 0.0))[1]


def _self_s(agg, prefix: str) -> float:
    return sum(e[2] for name, e in agg.items() if name.startswith(prefix))


def _search_layers(out: _Metrics, prefix: str, agg, wall: float) -> None:
    """Kernel, ordering and frontier numbers shared by every group."""
    for method in ("assign", "unassign", "lower_bound", "score_candidates"):
        calls = _calls(agg, f"state.{method}")
        out.put(f"{prefix}state.{method}_calls", calls, "count")
    state_s = _self_s(agg, "state.")
    out.put(f"{prefix}state.self_s", state_s, "s")
    out.put(f"{prefix}state.share", state_s / wall, "ratio")
    probes = _calls(agg, "ordering.probe_targets")
    out.put(f"{prefix}ordering.probe_calls", probes, "count")
    strong = _calls(agg, "ordering.strong_branch")
    out.put(f"{prefix}ordering.strong_branch_calls", strong, "count")
    out.put(f"{prefix}ordering.self_s", _self_s(agg, "ordering."), "s")
    explores = _calls(agg, "frontier.explore")
    out.put(f"{prefix}frontier.explore_calls", explores, "count")
    out.put(f"{prefix}frontier.self_s", _self_s(agg, "frontier."), "s")


def _space_layers(out: _Metrics, prefix: str, agg) -> None:
    enumerations = _calls(agg, "variants.enumerate")
    out.put(f"{prefix}variants.enumerate_calls", enumerations, "count")
    out.put(f"{prefix}variants.enumerate_s", _self_s(agg, "variants."), "s")
    builds = _calls(agg, "methods.problem_build")
    out.put(f"{prefix}methods.problem_build_calls", builds, "count")
    build_s = _self_s(agg, "methods.")
    out.put(f"{prefix}methods.problem_build_s", build_s, "s")


def _joint(out, tracer, out_dir, corpus, seed, stats) -> None:
    expected = load_expected("joint.json")[corpus]
    cases = build_joint_cases(corpus, seed)
    reference = {
        config: run_joint_pass(cases, JointSolver(config), expected, stats)[0]
        for config in JOINT_CONFIGS
    }
    with tracing.installed(tracer, search=True):
        for config in JOINT_CONFIGS:
            tracer.reset()
            solver = JointSolver(config)
            wall, results = run_joint_pass(cases, solver, expected, stats)
            agg = tracer.aggregates()
            prefix = f"joint_{config}."
            nodes = sum(result.nodes_explored for result in results)
            out.put(f"{prefix}frontier.nodes", nodes, "count")
            per_node = reference[config] / nodes * 1e6
            out.put(f"{prefix}frontier.us_per_node", per_node, "us")
            _search_layers(out, prefix, agg, wall)
            if config != "dfs":
                restores = _calls(agg, "trail.restore")
                moves = tracer.counters.get("trail.replay_moves", 0)
                out.put(f"{prefix}trail.restore_calls", restores, "count")
                out.put(f"{prefix}trail.replay_moves", moves, "count")
                out.put(f"{prefix}trail.self_s", _self_s(agg, "trail."), "s")
            if config == "best_first":
                high = max(result.open_high_water for result in results)
                out.put(f"{prefix}frontier.open_high_water", high, "count")
            if config == "checkpointed":
                emit_s = _self_s(agg, "checkpoint.")
                ratio = reference["checkpointed"] / reference["dfs"]
                out.put(f"{prefix}checkpoint.emits", solver.emits, "count")
                out.put(f"{prefix}checkpoint.bytes", solver.bytes, "bytes")
                out.put(f"{prefix}checkpoint.emit_s", emit_s, "s")
                out.put(f"{prefix}checkpoint.driver_ratio", ratio, "ratio")
            overhead = wall - reference[config]
            out.put(f"{prefix}trace_overhead_s", overhead, "s")
            tracer.dump(os.path.join(out_dir, f"trace-joint_{config}.json"))


def _sweep(out, tracer, out_dir, corpus, seed, stats) -> None:
    expected = load_expected("sweep.json")[corpus]
    cases = build_sweep_cases(corpus, seed)
    # The overhead is taken on the in-process (jobs=1) pass: a fleet
    # pass's wall time varies with process start-up by more than
    # tracing adds to it.
    reference = run_sweep_pass(cases, expected, stats, jobs=1)
    prefix = "space_sweep."
    with tracing.installed(tracer, search=True, space=True):
        tracer.reset()
        in_process = run_sweep_pass(cases, expected, stats, jobs=1)
        agg = tracer.aggregates()
        _search_layers(out, prefix, agg, in_process)
        _space_layers(out, prefix, agg)
        run_lineage_s = _inclusive_s(agg, "parallel.run_lineage")
        out.put(f"{prefix}parallel.run_lineage_s", run_lineage_s, "s")
        tracer.dump(os.path.join(out_dir, "trace-space_sweep-jobs1.json"))

        tracer.reset()
        fleet_pass = run_sweep_pass(cases, expected, stats, jobs=2)
        agg = tracer.aggregates()
        fleets = _calls(agg, "parallel.fleet")
        lineages = tracer.counters.get("parallel.lineages", 0)
        fleet_s = _inclusive_s(agg, "parallel.fleet")
        efficiency = run_lineage_s / (2 * fleet_pass)
        out.put(f"{prefix}parallel.fleet_calls", fleets, "count")
        out.put(f"{prefix}parallel.lineages", lineages, "count")
        out.put(f"{prefix}parallel.fleet_wall_s", fleet_s, "s")
        out.put(f"{prefix}parallel.efficiency", efficiency, "ratio")
        tracer.dump(os.path.join(out_dir, "trace-space_sweep-jobs2.json"))
    out.put(f"{prefix}trace_overhead_s", in_process - reference, "s")


def _serve_pass(root, out_dir, corpus, seed, trace_path=None):
    """One fixed-size serve_mix load; returns (load, exit code)."""
    daemon, bodies = serve_load.boot(root, out_dir, corpus, trace_path)
    try:
        load = serve_load.run_load(
            daemon.port,
            serve_load.JobStream(seed, corpus),
            bodies,
            jobs=SERVE_JOBS,
            clients=SERVE_CLIENTS,
        )
    finally:
        code = daemon.stop()
    return load, code


def _durations(spans, name: str) -> List[float]:
    return [span[2] - span[1] for span in spans if span[0] == name]


def _ms(values: List[float], q: float) -> float:
    return quantile(values, q) * 1e3


def _serve(out, root, out_dir, corpus, seed) -> Tuple[int, int]:
    plain, plain_code = _serve_pass(root, out_dir, corpus, seed)
    trace_path = os.path.join(out_dir, "trace-serve.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    traced, traced_code = _serve_pass(
        root, out_dir, corpus, seed, trace_path
    )
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    agg, spans = trace["aggregates"], trace["spans"]
    samples, counters = trace["samples"], trace["counters"]

    hit_submits = samples["serve.submit.hit"]
    submits = hit_submits + samples["serve.submit.miss"]
    builds = _durations(spans, "serve.build_workload")
    lookups = _durations(spans, "serve.cache_lookup")
    hit_frac = counters["serve.cache_hits"] / counters["serve.cache_lookups"]
    waits = samples["serve.queue_wait"]
    # One job's lineages share its explorer object: its id is the tag.
    per_job: Dict[object, float] = defaultdict(float)
    for span in spans:
        if span[0] == "serve.search":
            per_job[span[5]] += span[2] - span[1]
    search = list(per_job.values())
    encode = [
        payload + text
        for payload, text in zip(
            _durations(spans, "serve.encode_payload"),
            _durations(spans, "serve.encode_json"),
        )
    ]
    fsync = _durations(spans, "serve.journal_append")
    http_ms = _ms(traced.latencies["hit"], 0.5) - _ms(hit_submits, 0.5)

    out.put("serve.submit_ms", _ms(submits, 0.5), "ms")
    out.put("serve.build_workload_ms", _ms(builds, 0.5), "ms")
    out.put("serve.cache_lookup_us", quantile(lookups, 0.5) * 1e6, "us")
    out.put("serve.hit_frac", hit_frac, "ratio")
    out.put("serve.queue_wait_p50_ms", _ms(waits, 0.5), "ms")
    out.put("serve.queue_wait_p90_ms", _ms(waits, 0.9), "ms")
    out.put("serve.search_p50_ms", _ms(search, 0.5), "ms")
    out.put("serve.search_p90_ms", _ms(search, 0.9), "ms")
    out.put("serve.result_encode_ms", _ms(encode, 0.5), "ms")
    out.put("serve.journal_appends", len(fsync), "count")
    out.put("serve.journal_fsync_p50_ms", _ms(fsync, 0.5), "ms")
    out.put("serve.journal_fsync_p90_ms", _ms(fsync, 0.9), "ms")
    out.put("serve.http_overhead_ms", http_ms, "ms")
    _search_layers(out, "serve.", agg, sum(search))
    _space_layers(out, "serve.", agg)
    out.put("serve.trace_overhead_s", traced.wall - plain.wall, "s")
    attempted = plain.attempted + traced.attempted + 2
    failed = plain.failed + traced.failed
    failed += (plain_code != 0) + (traced_code != 0)
    return attempted, failed


def run_suite(root: str, out_dir: str, corpus: str, seed: int):
    """All traced passes: (metrics, units, attempted, failed, info)."""
    started = time.perf_counter()
    out = _Metrics()
    tracer = tracing.Tracer()
    stats = PassStats()
    _joint(out, tracer, out_dir, corpus, seed, stats)
    _sweep(out, tracer, out_dir, corpus, seed, stats)
    attempted, failed = _serve(out, root, out_dir, corpus, seed)
    info = {
        "suite_seconds": time.perf_counter() - started,
        "serve_jobs": SERVE_JOBS,
    }
    attempted += stats.attempted
    failed += stats.failed
    return out.values, out.units, attempted, failed, info
