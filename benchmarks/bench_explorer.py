"""X3 — DSE ablation: the flows are optimizer-agnostic, and the
incremental evaluator's speedup is measured, not asserted by hand.

All explorers must find the same optimum on the Table 1 decision
space; branch-and-bound should visit far fewer nodes than exhaustive
enumeration.  Two throughput measurements land in
``BENCH_explorer.json`` (mirrored at the repo root for cross-PR trend
tracking):

* **search throughput** — branch-and-bound on the incremental
  :class:`SearchState` vs. the full-recompute reference path (the
  seed behavior) under an identical node budget, both under the
  capacity-blind basic bound (the capacity-aware one proves this
  single-processor workload at the root, with no tree to time).  This
  is the end-to-end number: it includes the infeasibility pruning the
  incremental state enables, so the trees differ — it measures the
  search stack, not the evaluator alone.  The asserted speedup is the
  median over :data:`NOISE_REPEATS` interleaved pairs of runs.
* **evaluation throughput** — a same-work microbench: one fixed
  random walk of complete-mapping reassignments, evaluated step by
  step by the delta-mode state (``reassign`` + ``leaf()``) and by
  the from-scratch oracle (``Mapping`` + ``evaluate()``).  Identical
  work on both sides; this isolates the per-evaluation speedup.

Set ``BENCH_QUICK=1`` for the reduced CI workload.
"""

import math
import os
import random
import statistics
import threading
import time

from repro.apps import figure2
from repro.apps.generators import generate_system
from repro.report.tables import render_table
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.cost import evaluate
from repro.synth.mapping import Mapping, SynthesisProblem, Target
from repro.synth.methods import ProblemFamily, explore_space, variant_units
from repro.synth.state import SearchState
from repro.variants.variant_space import VariantSpace

from .conftest import (
    merge_json_artifact,
    quick_mode,
    write_artifact,
    write_json_artifact,
)


def table1_problem() -> SynthesisProblem:
    vgraph = figure2.build_variant_graph()
    units, origins = variant_units(vgraph)
    return SynthesisProblem(
        name="table1",
        units=units,
        library=figure2.table1_library(),
        architecture=figure2.table1_architecture(),
        origins=origins,
    )


def run_all_explorers():
    problem = table1_problem()
    explorers = {
        "exhaustive": ExhaustiveExplorer(),
        "branch_and_bound": BranchBoundExplorer(),
    }
    results = {}
    for name, explorer in explorers.items():
        result = explorer.explore(problem)
        results[name] = (result.cost, result.nodes_explored, result.optimal)
    return results


def test_explorers_agree_on_table1_optimum(benchmark):
    results = benchmark.pedantic(run_all_explorers, rounds=2, iterations=1)
    rows = [
        [name, cost, nodes, "yes" if optimal else "no"]
        for name, (cost, nodes, optimal) in results.items()
    ]
    text = render_table(
        ["explorer", "best cost", "nodes", "provably optimal"],
        rows,
        title="X3: explorer ablation on the Table 1 space",
    )
    write_artifact("explorer_ablation.txt", text)
    print("\n" + text)

    costs = {name: cost for name, (cost, _, _) in results.items()}
    assert costs["exhaustive"] == 41.0
    assert costs["branch_and_bound"] == 41.0
    nodes = {name: n for name, (_, n, _) in results.items()}
    assert nodes["branch_and_bound"] < nodes["exhaustive"]


def test_branch_bound_timing(benchmark):
    problem = table1_problem()
    explorer = BranchBoundExplorer()
    result = benchmark(lambda: explorer.explore(problem))
    assert result.cost == 41.0


# ----------------------------------------------------------------------
# Incremental vs. reference throughput (BENCH_explorer.json)
# ----------------------------------------------------------------------
def throughput_problem() -> SynthesisProblem:
    """A knapsack-hard workload where the bound stays loose for long.

    Zero processor cost and a tight capacity force the search to pick
    the cheapest hardware subset that makes the software partition
    fit — branch-and-bound must grind through many near-tie subtrees,
    which is exactly where per-node evaluation cost dominates.
    """
    system = generate_system(
        seed=3, n_variants=6, cluster_size=5, common_processes=5
    )
    units, origins = variant_units(system.vgraph)
    architecture = ArchitectureTemplate(
        name="throughput-bench",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=0.45,
    )
    return SynthesisProblem(
        name="throughput",
        units=units,
        library=system.library,
        architecture=architecture,
        origins=origins,
    )


#: Below this many samples a rate is statistical noise (a single
#: evaluation "measures" whatever the clock granularity says), so the
#: bench reports ``null`` and the regression gate skips it.
MIN_RATE_SAMPLES = 50


def _rate(samples: int, elapsed: float):
    if samples < MIN_RATE_SAMPLES:
        return None
    return round(samples / elapsed, 1)


#: Interleaved repeats behind a noise-prone ratio: the asserted value
#: is their median, so one scheduler hiccup on a shared runner cannot
#: decide the assertion.
NOISE_REPEATS = 5


def _nodes_ratio(numerator: int, denominator: int):
    """``numerator / denominator`` rounded, or None when the
    denominator is 0 (a run proved at the root, with no tree)."""
    if not denominator:
        return None
    return round(numerator / denominator, 2)


def _explore_in_fresh_stack(explorer, problem):
    """Run one exploration on a fresh thread and return the result.

    Deep-recursion timing is sensitive to the *base* call-stack depth:
    CPython ≥3.11 allocates frame stacks in fixed-size chunks, and a
    recursion that happens to oscillate across a chunk boundary pays a
    chunk-allocation round trip on every call at that depth.  Where
    the boundary lands depends on how many harness frames sit below
    the search (pytest adds ~30), so the same explorer can measure 2x
    slower purely from alignment.  A dedicated thread starts from
    depth ~1 and makes the measurement independent of the harness.
    """
    box = {}

    def run():
        box["result"] = explorer.explore(problem)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    return box["result"]


def _timed(explorer, problem, repeats: int = 1):
    """Time ``explorer.explore(problem)``, best of ``repeats`` runs.

    Explorers are stateless across ``explore`` calls, so every repeat
    searches the identical tree; the minimum elapsed time is the least
    noise-polluted sample (rate rows that feed bench_history baselines
    pass ``repeats=3`` so a single scheduler hiccup cannot fail the
    speedup assertions).  Each run gets a fresh thread stack — see
    :func:`_explore_in_fresh_stack`.
    """
    elapsed = None
    for _repeat in range(repeats):
        start = time.perf_counter()
        result = _explore_in_fresh_stack(explorer, problem)
        took = time.perf_counter() - start
        elapsed = took if elapsed is None or took < elapsed else elapsed
    return {
        "cost": result.cost if result.feasible else None,
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
        "evaluations": result.evaluations,
        "seconds": round(elapsed, 6),
        "nodes_per_sec": _rate(result.nodes_explored, elapsed),
        "evals_per_sec": _rate(result.evaluations, elapsed),
    }


def _probe_timed(explorer, problem):
    """Like :func:`_timed`, plus time spent scoring bounds.

    Temporarily wraps ``score_candidates`` *and* ``lower_bound`` with
    one accumulating clock, so the returned probe seconds isolate the
    bound-scoring share of each search node from the mutation share:
    expansions score their sibling sets (``score_candidates``) and the
    root reads its own bound (``lower_bound``).  Neither calls the
    other, so no time is counted twice.
    """
    from repro.synth import state as state_module

    clock = {"seconds": 0.0, "calls": 0}

    def _wrap(original):
        def timed_score(self, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                clock["seconds"] += time.perf_counter() - start
                clock["calls"] += 1

        return timed_score

    cls = state_module.SearchState
    originals = {
        method: cls.__dict__[method]
        for method in ("score_candidates", "lower_bound")
    }
    try:
        for method, original in originals.items():
            setattr(cls, method, _wrap(original))
        result = _timed(explorer, problem)
    finally:
        for method, original in originals.items():
            setattr(cls, method, original)
    return result, clock


def run_evaluation_microbench(problem: SynthesisProblem, steps: int):
    """Per-evaluation speedup on identical work (same move sequence).

    ``capacity_bound=False``: this bench isolates the *evaluation*
    path (``reassign`` + ``leaf()``), which never reads the lower
    bound — knapsack-pool upkeep is exercised (and measured) by the
    branch-and-bound sections instead.

    Candidate scoring is measured separately by
    :func:`run_batch_kernel`.
    """
    rng = random.Random(42)
    units = list(problem.units)
    initial = {}
    for unit in units:
        entry = problem.entry(unit)
        initial[unit] = (
            Target.hw() if entry.hardware is not None else Target.sw(0)
        )
    moves = []
    for _ in range(steps):
        unit = rng.choice(units)
        entry = problem.entry(unit)
        options = []
        if entry.software is not None:
            options.append(Target.sw(rng.randrange(2)))
        if entry.hardware is not None:
            options.append(Target.hw())
        moves.append((unit, rng.choice(options)))

    def replay(state):
        for unit, target in initial.items():
            state.assign(unit, target)
        start = time.perf_counter()
        n_feasible = 0
        checksum = 0.0
        for unit, target in moves:
            state.reassign(unit, target)
            feasible, cost = state.leaf()
            if feasible:
                n_feasible += 1
                checksum += cost
        return time.perf_counter() - start, n_feasible, checksum

    incremental_elapsed, incremental_feasible, incremental_checksum = (
        replay(SearchState(problem, capacity_bound=False))
    )

    assignment = dict(initial)
    start = time.perf_counter()
    reference_feasible = 0
    reference_checksum = 0.0
    for unit, target in moves:
        assignment[unit] = target
        result = evaluate(problem, Mapping(assignment))
        if result.feasible:
            reference_feasible += 1
            reference_checksum += result.total_cost
    reference_elapsed = time.perf_counter() - start

    # Both paths must agree on every step (costs up to summation-order
    # float noise; the grid-float property suite checks exactness).
    assert incremental_feasible == reference_feasible
    assert abs(incremental_checksum - reference_checksum) <= 1e-6 * max(
        1.0, abs(reference_checksum)
    )
    return {
        "steps": steps,
        "incremental_evals_per_sec": round(steps / incremental_elapsed, 1),
        "reference_evals_per_sec": round(steps / reference_elapsed, 1),
        "speedup": round(reference_elapsed / incremental_elapsed, 2),
    }


def batch_problem() -> SynthesisProblem:
    """The knapsack-hard workload widened to a real processor fan-out.

    Same generated system as :func:`throughput_problem`, but with 32
    processors available and a per-processor capacity tight enough
    that good mappings *occupy* many of them: every flexible unit then
    has ~33 probe-able targets, and the search's symmetry-broken
    candidate lists (occupied processors + one fresh) grow wide too —
    wide sibling sets for the candidate scorer
    (``max_processors=1`` would hand it batches of two).
    """
    system = generate_system(
        seed=3, n_variants=6, cluster_size=5, common_processes=5
    )
    units, origins = variant_units(system.vgraph)
    architecture = ArchitectureTemplate(
        name="batch-bench",
        max_processors=32,
        processor_cost=0.5,
        processor_capacity=0.12,
    )
    return SynthesisProblem(
        name="batch",
        units=units,
        library=system.library,
        architecture=architecture,
        origins=origins,
    )


def run_batch_kernel(rounds: int, node_budget: int):
    """Non-mutating candidate scoring on the wide workload.

    Two measurements:

    * **probe microbench** — a fixed sequence of full-sibling-batch
      ``score_candidates`` calls on a half-built mapping;
      ``scalar_probes_per_sec`` is gated higher-is-better in
      ``check_regression.py``.  The scorer reads every candidate from
      the current aggregates without mutating the state: the first
      pass is asserted, in-bench, byte-identical to the definitional
      assign / bound / unassign loop, with the assignment untouched.
    * **per-node probe cost** — best-first branch-and-bound (which
      probes the whole sibling batch at every expansion; that is the
      frontier's mechanism, not an ordering option) on the wide
      workload under a node budget, with the time spent scoring bounds
      accounted separately (see :func:`_probe_timed`);
      ``probe_cost_per_node_us`` is the scoring share of each node.
    """
    problem = batch_problem()
    rng = random.Random(11)
    units = list(problem.units)

    # A deterministic half-built mapping: probes then see populated
    # processor columns, shared-exclusion clusters, and a live pool.
    prefix = []
    for unit in units[: len(units) // 2]:
        entry = problem.entry(unit)
        if entry.software is not None:
            prefix.append((unit, Target.sw(rng.randrange(16))))
        else:
            prefix.append((unit, Target.hw()))
    probe_units = [
        unit
        for unit in units[len(units) // 2 :]
        if problem.entry(unit).software is not None
    ]
    max_processors = problem.architecture.max_processors

    # Candidate lists are built once, outside the timed loops: the
    # measurement isolates scoring cost, not Target construction.
    targets_of = {}
    for unit in probe_units:
        targets = [Target.sw(cpu) for cpu in range(max_processors)]
        if problem.entry(unit).hardware is not None:
            targets.append(Target.hw())
        targets_of[unit] = targets

    state = SearchState(problem)
    for unit, target in prefix:
        state.assign(unit, target)
    before = list(state.assignment.items())
    # Byte-identity against the mutate oracle, once per probe unit.
    for unit in probe_units[: min(rounds, len(probe_units))]:
        oracle = []
        for target in targets_of[unit]:
            state.assign(unit, target)
            oracle.append((state.lower_bound(), state.feasible))
            state.unassign(unit)
        assert state.score_candidates(unit, targets_of[unit]) == oracle
    assert list(state.assignment.items()) == before
    # Best-of-3 repeats: the probe sequence is identical every time,
    # so the minimum is the least noise-polluted sample.
    best = None
    for _repeat in range(3):
        probes = 0
        start = time.perf_counter()
        for index in range(rounds):
            unit = probe_units[index % len(probe_units)]
            probes += len(state.score_candidates(unit, targets_of[unit]))
        took = time.perf_counter() - start
        best = took if best is None or took < best else best

    result, probe_clock = _probe_timed(
        BranchBoundExplorer(node_budget=node_budget, frontier="best-first"),
        problem,
    )
    nodes = result["nodes"]
    result["probe_seconds"] = round(probe_clock["seconds"], 4)
    result["probe_calls"] = probe_clock["calls"]
    result["probe_cost_per_node_us"] = (
        round(probe_clock["seconds"] / nodes * 1e6, 2) if nodes else None
    )
    return {
        "workload": problem.name,
        "max_processors": max_processors,
        "rounds": rounds,
        "probes": probes,
        "scalar_probes_per_sec": _rate(probes, best),
        "bnb_node_budget": node_budget,
        "bnb_frontier": "best-first",
        "bnb": {"python": result},
    }


def run_throughput_comparison(
    node_budget: int, repeats: int = NOISE_REPEATS
):
    """Incremental vs reference search throughput on one workload.

    Both rows pin the static order and the capacity-blind basic bound,
    so both sides prune alike: the capacity-aware incremental search
    proves this single-processor workload at the root presolve, and
    adaptive ordering proves it in so few nodes that a rate would be
    statistical noise.  The rows track search-stack throughput against
    their bench_history baselines on an unchanged workload; the bound,
    ordering and frontier wins have their own sections, the candidate
    scorer its own (``batch_kernel``).

    The two explorers run in ``repeats`` interleaved pairs.  Each row
    is its fastest run; the returned speedup is the median of the
    pairs' node-rate ratios (None when a rate was withheld).
    """
    problem = throughput_problem()
    explorers = {
        "branch_and_bound_incremental": BranchBoundExplorer(
            node_budget=node_budget,
            capacity_bound=False,
            ordering="static",
        ),
        "branch_and_bound_reference": BranchBoundExplorer(
            node_budget=node_budget,
            incremental=False,
            ordering="static",
        ),
    }
    runs = {name: [] for name in explorers}
    for _repeat in range(repeats):
        for name, explorer in explorers.items():
            runs[name].append(_timed(explorer, problem))
    report = {
        name: min(samples, key=lambda run: run["seconds"])
        for name, samples in runs.items()
    }
    ratios = [
        fast["nodes_per_sec"] / slow["nodes_per_sec"]
        for fast, slow in zip(
            runs["branch_and_bound_incremental"],
            runs["branch_and_bound_reference"],
        )
        if fast["nodes_per_sec"] is not None
        and slow["nodes_per_sec"] is not None
    ]
    speedup = statistics.median(ratios) if len(ratios) == repeats else None
    return problem, report, speedup


def run_bound_tightness(completion_budget: int = 500_000):
    """Nodes to *prove optimality* with and without the capacity bound.

    Unlike the budget-truncated throughput rows, both searches run to
    completion, so the node counts measure bound tightness alone —
    both under the PR 3 static order, so this section stays comparable
    with its bench_history baselines (the ordering win is measured
    separately in :func:`run_branching_order`).
    """
    problem = throughput_problem()
    capacity = _timed(
        BranchBoundExplorer(node_budget=completion_budget, ordering="static"),
        problem,
    )
    basic = _timed(
        BranchBoundExplorer(
            node_budget=completion_budget,
            capacity_bound=False,
            ordering="static",
        ),
        problem,
    )
    section = {
        "workload": problem.name,
        "completion_budget": completion_budget,
        "capacity_bound": capacity,
        "basic_bound": basic,
    }
    if capacity["optimal"] and basic["optimal"]:
        # None when the capacity-aware run proved at the root.
        section["nodes_ratio"] = _nodes_ratio(
            basic["nodes"], capacity["nodes"]
        )
    return section


def run_branching_order(completion_budget: int = 500_000):
    """Nodes to prove optimality under each branching-order mode.

    Every run uses the capacity-aware bound and completes, so the node
    counts isolate the search-*order* win (PR 4) from the bound win
    (PR 3): ``static`` is the PR 3 baseline order, ``density`` adds
    the knapsack-density unit order, and ``adaptive`` (the default
    configuration) adds value ordering plus shallow strong branching.
    """
    problem = throughput_problem()
    modes = {
        "static": dict(ordering="static"),
        "density": dict(ordering="density"),
        "adaptive": dict(ordering="adaptive"),
    }
    section = {
        "workload": problem.name,
        "completion_budget": completion_budget,
    }
    for name, kwargs in modes.items():
        section[name] = _timed(
            BranchBoundExplorer(
                node_budget=completion_budget, **kwargs
            ),
            problem,
        )
    if section["static"]["optimal"]:
        reference = section["static"]["nodes"]
        section["nodes_ratio_vs_static"] = {
            name: _nodes_ratio(reference, section[name]["nodes"])
            for name in modes
            if name != "static" and section[name]["optimal"]
        }
    return section


def run_frontier_comparison(completion_budget: int = 500_000):
    """Nodes to prove optimality under each search frontier.

    All runs use the default adaptive ordering, so the node counts
    isolate the *frontier* win (which open node expands next) from the
    ordering win (how a node's children are ranked).
    ``best_first`` is the headline: it expands only nodes whose bound
    beats the optimum, so its proven-optimal count is gated
    lower-is-better as ``bnb_bestfirst_nodes_to_optimal``.
    """
    problem = throughput_problem()
    section = {
        "workload": problem.name,
        "completion_budget": completion_budget,
    }
    for name, frontier in (
        ("dfs", "dfs"),
        ("best_first", "best-first"),
    ):
        section[name] = _timed(
            BranchBoundExplorer(
                node_budget=completion_budget, frontier=frontier
            ),
            problem,
        )
    if section["dfs"]["optimal"]:
        reference = section["dfs"]["nodes"]
        if section["best_first"]["optimal"]:
            section["nodes_ratio_vs_dfs"] = {
                "best_first": _nodes_ratio(
                    reference, section["best_first"]["nodes"]
                )
            }
    return section


def scaled_knapsack_problem() -> SynthesisProblem:
    """The throughput regime scaled to a ~100x larger variant system.

    Same knapsack-hard shape as :func:`throughput_problem` (zero
    processor cost, tight capacity), but 9 variants x 6-process
    clusters instead of 6 x 5 — 59 units instead of 35.  Under the
    *basic* bound (no capacity term) and the static order the
    best-first frontier on this instance grows past fifteen thousand
    open entries before any budget a bench can afford, which is the
    memory regime ``max_open`` exists for.
    """
    system = generate_system(
        seed=3, n_variants=9, cluster_size=6, common_processes=5
    )
    units, origins = variant_units(system.vgraph)
    architecture = ArchitectureTemplate(
        name="bounded-memory-bench",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=0.45,
    )
    return SynthesisProblem(
        name="scaled_knapsack",
        units=units,
        library=system.library,
        architecture=architecture,
        origins=origins,
    )


def _bounded_timed(explorer, problem):
    """Like :func:`_timed` but also records the bounded-memory gauges."""
    start = time.perf_counter()
    result = _explore_in_fresh_stack(explorer, problem)
    elapsed = time.perf_counter() - start
    return {
        "cost": result.cost if result.feasible else None,
        "optimal": result.optimal,
        "nodes": result.nodes_explored,
        "seconds": round(elapsed, 6),
        "nodes_per_sec": _rate(result.nodes_explored, elapsed),
        "open_high_water": result.open_high_water,
        "evicted_subtrees": result.evicted_subtrees,
        "proof_floor": (
            round(result.proof_floor, 6)
            if math.isfinite(result.proof_floor)
            else None
        ),
        "provenance": result.provenance,
    }


def run_bounded_memory(node_budget: int = 20_000, max_open: int = 64):
    """Graceful degradation under a frontier cap vs frontier blow-up.

    Both runs share the loose-bound configuration (basic bound,
    static order) on the scaled knapsack instance.  The uncapped
    best-first search must exhaust the node budget with an open
    frontier far beyond ``max_open`` — the run a memory-bounded box
    would OOM on (:mod:`tests.test_memory_pressure` proves that with
    a real rlimit).  The capped best-first run must *complete* under
    the same budget with its high-water mark at or below the cap, a
    feasible answer, and a ``proof_floor`` that honestly brackets it
    from below despite the evicted subtrees.
    """
    problem = scaled_knapsack_problem()
    base = dict(capacity_bound=False, ordering="static")
    section = {
        "workload": problem.name,
        "units": len(problem.units),
        "node_budget": node_budget,
        "max_open": max_open,
        "uncapped_best_first": _bounded_timed(
            BranchBoundExplorer(
                frontier="best-first", node_budget=node_budget, **base
            ),
            problem,
        ),
        "capped_best_first": _bounded_timed(
            BranchBoundExplorer(
                frontier="best-first",
                node_budget=node_budget,
                max_open=max_open,
                **base,
            ),
            problem,
        ),
    }
    uncapped = section["uncapped_best_first"]
    section["frontier_reduction"] = round(
        uncapped["open_high_water"]
        / max(1, section["capped_best_first"]["open_high_water"]),
        1,
    )
    return section


def run_incumbent_sharing(lineage_size: int = 2, jobs: int = 2):
    """Fleet-wide incumbent sharing across a space's lineages.

    Runs the jobs-sweep space with and without ``share_incumbent``:
    the best selection and its proven-optimal cost must be identical;
    the total node count with sharing is recorded but *not* gated —
    under ``jobs > 1`` it depends on which worker publishes first.
    """
    family, space = jobs_sweep_space()
    baseline = explore_space(
        family, space, jobs=jobs, lineage_size=lineage_size
    )
    shared = explore_space(
        family,
        space,
        jobs=jobs,
        lineage_size=lineage_size,
        share_incumbent=True,
    )
    assert shared.best().cost == baseline.best().cost
    assert shared.best().exploration.optimal
    return {
        "workload": family.name,
        "selections": space.count(),
        "lineage_size": lineage_size,
        "jobs": jobs,
        "best_cost": baseline.best().cost,
        "best_cost_shared": shared.best().cost,
        "best_optimal_shared": shared.best().exploration.optimal,
        "total_nodes_baseline": baseline.total_nodes,
        "total_nodes_shared": shared.total_nodes,
        "note": (
            "total_nodes_shared is timing-dependent under jobs > 1 "
            "(fleet pruning depends on publish order) and is therefore "
            "not regression-gated"
        ),
    }


def run_dispatch_volume(lineage_size: int = 2):
    """Bytes crossing the process boundary per lineage, both protocols.

    The index protocol ships the family + space once per worker and a
    constant-size ``(start, count)`` shard per lineage; the legacy task
    protocol pickled every selection's unit/origin tuples.
    """
    import pickle

    from repro.synth.parallel import (
        shard_indices,
        shard_lineages,
        tasks_from_space,
    )

    family, space = jobs_sweep_space()
    tasks = tasks_from_space(family, space)
    legacy = shard_lineages(tasks, lineage_size)
    shards = shard_indices(len(tasks), lineage_size)
    task_bytes = sum(len(pickle.dumps(lin)) for lin in legacy)
    index_bytes = sum(len(pickle.dumps(shard)) for shard in shards)
    return {
        "workload": family.name,
        "selections": len(tasks),
        "lineage_size": lineage_size,
        "lineages": len(shards),
        "task_protocol_bytes_per_lineage": round(
            task_bytes / len(legacy), 1
        ),
        "index_protocol_bytes_per_lineage": round(
            index_bytes / len(shards), 1
        ),
        "shared_family_space_bytes_once_per_worker": len(
            pickle.dumps((family, space))
        ),
        "bytes_reduction_per_lineage": round(task_bytes / index_bytes, 1),
    }


def test_incremental_speedup_recorded(benchmark):
    node_budget = 10_000 if quick_mode() else 30_000
    problem, report, node_speedup = benchmark.pedantic(
        lambda: run_throughput_comparison(node_budget),
        rounds=1,
        iterations=1,
    )
    microbench = run_evaluation_microbench(
        problem, steps=2_000 if quick_mode() else 10_000
    )
    bound_tightness = run_bound_tightness(
        completion_budget=200_000 if quick_mode() else 500_000
    )
    branching_order = run_branching_order(
        completion_budget=200_000 if quick_mode() else 500_000
    )
    frontier = run_frontier_comparison(
        completion_budget=200_000 if quick_mode() else 500_000
    )
    bounded_memory = run_bounded_memory(
        node_budget=6_000 if quick_mode() else 20_000
    )
    incumbent_sharing = run_incumbent_sharing()
    dispatch_volume = run_dispatch_volume()
    batch_kernel = run_batch_kernel(
        rounds=200 if quick_mode() else 600,
        node_budget=2_000 if quick_mode() else 4_000,
    )
    payload = {
        "bench": "X3-throughput",
        "quick_mode": quick_mode(),
        "workload": {
            "problem": problem.name,
            "units": len(problem.units),
            "max_processors": problem.architecture.max_processors,
            "processor_capacity": problem.architecture.processor_capacity,
            "node_budget": node_budget,
        },
        "explorers": report,
        # End-to-end search-stack throughput under the same node
        # budget; includes the infeasibility pruning the incremental
        # state enables, so the explored trees differ.  Median of the
        # interleaved pairs; None when a side's rate was withheld
        # (below the sample threshold).
        "speedup_nodes_per_sec": (
            round(node_speedup, 2) if node_speedup is not None else None
        ),
        # Same-work microbench: identical move sequence through the
        # delta-mode state and the from-scratch oracle.
        "evaluation_microbench": microbench,
        # Nodes to prove optimality, capacity-aware vs basic bound.
        "bound_tightness": bound_tightness,
        # Nodes to prove optimality per branching-order mode.
        "branching_order": branching_order,
        # Nodes to prove optimality per search frontier (adaptive
        # ordering throughout).
        "frontier": frontier,
        # Bounded-memory degradation: uncapped best-first frontier
        # blow-up vs capped completion on the scaled knapsack.
        "bounded_memory": bounded_memory,
        # Fleet-wide incumbent sharing across lineages (opt-in path).
        "incumbent_sharing": incumbent_sharing,
        # Bytes pickled per lineage, index vs task protocol.
        "dispatch_volume": dispatch_volume,
        # Non-mutating candidate scoring (results asserted
        # byte-identical to the mutate loop in-bench).
        "batch_kernel": batch_kernel,
    }
    write_json_artifact("BENCH_explorer.json", payload, also_repo_root=True)

    rows = [
        [name, *(str(stats[k]) for k in (
            "nodes", "evaluations", "seconds", "nodes_per_sec",
            "evals_per_sec",
        ))]
        for name, stats in report.items()
    ]
    speedup_label = (
        f"{node_speedup:.2f}x" if node_speedup is not None else "n/a"
    )
    text = render_table(
        ["explorer", "nodes", "evals", "seconds", "nodes/s", "evals/s"],
        rows,
        title=(
            "X3: incremental vs reference throughput "
            f"(node speedup {speedup_label})"
        ),
    )
    write_artifact("explorer_throughput.txt", text)
    print("\n" + text)

    order_rows = [
        [
            mode,
            str(branching_order[mode]["nodes"]),
            "yes" if branching_order[mode]["optimal"] else "no",
            str(
                branching_order.get("nodes_ratio_vs_static", {}).get(
                    mode, "1.0"
                )
            ),
        ]
        for mode in ("static", "density", "adaptive")
    ]
    order_text = render_table(
        ["ordering", "nodes to optimal", "proved", "shrink vs static"],
        order_rows,
        title="X3: branching-order ablation (capacity-aware bound)",
    )
    write_artifact("explorer_branching_order.txt", order_text)
    print("\n" + order_text)

    frontier_rows = [
        [
            mode,
            str(frontier[mode]["nodes"]),
            "yes" if frontier[mode]["optimal"] else "no",
            str(
                frontier.get("nodes_ratio_vs_dfs", {}).get(mode, "1.0")
            ),
        ]
        for mode in ("dfs", "best_first")
    ]
    frontier_text = render_table(
        ["frontier", "nodes to optimal", "proved", "shrink vs dfs"],
        frontier_rows,
        title="X3: search-frontier ablation (adaptive ordering)",
    )
    write_artifact("explorer_frontier.txt", frontier_text)
    print("\n" + frontier_text)

    bounded_rows = [
        [
            mode,
            str(bounded_memory[mode]["nodes"]),
            str(bounded_memory[mode]["open_high_water"]),
            str(bounded_memory[mode]["evicted_subtrees"]),
            str(bounded_memory[mode]["cost"]),
            str(bounded_memory[mode]["proof_floor"]),
        ]
        for mode in ("uncapped_best_first", "capped_best_first")
    ]
    bounded_text = render_table(
        ["mode", "nodes", "open high-water", "evicted", "cost", "floor"],
        bounded_rows,
        title=(
            "X3: bounded-memory degradation "
            f"(max_open {bounded_memory['max_open']}, frontier shrink "
            f"{bounded_memory['frontier_reduction']}x)"
        ),
    )
    write_artifact("explorer_bounded_memory.txt", bounded_text)
    print("\n" + bounded_text)

    # Same budget, same machine.  The end-to-end search-stack ratio is
    # the acceptance metric; the microbench isolates the evaluator.
    # A None ratio means a side proved optimality in fewer nodes than
    # the rate threshold — nothing meaningful to assert on.
    if node_speedup is not None:
        assert node_speedup >= 2.0
    assert microbench["speedup"] >= 5.0
    # The capacity-aware bound must shrink the knapsack-hard tree by
    # at least 2x (its root presolve now proves this single-processor
    # workload with no tree at all).
    assert bound_tightness["capacity_bound"]["optimal"]
    if bound_tightness["basic_bound"]["optimal"]:
        assert (
            2 * bound_tightness["capacity_bound"]["nodes"]
            <= bound_tightness["basic_bound"]["nodes"]
        )
    # Adaptive ordering must shrink the proven-optimal tree by >= 1.5x
    # vs the PR 3 static order, at the identical proven-optimal cost
    # (both prove at the root presolve on this single-processor
    # workload).
    assert branching_order["static"]["optimal"]
    assert branching_order["adaptive"]["optimal"]
    assert branching_order["adaptive"]["cost"] == (
        branching_order["static"]["cost"]
    )
    assert (
        branching_order["adaptive"]["nodes"] * 1.5
        <= branching_order["static"]["nodes"]
    )
    # Every frontier must prove the identical optimum.  Best-first
    # expands only nodes whose bound beats the optimum, so on this
    # pinned workload it must stay within the DFS node count — an
    # empirical acceptance gate (the two frontiers shape their trees
    # differently, so this is a measured property of the workload,
    # not a theorem).
    assert frontier["dfs"]["optimal"]
    assert frontier["best_first"]["optimal"]
    assert frontier["best_first"]["cost"] == frontier["dfs"]["cost"]
    assert frontier["best_first"]["nodes"] <= frontier["dfs"]["nodes"]
    # The DFS frontier row must mirror the default branching-order row
    # (same explorer configuration, same workload).
    assert frontier["dfs"]["nodes"] == branching_order["adaptive"]["nodes"]
    # Bounded memory: the uncapped frontier must actually blow past
    # the cap and the budget (that is the regime being defended),
    # while the capped run completes under the identical budget with
    # the high-water mark at the cap and an honest floor below the
    # feasible answer it returns.
    uncapped = bounded_memory["uncapped_best_first"]
    assert not uncapped["optimal"]
    assert uncapped["nodes"] >= bounded_memory["node_budget"]
    assert uncapped["open_high_water"] > 10 * bounded_memory["max_open"]
    capped = bounded_memory["capped_best_first"]
    assert capped["nodes"] < bounded_memory["node_budget"]
    assert capped["open_high_water"] <= bounded_memory["max_open"]
    assert capped["evicted_subtrees"] > 0
    assert capped["cost"] is not None
    assert capped["proof_floor"] is not None
    assert capped["proof_floor"] <= capped["cost"] + 1e-6
    assert "memory-truncated" in capped["provenance"]
    # Fleet pruning may never change the proven-optimal best cost.
    assert incumbent_sharing["best_cost_shared"] == (
        incumbent_sharing["best_cost"]
    )
    assert incumbent_sharing["best_optimal_shared"]
    # Index shards must undercut the per-task pickling volume.
    assert (
        dispatch_volume["index_protocol_bytes_per_lineage"]
        < dispatch_volume["task_protocol_bytes_per_lineage"]
    )
    # The scorer's rate is measured (byte-identity against the mutate
    # loop is asserted inside run_batch_kernel); check_regression.py
    # gates it against the baselines.
    assert batch_kernel["scalar_probes_per_sec"] is not None


# ----------------------------------------------------------------------
# Process-parallel jobs sweep (BENCH_explorer.json, "parallel" section)
# ----------------------------------------------------------------------
def jobs_sweep_space():
    """A knapsack-hard variant space for the jobs sweep.

    Same regime as :func:`throughput_problem` — zero processor cost
    and a tight capacity force every selection into a hardware-subset
    knapsack — but as a *space* of eight bound selections so the
    warm-start lineages have real, parallelizable work.
    """
    if quick_mode():
        system = generate_system(
            seed=3, n_variants=8, cluster_size=8, common_processes=8
        )
        capacity = 0.45
    else:
        system = generate_system(
            seed=3, n_variants=8, cluster_size=10, common_processes=10
        )
        capacity = 0.5
    architecture = ArchitectureTemplate(
        name="jobs-sweep-bench",
        max_processors=1,
        processor_cost=0.0,
        processor_capacity=capacity,
    )
    family = ProblemFamily(
        name="jobs_sweep",
        library=system.library,
        architecture=architecture,
    )
    return family, VariantSpace(system.vgraph)


def run_jobs_sweep(
    lineage_size: int = 2, jobs_levels=(1, 2, 4), repeats: int = NOISE_REPEATS
):
    """Wall-clock the identical lineage workload at several jobs levels.

    The levels run in ``repeats`` interleaved rounds and each level
    records the median of its rounds' seconds, so one slow round (a
    burst of host load, a slow pool start-up) moves no gated rate.
    """
    family, space = jobs_sweep_space()
    samples = {jobs: [] for jobs in jobs_levels}
    outcomes = {}
    reference_costs = None
    for _round in range(repeats):
        for jobs in jobs_levels:
            start = time.perf_counter()
            outcome = explore_space(
                family, space, jobs=jobs, lineage_size=lineage_size
            )
            samples[jobs].append(time.perf_counter() - start)
            costs = [result.cost for result in outcome.results]
            if reference_costs is None:
                reference_costs = costs
            # jobs changes wall-clock only — results must be identical
            assert costs == reference_costs
            outcomes[jobs] = outcome
    sweep = []
    base_seconds = statistics.median(samples[jobs_levels[0]])
    for jobs in jobs_levels:
        elapsed = statistics.median(samples[jobs])
        outcome = outcomes[jobs]
        sweep.append(
            {
                "jobs": jobs,
                "seconds": round(elapsed, 6),
                "repeats": repeats,
                "selections": len(outcome),
                "selections_per_sec": round(len(outcome) / elapsed, 2),
                "total_nodes": outcome.total_nodes,
                "speedup_vs_jobs1": round(base_seconds / elapsed, 2),
                "parallel_efficiency": round(
                    base_seconds / elapsed / jobs, 2
                ),
            }
        )
    return family, space, sweep


def test_parallel_jobs_sweep_recorded(benchmark):
    lineage_size = 2
    family, space, sweep = benchmark.pedantic(
        lambda: run_jobs_sweep(lineage_size=lineage_size),
        rounds=1,
        iterations=1,
    )
    cpus = os.cpu_count() or 1
    if cpus == 1:
        # On a single-CPU container every jobs>1 level just measures
        # pool overhead; annotate so readers (and the regression gate)
        # never treat the efficiency column as a parallelism signal.
        for level in sweep:
            if level["jobs"] > 1:
                level["note"] = (
                    "cpus == 1: parallel_efficiency reflects pool "
                    "overhead only, not parallel scaling"
                )
    section = {
        "parallel_jobs_sweep": {
            "workload": {
                "family": family.name,
                "selections": space.count(),
                "lineage_size": lineage_size,
                "quick_mode": quick_mode(),
            },
            "cpus": cpus,
            # The gate only reads the efficiency column when this is
            # true (and the baseline was recorded on as many CPUs).
            "efficiency_meaningful": cpus > 1,
            "sweep": sweep,
        }
    }
    merge_json_artifact(
        "BENCH_explorer.json", section, also_repo_root=True
    )

    rows = [
        [str(level["jobs"]), str(level["seconds"]),
         str(level["selections_per_sec"]),
         str(level["speedup_vs_jobs1"]),
         str(level["parallel_efficiency"])]
        for level in sweep
    ]
    text = render_table(
        ["jobs", "seconds", "selections/s", "speedup", "efficiency"],
        rows,
        title=f"X3: parallel jobs sweep ({cpus} cpus)",
    )
    write_artifact("explorer_jobs_sweep.txt", text)
    print("\n" + text)

    by_jobs = {level["jobs"]: level for level in sweep}
    # The speedup target needs real cores to exist; a 1-2 core box (or
    # the reduced CI workload) records the sweep without asserting it.
    if cpus >= 4 and not quick_mode():
        assert by_jobs[4]["speedup_vs_jobs1"] >= 1.5
