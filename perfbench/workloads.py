"""Inputs, solvers, output checks and timing loops of the workloads.

The in-process workloads (``joint_*`` and ``space_sweep``) run over a
fixed scenario corpus — six zoo families x eight zoo seeds at
``bench`` size — and the workload seed sets the order in which the
corpus is solved.  Branch-and-bound solve times are heavy-tailed (one
scenario can cost as much as thirty others), so a seed-drawn scenario
set would change the amount of work by about a quarter from seed to
seed and hide any real change.  The ``heldout`` corpus (zoo seeds
8-15) is for confirming a claim on inputs no change was tuned on.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.synth import BranchBoundExplorer, evaluate, explore_space
from repro.synth.backend import HAS_NUMPY
from repro.synth.checkpoint import Checkpointer
from repro.zoo import FAMILIES, ZooScenario, generate

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Zoo seeds of each corpus; every family contributes these seeds.
CORPORA: Dict[str, range] = {"main": range(0, 8), "heldout": range(8, 16)}

#: Joint-problem solver configurations, one workload each.
JOINT_CONFIGS = ("dfs", "best_first", "checkpointed")

#: Snapshot cadence of the checkpointed configuration (nodes).
CHECKPOINT_EVERY = 256

#: ``explore_space`` shape of the sweep workload.  The measured sweep
#: runs in-process: a two-worker fleet needs both CPUs of a two-CPU
#: shared host, so its wall time followed the neighbours' load (10-25%
#: from run to run).  The traced run times the fleet (``jobs=2``).
SWEEP_JOBS = 1
SWEEP_LINEAGE = 4

#: How many times set-up runs in one run; its median is ``setup_s``.
SETUP_REPEATS = 9


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Setup:
    """Times the corpus build, once up front and again during the run.

    Each CPU of a shared host runs slower while another tenant keeps
    its sibling thread busy, and that moves between CPUs every few
    seconds; a build takes ~50 ms, so builds timed back to back would
    all land in one such spell.  The :data:`SETUP_REPEATS` builds are
    spread evenly over the run instead, and ``setup_s`` is their
    median.
    """

    def __init__(self, build: Callable[[], object], seconds: float) -> None:
        self._build = build
        self._spacing = seconds / SETUP_REPEATS
        self._start = time.perf_counter()
        self.seconds: List[float] = []
        self.result = self._timed()

    def _timed(self):
        gc.collect()
        start = time.perf_counter()
        result = self._build()
        self.seconds.append(time.perf_counter() - start)
        return result

    def between_passes(self) -> None:
        """Time one more build if the next one is due."""
        due = self._start + len(self.seconds) * self._spacing
        if len(self.seconds) < SETUP_REPEATS and time.perf_counter() >= due:
            self._timed()

    def median(self) -> float:
        while len(self.seconds) < SETUP_REPEATS:
            self._timed()
        return statistics.median(self.seconds)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, object]:
    """What a result depends on besides the code: CPUs, Python, NumPy,
    and the search backend each configuration resolves to."""
    import platform

    dfs = BranchBoundExplorer().backend
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": HAS_NUMPY,
        "backends": {
            "dfs": dfs,
            "best_first": BranchBoundExplorer(frontier="best-first").backend,
            "checkpointed": dfs,
            "space_sweep": dfs,
        },
    }


def load_expected(name: str) -> Dict[str, object]:
    with open(os.path.join(EXPECTED_DIR, name), encoding="utf-8") as f:
        return json.load(f)


def corpus_coordinates(corpus: str, seed: int) -> List[Tuple[str, int]]:
    """The corpus's (family, zoo seed) pairs in the seed's order."""
    coords = [(f, zseed) for f in FAMILIES for zseed in CORPORA[corpus]]
    random.Random(seed).shuffle(coords)
    return coords


def case_key(family: str, zseed: int) -> str:
    return f"{family}/{zseed}"


@dataclass
class PassStats:
    """Times per corpus item across passes, plus check counts."""

    per_item: Dict[int, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def record(self, item: int, seconds: float) -> None:
        self.per_item.setdefault(item, []).append(seconds)

    def item_best(self) -> List[float]:
        """Each item's fastest time over the run's passes.

        The host's speed drifts by 10-15% between ten-second windows
        (other tenants share its cores and caches).  That only ever
        slows a solve down, so the fastest of several passes tracks
        the code's own cost far more steadily than a mean or median.
        """
        return [min(times) for times in self.per_item.values()]


def timed_passes(run_pass: Callable[[], object], seconds: float,
                 setup: Setup) -> int:
    """Repeat ``run_pass`` for ``seconds`` (at least twice)."""
    passes = 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < seconds:
        run_pass()
        passes += 1
        setup.between_passes()
    return passes


def summary(stats: PassStats, work: int, setup_s: float, rss_mb: float):
    """End-to-end metrics and latency quantiles of an in-process run.

    ``work`` is what one pass completes (solves or selections), so the
    throughput is one pass's work over the sum of the item best times.
    The quantiles of the item best times go to the run record.
    """
    best = stats.item_best()
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "throughput_per_s": work / sum(best),
    }
    latency = {
        "best_p50_ms": quantile(best, 0.5) * 1e3,
        "best_p90_ms": quantile(best, 0.9) * 1e3,
    }
    return metrics, latency


# ----------------------------------------------------------------------
# Joint problems (joint_dfs / joint_best_first / joint_checkpointed)
# ----------------------------------------------------------------------
@dataclass
class JointCase:
    family: str
    zseed: int
    problem: object


def build_joint_cases(corpus: str, seed: int) -> List[JointCase]:
    return [
        JointCase(f, zseed, generate(f, zseed, "bench").joint_problem())
        for f, zseed in corpus_coordinates(corpus, seed)
    ]


class JointSolver:
    """One joint-problem configuration: plain DFS, best-first, or DFS
    with a :class:`Checkpointer` that serializes every snapshot."""

    def __init__(self, config: str) -> None:
        if config not in JOINT_CONFIGS:
            raise ValueError(f"unknown joint configuration {config!r}")
        self.config = config
        frontier = "best-first" if config == "best_first" else "dfs"
        self.explorer = BranchBoundExplorer(frontier=frontier)
        self.emits = 0
        self.bytes = 0

    def _sink(self, snapshot) -> None:
        self.emits += 1
        self.bytes += len(snapshot.to_json())

    def solve(self, problem):
        if self.config != "checkpointed":
            return self.explorer.explore(problem)
        checkpoint = Checkpointer(
            every_nodes=CHECKPOINT_EVERY, sink=self._sink
        )
        return self.explorer.explore(problem, checkpoint=checkpoint)


def joint_result_ok(case: JointCase, result, expected_cost: float) -> bool:
    """Proven optimal with an honest floor, at the expected cost, and
    feasible at exactly that cost under the reference evaluator."""
    if not result.optimal or result.mapping is None:
        return False
    cost = result.cost
    if result.proof_floor != cost or cost != expected_cost:
        return False
    reference = evaluate(case.problem, result.mapping)
    return reference.feasible and reference.total_cost == cost


def run_joint_pass(cases, solver: JointSolver, expected, stats: PassStats):
    """Solve every case once; returns (busy seconds, results)."""
    busy = 0.0
    results = []
    for index, case in enumerate(cases):
        start = time.perf_counter()
        result = solver.solve(case.problem)
        seconds = time.perf_counter() - start
        busy += seconds
        stats.record(index, seconds)
        stats.attempted += 1
        want = expected[case_key(case.family, case.zseed)]
        if not joint_result_ok(case, result, want):
            stats.failed += 1
        results.append(result)
    return busy, results


def measure_joint(config: str, corpus: str, seed: int, seconds: float):
    expected = load_expected("joint.json")[corpus]
    setup = Setup(lambda: build_joint_cases(corpus, seed), seconds)
    cases = setup.result
    solver = JointSolver(config)
    stats = PassStats()
    passes = timed_passes(
        lambda: run_joint_pass(cases, solver, expected, stats),
        seconds,
        setup,
    )
    rss = own_peak_rss_mb()
    metrics, info = summary(stats, len(cases), setup.median(), rss)
    info.update(passes=passes, solves=stats.attempted)
    return metrics, stats.attempted, stats.failed, info


# ----------------------------------------------------------------------
# Variant-space sweep (space_sweep)
# ----------------------------------------------------------------------
@dataclass
class SweepCase:
    family: str
    zseed: int
    scenario: ZooScenario


def build_sweep_cases(corpus: str, seed: int) -> List[SweepCase]:
    return [
        SweepCase(f, zseed, generate(f, zseed, "bench"))
        for f, zseed in corpus_coordinates(corpus, seed)
    ]


def sweep_rows(exploration) -> List[list]:
    """Per selection: ``[cost or None, optimal, nodes]``."""
    rows = []
    for result in exploration.results:
        run = result.exploration
        cost = run.cost if run.feasible else None
        rows.append([cost, run.optimal, run.nodes_explored])
    return rows


def run_sweep_pass(cases, expected, stats: PassStats, jobs=SWEEP_JOBS):
    """Explore every case's space once; returns busy seconds."""
    busy = 0.0
    for index, case in enumerate(cases):
        scenario = case.scenario
        start = time.perf_counter()
        exploration = explore_space(
            scenario.problem_family,
            scenario.space,
            jobs=jobs,
            lineage_size=SWEEP_LINEAGE,
        )
        seconds = time.perf_counter() - start
        busy += seconds
        stats.record(index, seconds)
        rows = sweep_rows(exploration)
        want = expected[case_key(case.family, case.zseed)]
        stats.attempted += len(want)
        stats.failed += sum(
            1
            for position, row in enumerate(want)
            if position >= len(rows) or rows[position] != row
        )
    return busy


def measure_sweep(corpus: str, seed: int, seconds: float):
    expected = load_expected("sweep.json")[corpus]
    setup = Setup(lambda: build_sweep_cases(corpus, seed), seconds)
    cases = setup.result
    stats = PassStats()
    passes = timed_passes(
        lambda: run_sweep_pass(cases, expected, stats), seconds, setup
    )
    selections = sum(len(rows) for rows in expected.values())
    rss = own_peak_rss_mb()
    metrics, info = summary(stats, selections, setup.median(), rss)
    info.update(passes=passes, selections=stats.attempted)
    return metrics, stats.attempted, stats.failed, info


def record_expected() -> None:
    """Re-record the expected-output files from the current code."""
    joint: Dict[str, Dict[str, float]] = {}
    sweep: Dict[str, Dict[str, List[list]]] = {}
    for corpus, zseeds in CORPORA.items():
        joint[corpus] = {}
        sweep[corpus] = {}
        for family in FAMILIES:
            for zseed in zseeds:
                scenario = generate(family, zseed, "bench")
                key = case_key(family, zseed)
                result = BranchBoundExplorer().explore(
                    scenario.joint_problem()
                )
                if not result.optimal:
                    raise RuntimeError(f"{key}: joint solve not optimal")
                joint[corpus][key] = result.cost
                sweep[corpus][key] = sweep_rows(
                    explore_space(
                        scenario.problem_family,
                        scenario.space,
                        jobs=1,
                        lineage_size=SWEEP_LINEAGE,
                    )
                )
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name, payload in (("joint.json", joint), ("sweep.json", sweep)):
        path = os.path.join(EXPECTED_DIR, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
