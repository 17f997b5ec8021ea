"""Differential fuzzing of the explorer stack against the oracle.

The harness runs every explorer configuration — frontier × ordering ×
bound × ``max_open``, plus the exhaustive explorer — on zoo
scenarios and checks each result
against :class:`~repro.synth.explorer.ExhaustiveExplorer` ground
truth.  Because every zoo workload lives on the 1/64 binary grid (see
:mod:`repro.zoo.base`), the checks are *exact*:

* a run claiming ``optimal=True`` must match the oracle's cost
  exactly and carry ``proof_floor == cost`` (a full certificate);
* every run, optimal or not, must respect soundness: ``cost >=
  oracle.cost`` (nobody beats the optimum) and ``proof_floor <=
  oracle.cost`` (no certificate excludes the true optimum);
* a returned mapping must re-evaluate feasible at exactly the
  reported cost under the reference evaluator.

On scenarios too large for the oracle the harness falls back to
*cross-agreement*: all optimal-claiming configurations must agree on
cost among themselves (:func:`cross_check`).

Failures are captured as :class:`CorpusCase` coordinates — family,
seed, size, problem label, explorer config — which regenerate the
exact failing run from scratch.  :func:`minimize_case` shrinks the
unit set ddmin-style while the failure reproduces, and the committed
corpus under ``tests/corpus/`` replays every recorded case in CI so a
fuzz-found bug can never silently return.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..synth.cost import evaluate
from ..synth.explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
    ExplorationResult,
    Explorer,
)
from ..synth.mapping import SynthesisProblem
from ..synth.ordering import FRONTIERS, ORDERINGS

#: Corpus file format version; bump on incompatible schema changes.
CASE_VERSION = 1

_INF = float("inf")


# ----------------------------------------------------------------------
# Explorer configuration matrix
# ----------------------------------------------------------------------
def config_matrix(full: bool = False) -> Iterator[Dict[str, object]]:
    """Yield explorer configurations, curated or exhaustive.

    The curated set (default) covers every frontier, every ordering,
    both bound settings and a tight ``max_open`` at least once each —
    enough for a sweep iteration to touch every code path cheaply.
    ``full=True`` yields the whole cross product (every frontier ×
    ordering × bound × max_open), which the
    per-family property tests run once per family.  Every
    configuration carries ``backend: "python"``, the only backend, so
    corpus ids keep their backend segment.
    """
    yield {"kind": "exhaustive"}
    if full:
        for frontier, ordering, bound, open_cap in itertools.product(
            FRONTIERS, ORDERINGS, (True, False), (None, 4)
        ):
            yield {
                "kind": "bnb",
                "frontier": frontier,
                "ordering": ordering,
                "capacity_bound": bound,
                "backend": "python",
                "max_open": open_cap,
            }
        return
    # Curated: sweep one axis at a time off a center configuration.
    center = {
        "kind": "bnb",
        "frontier": "dfs",
        "ordering": "adaptive",
        "capacity_bound": True,
        "backend": "python",
        "max_open": None,
    }
    seen = set()
    variations: List[Dict[str, object]] = [center]
    variations += [{**center, "frontier": f} for f in FRONTIERS]
    variations += [{**center, "ordering": o} for o in ORDERINGS]
    variations += [
        {**center, "capacity_bound": False},
        {**center, "max_open": 4},
        {**center, "frontier": "best-first", "max_open": 4},
    ]
    for config in variations:
        key = describe(config)
        if key not in seen:
            seen.add(key)
            yield config


def describe(config: Dict[str, object]) -> str:
    """Stable short id of a configuration (corpus files, labels)."""
    kind = config["kind"]
    if kind == "bnb":
        parts = [
            str(config.get("frontier", "dfs")),
            str(config.get("ordering", "adaptive")),
            "cap" if config.get("capacity_bound", True) else "basic",
            str(config.get("backend", "python")),
        ]
        open_cap = config.get("max_open")
        parts.append("openinf" if open_cap is None else f"open{open_cap}")
        return "bnb:" + "-".join(parts)
    return str(kind)


def build_explorer(config: Dict[str, object]) -> Explorer:
    """Instantiate the explorer a configuration describes."""
    kind = config["kind"]
    if kind == "exhaustive":
        return ExhaustiveExplorer()
    if kind == "bnb":
        return BranchBoundExplorer(
            frontier=str(config.get("frontier", "dfs")),
            ordering=str(config.get("ordering", "adaptive")),
            capacity_bound=bool(config.get("capacity_bound", True)),
            backend=str(config.get("backend", "python")),
            max_open=config.get("max_open"),
        )
    raise ValueError(f"unknown explorer config kind {kind!r}")


# ----------------------------------------------------------------------
# Differential checks
# ----------------------------------------------------------------------
def check_against_oracle(
    problem: SynthesisProblem,
    result: ExplorationResult,
    oracle: ExplorationResult,
    config: Dict[str, object],
) -> List[str]:
    """All exact-agreement violations of one run vs ground truth."""
    failures = _check_self_consistency(problem, result, config)
    label = describe(config)
    if result.cost < oracle.cost:
        failures.append(
            f"{label}: cost {result.cost} beats oracle {oracle.cost}"
        )
    if result.proof_floor > oracle.cost:
        failures.append(
            f"{label}: proof floor {result.proof_floor} excludes the "
            f"oracle optimum {oracle.cost}"
        )
    if result.optimal and result.cost != oracle.cost:
        failures.append(
            f"{label}: claims optimal at {result.cost}, oracle says "
            f"{oracle.cost}"
        )
    if not result.optimal and config.get("max_open") is None:
        # Both explorers are exact and may only give up under an
        # explicit budget; none is set here, so non-optimal means a
        # pruning bug.
        failures.append(
            f"{label}: exact run without budget reports optimal=False"
        )
    return failures


def _check_self_consistency(
    problem: SynthesisProblem,
    result: ExplorationResult,
    config: Dict[str, object],
) -> List[str]:
    """Oracle-free invariants every result must satisfy."""
    failures: List[str] = []
    label = describe(config)
    if result.optimal and result.proof_floor != result.cost:
        failures.append(
            f"{label}: optimal=True but proof floor "
            f"{result.proof_floor} != cost {result.cost}"
        )
    if result.proof_floor > result.cost:
        failures.append(
            f"{label}: proof floor {result.proof_floor} above own "
            f"cost {result.cost}"
        )
    if result.mapping is not None and result.cost != _INF:
        check = evaluate(problem, result.mapping)
        if not check.feasible:
            failures.append(
                f"{label}: returned mapping re-evaluates infeasible"
            )
        elif check.total_cost != result.cost:
            failures.append(
                f"{label}: reported cost {result.cost} but mapping "
                f"re-evaluates to {check.total_cost}"
            )
    elif result.cost != _INF:
        failures.append(f"{label}: finite cost without a mapping")
    return failures


def cross_check(
    results: Sequence[Tuple[Dict[str, object], ExplorationResult]],
) -> List[str]:
    """Cost-only agreement among optimal-claiming runs (no oracle).

    For scenarios too large to enumerate, any two configurations that
    both claim a proven optimum must agree exactly; runs that stop
    short of a proof (node budgets, capped frontiers) must not beat it.
    """
    failures: List[str] = []
    proven = [
        (config, result)
        for config, result in results
        if result.optimal
    ]
    if not proven:
        return failures
    ref_config, ref = min(proven, key=lambda item: item[1].cost)
    for config, result in proven:
        if result.cost != ref.cost:
            failures.append(
                f"{describe(config)}: proven cost {result.cost} "
                f"disagrees with {describe(ref_config)} at {ref.cost}"
            )
    for config, result in results:
        if not result.optimal and result.cost < ref.cost:
            failures.append(
                f"{describe(config)}: cost {result.cost} beats the "
                f"proven optimum {ref.cost} of {describe(ref_config)}"
            )
    return failures


# ----------------------------------------------------------------------
# Corpus cases
# ----------------------------------------------------------------------
@dataclass
class CorpusCase:
    """Coordinates that regenerate one differential check exactly."""

    id: str
    family: str
    seed: int
    size: str
    problem: str  # "joint" or "sel<N>"
    config: Dict[str, object]
    note: str = ""
    #: Optional minimized unit subset (ddmin output); None replays the
    #: full problem.
    units: Optional[List[str]] = None
    version: int = CASE_VERSION

    def to_json(self) -> Dict[str, object]:
        payload = {
            "version": self.version,
            "id": self.id,
            "family": self.family,
            "seed": self.seed,
            "size": self.size,
            "problem": self.problem,
            "config": dict(self.config),
            "note": self.note,
        }
        if self.units is not None:
            payload["units"] = list(self.units)
        return payload

    @staticmethod
    def from_json(payload: Dict[str, object]) -> "CorpusCase":
        version = int(payload.get("version", 0))
        if version != CASE_VERSION:
            raise ValueError(
                f"corpus case version {version} unsupported "
                f"(expected {CASE_VERSION})"
            )
        return CorpusCase(
            id=str(payload["id"]),
            family=str(payload["family"]),
            seed=int(payload["seed"]),
            size=str(payload["size"]),
            problem=str(payload["problem"]),
            config=dict(payload["config"]),
            note=str(payload.get("note", "")),
            units=(
                list(payload["units"])
                if payload.get("units") is not None
                else None
            ),
        )


def restrict_problem(
    problem: SynthesisProblem, units: Sequence[str]
) -> SynthesisProblem:
    """The sub-problem over ``units`` (minimized-case replay)."""
    keep = tuple(unit for unit in problem.units if unit in set(units))
    return replace(
        problem,
        name=f"{problem.name}.min{len(keep)}",
        units=keep,
        origins={
            unit: origin
            for unit, origin in problem.origins.items()
            if unit in keep
        },
        fixed={
            unit: target
            for unit, target in problem.fixed.items()
            if unit in keep
        },
    )


def case_problem(case: CorpusCase) -> SynthesisProblem:
    """Rebuild the (possibly restricted) problem a case points at."""
    from . import generate

    scenario = generate(case.family, case.seed, case.size)
    problem = scenario.problem_by_label(case.problem)
    if case.units is not None:
        problem = restrict_problem(problem, case.units)
    return problem


def replay_case(case: CorpusCase) -> List[str]:
    """Re-run one corpus case from scratch; [] means it passes."""
    problem = case_problem(case)
    oracle = ExhaustiveExplorer().explore(problem)
    result = build_explorer(case.config).explore(problem)
    return check_against_oracle(problem, result, oracle, case.config)


def load_corpus(directory: Path) -> List[CorpusCase]:
    """All corpus cases under ``directory``, sorted by file name."""
    cases = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            cases.append(CorpusCase.from_json(json.load(handle)))
    return cases


def save_case(case: CorpusCase, directory: Path) -> Path:
    """Write one case as ``<id>.json`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.id}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def minimize_case(case: CorpusCase) -> CorpusCase:
    """Shrink the case's unit set while the failure still reproduces.

    Classic ddmin over the problem's unit list: try dropping chunks
    (halves, then quarters, …) and keep any reduction that still
    fails the differential check.  The result replays the identical
    failure on the smallest unit subset found.
    """
    base = case_problem(replace(case, units=None))
    units = list(case.units if case.units is not None else base.units)

    def still_fails(subset: Sequence[str]) -> bool:
        if not subset:
            return False
        try:
            problem = restrict_problem(base, subset)
        except Exception:
            return False
        oracle = ExhaustiveExplorer().explore(problem)
        result = build_explorer(case.config).explore(problem)
        return bool(
            check_against_oracle(problem, result, oracle, case.config)
        )

    if not still_fails(units):
        # Not reproducible (e.g. already fixed) — nothing to shrink.
        return case

    chunks = 2
    while len(units) >= 2:
        chunk_size = max(1, len(units) // chunks)
        reduced = False
        for start in range(0, len(units), chunk_size):
            candidate = units[:start] + units[start + chunk_size:]
            if candidate and still_fails(candidate):
                units = candidate
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if chunk_size == 1:
                break
            chunks = min(len(units), chunks * 2)
    minimized = replace(case, units=list(units))
    if len(units) == len(base.units):
        minimized = replace(case, units=None)
    return minimized


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Outcome of one fuzz sweep."""

    checks: int = 0
    problems: int = 0
    scenarios: int = 0
    elapsed: float = 0.0
    failures: List[CorpusCase] = field(default_factory=list)
    messages: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep(
    seed: int = 0,
    scenarios_per_family: int = 2,
    families: Optional[Sequence[str]] = None,
    time_budget: Optional[float] = None,
    full_matrix: bool = False,
    minimize: bool = True,
) -> SweepReport:
    """Differential-fuzz small scenarios across the explorer matrix.

    Deterministic for a given ``seed``: scenario seeds are drawn as
    ``seed * 1000 + i``.  ``time_budget`` (seconds) is a soft cap —
    the sweep finishes the current problem and stops, so a time-boxed
    CI job still ends on a complete, reproducible boundary.
    """
    from . import FAMILIES

    chosen = list(families if families is not None else FAMILIES)
    report = SweepReport()
    started = time.monotonic()
    configs = list(config_matrix(full=full_matrix))

    for family in chosen:
        for index in range(scenarios_per_family):
            if (
                time_budget is not None
                and time.monotonic() - started > time_budget
            ):
                report.messages.append(
                    f"time budget hit after {report.scenarios} "
                    f"scenarios ({report.checks} checks)"
                )
                report.elapsed = time.monotonic() - started
                return report
            scenario_seed = seed * 1000 + index
            from . import generate

            scenario = generate(family, scenario_seed, "small")
            report.scenarios += 1
            for label, problem in scenario.problems():
                report.problems += 1
                oracle = ExhaustiveExplorer().explore(problem)
                for config in configs:
                    result = build_explorer(config).explore(problem)
                    report.checks += 1
                    problems_found = check_against_oracle(
                        problem, result, oracle, config
                    )
                    if problems_found:
                        case = CorpusCase(
                            id=(
                                f"{family}-s{scenario_seed}-{label}-"
                                f"{describe(config).replace(':', '_')}"
                            ),
                            family=family,
                            seed=scenario_seed,
                            size="small",
                            problem=label,
                            config=dict(config),
                            note="; ".join(problems_found),
                        )
                        if minimize:
                            case = minimize_case(case)
                        report.failures.append(case)
                        report.messages.extend(problems_found)
    report.elapsed = time.monotonic() - started
    return report


def cross_sweep(
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
    size: str = "medium",
    node_budget: int = 50_000,
) -> SweepReport:
    """Cost-only cross-agreement on scenarios beyond the oracle.

    Runs the curated matrix (each exact config under ``node_budget``)
    on the joint problem of one ``size`` scenario per family and
    applies :func:`cross_check` — no exhaustive enumeration anywhere.
    """
    from . import FAMILIES, generate

    chosen = list(families if families is not None else FAMILIES)
    report = SweepReport()
    started = time.monotonic()
    for family in chosen:
        scenario = generate(family, seed, size)
        problem = scenario.joint_problem()
        report.scenarios += 1
        report.problems += 1
        results = []
        disagreements = []
        for config in config_matrix():
            if config["kind"] == "exhaustive":
                continue  # no oracle at this size — that's the point
            explorer = build_explorer(config)
            explorer.node_budget = node_budget
            results.append((config, explorer.explore(problem)))
            report.checks += 1
            disagreements.extend(
                f"{family}: {message}"
                for message in _check_self_consistency(
                    problem, results[-1][1], config
                )
            )
        disagreements.extend(
            f"{family}: {message}"
            for message in cross_check(results)
        )
        report.messages.extend(disagreements)
        if disagreements:
            report.failures.append(
                CorpusCase(
                    id=f"{family}-s{seed}-{size}-cross",
                    family=family,
                    seed=seed,
                    size=size,
                    problem="joint",
                    config={"kind": "exhaustive"},
                    note="; ".join(disagreements),
                )
            )
    report.elapsed = time.monotonic() - started
    return report
