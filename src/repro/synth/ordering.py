"""Branching-order heuristics for branch-and-bound search.

PR 3 made every search node cheap (integer delta-cost kernel) and the
lower bound tight (capacity-aware knapsack pools).  What it left static
is the *order* in which the tree is explored:
:class:`~repro.synth.explorer.BranchBoundExplorer` decided units in
fixed descending-hardware-cost order and tried each unit's candidate
targets in generation order.  This module supplies the adaptive
alternatives:

* **unit orders** — :func:`hardware_cost_order` (the historical
  ``static`` behavior) and :func:`density_order`, which decides forced
  units first (hardware-only, then software-only: they contribute no
  branching) and orders the genuinely flexible units by descending
  knapsack density (hardware cost per unit of load).  High-density
  units are where the fractional-knapsack relaxation of the
  capacity-aware bound is least certain, so deciding them first
  tightens the bound earliest;
* **value ordering** — :func:`probe_targets` scores each candidate
  target by the lower bound the state would read once it is assigned
  (computed without mutating the state).  Descending the
  cheapest-bound child first steers the initial depth-first dive
  toward the relaxation optimum, so the first incumbent lands near
  the true optimum and prunes most of the remaining tree;
* **shallow-depth re-sorting** — :func:`strong_branch` re-ranks the
  undecided units near the root (depth < :data:`STRONG_BRANCH_DEPTH`)
  by probing every unit's candidates and picking the unit whose *best*
  child bound is highest (the fail-first rule): the subtree multiplier
  of a good root decision dwarfs the probe cost, which is why the
  re-sort is bounded to shallow depths.

All probes go through ``state.score_candidates``, which leaves the
search state untouched (the property suite asserts it), so ordering
never changes *what* the search proves — only how fast it gets there.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import SynthesisError
from .mapping import SynthesisProblem, Target

#: Valid ``ordering=`` values of :class:`BranchBoundExplorer`.
ORDERINGS = ("static", "density", "adaptive")

#: Valid ``frontier=`` values of :class:`BranchBoundExplorer`:
#: depth-first (the default) and best-first over the incremental lower
#: bound.
FRONTIERS = ("dfs", "best-first")

#: Depths (0-based) at which ``adaptive`` re-sorts the undecided units
#: via :func:`strong_branch` instead of following the precomputed
#: density order.  Near the root a unit choice multiplies through the
#: whole subtree; deeper down the probe overhead stops paying.
STRONG_BRANCH_DEPTH = 2

#: Candidate cap of one strong-branching re-sort: only the first this
#: many undecided units (the densest, given a density-ordered list)
#: are probed.  On wide problems probing every unit at the shallow
#: depths costs more than the re-sort saves.
STRONG_BRANCH_WIDTH = 16


def validate_ordering(ordering: str) -> str:
    if ordering not in ORDERINGS:
        raise SynthesisError(
            f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
        )
    return ordering


def validate_frontier(frontier: str) -> str:
    if frontier not in FRONTIERS:
        raise SynthesisError(
            f"unknown frontier {frontier!r}; expected one of {FRONTIERS}"
        )
    return frontier


def hardware_cost_order(
    problem: SynthesisProblem, units: Sequence[str]
) -> List[str]:
    """Descending hardware cost — the historical ``static`` order."""
    return sorted(
        units,
        key=lambda u: -(
            problem.entry(u).hardware.cost
            if problem.entry(u).hardware
            else 0.0
        ),
    )


def density_order(
    problem: SynthesisProblem, units: Sequence[str]
) -> List[str]:
    """Forced units first, then flexible units by knapsack density.

    Hardware-only and software-only units carry exactly one
    implementation kind, so deciding them adds no branching — they go
    first (hardware-only, then software-only, largest load first so
    infeasible partials surface early).  The flexible remainder is the
    real knapsack; descending hardware-cost-per-load density puts the
    units that dominate the fractional relaxation at the top of the
    tree, ties broken by enumeration order for determinism.
    """
    forced_hw: List[Tuple[float, int, str]] = []
    forced_sw: List[Tuple[float, int, str]] = []
    flexible: List[Tuple[float, int, str]] = []
    for index, unit in enumerate(units):
        entry = problem.entry(unit)
        software, hardware = entry.software, entry.hardware
        if software is None:
            cost = hardware.cost if hardware is not None else 0.0
            forced_hw.append((-cost, index, unit))
        elif hardware is None:
            forced_sw.append((-software.utilization, index, unit))
        else:
            load = software.utilization
            density = hardware.cost / load if load > 0 else 0.0
            flexible.append((-density, index, unit))
    return [
        unit
        for group in (forced_hw, forced_sw, flexible)
        for _key, _index, unit in sorted(group)
    ]


def unit_order(
    problem: SynthesisProblem, units: Sequence[str], ordering: str
) -> List[str]:
    """The initial unit decision order for one ``ordering`` mode."""
    if ordering == "static":
        return hardware_cost_order(problem, units)
    return density_order(problem, units)


def probe_targets(
    state, unit: str, targets: Sequence[Target]
) -> List[Tuple[float, int, Target]]:
    """Score each candidate target by the bound after assigning it.

    Returns ``(bound, original_index, target)`` triples sorted
    ascending — the cheapest-looking child first, generation order as
    the deterministic tie-break.  A child whose tentative assignment is
    already infeasible (monotone loads: no completion can recover) is
    scored ``inf``, so callers can skip it outright.  The whole sibling
    batch is scored through ``state.score_candidates``, which reads
    every child from the current aggregates without mutating the state.
    """
    scored: List[Tuple[float, int, Target]] = []
    prune_infeasible = state.can_prune_infeasible
    for index, (bound, feasible) in enumerate(
        state.score_candidates(unit, targets)
    ):
        if prune_infeasible and not feasible:
            bound = float("inf")
        scored.append((bound, index, targets[index]))
    scored.sort(key=lambda item: (item[0], item[1]))
    return scored


def strong_branch(
    state,
    problem: SynthesisProblem,
    undecided: Sequence[str],
    candidate_targets,
) -> Tuple[str, List[Tuple[float, int, Target]]]:
    """Pick the most constrained undecided unit by probing (fail-first).

    Probes the first :data:`STRONG_BRANCH_WIDTH` undecided units'
    candidate targets and selects the unit whose *minimum* child bound
    is largest: deciding it first raises the whole subtree's bound
    fastest, so pruning engages earliest.  Returns the chosen unit
    together with its already-probed (sorted) targets so the caller
    descends without re-probing.  Ties break on position in
    ``undecided`` — pass a deterministic order.
    """
    best_unit = undecided[0]
    best_scored: List[Tuple[float, int, Target]] = []
    best_score = -1.0
    for unit in undecided[:STRONG_BRANCH_WIDTH]:
        scored = probe_targets(
            state, unit, candidate_targets(problem, unit, state)
        )
        score = scored[0][0]
        if score == float("inf"):
            # Every child of this unit is dead: the current node cannot
            # be completed at all, whatever is decided next.
            return unit, scored
        if score > best_score:
            best_unit, best_scored, best_score = unit, scored, score
    return best_unit, best_scored
