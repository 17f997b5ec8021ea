"""Exact Pareto-front dynamic program for single-processor problems.

On one processor the exclusion rule of paper §5 makes the processor's
load ``common + Σ_interface max_cluster Σ_units``: a multiple-choice
knapsack over the variant structure (Sinha and Zoltners, 1979), which
a bottom-up dynamic program over Pareto fronts solves exactly
(Nemhauser and Ullmann, 1969) instead of searching it.

A front is a list of ``(hardware cost, software load, software memory,
software mask)`` points in the integer kernel's quanta, where the mask
has bit ``i`` set when ``problem.units[i]`` runs in software (the
back-pointer that rebuilds the mapping).  Fronts are built bottom-up:

* a unit's front holds its admissible options (a fixed unit has one);
* a cluster's front is the **sum** of its units' fronts;
* an interface's front combines its clusters' fronts by the **max** of
  their loads, since mutually exclusive clusters never run together,
  while memory and cost add up (variants stay resident, as in
  :func:`~repro.synth.cost.evaluate`'s default);
* the total front is the sum of the common part's and the interfaces'
  fronts.

Every combination drops the points over capacity and the dominated
ones (no lower cost, load or memory than some other point).  Every
aggregate is monotone in its parts, so a dominated partial never
completes better than the point that dominates it, and the pruned
total front still holds an optimum.  The optimum is the cheaper of the
best total point plus ``processor_cost`` and the all-hardware mapping,
which pays no processor (a zero-load software point can dominate it
inside a front, so it is priced on its own).

Loads, memories and capacities are quantized exactly as in the search
kernel (:func:`~repro.synth.cost.quantize`,
:func:`~repro.synth.cost.quantize_capacity`), so a point is feasible
exactly when a branch-and-bound leaf with the same assignment is.  The
module shares no code with the search kernel, its bounds or its
ordering: it is an independent exact solver, and branch and bound runs
it as a root presolve (see ``docs/search-internals.md``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .cost import QUANT_SCALE, quantize, quantize_capacity
from .mapping import Mapping, SynthesisProblem, Target

#: Largest front (points after pruning) the program keeps before it
#: gives up, leaving the problem to the tree.  Measured largest fronts
#: (``benchmarks/bench_scaling.py`` ladder, 22-76 units: 30-38 points;
#: single-processor zoo joint problems, bench size, seeds 0-15: at most
#: 97).  The cap leaves 2.6x headroom over the worst seen while
#: bounding one combination to ``MAX_FRONT ** 2`` candidate points:
#: two 256-point fronts combine in ~0.15 s (2-CPU x86-64, Python
#: 3.11), so an instance over the cap wastes little before the tree
#: takes over.
MAX_FRONT = 256

_Point = Tuple[int, int, int, int]
_ORIGIN: List[_Point] = [(0, 0, 0, 0)]


@dataclass(frozen=True)
class ParetoSolution:
    """A minimum-cost mapping found by the program."""

    mapping: Mapping
    #: Total cost as the search kernel reads it (quanta / scale).
    cost: float
    #: Size of the largest front built on the way.
    largest_front: int


class _FrontTooLarge(Exception):
    """A pruned front exceeded :data:`MAX_FRONT`."""


class _Fronts:
    """Front combinators under one processor's capacities.

    Without a memory capacity every point's memory is 0, so ``imcap``
    is 0 too and the memory test always holds.
    """

    def __init__(self, icap: int, imcap: int) -> None:
        self.icap = icap
        self.imcap = imcap
        self.largest = 1

    def add(self, left: List[_Point], right: List[_Point]) -> List[_Point]:
        """Fronts of two concurrent parts: everything adds up."""
        icap, imcap = self.icap, self.imcap
        return self._prune(
            [
                (c1 + c2, l1 + l2, m1 + m2, x1 | x2)
                for c1, l1, m1, x1 in left
                for c2, l2, m2, x2 in right
                if l1 + l2 <= icap and m1 + m2 <= imcap
            ]
        )

    def exclusive(
        self, left: List[_Point], right: List[_Point]
    ) -> List[_Point]:
        """Fronts of two mutually exclusive clusters: load is a max."""
        imcap = self.imcap
        return self._prune(
            [
                (c1 + c2, l1 if l1 > l2 else l2, m1 + m2, x1 | x2)
                for c1, l1, m1, x1 in left
                for c2, l2, m2, x2 in right
                if m1 + m2 <= imcap
            ]
        )

    def _prune(self, points: List[_Point]) -> List[_Point]:
        """Drop dominated points; raises over :data:`MAX_FRONT`.

        Sorted by cost, every kept point costs no more than the next
        candidate, which is dominated when some kept point also has no
        larger load and memory.  ``loads``/``memories`` keep the
        staircase of those kept ``(load, memory)`` pairs (loads rising,
        memories strictly falling), so the test is one bisection.
        """
        points.sort()
        kept: List[_Point] = []
        loads: List[int] = []
        memories: List[int] = []
        for point in points:
            _cost, load, memory, _mask = point
            below = bisect_right(loads, load)
            if below and memories[below - 1] <= memory:
                continue
            kept.append(point)
            if len(kept) > MAX_FRONT:
                raise _FrontTooLarge
            start = end = bisect_left(loads, load)
            while end < len(loads) and memories[end] >= memory:
                end += 1
            loads[start:end] = [load]
            memories[start:end] = [memory]
        if len(kept) > self.largest:
            self.largest = len(kept)
        return kept


def solve(problem: SynthesisProblem) -> Optional[ParetoSolution]:
    """A minimum-cost mapping of a single-processor problem.

    Returns ``None`` when the program does not apply or gives up: more
    or fewer than one processor, a unit fixed to a processor other than
    0, a front over :data:`MAX_FRONT`, or no feasible mapping at all.
    ``use_exclusion=False`` problems put every unit in the common part.
    """
    arch = problem.architecture
    if arch.max_processors != 1:
        return None
    memory_bound = arch.memory_capacity > 0
    fronts = _Fronts(
        quantize_capacity(arch.processor_capacity),
        quantize_capacity(arch.memory_capacity) if memory_bound else 0,
    )
    common = _ORIGIN
    clusters: Dict[str, Dict[str, List[_Point]]] = {}
    #: Cost of mapping every unit to hardware (None: not admissible).
    all_hardware: Optional[int] = 0
    try:
        for bit, unit in enumerate(problem.units):
            entry = problem.entry(unit)
            fixed = problem.fixed.get(unit)
            if fixed is not None and fixed.is_software and fixed.processor:
                return None
            software, hardware = entry.software, entry.hardware
            if fixed is not None:
                if fixed.is_software:
                    hardware = None
                else:
                    software = None
            options: List[_Point] = []
            if software is not None:
                memory = quantize(software.memory) if memory_bound else 0
                options.append(
                    (0, quantize(software.utilization), memory, 1 << bit)
                )
            if hardware is not None:
                options.append((quantize(hardware.cost), 0, 0, 0))
                if all_hardware is not None:
                    all_hardware += options[-1][0]
            else:
                all_hardware = None
            if not options:
                return None
            group = problem.exclusion_group(unit)
            if group is None:
                common = fronts.add(common, options)
            else:
                interface = clusters.setdefault(group[0], {})
                interface[group[1]] = fronts.add(
                    interface.get(group[1], _ORIGIN), options
                )
        total = common
        for interface in clusters.values():
            merged = None
            for front in interface.values():
                merged = front if merged is None else fronts.exclusive(
                    merged, front
                )
            total = fronts.add(total, merged)
    except _FrontTooLarge:
        return None
    processor_cost = quantize(arch.processor_cost)
    best: Optional[Tuple[int, int]] = None
    for cost, _load, _memory, mask in total:
        if mask:
            cost += processor_cost
        if best is None or cost < best[0]:
            best = (cost, mask)
    if all_hardware is not None and (best is None or all_hardware < best[0]):
        best = (all_hardware, 0)
    if best is None:
        return None
    cost, mask = best
    hw, sw = Target.hw(), Target.sw(0)
    mapping = Mapping(
        {
            unit: sw if mask >> bit & 1 else hw
            for bit, unit in enumerate(problem.units)
        }
    )
    return ParetoSolution(mapping, cost / QUANT_SCALE, fronts.largest)
