"""Incremental (delta-cost) evaluation state for design-space search.

Every explorer in :mod:`repro.synth.explorer` walks the mapping space
by assigning units to targets one at a time.  The seed implementation
re-ran the from-scratch :func:`repro.synth.cost.evaluate` at every
search node — O(units × processors) per node, rebuilding per-processor
buckets and the per-interface max-exclusion aggregation each time.
:class:`SearchState` replaces that with O(1)-amortized deltas over an
**integerized fixed-point kernel**:

* every utilization, memory and cost contribution is quantized once at
  construction to an integer number of ``2**-QUANT_SHIFT`` quanta
  (:func:`repro.synth.cost.quantize`), so the per-processor aggregates
  are integer accumulators — associative and commutative *by
  construction*.  Any sequence of assign/unassign/reassign calls that
  reaches the same assignment reads byte-identical state, in any
  mutation order, with no re-aggregation;
* per-processor utilization under the paper's exclusion rule
  (``common + Σ_interfaces max_cluster Σ_units``),
* per-processor memory footprints (``variants_resident`` both ways),
* hardware cost and allocated-processor count,
* capacity-violation counters (so feasibility of the current partial
  mapping is an O(1) read), and
* an incremental admissible lower bound for branch-and-bound pruning,
  with an optional **capacity-aware** knapsack term (below).

The "amortized" caveat is the interface max: removing the cluster that
currently dominates an interface's exclusion load re-scans that
interface's clusters *on that processor* — a handful of entries.

The from-scratch :func:`~repro.synth.cost.evaluate` stays the reference
oracle: :class:`ReferenceSearchState` wraps it behind the same search
interface (for benchmarking the speedup instead of asserting it), and
the property suite cross-checks both paths on randomized problems and
assign/unassign sequences.

Quantization contract
---------------------
For library values that are binary fractions with at most
``QUANT_SHIFT`` fractional bits (e.g. the ``k/64`` grids of the
property suite), the integer kernel reproduces the float oracle **bit
for bit**.  For arbitrary decimal values it agrees within quantization
tolerance (``~n·2**-(QUANT_SHIFT+1)`` per aggregate of ``n`` units,
i.e. ~1e-8 for realistic buckets) while remaining exactly
deterministic across mutation orders and process boundaries.

Capacity-aware lower bound
--------------------------
``lower_bound()`` = committed hardware + hardware-only pending cost +
allocated-processor cost (the *basic* bound) **plus** a fractional-
knapsack relaxation of the remaining capacity constraint: undecided
software-capable load that provably cannot fit the architecture's
total remaining processor capacity must buy hardware, and the cheapest
way to do that (sorted by hardware-cost-per-load density, last unit
fractional) lower-bounds the extra cost of *any* completion.

Mutual exclusion makes a naive load sum inadmissible (cluster loads
shadow each other), so the relaxation only counts units whose load is
guaranteed to consume capacity in every completion: common units plus,
per interface, one statically *chosen* cluster (the one with the
largest total software load).  For any fixed choice ``c_θ`` the true
per-processor utilization satisfies ``Σ_p util_p ≥ common_load +
Σ_θ load(c_θ)``, so the relaxed constraint is valid and the bound
stays admissible — branch-and-bound remains provably optimal (up to
quantization tolerance).  The knapsack state is maintained
incrementally per decision in a Fenwick tree over the density-sorted
undecided units: O(log n) per mutation, O(log n) per bound read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SynthesisError
from .cost import (
    Evaluation,
    QUANT_SCALE,
    evaluate,
    lower_bound,
    quantize,
    quantize_capacity,
)
from .library import ImplKind
from .mapping import Mapping, SynthesisProblem, Target

#: Grouping key: ``(interface, cluster)`` for exclusion-aware loads,
#: ``None`` for common (always-concurrent) load.
_GroupKey = Optional[Tuple[str, str]]

_SOFTWARE = ImplKind.SOFTWARE


class _ExclusionLoad:
    """Delta-maintained ``common + Σ_iface max_cluster Σ`` aggregate.

    All loads are integers (quanta), so accumulation is exact and
    order-independent.  ``total`` is kept current by every mutation —
    a common load moves it directly, a grouped load by the change of
    its interface's max — so reads are a plain attribute access.
    """

    __slots__ = ("common", "groups", "imax", "total")

    def __init__(self) -> None:
        self.common = 0
        #: interface -> {cluster: [load, unit_count]}
        self.groups: Dict[str, Dict[str, List[int]]] = {}
        #: interface -> current max cluster load
        self.imax: Dict[str, int] = {}
        #: ``common + sum(imax.values())``
        self.total = 0

    def add(self, key: _GroupKey, value: int) -> None:
        if key is None:
            self.common += value
            self.total += value
            return
        interface, cluster = key
        group = self.groups.get(interface)
        if group is None:
            self.groups[interface] = {cluster: [value, 1]}
            self.imax[interface] = value
            self.total += value
            return
        slot = group.get(cluster)
        if slot is None:
            group[cluster] = [value, 1]
            new_load = value
        else:
            slot[0] += value
            slot[1] += 1
            new_load = slot[0]
        current_max = self.imax[interface]
        if new_load > current_max:
            self.imax[interface] = new_load
            self.total += new_load - current_max

    def probe_add(self, key: _GroupKey, value: int) -> int:
        """``total`` after :meth:`add` ``(key, value)``; mutates nothing."""
        total = self.total
        if key is None:
            return total + value
        interface, cluster = key
        group = self.groups.get(interface)
        if group is None:
            return total + value
        slot = group.get(cluster)
        new_load = value if slot is None else slot[0] + value
        current_max = self.imax[interface]
        if new_load > current_max:
            return total + new_load - current_max
        return total

    def remove(self, key: _GroupKey, value: int) -> None:
        if key is None:
            self.common -= value
            self.total -= value
            return
        interface, cluster = key
        group = self.groups[interface]
        slot = group[cluster]
        old_load = slot[0]
        if slot[1] == 1:
            del group[cluster]
        else:
            slot[0] = old_load - value
            slot[1] -= 1
        current_max = self.imax[interface]
        if old_load >= current_max:
            # The removed-from cluster was (tied for) the interface
            # max: re-scan this interface's clusters on this processor.
            if group:
                new_max = max(slot[0] for slot in group.values())
                self.imax[interface] = new_max
                self.total += new_max - current_max
            else:
                del self.groups[interface]
                del self.imax[interface]
                self.total -= current_max


class _KnapsackBound:
    """Fenwick tree over density-sorted undecided flexible units.

    Supports the capacity-aware bound: point add/remove as units are
    decided/undecided, and an O(log n) prefix descent answering "how
    much hardware cost can at most be *avoided* within a remaining
    capacity budget" — the fractional-knapsack LP optimum, floored
    towards admissibility.
    """

    __slots__ = (
        "size",
        "loads",
        "costs",
        "bit_load",
        "bit_cost",
        "total_load",
        "total_cost",
        "_top_bit",
    )

    def __init__(self, entries: List[Tuple[int, int]]) -> None:
        # ``entries`` are (load, cost) pairs already sorted by
        # descending cost/load density; index 0 of the static arrays
        # is unused (Fenwick trees are 1-based).  Every entry carries
        # a strictly positive load (zero-load units never force
        # hardware and are excluded by the pool builder) — the
        # boundary-slot argument in :meth:`forced_cost` relies on it.
        self.size = len(entries)
        self.loads = [0] + [load for load, _ in entries]
        self.costs = [0] + [cost for _, cost in entries]
        self.bit_load = [0] * (self.size + 1)
        self.bit_cost = [0] * (self.size + 1)
        self.total_load = 0
        self.total_cost = 0
        for slot in range(1, self.size + 1):
            self.bit_load[slot] += self.loads[slot]
            self.bit_cost[slot] += self.costs[slot]
            parent = slot + (slot & -slot)
            if parent <= self.size:
                self.bit_load[parent] += self.bit_load[slot]
                self.bit_cost[parent] += self.bit_cost[slot]
            self.total_load += self.loads[slot]
            self.total_cost += self.costs[slot]
        top = 1
        while top * 2 <= self.size:
            top *= 2
        self._top_bit = top

    def remove(self, slot: int) -> None:
        """Take one unit out of the undecided pool."""
        load, cost = self.loads[slot], self.costs[slot]
        self.total_load -= load
        self.total_cost -= cost
        index = slot
        while index <= self.size:
            self.bit_load[index] -= load
            self.bit_cost[index] -= cost
            index += index & -index

    def add(self, slot: int) -> None:
        """Return one unit to the undecided pool."""
        load, cost = self.loads[slot], self.costs[slot]
        self.total_load += load
        self.total_cost += cost
        index = slot
        while index <= self.size:
            self.bit_load[index] += load
            self.bit_cost[index] += cost
            index += index & -index

    def forced_cost(self, budget: int, skip: int = 0) -> int:
        """Minimum hardware cost forced by a capacity ``budget``.

        Fractional-knapsack LP bound: keep the densest (most expensive
        hardware per unit load) prefix in software while it fits, buy
        the rest, refund the boundary unit fractionally (rounded *up*,
        so the result never exceeds the LP optimum — admissible).

        ``skip`` names one present slot to read as already removed (0:
        none): every tree node the descent reads that covers it is
        discounted by its load and cost, so the result equals
        ``remove(skip); forced_cost(budget)`` without the mutation.
        """
        total_load = self.total_load
        forced = self.total_cost
        skip_load = skip_cost = 0
        if skip:
            skip_load = self.loads[skip]
            skip_cost = self.costs[skip]
            total_load -= skip_load
            forced -= skip_cost
        if total_load <= budget:
            return 0
        # Largest density-ordered prefix with cumulative load <= budget.
        # Node ``probe`` of the descent covers slots ``(position,
        # probe]``: ``position`` is a multiple of twice ``bit``.
        position = 0
        remaining = budget
        bit = self._top_bit
        bit_load = self.bit_load
        bit_cost = self.bit_cost
        size = self.size
        while bit:
            probe = position + bit
            if probe <= size:
                load = bit_load[probe]
                if position < skip <= probe:
                    load -= skip_load
                    if load <= remaining:
                        remaining -= load
                        forced -= bit_cost[probe] - skip_cost
                        position = probe
                elif load <= remaining:
                    remaining -= load
                    forced -= bit_cost[probe]
                    position = probe
            bit >>= 1
        if remaining > 0 and position < size:
            # Fractionally keep the boundary unit.  The descent is
            # maximal, so slot ``position + 1`` must contribute load
            # (an undecided pool member): were it removed (zeroed, or
            # skipped) or zero-load, its prefix would equal
            # ``position``'s and the descent would have advanced past
            # it.
            slot = position + 1
            cost, load = self.costs[slot], self.loads[slot]
            forced -= -((-remaining * cost) // load)  # ceil division
        return forced


class SearchState:
    """Delta-cost evaluation state over one :class:`SynthesisProblem`.

    ``assign(unit, target)`` / ``unassign(unit)`` maintain every cost
    and feasibility aggregate incrementally on the integer kernel;
    ``feasible``, ``leaf()`` and ``lower_bound()`` are O(1)/O(log n)
    reads.  ``evaluation()`` assembles a full
    :class:`~repro.synth.cost.Evaluation` (reference semantics,
    including the truncated-utilizations shape on violation) from the
    maintained aggregates.

    ``capacity_bound=False`` skips the knapsack maintenance (useful for
    explorers that never read ``lower_bound()``, e.g. exhaustive
    enumeration).
    """

    #: Partial-mapping infeasibility is monotone (loads only grow along
    #: a search path), so explorers may prune on it.
    can_prune_infeasible = True

    #: Whether some interface has two or more software-capable clusters
    #: under the exclusion rule, so a max over clusters can bind.
    #: Recorded by the capacity-aware bound's setup; ``False`` without
    #: it.  Branch and bound reads it to gate its root presolve.
    exclusion_live = False

    def __init__(
        self,
        problem: SynthesisProblem,
        variants_resident: bool = True,
        capacity_bound: bool = True,
    ) -> None:
        self.problem = problem
        self.variants_resident = variants_resident
        self.capacity_bound = capacity_bound
        arch = problem.architecture
        self._max_processors = arch.max_processors
        self._ipcost = quantize(arch.processor_cost)
        self._icap = quantize_capacity(arch.processor_capacity)
        self._imcap = (
            quantize_capacity(arch.memory_capacity)
            if arch.memory_capacity > 0
            else None
        )
        self._index: Dict[str, int] = {
            unit: index for index, unit in enumerate(problem.units)
        }
        #: unit -> (iload, imem, ihw_cost, util_key, mem_key)
        self._info: Dict[str, tuple] = {}
        pending_hwonly = 0
        unassigned_swonly = 0
        for unit in problem.units:
            entry = problem.entry(unit)
            software = entry.software
            iload = (
                quantize(software.utilization)
                if software is not None
                else None
            )
            imem = (
                quantize(software.memory) if software is not None else None
            )
            ihw = (
                quantize(entry.hardware.cost)
                if entry.hardware is not None
                else None
            )
            self._info[unit] = (
                iload,
                imem,
                ihw,
                problem.exclusion_group(unit),
                None if variants_resident else problem.variant_group(unit),
            )
            if iload is None and ihw is not None:
                pending_hwonly += ihw
            if ihw is None:
                unassigned_swonly += 1

        self.assignment: Dict[str, Target] = {}
        self._buckets: Dict[int, Dict[str, None]] = {}
        self._uload: Dict[int, _ExclusionLoad] = {}
        self._mload: Dict[int, _ExclusionLoad] = {}
        self._hw_units: Set[str] = set()
        self._ihwcost = 0
        self._ipending_hwonly = pending_hwonly
        self._unassigned_swonly = unassigned_swonly
        self._util_viol = 0
        self._mem_viol = 0
        if capacity_bound:
            self._init_capacity_bound()
        else:
            self._flex_slot: Dict[str, Tuple[int, int, bool]] = {}
            self._pools: List[_KnapsackBound] = []
            self._ibudget_base: List[int] = []
            self._iassigned_sw: List[int] = []
            self._icommon_floor = 0
            self._icommon_sw = 0

    def _init_capacity_bound(self) -> None:
        """Static setup of the capacity-aware knapsack relaxation.

        Builds one knapsack *pool* per valid capacity constraint, over
        pairwise-disjoint unit sets (so their forced costs add):

        * pool 0 — common units plus, per interface, the *chosen*
          cluster (largest total software load): for any fixed choice
          ``c_θ``, ``common + Σ_θ S_{c_θ} ≤ P·cap`` holds in every
          completion, and the heaviest choice gives the tightest root
          bound;
        * one pool per remaining cluster ``c`` — ``common + S_c ≤
          P·cap`` also holds for every cluster individually; its
          budget subtracts the *provably resident* common load
          (software-only floor plus already-assigned flexible units,
          which keep their targets in all completions of this
          subtree).

        Each pool tracks a constant software-only load floor, the
        counted flexible load currently assigned to software, and a
        density-sorted Fenwick tree of the undecided flexible units.
        """
        cluster_loads: Dict[Tuple[str, str], int] = {}
        for unit, (iload, _imem, _ihw, ukey, _mkey) in self._info.items():
            if iload is not None and ukey is not None:
                cluster_loads[ukey] = cluster_loads.get(ukey, 0) + iload
        chosen: Dict[str, Tuple[str, str]] = {}
        for key in sorted(cluster_loads):
            interface = key[0]
            best = chosen.get(interface)
            if best is None or cluster_loads[key] > cluster_loads[best]:
                chosen[interface] = key
        pool_of_cluster: Dict[Tuple[str, str], int] = {}
        next_pool = 1
        for key in sorted(cluster_loads):
            if chosen[key[0]] == key:
                pool_of_cluster[key] = 0
            else:
                pool_of_cluster[key] = next_pool
                next_pool += 1

        n_pools = next_pool
        floors = [0] * n_pools
        members: List[List[Tuple[float, int, str, int, int]]] = [
            [] for _ in range(n_pools)
        ]
        common_floor = 0
        for unit, (iload, _imem, ihw, ukey, _mkey) in self._info.items():
            if iload is None:
                continue  # hardware-only: no capacity consumption
            pool = 0 if ukey is None else pool_of_cluster[ukey]
            if ihw is None:
                floors[pool] += iload
                if ukey is None:
                    common_floor += iload
            elif iload > 0:
                members[pool].append(
                    (-(ihw / iload), self._index[unit], unit, iload, ihw)
                )
        #: unit -> (pool index, Fenwick slot, counted-as-common flag)
        self._flex_slot = {}
        self._pools: List[_KnapsackBound] = []
        for pool, entries in enumerate(members):
            entries.sort()
            for slot, entry in enumerate(entries, start=1):
                unit, ukey = entry[2], self._info[entry[2]][3]
                self._flex_slot[unit] = (pool, slot, ukey is None)
            self._pools.append(
                _KnapsackBound(
                    [(iload, ihw) for _d, _i, _u, iload, ihw in entries]
                )
            )
        icap_total = (
            self.problem.architecture.max_processors * self._icap
        )
        self._ibudget_base = [icap_total - floor for floor in floors]
        self._icommon_floor = common_floor
        #: per pool: counted flexible load currently assigned to SW.
        self._iassigned_sw = [0] * n_pools
        #: common flexible load currently assigned to software.
        self._icommon_sw = 0
        # Exclusion binds only with a rival: with one software-capable
        # cluster per interface the max over clusters is that cluster.
        self.exclusion_live = len(chosen) < len(cluster_loads)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def assign(self, unit: str, target: Target) -> None:
        """Add one unit→target decision; O(1) amortized."""
        if unit in self.assignment:
            raise SynthesisError(f"unit {unit!r} is already assigned")
        self._add(unit, target)
        self.assignment[unit] = target

    def unassign(self, unit: str) -> None:
        """Remove one unit's decision; O(1) amortized."""
        target = self.assignment.pop(unit, None)
        if target is None:
            raise SynthesisError(f"unit {unit!r} is not assigned")
        self._remove(unit, target)

    def reassign(self, unit: str, target: Target) -> None:
        """Move one unit to a new target.

        Equivalent to ``unassign(unit); assign(unit, target)`` — the
        hot operation of :class:`PathTrail` restores — but
        pool-preserving: the unit stays decided, so its knapsack slots
        are never returned and re-taken.  A software→software move only
        shifts processor columns; a hardware↔software flip shifts the
        pools' committed software load.  The target is validated before
        anything mutates, so a rejected move leaves the state untouched.
        """
        old = self.assignment.get(unit)
        if old is None:
            raise SynthesisError(f"unit {unit!r} is not assigned")
        iload, imem, ihw, ukey, mkey = self._info[unit]
        was_software = old.kind is _SOFTWARE
        to_software = target.kind is _SOFTWARE
        if (iload if to_software else ihw) is None:
            kind = "software" if to_software else "hardware"
            raise SynthesisError(
                f"unit {unit!r} mapped to {kind} without a {kind} option"
            )
        if was_software:
            self._proc_remove(old.processor, unit, iload, imem, ukey, mkey)
        else:
            self._hw_units.discard(unit)
            self._ihwcost -= ihw
        if to_software:
            self._proc_add(target.processor, unit, iload, imem, ukey, mkey)
        else:
            self._hw_units.add(unit)
            self._ihwcost += ihw
        if was_software != to_software:
            self._pool_flip(unit, iload, to_software)
        self.assignment[unit] = target

    def _add(self, unit: str, target: Target) -> None:
        info = self._info.get(unit)
        if info is None:
            raise SynthesisError(
                f"problem {self.problem.name!r} has no unit {unit!r}"
            )
        iload, imem, ihw, ukey, mkey = info
        if target.kind is _SOFTWARE:
            if iload is None:
                raise SynthesisError(
                    f"unit {unit!r} mapped to software without a software "
                    f"option"
                )
            self._proc_add(target.processor, unit, iload, imem, ukey, mkey)
            self._pool_decide(unit, iload, to_software=True)
        else:
            if ihw is None:
                raise SynthesisError(
                    f"unit {unit!r} mapped to hardware without a hardware "
                    f"option"
                )
            self._hw_units.add(unit)
            self._ihwcost += ihw
            self._pool_decide(unit, iload, to_software=False)
        if iload is None and ihw is not None:
            self._ipending_hwonly -= ihw
        if ihw is None:
            self._unassigned_swonly -= 1

    def _remove(self, unit: str, target: Target) -> None:
        iload, imem, ihw, ukey, mkey = self._info[unit]
        if target.kind is _SOFTWARE:
            self._proc_remove(
                target.processor, unit, iload, imem, ukey, mkey
            )
            self._pool_undecide(unit, iload, was_software=True)
        else:
            self._hw_units.discard(unit)
            self._ihwcost -= ihw
            self._pool_undecide(unit, iload, was_software=False)
        if iload is None and ihw is not None:
            self._ipending_hwonly += ihw
        if ihw is None:
            self._unassigned_swonly += 1

    # -- per-processor bookkeeping ---------------------------------------
    def _proc_add(
        self,
        processor: int,
        unit: str,
        iload: int,
        imem: int,
        ukey: _GroupKey,
        mkey: _GroupKey,
    ) -> None:
        """Put one software unit's load on a processor column.

        Loads are non-negative (the library rejects negative ones), so
        an add can only push a column over a capacity, never back
        under it — and a remove only the reverse.
        """
        bucket = self._buckets.get(processor)
        if bucket is None:
            bucket = self._buckets[processor] = {}
            uload = self._uload[processor] = _ExclusionLoad()
            mload = self._mload[processor] = _ExclusionLoad()
        else:
            uload = self._uload[processor]
            mload = self._mload[processor]
        bucket[unit] = None
        before = uload.total
        uload.add(ukey, iload)
        if before <= self._icap < uload.total:
            self._util_viol += 1
        before = mload.total
        mload.add(mkey, imem)
        imcap = self._imcap
        if imcap is not None and before <= imcap < mload.total:
            self._mem_viol += 1

    def _proc_remove(
        self,
        processor: int,
        unit: str,
        iload: int,
        imem: int,
        ukey: _GroupKey,
        mkey: _GroupKey,
    ) -> None:
        """Take one software unit's load off a processor column."""
        bucket = self._buckets[processor]
        del bucket[unit]
        if not bucket:
            # Forget the emptied column's aggregates wholesale.
            del self._buckets[processor]
            uload = self._uload.pop(processor)
            mload = self._mload.pop(processor)
            if uload.total > self._icap:
                self._util_viol -= 1
            if self._imcap is not None and mload.total > self._imcap:
                self._mem_viol -= 1
            return
        uload = self._uload[processor]
        before = uload.total
        uload.remove(ukey, iload)
        if uload.total <= self._icap < before:
            self._util_viol -= 1
        mload = self._mload[processor]
        before = mload.total
        mload.remove(mkey, imem)
        imcap = self._imcap
        if imcap is not None and mload.total <= imcap < before:
            self._mem_viol -= 1

    # -- knapsack-pool bookkeeping ---------------------------------------
    def _pool_decide(
        self, unit: str, iload: Optional[int], to_software: bool
    ) -> None:
        """Commit one flexible unit's decision to the bound pools."""
        entry = self._flex_slot.get(unit)
        if entry is None:
            return
        pool, slot, is_common = entry
        self._pools[pool].remove(slot)
        if to_software:
            self._iassigned_sw[pool] += iload
            if is_common:
                self._icommon_sw += iload

    def _pool_undecide(
        self, unit: str, iload: Optional[int], was_software: bool
    ) -> None:
        """Return one flexible unit's decision to the bound pools."""
        entry = self._flex_slot.get(unit)
        if entry is None:
            return
        pool, slot, is_common = entry
        self._pools[pool].add(slot)
        if was_software:
            self._iassigned_sw[pool] -= iload
            if is_common:
                self._icommon_sw -= iload

    def _pool_flip(
        self, unit: str, iload: Optional[int], to_software: bool
    ) -> None:
        """Flip one decided flexible unit between SW and HW in the pools.

        The net of :meth:`_pool_undecide` then :meth:`_pool_decide`:
        the Fenwick slot stays taken, only the software load moves.
        """
        entry = self._flex_slot.get(unit)
        if entry is None:
            return
        pool, _slot, is_common = entry
        delta = iload if to_software else -iload
        self._iassigned_sw[pool] += delta
        if is_common:
            self._icommon_sw += delta

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _iutil(self, processor: int) -> int:
        """Integer (quanta) software utilization of one processor."""
        uload = self._uload.get(processor)
        return 0 if uload is None else uload.total

    def _imem(self, processor: int) -> int:
        """Integer (quanta) memory footprint of one processor."""
        mload = self._mload.get(processor)
        return 0 if mload is None else mload.total

    def utilization(self, processor: int) -> float:
        """Current software utilization of one processor."""
        return self._iutil(processor) / QUANT_SCALE

    def memory(self, processor: int) -> float:
        """Current memory footprint of one processor."""
        return self._imem(processor) / QUANT_SCALE

    @property
    def hardware_cost(self) -> float:
        """Total hardware cost of the HW-assigned units."""
        return self._ihwcost / QUANT_SCALE

    @property
    def software_cost(self) -> float:
        """Processor-allocation cost of the current partial mapping."""
        return self.processor_count * self._ipcost / QUANT_SCALE

    @property
    def processor_count(self) -> int:
        """Number of processors currently hosting software."""
        return len(self._buckets)

    def processors_used(self) -> Tuple[int, ...]:
        """Sorted processor indices currently hosting software."""
        return tuple(self.used_processors())

    def used_processors(self) -> List[int]:
        """Sorted processor indices — O(allocated), not O(assigned)."""
        return sorted(self._buckets)

    @property
    def feasible(self) -> bool:
        """Whether the current (partial) mapping violates no resource.

        Loads are monotone along a search path, so ``False`` here means
        no completion of the current partial mapping is feasible.
        """
        return (
            self.processor_count <= self._max_processors
            and self._util_viol == 0
            and self._mem_viol == 0
        )

    @property
    def complete(self) -> bool:
        """Whether every unit of the problem is assigned."""
        return len(self.assignment) == len(self.problem.units)

    def leaf(self) -> Tuple[bool, float]:
        """O(1) (feasible, total_cost) of the current complete mapping."""
        ok = self.feasible
        if not ok:
            return False, float("inf")
        return (
            True,
            (self.processor_count * self._ipcost + self._ihwcost)
            / QUANT_SCALE,
        )

    def _processor_floor(self) -> int:
        processors = self.processor_count
        if processors == 0 and self._unassigned_swonly:
            processors = 1
        return processors

    def basic_lower_bound(self) -> float:
        """The capacity-blind admissible bound (pre-knapsack behavior).

        Pays committed hardware, the cheapest hardware of undecided
        hardware-only units, and every *already allocated* processor
        (assigned units keep their targets in all completions of this
        subtree).
        """
        return (
            self._ihwcost
            + self._ipending_hwonly
            + self._processor_floor() * self._ipcost
        ) / QUANT_SCALE

    def lower_bound(self) -> float:
        """Admissible lower bound on any completion's total cost.

        :meth:`basic_lower_bound` plus the capacity-aware term: per
        knapsack pool, the cheapest hardware cost (fractional-knapsack
        relaxation) of the counted undecided software-capable load
        that cannot fit the architecture's total remaining processor
        capacity.  Pools cover disjoint unit sets, so their forced
        costs add.  Returns ``inf`` when even the provably resident
        load cannot fit — no completion of this subtree is feasible.
        """
        forced = self._forced_term()
        if forced is None:
            return float("inf")
        return (
            self._ihwcost
            + self._ipending_hwonly
            + self._processor_floor() * self._ipcost
            + forced
        ) / QUANT_SCALE

    def _forced_term(
        self, unit: Optional[str] = None, to_software: bool = False
    ) -> Optional[int]:
        """Integer forced-hardware term of the capacity-aware bound.

        ``None`` means some pool's provably resident load exceeds its
        budget — no completion of this subtree is feasible (the float
        bound reads it as ``inf``).  Processor-independent, so batch
        candidate scoring shares one computation across all software
        placements of a unit.

        ``unit`` (optional) reads the term as if that undecided unit
        were decided ``to_software`` — its pool slots skipped, its
        software load committed — without touching the pools: the
        :meth:`score_candidates` probe.
        """
        pools = self._pools
        if not pools:
            return 0
        budgets = self._ibudget_base
        assigned = self._iassigned_sw
        # Common load that provably stays software in every
        # completion of this subtree: software-only floor plus
        # flexible units already committed to software.
        resident_common = self._icommon_floor + self._icommon_sw
        probe_pool = -1
        skip = software_load = 0
        entry = self._flex_slot.get(unit)
        if entry is not None:
            probe_pool, skip, is_common = entry
            if to_software:
                software_load = self._info[unit][0]
                if is_common:
                    resident_common += software_load
        forced = 0
        for pool, knapsack in enumerate(pools):
            budget = budgets[pool] - assigned[pool]
            if pool:
                budget -= resident_common
            if pool == probe_pool:
                budget -= software_load
                if budget < 0:
                    return None
                forced += knapsack.forced_cost(budget, skip)
                continue
            if budget < 0:
                return None
            if knapsack.total_load > budget:
                forced += knapsack.forced_cost(budget)
        return forced

    def to_mapping(self) -> Mapping:
        """Snapshot the current assignment as an immutable Mapping."""
        return Mapping(dict(self.assignment))

    def evaluation(self) -> Evaluation:
        """Full :class:`Evaluation` of the current complete mapping.

        Mirrors the reference oracle's semantics — including the
        truncated utilization tuple and violation message of the first
        offending processor — but reads every aggregate from the
        incrementally maintained integer state.
        """
        if not self.complete:
            missing = [
                u for u in self.problem.units if u not in self.assignment
            ]
            raise SynthesisError(f"mapping does not cover units {missing}")
        arch = self.problem.architecture
        processors = self.used_processors()
        hardware_cost = self._ihwcost / QUANT_SCALE
        if len(processors) > arch.max_processors:
            return self._infeasible(
                f"{len(processors)} processors used, template allows "
                f"{arch.max_processors}"
            )
        utilizations: List[float] = []
        for processor in processors:
            iload = self._iutil(processor)
            load = iload / QUANT_SCALE
            utilizations.append(load)
            if iload > self._icap:
                return self._infeasible(
                    f"processor {processor} utilization {load:.3f} exceeds "
                    f"capacity {arch.processor_capacity:.3f}",
                    partial_hw=hardware_cost,
                    utilizations=tuple(utilizations),
                )
            if self._imcap is not None:
                imem = self._imem(processor)
                if imem > self._imcap:
                    footprint = imem / QUANT_SCALE
                    return self._infeasible(
                        f"processor {processor} memory {footprint:.3f} "
                        f"exceeds capacity {arch.memory_capacity:.3f}",
                        partial_hw=hardware_cost,
                        utilizations=tuple(utilizations),
                    )
        software_cost = len(processors) * self._ipcost / QUANT_SCALE
        return Evaluation(
            feasible=True,
            total_cost=(
                len(processors) * self._ipcost + self._ihwcost
            )
            / QUANT_SCALE,
            software_cost=software_cost,
            hardware_cost=hardware_cost,
            processors_used=len(processors),
            utilizations=tuple(utilizations),
        )

    def _infeasible(
        self,
        reason: str,
        partial_hw: float = 0.0,
        utilizations: Tuple[float, ...] = (),
    ) -> Evaluation:
        return Evaluation(
            feasible=False,
            total_cost=float("inf"),
            software_cost=0.0,
            hardware_cost=partial_hw,
            processors_used=self.processor_count,
            utilizations=utilizations,
            violation=reason,
        )

    # ------------------------------------------------------------------
    # batch evaluation API
    # ------------------------------------------------------------------
    def score_candidates(
        self, unit: str, targets: Sequence[Target]
    ) -> List[Tuple[float, bool]]:
        """Score sibling candidate targets of one undecided unit.

        Returns one ``(lower_bound, feasible)`` pair per target — the
        state's :meth:`lower_bound` and :attr:`feasible` reads after
        hypothetically assigning ``unit`` to that target — computed
        from the current aggregates without mutating the state (raises
        what :meth:`assign` would for an inadmissible unit or target).

        The forced term is processor-independent, so it is computed at
        most twice per call: once for software, once for hardware
        (:meth:`_forced_term` with the unit's pool slots skipped).
        Software placements then read the probed processor column
        through :meth:`_ExclusionLoad.probe_add`.  Every read is
        byte-identical to the assign / read / unassign loop (the
        property suite pins it), and the bound is computed even for
        infeasible candidates, so callers may apply their own
        infeasibility policy.
        """
        if unit in self.assignment:
            raise SynthesisError(f"unit {unit!r} is already assigned")
        info = self._info.get(unit)
        if info is None:
            raise SynthesisError(
                f"problem {self.problem.name!r} has no unit {unit!r}"
            )
        iload, imem, ihw, ukey, mkey = info
        base = self._ihwcost + self._ipending_hwonly
        ipcost = self._ipcost
        icap = self._icap
        imcap = self._imcap
        processors = len(self._buckets)
        sw_forced = None if iload is None else self._forced_term(unit, True)
        hw_score = None
        results: List[Tuple[float, bool]] = []
        for target in targets:
            if target.kind is not _SOFTWARE:
                if hw_score is None:
                    hw_score = self._score_hardware(unit, iload, ihw, base)
                results.append(hw_score)
                continue
            if iload is None:
                raise SynthesisError(
                    f"unit {unit!r} mapped to software without a software "
                    f"option"
                )
            processor = target.processor
            uload = self._uload.get(processor)
            if uload is None:
                # A fresh column holds exactly this unit's loads.
                after = processors + 1
                util_over = 0 <= icap < iload
                mem_over = imcap is not None and 0 <= imcap < imem
            else:
                after = processors
                util_over = uload.total <= icap < uload.probe_add(ukey, iload)
                mload = self._mload[processor]
                mem_over = imcap is not None and (
                    mload.total <= imcap < mload.probe_add(mkey, imem)
                )
            feasible = (
                after <= self._max_processors
                and self._util_viol + util_over == 0
                and self._mem_viol + mem_over == 0
            )
            results.append(
                (
                    float("inf")
                    if sw_forced is None
                    else (base + after * ipcost + sw_forced) / QUANT_SCALE,
                    feasible,
                )
            )
        return results

    def _score_hardware(
        self, unit: str, iload: Optional[int], ihw: Optional[int], base: int
    ) -> Tuple[float, bool]:
        """:meth:`score_candidates`' read for a hardware placement.

        Hardware touches no processor column, so feasibility carries
        over and only the hardware cost and the pools move.
        """
        if ihw is None:
            raise SynthesisError(
                f"unit {unit!r} mapped to hardware without a hardware "
                f"option"
            )
        forced = self._forced_term(unit, False)
        if forced is None:
            return float("inf"), self.feasible
        if iload is None:
            base -= ihw  # a hardware-only unit leaves the pending term
        return (
            base + ihw + self._processor_floor() * self._ipcost + forced
        ) / QUANT_SCALE, self.feasible


#: Public alias — the delta-cost search state *is* the incremental
#: evaluator of the subsystem.
IncrementalEvaluator = SearchState


class _NumpySearchState(SearchState):
    """Empty stand-in for the removed NumPy backend class.

    Nothing constructs it.  ``perfbench/tracing.py`` reads it: it
    wraps the kernel methods each state class defines in its own body,
    so this class must stay distinct from :class:`SearchState` and
    define no methods (an alias would wrap every method twice and
    double the traced call counts).
    """


class PathTrail:
    """Delta-replay cursor over search-tree paths of one state.

    The best-first frontier revisits search nodes out of tree
    order; materializing a fresh state per node
    would rebuild every Fenwick pool each time.  A trail instead
    snapshots a node as its *decision path* — the ``(unit, target)``
    pairs from the root — and restores any node by applying the **net
    difference** between the applied path and the wanted one, below
    their longest common prefix: units only in the old suffix are
    unassigned, units only in the new suffix assigned, units whose
    target changed moved with the state's pool-preserving
    ``reassign``, and units with the same target left alone.
    O(units whose decision differs) mutations, never a rebuild.  Once
    strong branching has fixed the unit order, two far-apart nodes
    mostly decide the same units, so this is far fewer mutations than
    unwinding to the common prefix and replaying.

    Soundness leans on the state's own contract: the integer kernel
    makes every aggregate order-independent, so a restored node reads
    byte-identical bounds and feasibility however the trail got there.
    The one order-sensitive read is the iteration order of
    ``state.assignment`` (incumbent mappings and checkpoints serialize
    it), so a net restore re-keys the new suffix's units in path
    order: the dict then iterates exactly as after a plain replay.

    Depth-first-shaped hops — a pure descent (empty old suffix) or a
    new suffix of at most one decision — gain nothing from the net
    difference and take the plain unwind/replay.  ``moves`` counts the
    kernel mutations applied so far, a ``reassign`` as one.
    """

    __slots__ = ("state", "moves", "_applied")

    def __init__(self, state) -> None:
        self.state = state
        #: Kernel mutations applied by :meth:`restore` so far.
        self.moves = 0
        #: The decision path currently applied on top of the state's
        #: base assignment (``problem.fixed`` plus anything assigned
        #: before the trail took over).
        self._applied: List[Tuple[str, Target]] = []

    @property
    def path(self) -> Tuple[Tuple[str, Target], ...]:
        """The currently applied decision path (root excluded)."""
        return tuple(self._applied)

    def restore(self, path: Tuple[Tuple[str, Target], ...]) -> None:
        """Mutate the state so exactly ``path`` is applied."""
        applied = self._applied
        common = 0
        for have, want in zip(applied, path):
            if have != want:
                break
            common += 1
        state = self.state
        suffix = path[common:]
        if common == len(applied) or len(suffix) <= 1:
            self.moves += len(applied) - common + len(suffix)
            while len(applied) > common:
                state.unassign(applied.pop()[0])
            for pair in suffix:
                state.assign(pair[0], pair[1])
                applied.append(pair)
            return
        old = dict(applied[common:])
        assignment = state.assignment
        moves = 0
        for unit, target in suffix:
            have = old.pop(unit, None)
            if have is None:
                state.assign(unit, target)
                moves += 1
                continue
            if have is not target and have != target:
                state.reassign(unit, target)
                moves += 1
            # Re-key in path order (``assign`` appends the new units).
            assignment[unit] = assignment.pop(unit)
        # What is left of the old suffix is undecided in the new node.
        for unit in old:
            state.unassign(unit)
        moves += len(old)
        del applied[common:]
        applied.extend(suffix)
        self.moves += moves


class EvictionLog:
    """Bounded record of frontier evictions for honest proof floors.

    Memory-capped frontiers (``max_open=``) shed open nodes by worst
    bound; what the search must remember about a shed subtree is
    *only* the admissible bound it was evicted at — the minimum over
    all evicted bounds is exactly the cost below which
    the run can no longer claim a complete proof.  This log keeps
    that minimum plus a count, O(1) space however many subtrees are
    dropped, and round-trips through search checkpoints (a resumed
    segment inherits the earlier segment's honesty obligations).

    Infinite bounds are ignored: an evicted node whose bound is
    ``inf`` had no feasible completion, so dropping it loses nothing
    and must not poison the floor (``min`` would be unaffected) or
    inflate the count.
    """

    __slots__ = ("count", "floor")

    def __init__(
        self, count: int = 0, floor: float = float("inf")
    ) -> None:
        self.count = count
        self.floor = floor

    def record(self, bounds) -> None:
        """Fold one eviction batch (an iterable of bounds) in."""
        inf = float("inf")
        for bound in bounds:
            if bound == inf:
                continue
            self.count += 1
            if bound < self.floor:
                self.floor = bound

    @property
    def compromised(self) -> bool:
        """True once any finite-bound subtree has been dropped."""
        return self.count > 0


class ReferenceSearchState:
    """Full-recompute twin of :class:`SearchState` (the seed behavior).

    Same search interface, but every read runs the from-scratch
    reference oracle: ``leaf()``/``evaluation()`` rebuild a
    :class:`Mapping` and call :func:`~repro.synth.cost.evaluate`;
    ``lower_bound()`` re-walks all units.  Explorers accept it via
    ``incremental=False`` so benchmarks can *measure* the incremental
    speedup instead of asserting it.
    """

    can_prune_infeasible = False

    def __init__(
        self,
        problem: SynthesisProblem,
        variants_resident: bool = True,
        capacity_bound: bool = False,
    ) -> None:
        self.problem = problem
        self.variants_resident = variants_resident
        self.assignment: Dict[str, Target] = {}

    def assign(self, unit: str, target: Target) -> None:
        if unit in self.assignment:
            raise SynthesisError(f"unit {unit!r} is already assigned")
        self.assignment[unit] = target

    def unassign(self, unit: str) -> None:
        if unit not in self.assignment:
            raise SynthesisError(f"unit {unit!r} is not assigned")
        del self.assignment[unit]

    def reassign(self, unit: str, target: Target) -> None:
        if unit not in self.assignment:
            raise SynthesisError(f"unit {unit!r} is not assigned")
        self.assignment[unit] = target

    @property
    def feasible(self) -> bool:
        """Unknown for partial mappings — never claim infeasibility."""
        return True

    def used_processors(self) -> List[int]:
        """Sorted processor indices (full scan — the seed behavior)."""
        return sorted(
            {
                target.processor
                for target in self.assignment.values()
                if target.is_software
            }
        )

    @property
    def complete(self) -> bool:
        return len(self.assignment) == len(self.problem.units)

    def leaf(self) -> Tuple[bool, float]:
        result = self.evaluation()
        return result.feasible, result.total_cost

    def lower_bound(self) -> float:
        return lower_bound(self.problem, self.assignment)

    def to_mapping(self) -> Mapping:
        return Mapping(dict(self.assignment))

    def evaluation(self) -> Evaluation:
        return evaluate(
            self.problem, self.to_mapping(), self.variants_resident
        )

    def score_candidates(
        self, unit: str, targets: Sequence[Target]
    ) -> List[Tuple[float, bool]]:
        """Batch-API twin of :meth:`SearchState.score_candidates`.

        Probes through the full-recompute oracle — explorers running
        ``incremental=False`` still route every candidate loop through
        the one batch entry point.
        """
        results: List[Tuple[float, bool]] = []
        for target in targets:
            self.assign(unit, target)
            try:
                results.append((self.lower_bound(), self.feasible))
            finally:
                self.unassign(unit)
        return results
