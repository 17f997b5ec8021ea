"""The three synthesis flows compared in Table 1, plus batch exploration.

* :func:`independent_flow` — synthesize each application (each fully
  bound variant combination) on its own; one architecture per
  application (Table 1 rows "Application 1" / "Application 2").
* :func:`superposition_flow` — merge the independent implementations
  into one architecture: software is reused, distinct hardware adds up
  (row "Superposition"); "optimization is limited to single
  applications without considering the final superposition step".
* :func:`variant_aware_flow` — the paper's approach: one joint
  optimization over the variant representation, exploiting run-time
  mutual exclusion of clusters (row "With variants").
* :func:`explore_space` — batch exploration of every consistent
  selection of a :class:`~repro.variants.variant_space.VariantSpace`
  under one shared :class:`ProblemFamily`, reusing warm-start mappings
  between neighboring selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ModelError, SynthesisError
from ..spi.graph import ModelGraph
from ..variants.variant_space import VariantSpace
from ..variants.vgraph import VariantGraph
from .architecture import ArchitectureTemplate
from .design_time import design_time_of_units
from .explorer import BranchBoundExplorer, ExplorationResult, Explorer
from .library import ComponentLibrary
from .mapping import (
    SynthesisProblem,
    Target,
    VariantOrigin,
    origin_from_name,
    origins_of_graph,
    problem_for_graph,
    units_of_graph,
)
from .results import FlowOutcome


@dataclass
class ApplicationResult:
    """Per-application outcome of the independent flow."""

    name: str
    exploration: ExplorationResult
    outcome: FlowOutcome


def _default_explorer(explorer: Optional[Explorer]) -> Explorer:
    return explorer if explorer is not None else BranchBoundExplorer()


def _batch_runner(
    explorer: Optional[Explorer],
    total: int,
    jobs: Optional[int],
    lineage_size: Optional[int],
    **options,
):
    """The lineage runner for a batch of ``total`` selections.

    With neither ``jobs`` nor ``lineage_size`` set, the batch is one
    unsharded warm-start chain (the sequential semantics); otherwise
    it is cut into lineages of ``lineage_size`` (default
    ``DEFAULT_LINEAGE_SIZE``) over ``jobs`` workers (default 1).
    ``options`` are passed on to the runner.
    """
    from .parallel import DEFAULT_LINEAGE_SIZE, ParallelSpaceExplorer

    if jobs is None and lineage_size is None:
        size = max(1, total)
    elif lineage_size is None:
        size = DEFAULT_LINEAGE_SIZE
    else:
        size = lineage_size
    return ParallelSpaceExplorer(
        explorer=_default_explorer(explorer),
        jobs=1 if jobs is None else jobs,
        lineage_size=size,
        **options,
    )


def _outcome_from_exploration(
    flow: str,
    exploration: ExplorationResult,
    design_time: float,
    notes: str = "",
) -> FlowOutcome:
    exploration.require_feasible()
    mapping = exploration.mapping
    evaluation = exploration.evaluation
    return FlowOutcome(
        flow=flow,
        software_parts=mapping.software_units(),
        hardware_parts=mapping.hardware_units(),
        software_cost=evaluation.software_cost,
        hardware_cost=evaluation.hardware_cost,
        total_cost=evaluation.total_cost,
        design_time=design_time,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Independent synthesis
# ----------------------------------------------------------------------
def synthesize_application(
    name: str,
    graph: ModelGraph,
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    explorer: Optional[Explorer] = None,
) -> ApplicationResult:
    """Optimal implementation of one fully bound application."""
    problem = problem_for_graph(name, graph, library, architecture)
    exploration = _default_explorer(explorer).explore(problem)
    design_time = design_time_of_units(library, problem.units)
    outcome = _outcome_from_exploration(
        flow=name, exploration=exploration, design_time=design_time
    )
    return ApplicationResult(
        name=name, exploration=exploration, outcome=outcome
    )


def independent_flow(
    apps: Mapping[str, ModelGraph],
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    explorer: Optional[Explorer] = None,
    warm_start: bool = True,
    jobs: Optional[int] = None,
    lineage_size: Optional[int] = None,
) -> Dict[str, ApplicationResult]:
    """Synthesize every application separately.

    Rides the same batch machinery as :func:`explore_space`: each
    application is prebound once into a picklable task, consecutive
    applications chain warm starts (the shared common part keeps its
    targets, so each exploration starts from a near-feasible
    incumbent), and ``jobs`` shards the chain into parallel lineages.

    Both built-in explorers are exact, so a warm start only shrinks the
    search and each application's cost matches synthesizing it from
    scratch; ``warm_start=False`` makes the per-application runs
    strictly independent, node counts included.
    """
    from .parallel import SelectionTask

    if not apps:
        raise SynthesisError("independent flow needs at least one application")
    tasks = [
        SelectionTask(
            index=index,
            selection=(("application", name),),
            name=name,
            units=units_of_graph(graph),
            origins=tuple(sorted(origins_of_graph(graph).items())),
        )
        for index, (name, graph) in enumerate(apps.items())
    ]
    family = ProblemFamily(
        name="independent", library=library, architecture=architecture
    )
    runner = _batch_runner(
        explorer, len(tasks), jobs, lineage_size, warm_start=warm_start
    )
    results = runner.explore_tasks(family, tasks)
    flow_results: Dict[str, ApplicationResult] = {}
    for task, selection_result in zip(tasks, results):
        exploration = selection_result.exploration
        design_time = design_time_of_units(library, task.units)
        outcome = _outcome_from_exploration(
            flow=task.name, exploration=exploration, design_time=design_time
        )
        flow_results[task.name] = ApplicationResult(
            name=task.name, exploration=exploration, outcome=outcome
        )
    return flow_results


# ----------------------------------------------------------------------
# Superposition
# ----------------------------------------------------------------------
def superposition_flow(
    independent: Mapping[str, ApplicationResult],
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
) -> FlowOutcome:
    """Merge independent implementations into one architecture.

    Software parts shared between applications are reused directly (the
    processor is paid once); hardware parts are distinct per variant and
    add up — the structural reason superposition costs more than the
    variant-aware result.
    """
    if not independent:
        raise SynthesisError("superposition needs independent results")
    software: Dict[str, None] = {}
    hardware: Dict[str, None] = {}
    processors = 0
    design_time = 0.0
    for result in independent.values():
        result.exploration.require_feasible()
        mapping = result.exploration.mapping
        for unit in mapping.software_units():
            software[unit] = None
        for unit in mapping.hardware_units():
            hardware[unit] = None
        processors = max(
            processors, result.exploration.evaluation.processors_used
        )
        design_time += result.outcome.design_time

    hardware_cost = sum(
        library.entry(unit).hardware.cost for unit in hardware
    )
    software_cost = processors * architecture.processor_cost
    return FlowOutcome(
        flow="superposition",
        software_parts=tuple(sorted(software)),
        hardware_parts=tuple(sorted(hardware)),
        software_cost=software_cost,
        hardware_cost=hardware_cost,
        total_cost=software_cost + hardware_cost,
        design_time=design_time,
        notes="union of independently optimized implementations",
    )


# ----------------------------------------------------------------------
# Variant-aware joint synthesis (the paper's approach)
# ----------------------------------------------------------------------
def variant_units(
    vgraph: VariantGraph,
) -> Tuple[Tuple[str, ...], Dict[str, VariantOrigin]]:
    """All synthesis units of a variant graph, with their origins.

    Common-part units keep their names; every cluster of every
    interface contributes its processes under
    ``<interface>.<cluster>.<process>`` namespacing — each considered
    exactly once, which is where the design-time saving comes from.
    Nested interfaces recurse with path-extended names and take the
    innermost interface/cluster pair as origin.
    """
    units: List[str] = list(units_of_graph(vgraph.base))
    origins: Dict[str, VariantOrigin] = {}
    for path, interface, cluster in vgraph.spliced_clusters():
        origin = VariantOrigin(interface=interface, cluster=cluster.name)
        for process_name, process in sorted(cluster.graph.processes.items()):
            if process.virtual:
                continue
            unit = f"{path}.{cluster.name}.{process_name}"
            units.append(unit)
            origins[unit] = origin
    return tuple(units), origins


SelectionUnits = Tuple[
    Tuple[str, ...], Tuple[Tuple[str, VariantOrigin], ...]
]


def selection_units(
    vgraph: VariantGraph,
) -> Callable[[Mapping[str, str]], SelectionUnits]:
    """Derive selections' synthesis units without binding their graphs.

    A selection's application is the common part plus one cluster per
    interface, so its units are the common part's non-virtual
    processes plus each spliced cluster's, namespaced as
    :meth:`~repro.variants.vgraph.VariantGraph.bind` names them.  The
    returned function maps a selection to ``(units, origins)`` equal
    to :func:`units_of_graph` and the sorted :func:`origins_of_graph`
    items of ``vgraph.bind(selection)``; origins come from
    :func:`origin_from_name` (the outermost pair, unlike
    :func:`variant_units`).

    Each cluster's row of unit names is built on first use and kept
    for the life of the function.  ``bind``'s name checks stay on the
    path: a row whose elements collide with the common part's, or a
    selection whose units repeat a name, raises its
    :class:`~repro.errors.ModelError`.
    """
    base = vgraph.base
    common_names = set(base.processes) | set(base.channels)
    common = units_of_graph(base)
    origin_of: Dict[str, Optional[VariantOrigin]] = {
        unit: origin_from_name(unit) for unit in common
    }
    rows: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def row(path: str, cluster) -> Tuple[str, ...]:
        units = rows.get((path, cluster.name))
        if units is None:
            prefix = f"{path}.{cluster.name}."
            graph = cluster.graph
            ports = set(cluster.ports)
            spliced = [*graph.processes] + [
                name for name in graph.channels if name not in ports
            ]
            for name in spliced:
                if prefix + name in common_names:
                    raise ModelError(
                        f"node name {prefix + name!r} already used in graph"
                    )
            units = tuple(
                prefix + name
                for name, process in graph.processes.items()
                if not process.virtual
            )
            for unit in units:
                origin_of[unit] = origin_from_name(unit)
            rows[(path, cluster.name)] = units
        return units

    def derive(selection: Mapping[str, str]) -> SelectionUnits:
        units = list(common)
        for path, _interface, cluster in vgraph.spliced_clusters(selection):
            units.extend(row(path, cluster))
        units.sort()
        for previous, unit in zip(units, units[1:]):
            if previous == unit:
                raise ModelError(f"node name {unit!r} already used in graph")
        return tuple(units), tuple(
            (unit, origin_of[unit])
            for unit in units
            if origin_of[unit] is not None
        )

    return derive


# ----------------------------------------------------------------------
# Batch variant-space exploration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProblemFamily:
    """Shared setup of a family of related synthesis problems.

    Every configuration of a variant space shares the component
    library, the architecture envelope, and the exclusion semantics;
    bundling them once is what lets :func:`explore_space` amortize
    setup across thousands of configurations instead of rebuilding it
    per selection.
    """

    name: str
    library: ComponentLibrary
    architecture: ArchitectureTemplate
    use_exclusion: bool = True

    def problem_for(
        self,
        graph: ModelGraph,
        name: Optional[str] = None,
        fixed: Mapping[str, Target] = (),
    ) -> SynthesisProblem:
        """The synthesis problem of one bound application graph."""
        return problem_for_graph(
            name if name is not None else graph.name,
            graph,
            self.library,
            self.architecture,
            use_exclusion=self.use_exclusion,
            fixed=fixed,
        )

    def problem_for_units(
        self,
        name: str,
        units: Sequence[str],
        origins=(),
        fixed: Mapping[str, Target] = (),
    ) -> SynthesisProblem:
        """The synthesis problem of a prebound unit set.

        What pool workers use to rebuild a problem (and through it the
        incremental search state) from the shared family without
        shipping or re-binding model graphs.
        """
        return SynthesisProblem(
            name=name,
            units=tuple(units),
            library=self.library,
            architecture=self.architecture,
            origins=dict(origins),
            fixed=dict(fixed),
            use_exclusion=self.use_exclusion,
        )

    def canonical_payload(self) -> Dict[str, object]:
        """Deterministic serialization of this family's content.

        The serve layer's content-addressed cache keys jobs by this
        payload (plus the target selection/space and explorer
        config): two families with equal payloads define identical
        feasible regions and costs for every selection, whatever
        their names.  See :mod:`repro.serve.canonical`.
        """
        from ..serve.canonical import family_payload

        return family_payload(
            self.library, self.architecture, self.use_exclusion
        )


@dataclass
class SelectionResult:
    """Exploration outcome of one variant selection."""

    selection: Dict[str, str]
    problem: SynthesisProblem
    exploration: ExplorationResult
    warm_started: bool

    @property
    def key(self) -> Tuple[Tuple[str, str], ...]:
        """Canonical hashable key of the selection."""
        return VariantSpace.selection_key(self.selection)

    @property
    def cost(self) -> float:
        return self.exploration.cost


@dataclass
class SpaceExploration:
    """Batch outcome over every consistent selection of a space."""

    family: ProblemFamily
    results: List[SelectionResult]

    @property
    def total_nodes(self) -> int:
        """Search nodes spent across the whole space."""
        return sum(r.exploration.nodes_explored for r in self.results)

    @property
    def total_evaluations(self) -> int:
        """Cost-model evaluations spent across the whole space."""
        return sum(r.exploration.evaluations for r in self.results)

    def feasible_results(self) -> List[SelectionResult]:
        """Selections with a feasible implementation."""
        return [r for r in self.results if r.exploration.feasible]

    def best(self) -> SelectionResult:
        """Cheapest selection (raises if nothing is feasible)."""
        feasible = self.feasible_results()
        if not feasible:
            raise SynthesisError(
                f"no selection of family {self.family.name!r} is feasible"
            )
        return min(feasible, key=lambda r: r.cost)

    def worst(self) -> SelectionResult:
        """Most expensive feasible selection."""
        feasible = self.feasible_results()
        if not feasible:
            raise SynthesisError(
                f"no selection of family {self.family.name!r} is feasible"
            )
        return max(feasible, key=lambda r: r.cost)

    def costs(self) -> Dict[Tuple[Tuple[str, str], ...], float]:
        """Selection key → total cost (inf when infeasible)."""
        return {r.key: r.cost for r in self.results}

    def summary_rows(self) -> List[Dict[str, object]]:
        """One renderable row per selection (CLI / reports)."""
        rows: List[Dict[str, object]] = []
        for result in self.results:
            selection = ", ".join(
                f"{iface}={cluster}"
                for iface, cluster in sorted(result.selection.items())
            )
            exploration = result.exploration
            rows.append(
                {
                    "selection": selection,
                    "cost": exploration.cost,
                    "nodes": exploration.nodes_explored,
                    "evaluations": exploration.evaluations,
                    "optimal": "yes" if exploration.optimal else "no",
                    "warm": "yes" if result.warm_started else "no",
                }
            )
        return rows

    def __len__(self) -> int:
        return len(self.results)


def explore_space(
    problem_family: ProblemFamily,
    space: VariantSpace,
    explorer: Optional[Explorer] = None,
    warm_start: bool = True,
    jobs: Optional[int] = None,
    lineage_size: Optional[int] = None,
    share_incumbent: bool = False,
    max_retries: int = 0,
) -> SpaceExploration:
    """Explore every consistent selection of a variant space.

    Streams the space's applications (selections are enumerated so
    that neighbors differ in few interfaces), builds each synthesis
    problem from the shared ``problem_family`` setup, and — with
    ``warm_start=True`` — seeds each exploration with the previous
    selection's best mapping: shared units (the common part plus every
    unchanged cluster) keep their targets, so the explorer starts from
    a near-feasible incumbent instead of from scratch.

    With ``jobs``/``lineage_size`` set, the selections are sharded
    into contiguous warm-start lineages and dispatched over a process
    fleet via the selection-index task protocol (see
    :class:`~repro.synth.parallel.ParallelSpaceExplorer`): workers
    receive the family + space once and re-enumerate their
    ``(start, count)`` shard locally instead of unpickling
    per-selection unit/origin tuples.  Results are merged in
    enumeration order and are byte-identical for every jobs count; the
    default (both ``None``) keeps the single unsharded warm-start
    chain.

    ``share_incumbent=True`` additionally publishes the fleet-wide
    best cost across lineages (and worker processes), letting every
    branch-and-bound search prune against the best selection found so
    far anywhere in the space.  The best selection and its cost are
    unchanged; per-selection node counts become timing-dependent under
    ``jobs > 1``, so the flag defaults to off.

    The default explorer is a depth-first
    :class:`~repro.synth.explorer.BranchBoundExplorer`; for another
    frontier pass ``BranchBoundExplorer(frontier=...)`` as
    ``explorer``.

    ``max_retries`` re-dispatches a lineage whose worker process
    crashed (up to that many times per lineage, with capped
    exponential backoff) instead of aborting the whole run — results
    stay byte-identical because lineages are pure functions of the
    space; see :class:`~repro.synth.parallel.ParallelSpaceExplorer`.
    """
    runner = _batch_runner(
        explorer,
        space.count(),
        jobs,
        lineage_size,
        warm_start=warm_start,
        share_incumbent=share_incumbent,
        max_retries=max_retries,
    )
    return runner.explore(problem_family, space)


def variant_aware_flow(
    vgraph: VariantGraph,
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    explorer: Optional[Explorer] = None,
    use_exclusion: bool = True,
) -> FlowOutcome:
    """Joint synthesis over the whole variant representation.

    With ``use_exclusion=False`` the flow degenerates to treating all
    variants as concurrent (the X1 ablation) — structurally the
    assumption serialization-based approaches are stuck with.
    """
    units, origins = variant_units(vgraph)
    problem = SynthesisProblem(
        name=f"{vgraph.name}.variant_aware",
        units=units,
        library=library,
        architecture=architecture,
        origins=origins,
        use_exclusion=use_exclusion,
    )
    exploration = _default_explorer(explorer).explore(problem)
    design_time = design_time_of_units(library, units)
    return _outcome_from_exploration(
        flow="with_variants" if use_exclusion else "with_variants_no_exclusion",
        exploration=exploration,
        design_time=design_time,
        notes="joint optimization over the variant representation",
    )
