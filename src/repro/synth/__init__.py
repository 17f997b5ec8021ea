"""Synthesis substrate: libraries, cost model, DSE and the paper's flows.

The decision space is hardware/software co-synthesis over the units of
a (variant) model graph; the variant-aware flow exploits run-time
mutual exclusion of clusters when costing shared processors — the
mechanism behind Table 1's "With variants" row.
"""

from .architecture import ArchitectureTemplate
from .baselines import (
    BoundApplication,
    IncrementalResult,
    incremental_flow,
    incremental_order_spread,
    serialization_flow,
)
from .cost import (
    Evaluation,
    bucket_by_processor,
    evaluate,
    lower_bound,
    memory_of_units,
    processor_memory,
    processor_utilization,
    utilization_of_units,
)
from .design_time import (
    design_time_of_units,
    independent_design_time,
    sharing_saving,
    variant_aware_design_time,
)
from .explorer import (
    BranchBoundExplorer,
    ExhaustiveExplorer,
    ExplorationResult,
    Explorer,
    SearchExplorer,
)
from .library import (
    ComponentEntry,
    ComponentLibrary,
    HardwareOption,
    ImplKind,
    SoftwareOption,
)
from .mapping import (
    Mapping,
    SynthesisProblem,
    Target,
    VariantOrigin,
    origin_from_name,
    origins_of_graph,
    problem_for_graph,
    units_of_graph,
)
from .methods import (
    ApplicationResult,
    ProblemFamily,
    SelectionResult,
    SpaceExploration,
    explore_space,
    independent_flow,
    superposition_flow,
    synthesize_application,
    selection_units,
    variant_aware_flow,
    variant_units,
)
from .ordering import (
    ORDERINGS,
    density_order,
    hardware_cost_order,
    unit_order,
)
from .parallel import (
    DEFAULT_LINEAGE_SIZE,
    Lineage,
    LocalIncumbent,
    ParallelSpaceExplorer,
    SelectionTask,
    SharedIncumbent,
    attach_incumbent,
    parallel_map,
    shard_lineages,
    tasks_from_space,
)
from .results import FlowOutcome, collapse_units, to_table_row
from .state import IncrementalEvaluator, ReferenceSearchState, SearchState
from .schedule import (
    Schedule,
    ScheduledTask,
    durations_from_graph,
    list_schedule,
)

__all__ = [
    "ApplicationResult",
    "ArchitectureTemplate",
    "BoundApplication",
    "BranchBoundExplorer",
    "ComponentEntry",
    "ComponentLibrary",
    "DEFAULT_LINEAGE_SIZE",
    "Evaluation",
    "ExhaustiveExplorer",
    "ExplorationResult",
    "Explorer",
    "FlowOutcome",
    "HardwareOption",
    "ImplKind",
    "IncrementalEvaluator",
    "IncrementalResult",
    "Lineage",
    "LocalIncumbent",
    "Mapping",
    "ORDERINGS",
    "ParallelSpaceExplorer",
    "ProblemFamily",
    "ReferenceSearchState",
    "Schedule",
    "ScheduledTask",
    "SearchExplorer",
    "SearchState",
    "SelectionResult",
    "SelectionTask",
    "SharedIncumbent",
    "SoftwareOption",
    "SpaceExploration",
    "SynthesisProblem",
    "Target",
    "VariantOrigin",
    "attach_incumbent",
    "bucket_by_processor",
    "collapse_units",
    "density_order",
    "design_time_of_units",
    "durations_from_graph",
    "evaluate",
    "explore_space",
    "hardware_cost_order",
    "incremental_flow",
    "incremental_order_spread",
    "independent_design_time",
    "independent_flow",
    "list_schedule",
    "lower_bound",
    "memory_of_units",
    "origin_from_name",
    "origins_of_graph",
    "parallel_map",
    "problem_for_graph",
    "processor_memory",
    "processor_utilization",
    "selection_units",
    "serialization_flow",
    "shard_lineages",
    "sharing_saving",
    "superposition_flow",
    "synthesize_application",
    "tasks_from_space",
    "to_table_row",
    "unit_order",
    "units_of_graph",
    "utilization_of_units",
    "variant_aware_design_time",
    "variant_aware_flow",
    "variant_units",
]
