"""Synthesis problems and mappings (allocation + binding).

A :class:`SynthesisProblem` is the decision space: a set of synthesis
units (non-virtual processes), their implementation options, the
architecture envelope, and — the paper's key structural ingredient —
the **variant origins**: which interface/cluster each unit was
instantiated from.  Units from different clusters of the same interface
are mutually exclusive at run time, which the cost model exploits
("since the clusters γ1 and γ2 are mutually exclusive at run-time, the
available processor performance is not exceeded", §5).

A :class:`Mapping` assigns each unit a target: hardware, or a software
slot on one of the processors.

:func:`problem_payload` is a problem's canonical content as a plain
JSON tree; checkpoint fingerprints and the serve cache's job keys
both hash it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Mapping as TMapping, Optional, Tuple

from ..errors import SynthesisError
from ..spi.graph import ModelGraph
from .architecture import ArchitectureTemplate
from .library import ComponentEntry, ComponentLibrary, ImplKind


@dataclass(frozen=True)
class Target:
    """Where one unit is implemented: HW, or SW on processor ``processor``."""

    kind: ImplKind
    processor: int = 0

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise SynthesisError("processor index must be >= 0")

    @staticmethod
    def hw() -> "Target":
        """Hardware target."""
        return Target(ImplKind.HARDWARE)

    @staticmethod
    def sw(processor: int = 0) -> "Target":
        """Software target on the given processor."""
        return Target(ImplKind.SOFTWARE, processor)

    @property
    def is_software(self) -> bool:
        return self.kind is ImplKind.SOFTWARE

    @property
    def is_hardware(self) -> bool:
        return self.kind is ImplKind.HARDWARE

    def __repr__(self) -> str:
        return encode_target(self)


def encode_target(target: Target) -> str:
    """A target as text: ``"hw"``, or ``"sw:<processor>"``.

    The one spelling of targets in problem payloads (and with them
    checkpoint fingerprints and serve job keys), checkpoint blobs and
    serve results.
    """
    if target.is_hardware:
        return "hw"
    return f"sw:{target.processor}"


@dataclass(frozen=True)
class VariantOrigin:
    """Which interface/cluster a synthesis unit came from."""

    interface: str
    cluster: str


def origin_from_name(name: str) -> Optional[VariantOrigin]:
    """Parse ``<interface>.<cluster>.<process>`` namespacing.

    Static binding (:meth:`VariantGraph.bind`) produces exactly this
    pattern; common-part processes have undotted names and map to None.
    Nested interfaces yield longer paths; the outermost pair is used,
    which is correct because outer exclusivity implies inner.
    """
    parts = name.split(".")
    if len(parts) >= 3:
        return VariantOrigin(interface=parts[0], cluster=parts[1])
    return None


@dataclass(frozen=True)
class SynthesisProblem:
    """One co-synthesis decision space."""

    name: str
    units: Tuple[str, ...]
    library: ComponentLibrary
    architecture: ArchitectureTemplate
    origins: TMapping[str, VariantOrigin] = field(default_factory=dict)
    fixed: TMapping[str, Target] = field(default_factory=dict)
    use_exclusion: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        if not self.units:
            raise SynthesisError(
                f"problem {self.name!r} has no synthesis units"
            )
        if len(set(self.units)) != len(self.units):
            raise SynthesisError(
                f"problem {self.name!r} lists duplicate units"
            )
        for unit in self.units:
            self.library.entry(unit)  # raises if missing
        object.__setattr__(
            self, "origins", MappingProxyType(dict(self.origins))
        )
        object.__setattr__(self, "fixed", MappingProxyType(dict(self.fixed)))
        unknown = set(self.origins) - set(self.units)
        if unknown:
            raise SynthesisError(
                f"problem {self.name!r}: origins for unknown units "
                f"{sorted(unknown)}"
            )
        unknown_fixed = set(self.fixed) - set(self.units)
        if unknown_fixed:
            raise SynthesisError(
                f"problem {self.name!r}: fixed targets for unknown units "
                f"{sorted(unknown_fixed)}"
            )

    def __reduce__(self):
        # The origins/fixed mapping proxies are not picklable; rebuild
        # from plain dicts so problems can cross process boundaries
        # (the parallel explorers ship problems to pool workers).
        return (
            SynthesisProblem,
            (
                self.name,
                self.units,
                self.library,
                self.architecture,
                dict(self.origins),
                dict(self.fixed),
                self.use_exclusion,
            ),
        )

    @property
    def free_units(self) -> Tuple[str, ...]:
        """Units the explorer may still decide."""
        return tuple(u for u in self.units if u not in self.fixed)

    def entry(self, unit: str) -> ComponentEntry:
        """Library entry for one unit."""
        return self.library.entry(unit)

    def variant_group(self, unit: str) -> Optional[Tuple[str, str]]:
        """The ``(interface, cluster)`` a unit was instantiated from.

        None for common-part units.  This is the grouping key of the
        memory rule (production variants combine as a per-interface
        maximum) regardless of ``use_exclusion``.
        """
        origin = self.origins.get(unit)
        if origin is None:
            return None
        return (origin.interface, origin.cluster)

    def exclusion_group(self, unit: str) -> Optional[Tuple[str, str]]:
        """The unit's run-time concurrency group for utilization.

        None means always-concurrent load: common-part units, and every
        unit when ``use_exclusion`` is off (the superposition /
        serialization assumption).
        """
        if not self.use_exclusion:
            return None
        return self.variant_group(unit)

    def targets_for(self, unit: str) -> Tuple[Target, ...]:
        """All admissible targets of one unit under this architecture."""
        entry = self.entry(unit)
        result = []
        if entry.software is not None:
            for cpu in range(self.architecture.max_processors):
                result.append(Target.sw(cpu))
        if entry.hardware is not None:
            result.append(Target.hw())
        if not result:
            raise SynthesisError(
                f"unit {unit!r} has no admissible target under "
                f"{self.architecture.name!r}"
            )
        return tuple(result)

    def total_effort(self) -> float:
        """Design effort of considering every unit once."""
        return self.library.total_effort(self.units)


@dataclass(frozen=True)
class Mapping:
    """A complete assignment of units to targets."""

    assignment: TMapping[str, Target]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", MappingProxyType(dict(self.assignment))
        )

    def __reduce__(self):
        # MappingProxyType is not picklable; rebuild from a plain dict.
        return (Mapping, (dict(self.assignment),))

    def target_of(self, unit: str) -> Target:
        """The target of one unit."""
        try:
            return self.assignment[unit]
        except KeyError:
            raise SynthesisError(f"mapping does not cover unit {unit!r}") from None

    def software_units(self) -> Tuple[str, ...]:
        """Units implemented in software (sorted)."""
        return tuple(
            sorted(
                unit
                for unit, target in self.assignment.items()
                if target.is_software
            )
        )

    def hardware_units(self) -> Tuple[str, ...]:
        """Units implemented in hardware (sorted)."""
        return tuple(
            sorted(
                unit
                for unit, target in self.assignment.items()
                if target.is_hardware
            )
        )

    def processors_used(self) -> Tuple[int, ...]:
        """Distinct processor indices hosting software (sorted)."""
        return tuple(
            sorted(
                {
                    target.processor
                    for target in self.assignment.values()
                    if target.is_software
                }
            )
        )

    def restricted_to(self, units: Iterable[str]) -> "Mapping":
        """The sub-mapping covering only ``units`` (missing ones skipped).

        The warm-start handoff between neighboring selections of a
        variant space: the common part and unchanged clusters keep
        their targets, stale cluster units drop out.
        """
        assignment = self.assignment
        return Mapping(
            {
                unit: assignment[unit]
                for unit in units
                if unit in assignment
            }
        )

    def merged_with(self, other: "Mapping") -> "Mapping":
        """Union of two mappings; conflicting assignments must agree."""
        merged: Dict[str, Target] = dict(self.assignment)
        for unit, target in other.assignment.items():
            if unit in merged and merged[unit] != target:
                raise SynthesisError(
                    f"mapping conflict for unit {unit!r}: "
                    f"{merged[unit]!r} vs {target!r}"
                )
            merged[unit] = target
        return Mapping(merged)

    def __len__(self) -> int:
        return len(self.assignment)


def units_of_graph(graph: ModelGraph) -> Tuple[str, ...]:
    """The synthesis units of a bound graph: non-virtual processes."""
    return tuple(
        sorted(
            name
            for name, process in graph.processes.items()
            if not process.virtual
        )
    )


def origins_of_graph(graph: ModelGraph) -> Dict[str, VariantOrigin]:
    """Variant origins parsed from the graph's namespaced unit names."""
    origins: Dict[str, VariantOrigin] = {}
    for unit in units_of_graph(graph):
        origin = origin_from_name(unit)
        if origin is not None:
            origins[unit] = origin
    return origins


def problem_for_graph(
    name: str,
    graph: ModelGraph,
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    use_exclusion: bool = True,
    fixed: TMapping[str, Target] = (),
) -> SynthesisProblem:
    """Build the synthesis problem of one bound model graph."""
    return SynthesisProblem(
        name=name,
        units=units_of_graph(graph),
        library=library,
        architecture=architecture,
        origins=origins_of_graph(graph),
        fixed=dict(fixed) if not isinstance(fixed, tuple) else {},
        use_exclusion=use_exclusion,
    )


# ----------------------------------------------------------------------
# Canonical content
# ----------------------------------------------------------------------
def entry_payload(library: ComponentLibrary, unit: str) -> Dict[str, object]:
    """One library entry reduced to its result-relevant numbers."""
    entry = library.entry(unit)
    payload: Dict[str, object] = {"effort": entry.effort}
    if entry.software is not None:
        payload["sw"] = {
            "utilization": entry.software.utilization,
            "memory": entry.software.memory,
        }
    if entry.hardware is not None:
        payload["hw"] = {"cost": entry.hardware.cost}
    return payload


def architecture_payload(
    architecture: ArchitectureTemplate,
) -> Dict[str, object]:
    """The architecture envelope as a plain dict (name excluded).

    The template ``name`` is cosmetic — two architectures differing
    only in name must share cache entries.
    """
    return {
        "max_processors": architecture.max_processors,
        "processor_cost": architecture.processor_cost,
        "processor_capacity": architecture.processor_capacity,
        "memory_capacity": architecture.memory_capacity,
    }


def library_payload(
    library: ComponentLibrary, units: Optional[Iterable[str]] = None
) -> Dict[str, Dict[str, object]]:
    """Library entries keyed by unit name.

    ``units=None`` serializes the whole library — the family-key case,
    where any unit could appear in some selection of the family.
    """
    names = sorted(units) if units is not None else list(library.names())
    return {name: entry_payload(library, name) for name in names}


def problem_payload(problem: SynthesisProblem) -> Dict[str, object]:
    """Deterministic serialization of one :class:`SynthesisProblem`.

    The problem ``name`` is excluded (cosmetic, like the architecture
    name); origins and fixed targets are included because they change
    the feasible region and the cost model's exclusion groups.
    """
    return {
        "units": sorted(problem.units),
        "library": library_payload(problem.library, problem.units),
        "architecture": architecture_payload(problem.architecture),
        "origins": {
            unit: [origin.interface, origin.cluster]
            for unit, origin in sorted(problem.origins.items())
        },
        "fixed": {
            unit: encode_target(target)
            for unit, target in sorted(problem.fixed.items())
        },
        "use_exclusion": bool(problem.use_exclusion),
    }
