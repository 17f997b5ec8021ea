"""Implementation libraries for synthesis.

Every synthesis unit (a non-virtual process of a bound model graph) has
implementation options: a software realization — characterized by the
processor share it needs — and/or a hardware realization (an ASIC or
coprocessor block) with its silicon cost.  The per-unit design
``effort`` feeds the design-time model of paper §5: "when synthesizing
n systems individually, a process that occurs in all applications has
to be considered n times".
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..errors import SynthesisError
from ..spi.graph import ModelGraph


_INF = float("inf")


def _out_of_range(what: str, value: float) -> SynthesisError:
    """The error for a model number outside ``[0, inf)``.

    NaN fails every comparison, so the callers test ``0 <= value <
    inf``, one chained comparison, and only build the message here.
    """
    reason = "must be >= 0" if math.isfinite(value) else "must be finite"
    return SynthesisError(f"{what} {reason}")


class ImplKind(enum.Enum):
    """The two implementation targets of the co-synthesis problem."""

    SOFTWARE = "sw"
    HARDWARE = "hw"


@dataclass(frozen=True)
class SoftwareOption:
    """A software realization on a core processor.

    ``utilization`` is the fraction of one processor's capacity the
    process needs to sustain its required rate (WCET / period in
    classical terms).
    """

    utilization: float
    memory: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.utilization < _INF:
            raise _out_of_range("software utilization", self.utilization)
        if not 0 <= self.memory < _INF:
            raise _out_of_range("software memory", self.memory)


@dataclass(frozen=True)
class HardwareOption:
    """A dedicated hardware realization (ASIC / coprocessor block)."""

    cost: float

    def __post_init__(self) -> None:
        if not 0 <= self.cost < _INF:
            raise _out_of_range("hardware cost", self.cost)


@dataclass(frozen=True)
class ComponentEntry:
    """Implementation options and design effort for one synthesis unit."""

    name: str
    software: Optional[SoftwareOption] = None
    hardware: Optional[HardwareOption] = None
    effort: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SynthesisError("component name must be non-empty")
        if self.software is None and self.hardware is None:
            raise SynthesisError(
                f"component {self.name!r} needs at least one implementation "
                f"option"
            )
        if self.effort < 0:
            raise SynthesisError(
                f"component {self.name!r}: effort must be >= 0"
            )

    @property
    def targets(self) -> Tuple[ImplKind, ...]:
        """The admissible implementation targets."""
        result = []
        if self.software is not None:
            result.append(ImplKind.SOFTWARE)
        if self.hardware is not None:
            result.append(ImplKind.HARDWARE)
        return tuple(result)


class ComponentLibrary:
    """A name-indexed set of component entries."""

    def __init__(self, entries: Iterable[ComponentEntry] = ()) -> None:
        self._entries: Dict[str, ComponentEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: ComponentEntry) -> ComponentEntry:
        """Register an entry; names must be unique."""
        if entry.name in self._entries:
            raise SynthesisError(
                f"library already has an entry for {entry.name!r}"
            )
        self._entries[entry.name] = entry
        return entry

    def component(
        self,
        name: str,
        sw_utilization: Optional[float] = None,
        hw_cost: Optional[float] = None,
        effort: float = 1.0,
        sw_memory: float = 0.0,
    ) -> ComponentEntry:
        """Shorthand: declare an entry from plain numbers."""
        return self.add(
            ComponentEntry(
                name=name,
                software=(
                    SoftwareOption(sw_utilization, memory=sw_memory)
                    if sw_utilization is not None
                    else None
                ),
                hardware=(
                    HardwareOption(hw_cost) if hw_cost is not None else None
                ),
                effort=effort,
            )
        )

    def entry(self, name: str) -> ComponentEntry:
        """Look up an entry by exact unit name."""
        try:
            return self._entries[name]
        except KeyError:
            raise SynthesisError(
                f"library has no entry for synthesis unit {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> Tuple[str, ...]:
        """All registered unit names, sorted."""
        return tuple(sorted(self._entries))

    def for_graph(self, graph: ModelGraph) -> Dict[str, ComponentEntry]:
        """Entries for every non-virtual process of ``graph``.

        Raises :class:`SynthesisError` listing all missing units at once
        so libraries can be fixed in one pass.
        """
        units = [
            name
            for name, process in sorted(graph.processes.items())
            if not process.virtual
        ]
        missing = [name for name in units if name not in self._entries]
        if missing:
            raise SynthesisError(
                f"library lacks entries for synthesis units: {missing}"
            )
        return {name: self._entries[name] for name in units}

    def total_effort(self, names: Iterable[str]) -> float:
        """Sum of design efforts over ``names``."""
        return sum(self.entry(name).effort for name in names)
