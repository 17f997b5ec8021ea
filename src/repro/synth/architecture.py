"""Architecture templates.

The paper's cost discussion assumes the architecture style it cites for
the Philips TriMedia (§1): one core processor executing the software
partition plus dedicated coprocessor/ASIC blocks for the hardware
partition.  :class:`ArchitectureTemplate` generalizes this to ``n``
identical processors; the Table 1 benchmark uses ``max_processors=1``
(documented in DESIGN.md as a calibrated substitution), and the
scaling bench explores larger templates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SynthesisError


@dataclass(frozen=True)
class ArchitectureTemplate:
    """Resource envelope available to synthesis.

    Parameters
    ----------
    name:
        Template name, for reports.
    max_processors:
        Upper bound on allocatable core processors.
    processor_cost:
        Cost of allocating one processor (only allocated processors are
        paid for).
    processor_capacity:
        Utilization capacity of one processor (1.0 = fully loaded).
    memory_capacity:
        Code/data memory per processor; 0 means unconstrained.  The
        production-variant story of the paper ("downloading a certain
        software variant into an EPROM") makes memory the second shared
        resource: mutually exclusive *run-time* variants still coexist
        in memory, whereas production variants are downloaded one at a
        time — see :func:`repro.synth.cost.processor_memory`.
    """

    name: str = "core-plus-asics"
    max_processors: int = 1
    processor_cost: float = 0.0
    processor_capacity: float = 1.0
    memory_capacity: float = 0.0

    def __post_init__(self) -> None:
        for field in (
            "max_processors",
            "processor_cost",
            "processor_capacity",
            "memory_capacity",
        ):
            if not math.isfinite(getattr(self, field)):
                raise SynthesisError(f"{field} must be finite")
        if self.max_processors < 0:
            raise SynthesisError("max_processors must be >= 0")
        if self.processor_cost < 0:
            raise SynthesisError("processor_cost must be >= 0")
        if self.processor_capacity <= 0:
            raise SynthesisError("processor_capacity must be positive")
        if self.memory_capacity < 0:
            raise SynthesisError("memory_capacity must be >= 0")
