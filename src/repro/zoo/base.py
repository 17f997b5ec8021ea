"""Scenario plumbing shared by every zoo generator family.

A :class:`ZooScenario` bundles what the rest of the stack needs to
treat a generated workload exactly like the hand-made paper examples:
a :class:`~repro.synth.methods.ProblemFamily` (library + architecture
+ exclusion semantics) and a
:class:`~repro.variants.variant_space.VariantSpace` over a generated
:class:`~repro.variants.vgraph.VariantGraph`.  Two problem views hang
off it:

* :meth:`ZooScenario.selection_problems` — one
  :class:`~repro.synth.mapping.SynthesisProblem` per consistent
  selection (the ``explore_space`` shape; exclusion is inert here
  because an application carries one cluster per interface), with
  units derived from the variant structure rather than a bound graph;
* :meth:`ZooScenario.joint_problem` — the variant-aware joint problem
  over the whole graph (the paper's flow), where the exclusion and
  memory structure actually bites.

Every generator draws its numbers from a :class:`random.Random` seeded
at the call site and quantizes them onto the ``1/64`` binary grid via
:func:`grid64` — on that grid the integer cost kernel is bit-exact
against the reference evaluator (see PR 3), so the differential fuzz
harness can demand *exact* result equality instead of tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from ..errors import SynthesisError
from ..spi.builder import GraphBuilder
from ..spi.virtuality import sink, source
from ..synth.mapping import SynthesisProblem
from ..synth.methods import ProblemFamily, selection_units, variant_units
from ..variants.cluster import Cluster
from ..variants.selection import ClusterSelectionFunction
from ..variants.variant_space import VariantSpace

#: Scenario sizes, smallest first.  ``small`` keeps every selection
#: (and the joint problem) enumerable by the exhaustive oracle;
#: ``medium`` is bound-prunable but not oracle-tractable (the fuzz
#: harness switches to cost-only cross-agreement there); ``bench`` is
#: shaped to demonstrate ordering/bound node-count wins.
SIZES = ("small", "medium", "bench")


def check_size(size: str) -> str:
    """Validate a scenario size name."""
    if size not in SIZES:
        raise SynthesisError(
            f"unknown zoo size {size!r}; expected one of {SIZES}"
        )
    return size


def grid64(rng: random.Random, lo: int, hi: int) -> float:
    """A value on the exact binary grid: ``randint(lo, hi) / 64``.

    Everything the zoo feeds the cost model sits on this grid (or is
    an integer), so the fixed-point kernel reproduces the reference
    evaluator bit for bit and differential checks can use ``==``.
    """
    return rng.randint(lo, hi) / 64


@dataclass
class ZooScenario:
    """One generated workload: a problem family over a variant space."""

    family: str
    seed: int
    size: str
    problem_family: ProblemFamily
    space: VariantSpace
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Canonical scenario id: ``<family>-s<seed>-<size>``."""
        return f"{self.family}-s{self.seed}-{self.size}"

    # ------------------------------------------------------------------
    def selection_problems(
        self,
    ) -> Iterator[Tuple[Dict[str, str], SynthesisProblem]]:
        """Yield ``(selection, problem)`` per consistent selection."""
        derive = selection_units(self.space.vgraph)
        for index, selection in enumerate(self.space.selections()):
            yield selection, self._selection_problem(derive, index, selection)

    def _selection_problem(
        self, derive, index: int, selection: Dict[str, str]
    ) -> SynthesisProblem:
        """The ``sel<index>`` problem, units derived without binding."""
        units, origins = derive(selection)
        return self.problem_family.problem_for_units(
            f"{self.name}.app{index + 1}", units, origins=origins
        )

    def joint_problem(self) -> SynthesisProblem:
        """The variant-aware joint problem over the whole graph."""
        units, origins = variant_units(self.space.vgraph)
        return self.problem_family.problem_for_units(
            f"{self.name}.joint", units, origins=tuple(sorted(origins.items()))
        )

    def problems(
        self,
    ) -> Iterator[Tuple[str, SynthesisProblem]]:
        """Every problem view of the scenario, joint first.

        The label is what corpus cases record: ``"joint"`` or
        ``"sel<N>"`` with ``N`` the selection's enumeration index.
        """
        yield "joint", self.joint_problem()
        for index, (_selection, problem) in enumerate(
            self.selection_problems()
        ):
            yield f"sel{index}", problem

    def problem_by_label(self, label: str) -> SynthesisProblem:
        """Resolve one :meth:`problems` label (corpus replay path)."""
        if label == "joint":
            return self.joint_problem()
        if label.startswith("sel"):
            index = int(label[3:])
            return self._selection_problem(
                selection_units(self.space.vgraph),
                index,
                self.space.selection_at(index),
            )
        raise SynthesisError(f"unknown zoo problem label {label!r}")

    def stats(self) -> Dict[str, object]:
        """Size card of the scenario (logs, bench payloads)."""
        joint = self.joint_problem()
        return {
            "scenario": self.name,
            "selections": self.space.count(),
            "joint_units": len(joint.units),
            "interfaces": len(self.space.vgraph.interfaces),
            "params": dict(self.params),
        }


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------
def linear_cluster(name: str, size: int) -> Cluster:
    """A linear pipeline cluster with ``size`` unit-rate processes.

    Latencies are structural placeholders (the zoo exercises the
    synthesis layer, not the simulator), so they stay constant and the
    scenario's randomness lives entirely in the component library.
    """
    if size < 1:
        raise SynthesisError("cluster size must be >= 1")
    builder = GraphBuilder(name)
    builder.queue("i")
    builder.queue("o")
    for stage in range(size - 1):
        builder.queue(f"x{stage}")
    for stage in range(size):
        inp = "i" if stage == 0 else f"x{stage - 1}"
        out = "o" if stage == size - 1 else f"x{stage}"
        builder.simple(
            f"s{stage}", latency=1.0, consumes={inp: 1}, produces={out: 1}
        )
    return Cluster(
        name=name,
        inputs=("i",),
        outputs=("o",),
        graph=builder.build(validate=False),
    )


def common_chain(
    name: str,
    n_processes: int,
    n_stages: int = 1,
) -> GraphBuilder:
    """A source→K…→S0 chain with stage channels ``S0 … S<n_stages>``.

    Returns the builder (not the built graph) so callers can embed
    interfaces on the stage channels: interface ``i`` reads ``S<i>``
    and writes ``S<i+1>`` (the reader/writer slots are left free for
    exactly that), and a sink drains the last stage channel.  The
    ``n_processes`` common processes form a chain between the source
    and ``S0`` — the variant-independent part of the system.
    """
    if n_stages < 1:
        raise SynthesisError("common chain needs >= 1 stage")
    builder = GraphBuilder(name)
    for index in range(n_stages + 1):
        builder.queue(f"S{index}")
    builder.process(sink("Snk", f"S{n_stages}"))
    if n_processes:
        builder.queue("Cin")
        builder.process(source("Src", "Cin", max_firings=4))
        for index in range(n_processes):
            inp = "Cin" if index == 0 else f"Ck{index - 1}"
            out = (
                "S0" if index == n_processes - 1 else f"Ck{index}"
            )
            if out != "S0":
                builder.queue(out)
            builder.simple(
                f"K{index}",
                latency=1.0,
                consumes={inp: 1},
                produces={out: 1},
            )
    else:
        builder.process(source("Src", "S0", max_firings=4))
    return builder


def runtime_selection(
    clusters, channel: str = "S0"
) -> ClusterSelectionFunction:
    """A tag-driven selection function over ``clusters``.

    Run-time variant sets require a cluster selection function (Def. 3);
    for synthesis workloads the rule content is immaterial — only the
    exclusion structure matters — so one ``HasTag`` rule per cluster,
    observing the interface's bound input ``channel``, is enough.
    """
    return ClusterSelectionFunction.by_tag(
        channel, {f"USE_{name}": name for name in sorted(clusters)}
    )


def component_for_cluster(
    library,
    interface: str,
    cluster: Cluster,
    rng: random.Random,
    util_lo: int,
    util_hi: int,
    hw_lo: int,
    hw_hi: int,
    sw_memory_hi: int = 0,
    hw_only_chance: float = 0.0,
    sw_only_chance: float = 0.0,
) -> None:
    """Register grid-valued library entries for a cluster's processes.

    Implementation options are drawn per process: both targets by
    default, with optional seeded chances of hardware-only or
    software-only units (never both chances firing for one unit — a
    unit always keeps at least one option).
    """
    for process_name in cluster.process_names():
        roll = rng.random()
        hw_only = roll < hw_only_chance
        sw_only = not hw_only and roll < hw_only_chance + sw_only_chance
        library.component(
            f"{interface}.{cluster.name}.{process_name}",
            sw_utilization=(
                None if hw_only else grid64(rng, util_lo, util_hi)
            ),
            hw_cost=None if sw_only else rng.randint(hw_lo, hw_hi),
            sw_memory=(
                grid64(rng, 0, sw_memory_hi) if sw_memory_hi else 0.0
            ),
        )
