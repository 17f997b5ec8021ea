"""Variant graphs: SPI model graphs with embedded interfaces.

A system with function variants is represented in three parts (paper
§3): a **common part** containing all variant-independent elements, and
per variant set an **interface** whose associated **clusters** are the
mutually exclusive variants.  :class:`VariantGraph` holds the common
part as an ordinary :class:`~repro.spi.graph.ModelGraph` plus the
interfaces with their port→channel bindings.

Two transformations take a variant graph back into plain SPI:

* :meth:`VariantGraph.bind` — **static binding**: pick one cluster per
  interface and splice its elements in (production and run-time
  variants after the selection is known).  Namespacing is
  ``<interface>.<cluster>.<element>`` so synthesis results remain
  traceable to the variant structure.
* :meth:`VariantGraph.abstract` — **interface abstraction**: replace
  each interface by a single :class:`ConfiguredProcess` whose
  configurations were extracted from the clusters (dynamic variants;
  paper §4).  The heavy lifting lives in
  :mod:`repro.variants.extraction`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import VariantError
from ..spi.channels import Channel
from ..spi.graph import ModelGraph
from ..spi.process import Process
from .cluster import Cluster
from .interface import Interface
from .ports import PortDirection


class VariantGraph:
    """The complete design representation with all function variants."""

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self.base = ModelGraph(f"{name}.common")
        self._interfaces: Dict[str, Interface] = {}
        self._bindings: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def interfaces(self) -> Dict[str, Interface]:
        """Read-only view of the embedded interfaces by name."""
        return dict(self._interfaces)

    def add_interface(
        self, interface: Interface, bindings: Mapping[str, str]
    ) -> Interface:
        """Embed an interface, binding every port to a base channel.

        ``bindings`` maps each port name of the interface signature to a
        channel of the common part.  Input ports claim the channel's
        reader slot, output ports its writer slot; conflicts with
        processes or other interfaces are rejected — channels stay
        point-to-point exactly as for processes.
        """
        if interface.name in self._interfaces:
            raise VariantError(
                f"interface {interface.name!r} already embedded"
            )
        if self.base.has_process(interface.name) or self.base.has_channel(
            interface.name
        ):
            raise VariantError(
                f"interface name {interface.name!r} collides with a base "
                f"graph element"
            )
        expected = set(interface.ports)
        given = set(bindings)
        if expected != given:
            raise VariantError(
                f"interface {interface.name!r}: bindings must cover exactly "
                f"the ports {sorted(expected)}, got {sorted(given)}"
            )
        for port, channel in bindings.items():
            if not self.base.has_channel(channel):
                raise VariantError(
                    f"interface {interface.name!r}: port {port!r} bound to "
                    f"unknown channel {channel!r}"
                )
            direction = interface.signature.direction_of(port)
            if direction is PortDirection.INPUT:
                occupant = self.base.reader_of(channel) or self._port_user(
                    channel, PortDirection.INPUT
                )
                if occupant is not None:
                    raise VariantError(
                        f"channel {channel!r} already has reader {occupant!r}"
                    )
            else:
                occupant = self.base.writer_of(channel) or self._port_user(
                    channel, PortDirection.OUTPUT
                )
                if occupant is not None:
                    raise VariantError(
                        f"channel {channel!r} already has writer {occupant!r}"
                    )
        # Selection channels must exist in the common part: the
        # selection mechanism is observable at the interface border.
        if interface.selection is not None:
            for channel in interface.selection.channels():
                if not self.base.has_channel(channel):
                    raise VariantError(
                        f"interface {interface.name!r}: selection observes "
                        f"unknown channel {channel!r}"
                    )
        self._interfaces[interface.name] = interface
        self._bindings[interface.name] = dict(bindings)
        return interface

    def _port_user(
        self, channel: str, direction: PortDirection
    ) -> Optional[str]:
        """Which embedded interface already uses ``channel`` in ``direction``."""
        for iface_name, bindings in self._bindings.items():
            interface = self._interfaces[iface_name]
            for port, bound in bindings.items():
                if bound != channel:
                    continue
                if interface.signature.direction_of(port) is direction:
                    return iface_name
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def interface(self, name: str) -> Interface:
        """Look up an embedded interface by name."""
        try:
            return self._interfaces[name]
        except KeyError:
            raise VariantError(f"no interface named {name!r}") from None

    def port_bindings(self, interface: str) -> Dict[str, str]:
        """Port→channel bindings of an embedded interface."""
        self.interface(interface)
        return dict(self._bindings[interface])

    def is_input_port(self, interface: str, port: str) -> bool:
        """True if ``port`` of ``interface`` is an input port."""
        signature = self.interface(interface).signature
        return signature.direction_of(port) is PortDirection.INPUT

    def variant_counts(self) -> Dict[str, int]:
        """Number of variants per interface."""
        return {
            name: interface.variant_count
            for name, interface in self._interfaces.items()
        }

    def total_combinations(self) -> int:
        """Size of the full (independent) variant cross product."""
        total = 1
        for interface in self._interfaces.values():
            total *= interface.variant_count
        return total

    # ------------------------------------------------------------------
    # Static binding (production / run-time variants)
    # ------------------------------------------------------------------
    def bind(
        self,
        selection: Mapping[str, str],
        name: Optional[str] = None,
        validate: bool = False,
    ) -> ModelGraph:
        """Derive the single-variant SPI graph for ``selection``.

        ``selection`` maps interface name to the chosen cluster name;
        interfaces missing from the mapping fall back to their
        ``initial_cluster``, or to their only cluster.  Nested
        interfaces (inside clusters) are resolved through the same
        mapping, so interface names must be globally unique.
        """
        result = self.base.copy(name or f"{self.name}.bound")
        for iface_name in sorted(self._interfaces):
            interface = self._interfaces[iface_name]
            cluster = self._chosen_cluster(interface, selection)
            _splice_cluster(
                result,
                iface_name,
                cluster,
                self._bindings[iface_name],
                selection,
            )
        if validate:
            result.validate()
        return result

    def _chosen_cluster(
        self, interface: Interface, selection: Mapping[str, str]
    ) -> Cluster:
        chosen = selection.get(interface.name)
        if chosen is None:
            chosen = interface.initial_cluster
        if chosen is None and interface.variant_count == 1:
            chosen = next(iter(interface.clusters))
        if chosen is None:
            raise VariantError(
                f"no cluster selected for interface {interface.name!r} "
                f"(candidates: {list(interface.cluster_names())})"
            )
        return interface.cluster(chosen)

    def spliced_clusters(
        self, selection: Optional[Mapping[str, str]] = None
    ) -> Iterator[Tuple[str, str, Cluster]]:
        """Walk the clusters whose elements a binding splices in.

        Yields ``(path, interface, cluster)`` depth first, interfaces
        and clusters in name order: the cluster's elements are
        namespaced ``<path>.<cluster>.<element>`` and ``interface`` is
        the name of the (possibly nested) interface it belongs to.

        With a ``selection`` the walk follows the one cluster per
        interface that :meth:`bind` splices, raising the same
        :class:`~repro.errors.VariantError` when an interface has no
        selectable cluster.  Without one it visits every cluster of
        every interface: the joint view of the whole representation.
        """
        for iface_name in sorted(self._interfaces):
            interface = self._interfaces[iface_name]
            if selection is None:
                clusters = [
                    interface.cluster(name)
                    for name in interface.cluster_names()
                ]
            else:
                clusters = [self._chosen_cluster(interface, selection)]
            for cluster in clusters:
                yield from _walk_cluster(
                    iface_name, iface_name, cluster, selection
                )

    # ------------------------------------------------------------------
    # Interface abstraction (dynamic variants)
    # ------------------------------------------------------------------
    def abstract(
        self,
        name: Optional[str] = None,
        detail: str = "per_entry",
        validate: bool = False,
    ) -> ModelGraph:
        """Replace every interface by an extracted configured process.

        See :func:`repro.variants.extraction.extract_interface` for the
        parameter extraction itself.
        """
        from .extraction import ExtractionOptions, extract_interface

        options = ExtractionOptions(detail=detail)
        result = self.base.copy(name or f"{self.name}.abstract")
        for iface_name in sorted(self._interfaces):
            interface = self._interfaces[iface_name]
            process = extract_interface(
                interface, self._bindings[iface_name], options=options
            )
            result.add_process(process)
            for channel in process.input_channels():
                result.connect(channel, process.name)
            for channel in process.output_channels():
                result.connect(process.name, channel)
            for channel in process.activation.channels():
                if result.reader_of(channel) != process.name:
                    result.connect(channel, process.name)
        if validate:
            result.validate()
        return result

    # ------------------------------------------------------------------
    # Whole-model validation
    # ------------------------------------------------------------------
    def issues(self) -> List[str]:
        """Collect variant-level modeling problems without raising.

        Checks beyond what :meth:`add_interface` enforces eagerly:
        dynamic interfaces without an initial cluster (the architecture
        must boot configured), run-time/dynamic selection functions
        whose rules do not cover every cluster (an unreachable
        variant), structural issues inside every cluster graph, and
        single-variant "sets" that need no interface at all.
        """
        found: List[str] = []
        for iface_name in sorted(self._interfaces):
            interface = self._interfaces[iface_name]
            if (
                interface.kind.reconfigurable
                and interface.initial_cluster is None
            ):
                found.append(
                    f"interface {iface_name!r} is dynamic but has no "
                    f"initial cluster"
                )
            if interface.selection is not None:
                covered = set(interface.selection.clusters_named())
                unreachable = sorted(set(interface.clusters) - covered)
                if unreachable:
                    found.append(
                        f"interface {iface_name!r}: clusters "
                        f"{unreachable} are selected by no rule"
                    )
            if interface.variant_count == 1:
                found.append(
                    f"interface {iface_name!r} offers a single variant; "
                    f"plain clustering would suffice"
                )
            for cluster_name in interface.cluster_names():
                cluster = interface.cluster(cluster_name)
                for issue in cluster.graph.issues():
                    ports = set(cluster.ports)
                    if any(f"{port!r}" in issue for port in ports):
                        continue  # boundary channels are open by design
                    found.append(
                        f"interface {iface_name!r} cluster "
                        f"{cluster_name!r}: {issue}"
                    )
        return found

    def validate(self) -> "VariantGraph":
        """Raise :class:`~repro.errors.ValidationError` on any issue."""
        from ..errors import ValidationError

        found = self.issues()
        if found:
            raise ValidationError(found)
        return self

    # ------------------------------------------------------------------
    # Accounting (Figure 2 bench)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Element counts: common part, per cluster, and totals.

        ``variant_representation_size`` counts every element once (the
        paper's single coherent model); ``enumeration_size`` is the sum
        over all fully bound single-variant graphs — what a tool without
        variant support would have to carry.
        """
        common = self.base.stats()
        per_interface = {
            name: interface.stats()
            for name, interface in sorted(self._interfaces.items())
        }
        variant_size = dict(common)
        for stats in per_interface.values():
            for cluster_stats in stats["clusters"].values():
                for key in ("processes", "channels", "edges"):
                    variant_size[key] += cluster_stats[key]
        enumeration = {"processes": 0, "channels": 0, "edges": 0}
        for selection in self.enumerate_selections():
            bound = self.bind(selection)
            for key in enumeration:
                enumeration[key] += bound.stats()[key]
        return {
            "common": common,
            "interfaces": per_interface,
            "variant_representation_size": variant_size,
            "enumeration_size": enumeration,
        }

    def enumerate_selections(self) -> List[Dict[str, str]]:
        """All variant combinations (independent cross product).

        Related selections are handled by
        :class:`repro.variants.variant_space.VariantSpace`; this is the
        unconstrained product.
        """
        names = sorted(self._interfaces)
        selections: List[Dict[str, str]] = [{}]
        for iface_name in names:
            interface = self._interfaces[iface_name]
            extended: List[Dict[str, str]] = []
            for partial in selections:
                for cluster_name in interface.cluster_names():
                    combo = dict(partial)
                    combo[iface_name] = cluster_name
                    extended.append(combo)
            selections = extended
        return selections

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VariantGraph({self.name!r}, interfaces="
            f"{sorted(self._interfaces)}, base={self.base!r})"
        )


def _splice_cluster(
    target: ModelGraph,
    iface_name: str,
    cluster: Cluster,
    bindings: Mapping[str, str],
    selection: Mapping[str, str],
) -> None:
    """Instantiate ``cluster`` into ``target`` under namespacing.

    Port boundary channels are merged with the externally bound
    channels; everything else is prefixed ``<iface>.<cluster>.``.
    Nested interfaces are resolved recursively through ``selection``.
    """
    prefix = f"{iface_name}.{cluster.name}."
    ports = set(cluster.ports)

    renaming: Dict[str, str] = {}
    for port in cluster.ports:
        renaming[port] = bindings[port]
    for channel_name in cluster.graph.channels:
        if channel_name not in ports:
            renaming[channel_name] = prefix + channel_name

    for channel_name, channel in cluster.graph.channels.items():
        if channel_name in ports:
            continue
        target.add_channel(
            Channel(
                name=renaming[channel_name],
                kind=channel.kind,
                capacity=channel.capacity,
                initial_tokens=channel.initial_tokens,
                virtual=channel.virtual,
            )
        )

    for process_name, process in cluster.graph.processes.items():
        new_name = prefix + process_name
        renamed_modes = {
            mode.name: mode.with_channels_renamed(renaming)
            for mode in process.modes.values()
        }
        renamed_activation = _rename_activation(
            process.activation, renaming
        )
        target.add_process(
            Process(
                name=new_name,
                modes=renamed_modes,
                activation=renamed_activation,
                virtual=process.virtual,
                period=process.period,
                max_firings=process.max_firings,
            )
        )
        for channel in cluster.graph.input_channels(process_name):
            target.connect(renaming[channel], new_name)
        for channel in cluster.graph.output_channels(process_name):
            target.connect(new_name, renaming[channel])

    for nested_name, nested in cluster.interfaces.items():
        nested_bindings = cluster.interface_bindings.get(nested_name)
        if nested_bindings is None:
            raise VariantError(
                f"cluster {cluster.name!r}: embedded interface "
                f"{nested_name!r} has no port bindings"
            )
        nested_iface: Interface = nested  # type: ignore[assignment]
        chosen_name = selection.get(nested_iface.name)
        if chosen_name is None:
            chosen_name = nested_iface.initial_cluster
        if chosen_name is None and nested_iface.variant_count == 1:
            chosen_name = next(iter(nested_iface.clusters))
        if chosen_name is None:
            raise VariantError(
                f"no cluster selected for nested interface "
                f"{nested_iface.name!r}"
            )
        resolved_bindings = {
            port: renaming.get(channel, channel)
            for port, channel in nested_bindings.items()
        }
        _splice_cluster(
            target,
            f"{iface_name}.{cluster.name}.{nested_iface.name}",
            nested_iface.cluster(chosen_name),
            resolved_bindings,
            selection,
        )


def _nested_cluster(
    nested_iface: Interface, selection: Mapping[str, str]
) -> Cluster:
    """The cluster ``selection`` picks for a nested interface.

    The same choice :func:`_splice_cluster` makes, kept apart so that
    :meth:`VariantGraph.bind` stays an independent oracle for the walk.
    """
    chosen_name = selection.get(nested_iface.name)
    if chosen_name is None:
        chosen_name = nested_iface.initial_cluster
    if chosen_name is None and nested_iface.variant_count == 1:
        chosen_name = next(iter(nested_iface.clusters))
    if chosen_name is None:
        raise VariantError(
            f"no cluster selected for nested interface "
            f"{nested_iface.name!r}"
        )
    return nested_iface.cluster(chosen_name)


def _walk_cluster(
    path: str,
    iface_name: str,
    cluster: Cluster,
    selection: Optional[Mapping[str, str]],
) -> Iterator[Tuple[str, str, Cluster]]:
    """:meth:`VariantGraph.spliced_clusters` below one cluster."""
    yield path, iface_name, cluster
    for nested_name, nested in sorted(cluster.interfaces.items()):
        nested_iface: Interface = nested  # type: ignore[assignment]
        if selection is None:
            chosen = [
                nested_iface.cluster(name)
                for name in nested_iface.cluster_names()
            ]
        else:
            if nested_name not in cluster.interface_bindings:
                raise VariantError(
                    f"cluster {cluster.name!r}: embedded interface "
                    f"{nested_name!r} has no port bindings"
                )
            chosen = [_nested_cluster(nested_iface, selection)]
        for nested_cluster in chosen:
            yield from _walk_cluster(
                f"{path}.{cluster.name}.{nested_iface.name}",
                nested_iface.name,
                nested_cluster,
                selection,
            )


def _rename_activation(activation, renaming: Mapping[str, str]):
    """Rewrite channel references inside an activation function."""
    from ..spi.activation import ActivationFunction, ActivationRule

    return ActivationFunction(
        tuple(
            ActivationRule(
                name=rule.name,
                predicate=_rename_predicate(rule.predicate, renaming),
                mode=rule.mode,
            )
            for rule in activation.rules
        )
    )


def _rename_predicate(predicate, renaming: Mapping[str, str]):
    """Structurally rewrite channel names inside a predicate tree."""
    from ..spi.predicates import (
        And,
        HasAnyTag,
        HasTag,
        Not,
        NumAvailable,
        Or,
        TruePredicate,
    )

    if isinstance(predicate, TruePredicate):
        return predicate
    if isinstance(predicate, NumAvailable):
        return NumAvailable(
            renaming.get(predicate.channel, predicate.channel),
            predicate.minimum,
        )
    if isinstance(predicate, HasTag):
        return HasTag(
            renaming.get(predicate.channel, predicate.channel), predicate.tag
        )
    if isinstance(predicate, HasAnyTag):
        return HasAnyTag(
            renaming.get(predicate.channel, predicate.channel),
            predicate.tags,
        )
    if isinstance(predicate, And):
        return And(
            tuple(_rename_predicate(op, renaming) for op in predicate.operands)
        )
    if isinstance(predicate, Or):
        return Or(
            tuple(_rename_predicate(op, renaming) for op in predicate.operands)
        )
    if isinstance(predicate, Not):
        return Not(_rename_predicate(predicate.operand, renaming))
    raise VariantError(
        f"cannot rename channels in predicate type "
        f"{type(predicate).__name__}"
    )
