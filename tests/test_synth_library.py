"""Unit tests for repro.synth.library and architecture."""

import math

import pytest

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.library import (
    ComponentEntry,
    ComponentLibrary,
    HardwareOption,
    ImplKind,
    SoftwareOption,
)
from tests.conftest import chain_graph


class TestOptions:
    def test_software_option_validation(self):
        assert SoftwareOption(0.5).utilization == 0.5
        with pytest.raises(SynthesisError):
            SoftwareOption(-0.1)

    def test_hardware_option_validation(self):
        assert HardwareOption(10.0).cost == 10.0
        with pytest.raises(SynthesisError):
            HardwareOption(-1.0)

    def test_entry_needs_an_option(self):
        with pytest.raises(SynthesisError):
            ComponentEntry(name="x")

    def test_entry_targets(self):
        both = ComponentEntry(
            name="x", software=SoftwareOption(0.1), hardware=HardwareOption(5)
        )
        assert both.targets == (ImplKind.SOFTWARE, ImplKind.HARDWARE)
        hw_only = ComponentEntry(name="y", hardware=HardwareOption(5))
        assert hw_only.targets == (ImplKind.HARDWARE,)

    def test_negative_effort_rejected(self):
        with pytest.raises(SynthesisError):
            ComponentEntry(
                name="x", software=SoftwareOption(0.1), effort=-1.0
            )


class TestLibrary:
    def test_component_shorthand(self):
        library = ComponentLibrary()
        entry = library.component("p", sw_utilization=0.3, hw_cost=7, effort=2)
        assert entry.software.utilization == 0.3
        assert entry.hardware.cost == 7
        assert library.entry("p") is entry

    def test_duplicate_names_rejected(self):
        library = ComponentLibrary()
        library.component("p", sw_utilization=0.3)
        with pytest.raises(SynthesisError):
            library.component("p", hw_cost=5)

    def test_missing_entry_raises(self):
        with pytest.raises(SynthesisError):
            ComponentLibrary().entry("ghost")

    def test_for_graph_lists_all_missing_units(self):
        library = ComponentLibrary()
        library.component("s0", sw_utilization=0.1)
        graph = chain_graph(stages=3)
        with pytest.raises(SynthesisError) as excinfo:
            library.for_graph(graph)
        assert "s1" in str(excinfo.value)
        assert "s2" in str(excinfo.value)

    def test_for_graph_skips_virtual(self):
        from repro.spi.builder import GraphBuilder
        from repro.spi.virtuality import source

        builder = GraphBuilder()
        builder.queue("c")
        builder.process(source("env", "c"))
        builder.simple("core", consumes={"c": 1})
        library = ComponentLibrary()
        library.component("core", sw_utilization=0.1)
        entries = library.for_graph(builder.build(validate=False))
        assert set(entries) == {"core"}

    def test_total_effort(self):
        library = ComponentLibrary()
        library.component("a", sw_utilization=0.1, effort=3)
        library.component("b", sw_utilization=0.1, effort=4)
        assert library.total_effort(["a", "b"]) == 7
        assert library.names() == ("a", "b")


class TestArchitecture:
    def test_defaults(self):
        arch = ArchitectureTemplate()
        assert arch.max_processors == 1
        assert arch.processor_capacity == 1.0

    def test_validation(self):
        with pytest.raises(SynthesisError):
            ArchitectureTemplate(max_processors=-1)
        with pytest.raises(SynthesisError):
            ArchitectureTemplate(processor_cost=-5)
        with pytest.raises(SynthesisError):
            ArchitectureTemplate(processor_capacity=0)


#: Every numeric model field with its non-finite values.  Each one
#: passed the sign checks (NaN compares false both ways) and then
#: crashed the search's quantization with a raw OverflowError or
#: ValueError.
NON_FINITE_FIELDS = [
    (ArchitectureTemplate, "max_processors", field_value)
    for field_value in (math.inf, math.nan)
] + [
    (ArchitectureTemplate, field, field_value)
    for field in ("processor_cost", "processor_capacity", "memory_capacity")
    for field_value in (math.inf, -math.inf, math.nan)
] + [
    (SoftwareOption, field, field_value)
    for field in ("utilization", "memory")
    for field_value in (math.inf, math.nan)
] + [
    (HardwareOption, "cost", field_value)
    for field_value in (math.inf, math.nan)
]


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "cls,field,value",
        NON_FINITE_FIELDS,
        ids=[f"{c.__name__}.{f}={v}" for c, f, v in NON_FINITE_FIELDS],
    )
    def test_non_finite_field_is_a_synthesis_error(self, cls, field, value):
        required = {
            ArchitectureTemplate: {},
            SoftwareOption: {"utilization": 0.5},
            HardwareOption: {"cost": 1.0},
        }[cls]
        with pytest.raises(SynthesisError, match=f"{field}.*finite"):
            cls(**{**required, field: value})
