"""Unit tests for repro.synth.mapping."""

import pytest

from repro.errors import SynthesisError
from repro.synth.architecture import ArchitectureTemplate
from repro.synth.library import ComponentLibrary, ImplKind
from repro.synth.mapping import (
    Mapping,
    SynthesisProblem,
    Target,
    VariantOrigin,
    encode_target,
    origin_from_name,
    problem_for_graph,
    problem_payload,
    units_of_graph,
)
from tests.conftest import chain_graph


def small_library(*names):
    library = ComponentLibrary()
    for name in names:
        library.component(name, sw_utilization=0.2, hw_cost=10, effort=1)
    return library


class TestGroupingKeys:
    def problem(self, use_exclusion=True):
        library = small_library("K", "A1")
        return SynthesisProblem(
            name="p",
            units=("K", "A1"),
            library=library,
            architecture=ArchitectureTemplate(processor_cost=1),
            origins={"A1": VariantOrigin("theta", "A")},
            use_exclusion=use_exclusion,
        )

    def test_variant_group_reads_origins(self):
        problem = self.problem()
        assert problem.variant_group("A1") == ("theta", "A")
        assert problem.variant_group("K") is None

    def test_exclusion_group_honors_use_exclusion(self):
        assert self.problem().exclusion_group("A1") == ("theta", "A")
        assert self.problem(use_exclusion=False).exclusion_group("A1") is None

    def test_variant_group_ignores_use_exclusion(self):
        assert self.problem(use_exclusion=False).variant_group("A1") == (
            "theta",
            "A",
        )


class TestRestrictedTo:
    def test_keeps_shared_units_and_drops_stale_ones(self):
        mapping = Mapping({"K": Target.hw(), "old": Target.sw(0)})
        restricted = mapping.restricted_to(("K", "new"))
        assert dict(restricted.assignment) == {"K": Target.hw()}

    def test_empty_restriction(self):
        mapping = Mapping({"K": Target.hw()})
        assert len(mapping.restricted_to(())) == 0


class TestTarget:
    def test_constructors(self):
        assert Target.hw().is_hardware
        assert Target.sw().is_software
        assert Target.sw(2).processor == 2

    def test_negative_processor_rejected(self):
        with pytest.raises(SynthesisError):
            Target(ImplKind.SOFTWARE, -1)

    def test_repr(self):
        assert repr(Target.hw()) == "hw"
        assert repr(Target.sw(1)) == "sw:1"


class TestOriginParsing:
    def test_namespaced_unit(self):
        origin = origin_from_name("theta1.gamma1.f1")
        assert origin == VariantOrigin("theta1", "gamma1")

    def test_common_unit_has_no_origin(self):
        assert origin_from_name("PA") is None
        assert origin_from_name("a.b") is None

    def test_nested_uses_outermost(self):
        origin = origin_from_name("outer.big.inner.y.s0")
        assert origin == VariantOrigin("outer", "big")


class TestMapping:
    def test_partition_queries(self):
        mapping = Mapping(
            {"a": Target.sw(0), "b": Target.hw(), "c": Target.sw(1)}
        )
        assert mapping.software_units() == ("a", "c")
        assert mapping.hardware_units() == ("b",)
        assert mapping.processors_used() == (0, 1)

    def test_target_of_unknown_unit(self):
        with pytest.raises(SynthesisError):
            Mapping({}).target_of("ghost")

    def test_merge_agreeing(self):
        first = Mapping({"a": Target.sw(0)})
        second = Mapping({"b": Target.hw(), "a": Target.sw(0)})
        merged = first.merged_with(second)
        assert len(merged) == 2

    def test_merge_conflict_rejected(self):
        first = Mapping({"a": Target.sw(0)})
        second = Mapping({"a": Target.hw()})
        with pytest.raises(SynthesisError, match="conflict"):
            first.merged_with(second)


class TestProblem:
    def test_problem_for_graph(self):
        graph = chain_graph(stages=2)
        library = small_library("s0", "s1")
        problem = problem_for_graph(
            "p", graph, library, ArchitectureTemplate(processor_cost=10)
        )
        assert problem.units == ("s0", "s1")
        assert problem.free_units == ("s0", "s1")

    def test_units_must_have_library_entries(self):
        graph = chain_graph(stages=2)
        library = small_library("s0")
        with pytest.raises(SynthesisError):
            problem_for_graph("p", graph, library, ArchitectureTemplate())

    def test_duplicate_units_rejected(self):
        library = small_library("a")
        with pytest.raises(SynthesisError):
            SynthesisProblem(
                name="p",
                units=("a", "a"),
                library=library,
                architecture=ArchitectureTemplate(),
            )

    def test_fixed_targets_reduce_free_units(self):
        library = small_library("a", "b")
        problem = SynthesisProblem(
            name="p",
            units=("a", "b"),
            library=library,
            architecture=ArchitectureTemplate(),
            fixed={"a": Target.hw()},
        )
        assert problem.free_units == ("b",)

    def test_targets_for_respects_architecture(self):
        library = small_library("a")
        problem = SynthesisProblem(
            name="p",
            units=("a",),
            library=library,
            architecture=ArchitectureTemplate(max_processors=2),
        )
        targets = problem.targets_for("a")
        assert Target.sw(0) in targets
        assert Target.sw(1) in targets
        assert Target.hw() in targets

    def test_origins_of_bound_graph(self):
        from tests.test_vgraph import make_vgraph

        bound = make_vgraph().bind({"theta": "v1"})
        units = units_of_graph(bound)
        assert "theta.v1.s0" in units
        library = small_library(*units)
        problem = problem_for_graph(
            "p", bound, library, ArchitectureTemplate()
        )
        assert problem.origins["theta.v1.s0"] == VariantOrigin(
            "theta", "v1"
        )

    def test_origin_for_unknown_unit_rejected(self):
        library = small_library("a")
        with pytest.raises(SynthesisError):
            SynthesisProblem(
                name="p",
                units=("a",),
                library=library,
                architecture=ArchitectureTemplate(),
                origins={"ghost": VariantOrigin("i", "c")},
            )

    def test_total_effort(self):
        library = small_library("a", "b")
        problem = SynthesisProblem(
            name="p",
            units=("a", "b"),
            library=library,
            architecture=ArchitectureTemplate(),
        )
        assert problem.total_effort() == 2.0


class TestTargetText:
    def test_problem_payload_spells_fixed_targets(self):
        # The fixed-target text is hashed into checkpoint fingerprints
        # and serve job keys: changing it orphans every stored blob.
        problem = SynthesisProblem(
            name="p",
            units=("K", "A1", "B1"),
            library=small_library("K", "A1", "B1"),
            architecture=ArchitectureTemplate(max_processors=3),
            fixed={"K": Target.hw(), "B1": Target.sw(2), "A1": Target.sw(0)},
        )
        assert problem_payload(problem)["fixed"] == {
            "A1": "sw:0",
            "B1": "sw:2",
            "K": "hw",
        }

    def test_encode_target_is_the_repr(self):
        for target, text in (
            (Target.hw(), "hw"),
            (Target.sw(0), "sw:0"),
            (Target.sw(11), "sw:11"),
        ):
            assert encode_target(target) == repr(target) == text
