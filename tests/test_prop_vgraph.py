"""Property-based tests for variant-graph binding and its derivations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import figure2
from repro.apps.generators import generate_system
from repro.errors import ModelError, VariantError
from repro.spi.builder import GraphBuilder
from repro.spi.virtuality import sink, source
from repro.synth.mapping import origins_of_graph, units_of_graph
from repro.synth.methods import selection_units
from repro.synth.parallel import tasks_from_space
from repro.variants.cluster import Cluster
from repro.variants.interface import Interface
from repro.variants.variant_space import VariantSpace
from repro.variants.vgraph import VariantGraph
from repro.zoo import FAMILIES, generate
from tests.conftest import pipeline_cluster


@st.composite
def variant_systems(draw):
    """A random single-interface variant system."""
    n_clusters = draw(st.integers(min_value=1, max_value=4))
    stages = [
        draw(st.integers(min_value=1, max_value=3))
        for _ in range(n_clusters)
    ]
    tokens = draw(st.integers(min_value=0, max_value=6))
    vgraph = VariantGraph("prop")
    builder = GraphBuilder("common")
    builder.queue("cin")
    builder.queue("cout")
    builder.process(source("src", "cin", max_firings=tokens))
    builder.process(sink("snk", "cout"))
    vgraph.base = builder.build(validate=False)
    clusters = {
        f"v{i}": pipeline_cluster(f"v{i}", stages=stage)
        for i, stage in enumerate(stages)
    }
    vgraph.add_interface(
        Interface(
            name="theta", inputs=("i",), outputs=("o",), clusters=clusters
        ),
        {"i": "cin", "o": "cout"},
    )
    return vgraph, stages, tokens


class TestBindingProperties:
    @given(variant_systems())
    @settings(max_examples=40, deadline=None)
    def test_bound_graph_size(self, system):
        """bound = common + chosen cluster, nothing else."""
        vgraph, stages, _ = system
        for index, stage_count in enumerate(stages):
            bound = vgraph.bind({"theta": f"v{index}"})
            expected_processes = 2 + stage_count  # src, snk + cluster
            assert bound.stats()["processes"] == expected_processes

    @given(variant_systems())
    @settings(max_examples=40, deadline=None)
    def test_binding_is_reproducible(self, system):
        vgraph, stages, _ = system
        first = vgraph.bind({"theta": "v0"})
        second = vgraph.bind({"theta": "v0"})
        assert first.same_structure(second)

    @given(variant_systems())
    @settings(max_examples=40, deadline=None)
    def test_namespacing_is_total(self, system):
        """Every spliced element carries the interface.cluster prefix."""
        vgraph, stages, _ = system
        common = set(vgraph.base.processes) | set(vgraph.base.channels)
        bound = vgraph.bind({"theta": "v0"})
        for name in list(bound.processes) + list(bound.channels):
            assert name in common or name.startswith("theta.v0.")

    @given(variant_systems())
    @settings(max_examples=25, deadline=None)
    def test_bound_graph_executes_without_error(self, system):
        from repro.sim import simulate

        vgraph, stages, tokens = system
        bound = vgraph.bind({"theta": "v0"})
        trace = simulate(bound)
        # every produced token is eventually delivered: the sink sees
        # exactly the source's token count (unit-rate pipelines).
        assert trace.firing_count("snk") == tokens

    @given(variant_systems())
    @settings(max_examples=25, deadline=None)
    def test_enumeration_covers_every_cluster_once(self, system):
        vgraph, stages, _ = system
        selections = vgraph.enumerate_selections()
        assert len(selections) == len(stages)
        chosen = sorted(s["theta"] for s in selections)
        assert chosen == sorted(f"v{i}" for i in range(len(stages)))


# ----------------------------------------------------------------------
# Selection units derived without binding
# ----------------------------------------------------------------------
def _bound_units(vgraph, selection):
    """The oracle: units and sorted origins of the bound graph."""
    graph = vgraph.bind(selection)
    return units_of_graph(graph), tuple(
        sorted(origins_of_graph(graph).items())
    )


def _outcome(derive, *args):
    """A derivation's result, or the type and text of what it raised."""
    try:
        return derive(*args)
    except (ModelError, VariantError) as exc:
        return type(exc), str(exc)


def _leaf_cluster(name, stages, tap):
    """A pipeline cluster, optionally with a virtual process inside."""
    builder = GraphBuilder(name)
    builder.queue("i")
    builder.queue("o")
    for index in range(stages):
        inp = "i" if index == 0 else f"m{index - 1}"
        out = "o" if index == stages - 1 else f"m{index}"
        if out != "o":
            builder.queue(out)
        builder.simple(f"s{index}", consumes={inp: 1}, produces={out: 1})
    if tap:
        builder.queue("t")
        builder.process(source("tap", "t"))
    return Cluster(
        name=name,
        inputs=("i",),
        outputs=("o",),
        graph=builder.build(validate=False),
    )


def _nesting_cluster(name, inner):
    """A front/back cluster embedding ``inner`` between its stages."""
    builder = GraphBuilder(name)
    for channel in ("i", "o", "pre", "post"):
        builder.queue(channel)
    builder.simple("front", consumes={"i": 1}, produces={"pre": 1})
    builder.simple("back", consumes={"post": 1}, produces={"o": 1})
    return Cluster(
        name=name,
        inputs=("i",),
        outputs=("o",),
        graph=builder.build(validate=False),
        interfaces={inner.name: inner},
        interface_bindings={inner.name: {"i": "pre", "o": "post"}},
    )


@st.composite
def nested_variant_systems(draw):
    """One or two top-level interfaces whose clusters may nest another.

    Nested interfaces may lack an initial cluster, and the common part
    may hold a dotted process named like a spliced unit, so both the
    accepted and the rejected selections get drawn.
    """
    n_top = draw(st.integers(min_value=1, max_value=2))
    stages = ["cin", "mid", "cout"] if n_top == 2 else ["cin", "cout"]
    common = draw(st.sampled_from(["K", "k.m.n", "outer0.v0.s0"]))
    vgraph = VariantGraph("nested")
    builder = GraphBuilder("common")
    for channel in ["cpre", *stages]:
        builder.queue(channel)
    builder.process(source("src", "cpre"))
    builder.simple(common, consumes={"cpre": 1}, produces={"cin": 1})
    builder.process(sink("snk", "cout"))
    vgraph.base = builder.build(validate=False)
    nested_names = []
    for top in range(n_top):
        clusters = {}
        for index in range(draw(st.integers(min_value=1, max_value=3))):
            name = f"v{index}"
            if draw(st.booleans()):
                leaves = {
                    f"x{leaf}": _leaf_cluster(
                        f"x{leaf}",
                        draw(st.integers(min_value=1, max_value=2)),
                        draw(st.booleans()),
                    )
                    for leaf in range(draw(st.integers(1, 3)))
                }
                inner = Interface(
                    name=f"inner{top}",
                    inputs=("i",),
                    outputs=("o",),
                    clusters=leaves,
                    initial_cluster=draw(
                        st.sampled_from([None, *sorted(leaves)])
                    ),
                )
                nested_names.append((inner.name, sorted(leaves)))
                clusters[name] = _nesting_cluster(name, inner)
            else:
                clusters[name] = _leaf_cluster(
                    name,
                    draw(st.integers(min_value=1, max_value=3)),
                    draw(st.booleans()),
                )
        vgraph.add_interface(
            Interface(
                name=f"outer{top}",
                inputs=("i",),
                outputs=("o",),
                clusters=clusters,
            ),
            {"i": stages[top], "o": stages[top + 1]},
        )
    selections = vgraph.enumerate_selections()
    for inner_name, leaves in dict(nested_names).items():
        choice = draw(st.sampled_from([None, *leaves]))
        if choice is not None:
            for selection in selections:
                selection[inner_name] = choice
    return vgraph, selections


class TestDerivedSelectionUnits:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zoo_tasks_equal_bound_graphs(self, family):
        for seed in range(8):
            scenario = generate(family, seed, "bench")
            space = scenario.space
            tasks = tasks_from_space(scenario.problem_family, space)
            assert len(tasks) == space.count()
            for task, selection in zip(tasks, space.selections()):
                assert task.selection == VariantSpace.selection_key(
                    selection
                )
                assert (task.units, task.origins) == _bound_units(
                    space.vgraph, selection
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_serve_shaped_generated_spaces(self, seed):
        system = generate_system(
            seed=seed, n_variants=8, cluster_size=8, common_processes=8
        )
        space = VariantSpace(system.vgraph)
        derive = selection_units(space.vgraph)
        for selection in space.selections():
            assert derive(selection) == _bound_units(space.vgraph, selection)

    def test_figure2_space(self):
        space = figure2.variant_space()
        derive = selection_units(space.vgraph)
        for selection in space.selections():
            assert derive(selection) == _bound_units(space.vgraph, selection)

    @given(nested_variant_systems())
    @settings(max_examples=60, deadline=None)
    def test_nested_graphs_match_or_fail_alike(self, system):
        vgraph, selections = system
        derive = selection_units(vgraph)
        for selection in selections:
            assert _outcome(derive, selection) == _outcome(
                _bound_units, vgraph, selection
            )


class TestDerivedSelectionRejections:
    """Both paths refuse what binding refuses, with the same error."""

    def _system(self, clusters, base_process="snk", initial=None):
        vgraph = VariantGraph("rej")
        builder = GraphBuilder("common")
        builder.queue("cin")
        builder.queue("cout")
        builder.process(source("src", "cin"))
        builder.process(sink(base_process, "cout"))
        vgraph.base = builder.build(validate=False)
        vgraph.add_interface(
            Interface(
                name="theta",
                inputs=("i",),
                outputs=("o",),
                clusters=clusters,
                initial_cluster=initial,
            ),
            {"i": "cin", "o": "cout"},
        )
        return vgraph

    def _assert_both_raise(self, vgraph, selection, error):
        derive = selection_units(vgraph)
        with pytest.raises(error) as derived:
            derive(selection)
        with pytest.raises(error) as bound:
            vgraph.bind(selection)
        assert str(derived.value) == str(bound.value)

    def test_interface_without_initial_or_selected_cluster(self):
        vgraph = self._system(
            {name: pipeline_cluster(name) for name in ("v0", "v1")}
        )
        self._assert_both_raise(vgraph, {}, VariantError)
        self._assert_both_raise(vgraph, {"theta": "v9"}, VariantError)

    def test_nested_interface_without_selectable_cluster(self):
        inner = Interface(
            name="inner",
            inputs=("i",),
            outputs=("o",),
            clusters={
                name: pipeline_cluster(name, stages=1)
                for name in ("x", "y")
            },
        )
        vgraph = self._system({"big": _nesting_cluster("big", inner)})
        self._assert_both_raise(vgraph, {}, VariantError)
        self._assert_both_raise(
            vgraph, {"theta": "big", "inner": "z"}, VariantError
        )
        assert selection_units(vgraph)({"inner": "y"}) == _bound_units(
            vgraph, {"inner": "y"}
        )

    def test_common_process_named_like_a_spliced_unit(self):
        vgraph = self._system(
            {name: pipeline_cluster(name) for name in ("v0", "v1")},
            base_process="theta.v0.s1",
        )
        self._assert_both_raise(vgraph, {"theta": "v0"}, ModelError)
        # The clash is in v0's row only: v1 derives and binds.
        assert selection_units(vgraph)({"theta": "v1"}) == _bound_units(
            vgraph, {"theta": "v1"}
        )

    def test_spliced_units_that_repeat_a_name(self):
        # ``a`` / ``b.c`` and ``a.b`` / ``c`` both splice ``a.b.c.s0``.
        vgraph = VariantGraph("rej")
        builder = GraphBuilder("common")
        for channel in ("cin", "mid", "cout"):
            builder.queue(channel)
        builder.process(source("src", "cin"))
        builder.process(sink("snk", "cout"))
        vgraph.base = builder.build(validate=False)
        for iface, cluster, ports in (
            ("a", "b.c", {"i": "cin", "o": "mid"}),
            ("a.b", "c", {"i": "mid", "o": "cout"}),
        ):
            vgraph.add_interface(
                Interface(
                    name=iface,
                    inputs=("i",),
                    outputs=("o",),
                    clusters={cluster: pipeline_cluster(cluster, stages=1)},
                ),
                ports,
            )
        self._assert_both_raise(vgraph, {}, ModelError)
