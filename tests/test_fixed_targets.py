"""Fixed software targets beyond the template's processor indices.

The architecture template limits how many processors a mapping uses
(:func:`~repro.synth.cost.evaluate` counts them), not which indices
they carry.  A unit fixed to ``sw:N`` with ``N >= max_processors`` is
therefore legal, and the searches must still offer software targets
around it: the used processor itself while it has room, and one fresh
index while fewer than ``max_processors`` are in use.

The oracle here is a brute-force enumerator over ``evaluate`` that
shares nothing with the searches' candidate generation.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.cost import evaluate
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import (
    Mapping,
    SynthesisProblem,
    Target,
    VariantOrigin,
)

EXPLORERS = {
    "exhaustive": lambda: ExhaustiveExplorer(),
    "dfs": lambda: BranchBoundExplorer(),
    "best-first": lambda: BranchBoundExplorer(frontier="best-first"),
    "reference-dfs": lambda: BranchBoundExplorer(incremental=False),
}


def brute_force(problem):
    """Cheapest feasible cost over every mapping, by ``evaluate``.

    Software indices run up to one past the largest fixed index plus
    ``max_processors``: enough that every mapping the template allows
    has a relabelled copy among the enumerated ones.
    """
    fixed = problem.fixed
    top = max(
        (t.processor for t in fixed.values() if t.is_software), default=0
    )
    indices = range(top + problem.architecture.max_processors + 1)
    free = [unit for unit in problem.units if unit not in fixed]
    options = []
    for unit in free:
        entry = problem.entry(unit)
        targets = []
        if entry.software is not None:
            targets.extend(Target.sw(cpu) for cpu in indices)
        if entry.hardware is not None:
            targets.append(Target.hw())
        options.append(targets)
    best = float("inf")
    for choice in itertools.product(*options):
        assignment = dict(zip(free, choice))
        assignment.update(fixed)
        result = evaluate(problem, Mapping(assignment))
        if result.feasible and result.total_cost < best:
            best = result.total_cost
    return best


def one_processor_case():
    library = ComponentLibrary()
    library.component("a", sw_utilization=0.2, hw_cost=5)
    library.component("b", sw_utilization=0.2, hw_cost=7)
    return SynthesisProblem(
        name="fixed-beyond-one",
        units=("a", "b"),
        library=library,
        architecture=ArchitectureTemplate(max_processors=1, processor_cost=1),
        fixed={"a": Target.sw(1)},
    )


def two_processor_case():
    library = ComponentLibrary()
    for name in ("a", "b", "c"):
        library.component(name, sw_utilization=0.2, hw_cost=5)
    return SynthesisProblem(
        name="fixed-beyond-two",
        units=("a", "b", "c"),
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=2, processor_cost=1, processor_capacity=0.3
        ),
        fixed={"a": Target.sw(3)},
    )


@pytest.mark.parametrize("explorer", sorted(EXPLORERS))
@pytest.mark.parametrize(
    "make,optimum",
    [(one_processor_case, 1.0), (two_processor_case, 7.0)],
    ids=["one-processor", "two-processors"],
)
def test_fixed_index_beyond_the_template_still_hosts_software(
    explorer, make, optimum
):
    problem = make()
    assert brute_force(problem) == optimum
    result = EXPLORERS[explorer]().explore(problem)
    assert result.optimal
    assert result.cost == optimum
    assert result.proof_floor == optimum
    assert evaluate(problem, result.mapping).total_cost == optimum


@st.composite
def fixed_problems(draw):
    """Small problems with one unit fixed to ``sw:N``."""
    n_units = draw(st.integers(min_value=1, max_value=4))
    max_processors = draw(st.integers(min_value=1, max_value=2))
    library = ComponentLibrary()
    units = []
    origins = {}
    for index in range(n_units):
        name = f"u{index}"
        units.append(name)
        has_hw = index > 0 and draw(st.booleans())
        library.component(
            name,
            sw_utilization=draw(st.integers(min_value=1, max_value=48)) / 64,
            hw_cost=(
                draw(st.integers(min_value=0, max_value=30))
                if has_hw
                else None
            ),
        )
        if index and draw(st.booleans()):
            cluster = draw(st.sampled_from(["A", "B"]))
            origins[name] = VariantOrigin("t", cluster)
    processor = draw(st.integers(min_value=0, max_value=max_processors + 1))
    return SynthesisProblem(
        name="fixed",
        units=tuple(units),
        library=library,
        architecture=ArchitectureTemplate(
            max_processors=max_processors,
            processor_cost=draw(st.integers(min_value=0, max_value=10)),
            processor_capacity=draw(st.sampled_from([0.5, 0.75, 1.0])),
        ),
        origins=origins,
        fixed={"u0": Target.sw(processor)},
    )


@given(fixed_problems())
@settings(max_examples=80, deadline=None)
def test_every_explorer_matches_the_brute_force_optimum(problem):
    optimum = brute_force(problem)
    for name, make in EXPLORERS.items():
        result = make().explore(problem)
        assert result.cost == optimum, name
        assert result.optimal, name
        assert result.proof_floor == optimum, name
