"""Zoo matrix bench: explorer configurations across generator families.

Runs the branch-and-bound configuration matrix (basic bound, static
ordering, adaptive ordering, best-first) on the joint problem of one
bench-size scenario per zoo family and records nodes-to-optimal per
cell — the cross-family generalization of the single-workload
``bound_tightness``/``branching_order`` sections.  All configurations
must agree on the optimal cost (the bench doubles as a coarse
differential check at a scale the exhaustive oracle can't reach), and
the adaptive nodes-to-optimal of the gated families feeds
``check_regression.py``.

Set ``BENCH_QUICK=1`` for the reduced CI workload (medium scenarios).
"""

from repro.synth.explorer import BranchBoundExplorer
from repro.zoo import generate

from .conftest import merge_json_artifact, quick_mode

#: Families in the matrix (>= 3 per the scenario-zoo acceptance bar);
#: all are sized to prove optimality in seconds on one core.
MATRIX_FAMILIES = (
    "deep_chain",
    "hetero_multiproc",
    "exclusion_pathology",
    "memory_ladder",
    "streaming_pipeline",
    "chained",
)

#: The configuration axes mirrored from ``bench_explorer``'s
#: bound/ordering sections, so rows read the same way.
CONFIGS = {
    "basic": dict(capacity_bound=False, ordering="static"),
    "static": dict(ordering="static"),
    "adaptive": dict(),
    "best_first": dict(frontier="best-first"),
}

NODE_BUDGET = 3_000_000


def run_zoo_matrix(size: str) -> dict:
    section = {}
    for family in MATRIX_FAMILIES:
        scenario = generate(family, 0, size)
        problem = scenario.joint_problem()
        cells = {}
        for label, kwargs in CONFIGS.items():
            result = BranchBoundExplorer(
                node_budget=NODE_BUDGET, **kwargs
            ).explore(problem)
            cells[label] = {
                "cost": result.cost,
                "nodes": result.nodes_explored,
                "optimal": result.optimal,
            }
        section[family] = {
            "units": len(problem.units),
            "selections": scenario.space.count(),
            "configs": cells,
        }
    return section


def test_zoo_matrix_recorded(benchmark):
    size = "medium" if quick_mode() else "bench"
    section = benchmark.pedantic(
        lambda: run_zoo_matrix(size), rounds=1, iterations=1
    )

    for family, row in section.items():
        cells = row["configs"]
        # Every configuration proved its optimum at this scale...
        assert all(cell["optimal"] for cell in cells.values()), (
            family,
            cells,
        )
        # ...and they all agree on it (coarse differential check).
        costs = {cell["cost"] for cell in cells.values()}
        assert len(costs) == 1, (family, cells)
        # The capacity bound never expands more nodes than the basic
        # bound under identical (static) ordering.
        assert (
            cells["static"]["nodes"] <= cells["basic"]["nodes"]
        ), (family, cells)

    merge_json_artifact(
        "BENCH_explorer.json",
        {"zoo": {"size": size, "families": section}},
        also_repo_root=True,
    )
