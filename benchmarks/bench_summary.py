"""Print the basic/capacity/adaptive nodes comparison of one bench run.

CI runs this after the explorer bench so the branching-order and
bound-tightness wins are readable straight from the job log (next to
the uploaded ``BENCH_explorer.json`` artifact) without downloading
anything::

    python benchmarks/bench_summary.py [path/to/BENCH_explorer.json]

The table covers the whole pruning story on the knapsack-hard
workload: the capacity-blind *basic* bound, the PR 3 *capacity* bound
under the static order, each PR 4 branching-order mode up to the
default adaptive order, and the PR 5 best-first search frontier on
top of the adaptive order — the ``frontier`` column of the story (the
default DFS frontier is the ``adaptive order (default)`` row itself).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import List, Optional

REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_explorer.json"

#: (label, section, key) rows of the comparison, pruning-weakest first.
ROWS = (
    ("basic bound (capacity-blind)", "bound_tightness", "basic_bound"),
    ("capacity bound, static order", "branching_order", "static"),
    ("capacity bound, density order", "branching_order", "density"),
    (
        "capacity bound, adaptive order (default)",
        "branching_order",
        "adaptive",
    ),
    ("best-first frontier, adaptive order", "frontier", "best_first"),
)


def batch_kernel_lines(payload: dict) -> List[str]:
    """The candidate-scorer summary of one BENCH_explorer payload."""
    section = payload.get("batch_kernel")
    if not section:
        return []
    lines = [
        f"candidate scorer ({section.get('workload', '?')}, "
        f"{section.get('max_processors', '?')} processors): "
        f"{section.get('scalar_probes_per_sec', '?')} probes/s"
    ]
    cost = (
        section.get("bnb", {})
        .get("python", {})
        .get("probe_cost_per_node_us")
    )
    if cost is not None:
        frontier = section.get("bnb_frontier", "best-first")
        lines.append(
            f"  bound-scoring cost per node ({frontier} frontier): "
            f"{cost}us"
        )
    return lines


def comparison_lines(payload: dict) -> List[str]:
    """The rendered comparison table of one BENCH_explorer payload."""
    entries = []
    for label, section_name, key in ROWS:
        stats = payload.get(section_name, {}).get(key)
        if stats is None:
            continue
        entries.append((label, stats))
    if not entries:
        return ["bench_summary: no nodes data in the payload"]
    reference: Optional[float] = None
    for label, stats in entries:
        if stats.get("optimal") and label.startswith("basic bound"):
            reference = stats["nodes"]
            break
    if reference is None and entries[0][1].get("optimal"):
        reference = entries[0][1]["nodes"]
    width = max(len(label) for label, _ in entries)
    lines = [
        "nodes to proven optimum on the knapsack-hard workload "
        f"({payload.get('workload', {}).get('problem', 'unknown')}):"
    ]
    for label, stats in entries:
        nodes = stats["nodes"]
        proved = "proved" if stats.get("optimal") else "TRUNCATED"
        shrink = ""
        if reference and stats.get("optimal") and nodes != reference:
            shrink = (
                f"  ({reference / nodes:7.1f}x fewer than basic)"
                if nodes
                else "  (at the root presolve)"
            )
        lines.append(f"  {label:<{width}}  {nodes:>8} {proved}{shrink}")
    return lines


def serve_lines(payload: dict) -> List[str]:
    """The serve-daemon summary of one BENCH_explorer payload."""
    section = payload.get("serve")
    if not section:
        return []
    load = section.get("load", {})
    lines = [
        "serve daemon under synthetic many-client load "
        f"({load.get('clients', '?')} clients):"
    ]
    lines.append(
        f"  sustained throughput: {load.get('jobs_per_sec', '?')} "
        f"jobs/s (hit fraction {load.get('hit_fraction', '?')})"
    )
    lines.append(
        f"  exact cache hit: {section.get('hit_latency_seconds', '?')}s "
        f"vs {section.get('cold_latency_seconds', '?')}s cold "
        f"({section.get('cache_hit_speedup', '?')}x, byte-identical="
        f"{section.get('hit_byte_identical', '?')})"
    )
    return lines


def zoo_lines(payload: dict) -> List[str]:
    """The zoo-matrix summary of one BENCH_explorer payload."""
    section = payload.get("zoo")
    if not section:
        return []
    families = section.get("families", {})
    if not families:
        return []
    lines = [
        f"zoo matrix ({section.get('size', '?')} scenarios, nodes to "
        "proven optimum per explorer config):"
    ]
    width = max(len(name) for name in families)
    for name, row in families.items():
        cells = row.get("configs", {})
        rendered = "  ".join(
            f"{label}={cell.get('nodes', '?')}"
            + ("" if cell.get("optimal") else "(TRUNCATED)")
            for label, cell in cells.items()
        )
        lines.append(
            f"  {name:<{width}}  units={row.get('units', '?'):>3} "
            f"sel={row.get('selections', '?'):>3}  {rendered}"
        )
    return lines


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    current = pathlib.Path(args[0]) if args else DEFAULT_CURRENT
    if not current.exists():
        print(
            f"bench_summary: {current} not found — run the explorer "
            f"bench first."
        )
        return 2
    payload = json.loads(current.read_text())
    for line in comparison_lines(payload):
        print(line)
    for line in batch_kernel_lines(payload):
        print(line)
    for line in serve_lines(payload):
        print(line)
    for line in zoo_lines(payload):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
