"""Command-line front-end: regenerate the paper's results from a shell.

Usage::

    python -m repro table1
    python -m repro figure1 [--tag a|b|none]
    python -m repro figure3 [--variant V1|V2]
    python -m repro figure4 [--no-valves] [--frames N]
    python -m repro stats
    python -m repro explore [--space figure2|generated] [--explorer E]
                            [--jobs N] [--lineage-size K]
                            [--ordering static|density|adaptive]
                            [--frontier F]
                            [--max-open N]
                            [--share-incumbent]
    python -m repro serve   [--host H] [--port P] [--workers N]
                            [--cache-size N] [--max-queue N]
                            [--max-jobs N] [--state-dir DIR]
                            [--max-open-nodes N] [--queue-deadline S]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table1(args: argparse.Namespace) -> int:
    from .apps import figure2
    from .report.tables import render_dict_rows

    rows = figure2.table1_rows()
    print(render_dict_rows(rows, title="Table 1: System Cost"))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from .apps import figure1
    from .spi.semantics import StepSemantics

    tag = None if args.tag == "none" else args.tag
    graph = figure1.build_graph(p1_tag=tag, input_tokens=args.tokens)
    for name, interval in figure1.interval_summary(graph).items():
        print(f"{name:<16} {interval!r}")
    semantics = StepSemantics(graph)
    semantics.run(max_steps=1000)
    print(f"\nfirings: {dict(sorted(semantics.firing_counts.items()))}")
    print(f"occupancy: {semantics.occupancy()}")
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .apps import figure3

    trace, _ = figure3.simulate_runtime_selection(
        args.variant, stream_tokens=args.tokens
    )
    for key, value in figure3.selection_report(trace).items():
        print(f"{key:<20} {value}")
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from .apps import video

    trace, _ = video.run_video(
        n_frames=args.frames, with_valves=not args.no_valves
    )
    for key, value in video.video_report(trace).items():
        print(f"{key:<26} {value}")
    return 0


def _make_explorer(
    name: str,
    reference: bool,
    ordering: str = "adaptive",
    frontier: str = "dfs",
    max_open: Optional[int] = None,
):
    from .synth.explorer import BranchBoundExplorer, ExhaustiveExplorer

    incremental = not reference
    if name == "exhaustive":
        return ExhaustiveExplorer(incremental=incremental)
    return BranchBoundExplorer(
        incremental=incremental,
        ordering=ordering,
        frontier=frontier,
        max_open=max_open,
    )


def _cmd_explore(args: argparse.Namespace) -> int:
    from .report.tables import render_dict_rows
    from .synth.methods import ProblemFamily, explore_space
    from .variants.variant_space import VariantSpace

    if args.space == "figure2":
        from .apps import figure2

        family = figure2.table1_family()
        space = figure2.variant_space()
    else:
        from .apps.generators import generate_system

        system = generate_system(
            seed=args.seed,
            n_variants=args.variants,
            cluster_size=args.cluster_size,
        )
        family = ProblemFamily(
            name=f"generated(seed={args.seed})",
            library=system.library,
            architecture=system.architecture,
        )
        space = VariantSpace(system.vgraph)

    explorer = _make_explorer(
        args.explorer,
        args.reference,
        ordering=args.ordering,
        frontier=args.frontier,
        max_open=args.max_open,
    )
    outcome = explore_space(
        family,
        space,
        explorer,
        warm_start=not args.no_warm_start,
        jobs=args.jobs,
        lineage_size=args.lineage_size,
        share_incumbent=args.share_incumbent,
    )
    jobs_note = f", jobs={args.jobs}" if args.jobs is not None else ""
    title = (
        f"Variant space of {family.name}: {len(outcome)} selections "
        f"({args.explorer}{', reference' if args.reference else ''}"
        f"{jobs_note})"
    )
    print(render_dict_rows(outcome.summary_rows(), title=title))
    best = outcome.best()
    best_selection = ", ".join(
        f"{iface}={cluster}"
        for iface, cluster in sorted(best.selection.items())
    )
    print()
    print(f"best selection : {best_selection} (cost {best.cost:g})")
    print(f"worst selection: cost {outcome.worst().cost:g}")
    print(f"total nodes    : {outcome.total_nodes}")
    print(f"total evals    : {outcome.total_evaluations}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.http import serve_main

    return serve_main(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        max_queue=args.max_queue,
        max_jobs=args.max_jobs,
        state_dir=args.state_dir,
        max_open_nodes=args.max_open_nodes,
        queue_deadline=args.queue_deadline,
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    from .apps import figure2

    stats = figure2.build_variant_graph().stats()
    print("common part          :", stats["common"])
    for name, iface in stats["interfaces"].items():
        for cluster, counts in iface["clusters"].items():
            print(f"{name}/{cluster:<14}:", counts)
    print("variant representation:", stats["variant_representation_size"])
    print("enumeration           :", stats["enumeration_size"])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    from .errors import ReproError
    from .synth.ordering import FRONTIERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Representation of Function Variants for "
            "Embedded System Optimization and Synthesis' (DAC 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="reproduce Table 1").set_defaults(
        run=_cmd_table1
    )

    fig1 = sub.add_parser("figure1", help="run the Figure 1 SPI example")
    fig1.add_argument("--tag", choices=["a", "b", "none"], default="a")
    fig1.add_argument("--tokens", type=int, default=12)
    fig1.set_defaults(run=_cmd_figure1)

    fig3 = sub.add_parser("figure3", help="run-time variant selection")
    fig3.add_argument("--variant", choices=["V1", "V2"], default="V1")
    fig3.add_argument("--tokens", type=int, default=10)
    fig3.set_defaults(run=_cmd_figure3)

    fig4 = sub.add_parser("figure4", help="reconfigurable video system")
    fig4.add_argument("--frames", type=int, default=100)
    fig4.add_argument("--no-valves", action="store_true")
    fig4.set_defaults(run=_cmd_figure4)

    sub.add_parser(
        "stats", help="Figure 2 representation accounting"
    ).set_defaults(run=_cmd_stats)

    explore = sub.add_parser(
        "explore", help="batch-explore a variant combination space"
    )
    explore.add_argument(
        "--space", choices=["figure2", "generated"], default="figure2"
    )
    explore.add_argument(
        "--explorer",
        choices=["exhaustive", "bnb"],
        default="bnb",
    )
    explore.add_argument("--variants", type=int, default=3)
    explore.add_argument("--cluster-size", type=int, default=2)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard the space into warm-start lineages dispatched over "
            "N worker processes (results are byte-identical for every "
            "N; default: in-process single chain)"
        ),
    )
    explore.add_argument(
        "--lineage-size",
        type=int,
        default=None,
        metavar="K",
        help=(
            "selections per warm-start lineage (the decomposition — "
            "not --jobs — defines the results; default 4 when --jobs "
            "is given)"
        ),
    )
    explore.add_argument(
        "--no-warm-start",
        action="store_true",
        help="disable warm-start reuse between neighboring selections",
    )
    explore.add_argument(
        "--ordering",
        choices=["static", "density", "adaptive"],
        default="adaptive",
        help=(
            "branch-and-bound branching order: static descending "
            "hardware cost, knapsack-density, or adaptive (density + "
            "strong branching + value ordering; the default)"
        ),
    )
    explore.add_argument(
        "--frontier",
        choices=FRONTIERS,
        default="dfs",
        help=(
            "branch-and-bound search frontier: depth-first (default, "
            "byte-identical to previous releases) or best-first over "
            "the incremental lower bound"
        ),
    )
    explore.add_argument(
        "--max-open",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bounded-memory search: cap the open frontier at N "
            "entries, deterministically evicting the worst-bound "
            "entries of the best-first heap (depth-first ignores it); "
            "evicted subtrees are recorded so proof_floor stays "
            "honest and provenance says memory-truncated when "
            "optimality could have been lost"
        ),
    )
    explore.add_argument(
        "--share-incumbent",
        action="store_true",
        help=(
            "publish the fleet-wide best cost so every lineage's "
            "search prunes against it (best selection unchanged; "
            "node counts become timing-dependent with --jobs > 1)"
        ),
    )
    explore.add_argument(
        "--reference",
        action="store_true",
        help="use the full-recompute reference evaluator (seed behavior)",
    )
    explore.set_defaults(run=_cmd_explore)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the exploration service: an HTTP daemon with a "
            "priority job queue, content-addressed result cache, and "
            "SSE progress streaming (see docs/serving.md)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8752)
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="resident worker coroutines/threads draining the queue",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="LRU bound of the exact result cache (entries)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="queued-job bound; submissions beyond it get HTTP 503",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=4096,
        metavar="N",
        help=(
            "retained terminal job records; older ones are evicted "
            "oldest-first and their ids return HTTP 404"
        ),
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "journal submissions and cache entries to DIR for crash "
            "recovery: a restarted daemon replays the journal, "
            "restores the exact cache verbatim, and re-enqueues "
            "interrupted jobs (see docs/fault-tolerance.md)"
        ),
    )
    serve.add_argument(
        "--max-open-nodes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "daemon-wide bounded-memory cap: exact-explorer jobs "
            "without a tighter explorer.max_open run with their open "
            "frontier capped at N (capped runs that evict subtrees "
            "bypass the result cache)"
        ),
    )
    serve.add_argument(
        "--queue-deadline",
        type=float,
        default=None,
        metavar="S",
        help=(
            "shed jobs that waited more than S seconds in the queue "
            "(or longer than their own time_budget) instead of "
            "running them; shed is a distinct terminal state and "
            "counts in /stats"
        ),
    )
    serve.set_defaults(run=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
