"""Wall-clock benchmark of the variant-aware synthesis engine.

Run from the repository root::

    python3 perfbench/run.py --workload joint_dfs --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the workload and prints its end-to-end metrics;
``--trace 1`` runs the traced suite and prints the per-layer metrics
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record of the run (environment, sample counts, latency
quantiles) is written to ``perfbench/out/`` and summarized in the
``# info`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = (
    "joint_dfs",
    "joint_best_first",
    "joint_checkpointed",
    "space_sweep",
    "serve_mix",
)

#: Unit of every reported metric; trace-mode units come from traced.py.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus",
        choices=("main", "heldout"),
        default="main",
        help="scenario corpus; 'heldout' is for checking a claim",
    )
    return parser.parse_args(argv)


def measure(args):
    """Dispatch one untraced workload run."""
    import serve_load
    import workloads

    corpus, seed, seconds = args.corpus, args.seed, args.seconds
    if args.workload.startswith("joint_"):
        config = args.workload[len("joint_"):]
        return workloads.measure_joint(config, corpus, seed, seconds)
    if args.workload == "space_sweep":
        return workloads.measure_sweep(corpus, seed, seconds)
    return serve_load.measure_serve(ROOT, OUT_DIR, corpus, seed, seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(OUT_DIR, exist_ok=True)

    import workloads

    if args.trace:
        import traced

        metrics, units, attempted, failed, info = traced.run_suite(
            ROOT, OUT_DIR, args.corpus, args.seed
        )
    else:
        metrics, attempted, failed, info = measure(args)
        units = UNITS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus": args.corpus,
        "trace": args.trace,
        "environment": workloads.environment(),
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    path = os.path.join(
        OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# info {json.dumps(info, sort_keys=True)}")
    print(f"# failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
