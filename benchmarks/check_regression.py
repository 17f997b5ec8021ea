"""CI gate: fail on >Nx throughput regressions vs committed baselines.

``bench_history/`` holds one small JSON baseline per recorded commit
(written by the CI bench job on pushes to main, or locally with
``--write``).  The gate compares the freshly produced
``BENCH_explorer.json`` against the most recent baseline *measured in
the same mode* (quick CI workload vs full local workload — their rates
are not comparable) and fails when any throughput metric drops below
``baseline / max_regression``.

The 2x default is deliberately loose: it tolerates runner-to-runner
variance while still catching the class of regressions that matter —
an accidentally quadratic hot path, a lost pruning rule, a serialized
pool.

Usage::

    python benchmarks/check_regression.py           # gate (CI)
    python benchmarks/check_regression.py --write   # record a baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
from typing import Dict, Optional

REPO_ROOT = pathlib.Path(__file__).parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_explorer.json"
DEFAULT_HISTORY = REPO_ROOT / "bench_history"

#: Metrics under the gate, with the direction that counts as a
#: regression.  ``higher``: throughput, fails when the fresh value
#: drops below ``baseline / max_regression``.  ``lower``: work
#: counters (e.g. nodes expanded to prove optimality), fails when the
#: fresh value climbs above ``baseline * max_regression``.  Keys
#: absent from either side — or ``null`` (a bench may withhold a rate
#: measured from a statistically meaningless sample) — are skipped,
#: so old baselines stay comparable when new metrics are added.
GATED_METRICS = {
    "bnb_incremental_nodes_per_sec": "higher",
    "microbench_incremental_evals_per_sec": "higher",
    "parallel_jobs1_selections_per_sec": "higher",
    "parallel_jobs4_efficiency": "higher",
    # Non-mutating candidate scoring on the wide batch workload.
    "batch_scalar_probes_per_sec": "higher",
    "serve_jobs_per_sec": "higher",
    "serve_cache_hit_speedup": "higher",
    "bnb_nodes_to_optimal": "lower",
    "bnb_adaptive_nodes_to_optimal": "lower",
    "bnb_bestfirst_nodes_to_optimal": "lower",
    "dispatch_index_bytes_per_lineage": "lower",
    # Bounded-memory degradation: the capped best-first search on the
    # scaled knapsack is deterministic, so its node count to
    # completion gates lower-is-better and its throughput higher.
    "bnb_capped_best_first_nodes_to_done": "lower",
    "bnb_capped_best_first_nodes_per_sec": "higher",
    # Zoo matrix (PR 10): adaptive-ordering nodes-to-optimal on the
    # generator families — deterministic searches, so any climb is a
    # real pruning/ordering regression.  Absent from older baselines
    # — skipped there.
    "zoo_deep_chain_nodes_to_optimal": "lower",
    "zoo_chained_nodes_to_optimal": "lower",
    "zoo_hetero_multiproc_nodes_to_optimal": "lower",
}

#: Metrics that only compare between runs recorded on the same number
#: of CPUs: parallel efficiency on a 1-CPU container measures pool
#: overhead, not scaling, and efficiency at N workers is simply not
#: the same quantity on 1, 2 or 16 cores.  The gate skips these when
#: the baseline's recorded ``cpus`` differs from the current run's.
CPU_SENSITIVE_METRICS = frozenset({"parallel_jobs4_efficiency"})


def extract_metrics(payload: dict) -> Dict[str, float]:
    """The gated numbers of one BENCH_explorer.json.

    ``null`` rates (below the bench's minimum-sample threshold) are
    dropped here, so neither a fresh run nor a recorded baseline ever
    gates on noise.
    """
    metrics: Dict[str, float] = {}

    def put(name: str, value) -> None:
        if value is not None:
            metrics[name] = value

    explorers = payload.get("explorers", {})
    bnb = explorers.get("branch_and_bound_incremental", {})
    put("bnb_incremental_nodes_per_sec", bnb.get("nodes_per_sec"))
    microbench = payload.get("evaluation_microbench", {})
    put(
        "microbench_incremental_evals_per_sec",
        microbench.get("incremental_evals_per_sec"),
    )
    sweep_section = payload.get("parallel_jobs_sweep", {})
    for level in sweep_section.get("sweep", ()):
        if level.get("jobs") == 1:
            put(
                "parallel_jobs1_selections_per_sec",
                level.get("selections_per_sec"),
            )
        elif level.get("jobs") == 4 and sweep_section.get(
            "efficiency_meaningful"
        ):
            # Never extracted on a 1-CPU container (the bench marks
            # the whole column meaningless there).
            put(
                "parallel_jobs4_efficiency",
                level.get("parallel_efficiency"),
            )
    tightness = payload.get("bound_tightness", {})
    capacity = tightness.get("capacity_bound", {})
    if capacity.get("optimal"):
        put("bnb_nodes_to_optimal", capacity.get("nodes"))
    adaptive = payload.get("branching_order", {}).get("adaptive", {})
    if adaptive.get("optimal"):
        put("bnb_adaptive_nodes_to_optimal", adaptive.get("nodes"))
    best_first = payload.get("frontier", {}).get("best_first", {})
    if best_first.get("optimal"):
        put("bnb_bestfirst_nodes_to_optimal", best_first.get("nodes"))
    bounded = payload.get("bounded_memory", {})
    capped = bounded.get("capped_best_first", {})
    # Only meaningful when the capped run actually completed under
    # its budget (the bench asserts this; a baseline written by an
    # older bench simply lacks the section).
    if capped and capped.get("nodes", 0) < bounded.get(
        "node_budget", 0
    ):
        put("bnb_capped_best_first_nodes_to_done", capped.get("nodes"))
        put(
            "bnb_capped_best_first_nodes_per_sec",
            capped.get("nodes_per_sec"),
        )
    put(
        "batch_scalar_probes_per_sec",
        payload.get("batch_kernel", {}).get("scalar_probes_per_sec"),
    )
    put(
        "dispatch_index_bytes_per_lineage",
        payload.get("dispatch_volume", {}).get(
            "index_protocol_bytes_per_lineage"
        ),
    )
    serve = payload.get("serve", {})
    put("serve_jobs_per_sec", serve.get("load", {}).get("jobs_per_sec"))
    put("serve_cache_hit_speedup", serve.get("cache_hit_speedup"))
    zoo = payload.get("zoo", {}).get("families", {})
    for family in ("deep_chain", "chained", "hetero_multiproc"):
        cell = (
            zoo.get(family, {})
            .get("configs", {})
            .get("adaptive", {})
        )
        if cell.get("optimal"):
            put(f"zoo_{family}_nodes_to_optimal", cell.get("nodes"))
    return metrics


def recorded_cpus(payload: dict):
    """The CPU count a bench payload was produced on (None if absent)."""
    return payload.get("parallel_jobs_sweep", {}).get("cpus")


def _git(args, default: str) -> str:
    try:
        return (
            subprocess.run(
                ["git", *args],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            or default
        )
    except (OSError, subprocess.CalledProcessError):
        return default


def baseline_name(sequence: int, commit: str, quick: bool) -> str:
    suffix = "-quick" if quick else ""
    return f"{sequence:06d}-{commit[:12]}{suffix}.json"


def write_baseline(
    current: pathlib.Path, history: pathlib.Path
) -> pathlib.Path:
    """Record the current bench results as a committed baseline."""
    payload = json.loads(current.read_text())
    quick = bool(payload.get("quick_mode"))
    commit = _git(["rev-parse", "HEAD"], "unknown")
    sequence = int(_git(["rev-list", "--count", "HEAD"], "0"))
    history.mkdir(exist_ok=True)
    baseline = {
        "commit": commit,
        "sequence": sequence,
        "quick_mode": quick,
        "cpus": recorded_cpus(payload),
        "recorded_unix": int(time.time()),
        "metrics": extract_metrics(payload),
    }
    path = history / baseline_name(sequence, commit, quick)
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    return path


def latest_baseline(
    history: pathlib.Path, quick: bool
) -> Optional[dict]:
    """The newest baseline recorded in the same mode (quick vs full).

    Recency is judged from the baseline *contents* — (sequence,
    recorded_unix) — not the filename: a shallow CI checkout reports
    ``rev-list --count`` as 1, so filenames alone could misorder.
    """
    if not history.is_dir():
        return None
    same_mode = []
    for path in sorted(history.glob("*.json")):
        baseline = json.loads(path.read_text())
        if bool(baseline.get("quick_mode")) == quick:
            baseline["_path"] = str(path)
            same_mode.append(baseline)
    if not same_mode:
        return None
    return max(
        same_mode,
        key=lambda b: (
            int(b.get("sequence", 0)),
            int(b.get("recorded_unix", 0)),
        ),
    )


def check(
    current: pathlib.Path,
    history: pathlib.Path,
    max_regression: float,
) -> int:
    payload = json.loads(current.read_text())
    quick = bool(payload.get("quick_mode"))
    baseline = latest_baseline(history, quick)
    if baseline is None:
        print(
            f"check_regression: no {'quick' if quick else 'full'}-mode "
            f"baseline in {history} — nothing to gate against (record "
            f"one with --write)."
        )
        return 0
    current_metrics = extract_metrics(payload)
    print(
        f"check_regression: comparing against "
        f"{baseline['_path']} (commit {baseline['commit'][:12]})"
    )
    current_cpus = recorded_cpus(payload)
    baseline_cpus = baseline.get("cpus")
    cpus_match = (
        current_cpus is not None and current_cpus == baseline_cpus
    )
    failures = []
    for name, direction in GATED_METRICS.items():
        old = baseline.get("metrics", {}).get(name)
        new = current_metrics.get(name)
        if old is None or new is None:
            continue
        if name in CPU_SENSITIVE_METRICS and not cpus_match:
            print(
                f"  {name:<42} skipped (baseline cpus="
                f"{baseline_cpus}, current cpus={current_cpus}: "
                f"efficiency is not comparable across CPU counts)"
            )
            continue
        ratio = new / old if old else float("inf")
        verdict = "ok"
        if direction == "higher":
            regressed = new * max_regression < old
        else:
            regressed = new > old * max_regression
        if regressed:
            verdict = f"REGRESSION (>{max_regression:g}x, {direction} is "
            verdict += "better)"
            failures.append(name)
        print(f"  {name:<42} {old:>12.1f} -> {new:>12.1f} "
              f"({ratio:.2f}x)  {verdict}")
    if failures:
        print(
            f"check_regression: FAILED — {len(failures)} metric(s) "
            f"regressed more than {max_regression:g}x: "
            f"{', '.join(failures)}"
        )
        return 1
    print("check_regression: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=pathlib.Path,
        default=DEFAULT_CURRENT,
        help="freshly produced BENCH_explorer.json (default: repo root)",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=DEFAULT_HISTORY,
        help="committed baseline directory (default: bench_history/)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when a metric drops below baseline/N (default 2.0)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="record the current results as a new baseline and exit",
    )
    args = parser.parse_args(argv)
    if not args.current.exists():
        print(
            f"check_regression: {args.current} not found — run the "
            f"explorer bench first."
        )
        return 2
    if args.write:
        path = write_baseline(args.current, args.history)
        print(f"check_regression: baseline recorded at {path}")
        return 0
    return check(args.current, args.history, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
