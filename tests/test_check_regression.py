"""Tests for the bench-history regression gate (benchmarks/)."""

import importlib.util
import json
import pathlib

spec = importlib.util.spec_from_file_location(
    "check_regression",
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)

_summary_spec = importlib.util.spec_from_file_location(
    "bench_summary",
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "bench_summary.py",
)
bench_summary = importlib.util.module_from_spec(_summary_spec)
_summary_spec.loader.exec_module(bench_summary)


def bench_payload(nodes_per_sec=1000.0, quick=False):
    return {
        "quick_mode": quick,
        "explorers": {
            "branch_and_bound_incremental": {
                "nodes_per_sec": nodes_per_sec,
                "evals_per_sec": nodes_per_sec / 10,
            },
        },
        "evaluation_microbench": {
            "incremental_evals_per_sec": 9000.0
        },
        "parallel_jobs_sweep": {
            "sweep": [
                {"jobs": 1, "selections_per_sec": 4.0},
                {"jobs": 4, "selections_per_sec": 8.0},
            ]
        },
        "batch_kernel": {
            "workload": "batch",
            "max_processors": 32,
            "scalar_probes_per_sec": 800000.0,
            "bnb_frontier": "best-first",
            "bnb": {"python": {"probe_cost_per_node_us": 40.0}},
        },
    }


def write_current(tmp_path, payload):
    current = tmp_path / "BENCH_explorer.json"
    current.write_text(json.dumps(payload))
    return current


class TestMetricExtraction:
    def test_extracts_all_gated_metrics(self):
        metrics = check_regression.extract_metrics(bench_payload())
        assert metrics == {
            "bnb_incremental_nodes_per_sec": 1000.0,
            "bnb_incremental_evals_per_sec": 100.0,
            "microbench_incremental_evals_per_sec": 9000.0,
            "parallel_jobs1_selections_per_sec": 4.0,
            "batch_scalar_probes_per_sec": 800000.0,
        }

    def test_missing_sections_are_skipped(self):
        assert check_regression.extract_metrics({}) == {}


class TestScorerGate:
    """The candidate scorer's probe rate gates higher-is-better; the
    retired batch-vs-scalar speedup is neither extracted nor gated
    (old baselines that still carry it are simply not compared)."""

    def test_direction_and_retired_speedup(self):
        gated = check_regression.GATED_METRICS
        assert gated["batch_scalar_probes_per_sec"] == "higher"
        assert "batch_probe_speedup" not in gated
        payload = bench_payload()
        payload["batch_kernel"]["batch_probe_speedup"] = 7.0
        metrics = check_regression.extract_metrics(payload)
        assert "batch_probe_speedup" not in metrics

    def test_probe_rate_collapse_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        fast = write_current(tmp_path, bench_payload())
        check_regression.main(
            ["--current", str(fast), "--history", str(history),
             "--write"]
        )
        payload = bench_payload()
        payload["batch_kernel"]["scalar_probes_per_sec"] = 90000.0
        slow = write_current(tmp_path, payload)
        code = check_regression.main(
            ["--current", str(slow), "--history", str(history)]
        )
        assert code == 1
        assert "batch_scalar_probes_per_sec" in capsys.readouterr().out

    def test_summary_lines(self):
        lines = "\n".join(bench_summary.batch_kernel_lines(bench_payload()))
        assert "candidate scorer (batch, 32 processors)" in lines
        assert "800000.0 probes/s" in lines
        assert "(best-first frontier): 40.0us" in lines
        assert bench_summary.batch_kernel_lines({}) == []


class TestGate:
    def test_no_baseline_passes(self, tmp_path, capsys):
        current = write_current(tmp_path, bench_payload())
        code = check_regression.main(
            ["--current", str(current),
             "--history", str(tmp_path / "bench_history")]
        )
        assert code == 0
        assert "nothing to gate against" in capsys.readouterr().out

    def test_write_then_pass(self, tmp_path):
        current = write_current(tmp_path, bench_payload())
        history = tmp_path / "bench_history"
        assert check_regression.main(
            ["--current", str(current), "--history", str(history),
             "--write"]
        ) == 0
        baselines = list(history.glob("*.json"))
        assert len(baselines) == 1
        recorded = json.loads(baselines[0].read_text())
        assert recorded["metrics"][
            "bnb_incremental_nodes_per_sec"
        ] == 1000.0
        assert check_regression.main(
            ["--current", str(current), "--history", str(history)]
        ) == 0

    def test_over_2x_regression_fails(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        fast = write_current(tmp_path, bench_payload(nodes_per_sec=1000))
        check_regression.main(
            ["--current", str(fast), "--history", str(history),
             "--write"]
        )
        slow = write_current(
            tmp_path, bench_payload(nodes_per_sec=400.0)
        )
        code = check_regression.main(
            ["--current", str(slow), "--history", str(history)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "bnb_incremental_nodes_per_sec" in out

    def test_under_2x_slowdown_passes(self, tmp_path):
        history = tmp_path / "bench_history"
        fast = write_current(tmp_path, bench_payload(nodes_per_sec=1000))
        check_regression.main(
            ["--current", str(fast), "--history", str(history),
             "--write"]
        )
        slower = write_current(
            tmp_path, bench_payload(nodes_per_sec=600.0)
        )
        assert check_regression.main(
            ["--current", str(slower), "--history", str(history)]
        ) == 0

    def test_quick_and_full_baselines_are_separate(self, tmp_path):
        """A quick CI run never gates against a full local baseline."""
        history = tmp_path / "bench_history"
        full = write_current(
            tmp_path, bench_payload(nodes_per_sec=100000.0, quick=False)
        )
        check_regression.main(
            ["--current", str(full), "--history", str(history),
             "--write"]
        )
        quick = write_current(
            tmp_path, bench_payload(nodes_per_sec=100.0, quick=True)
        )
        # 1000x below the full baseline, but it is the first quick-mode
        # record, so there is nothing to gate against
        assert check_regression.main(
            ["--current", str(quick), "--history", str(history)]
        ) == 0

    def test_latest_baseline_wins(self, tmp_path):
        history = tmp_path / "bench_history"
        history.mkdir()
        for sequence, rate in ((1, 10000.0), (2, 400.0)):
            (history / f"{sequence:06d}-abc.json").write_text(
                json.dumps(
                    {
                        "commit": "abc",
                        "sequence": sequence,
                        "quick_mode": False,
                        "metrics": {
                            "bnb_incremental_nodes_per_sec": rate
                        },
                    }
                )
            )
        # 500 would fail vs the seq-1 baseline (10000) but passes vs
        # the newer seq-2 baseline (400)
        current = write_current(
            tmp_path, bench_payload(nodes_per_sec=500.0)
        )
        assert check_regression.main(
            ["--current", str(current), "--history", str(history)]
        ) == 0

    def test_missing_current_reports_error(self, tmp_path):
        assert check_regression.main(
            ["--current", str(tmp_path / "missing.json"),
             "--history", str(tmp_path)]
        ) == 2


def bench_payload_with_extras(nodes_to_optimal=3000.0, optimal=True,
                              bnb_evals_per_sec=None):
    payload = bench_payload()
    payload["explorers"]["branch_and_bound_incremental"][
        "evals_per_sec"
    ] = bnb_evals_per_sec
    payload["bound_tightness"] = {
        "capacity_bound": {
            "nodes": nodes_to_optimal,
            "optimal": optimal,
        }
    }
    return payload


class TestNullAndTinySampleMetrics:
    def test_null_rates_are_not_extracted(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_extras(bnb_evals_per_sec=None)
        )
        assert "bnb_incremental_evals_per_sec" not in metrics
        assert metrics["bnb_incremental_nodes_per_sec"] == 1000.0

    def test_non_optimal_runs_do_not_gate_nodes(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_extras(optimal=False)
        )
        assert "bnb_nodes_to_optimal" not in metrics

    def test_gate_skips_metric_that_went_null(self, tmp_path):
        """A baseline with a real rate never gates a null fresh rate."""
        history = tmp_path / "bench_history"
        with_rate = write_current(
            tmp_path, bench_payload_with_extras(bnb_evals_per_sec=900.0)
        )
        check_regression.main(
            ["--current", str(with_rate), "--history", str(history),
             "--write"]
        )
        without_rate = write_current(
            tmp_path, bench_payload_with_extras(bnb_evals_per_sec=None)
        )
        assert check_regression.main(
            ["--current", str(without_rate), "--history", str(history)]
        ) == 0


def bench_payload_with_parallel(
    cpus=4, efficiency=0.8, meaningful=True
):
    payload = bench_payload()
    payload["parallel_jobs_sweep"] = {
        "cpus": cpus,
        "efficiency_meaningful": meaningful,
        "sweep": [
            {"jobs": 1, "selections_per_sec": 4.0},
            {"jobs": 4, "selections_per_sec": 8.0,
             "parallel_efficiency": efficiency},
        ],
    }
    return payload


class TestCpuAwareEfficiencyGating:
    def test_efficiency_extracted_only_when_meaningful(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_parallel(cpus=4, efficiency=0.8)
        )
        assert metrics["parallel_jobs4_efficiency"] == 0.8
        single = check_regression.extract_metrics(
            bench_payload_with_parallel(
                cpus=1, efficiency=0.09, meaningful=False
            )
        )
        assert "parallel_jobs4_efficiency" not in single

    def test_efficiency_regression_fails_on_same_cpus(
        self, tmp_path, capsys
    ):
        history = tmp_path / "bench_history"
        good = write_current(
            tmp_path, bench_payload_with_parallel(cpus=4, efficiency=0.8)
        )
        check_regression.main(
            ["--current", str(good), "--history", str(history),
             "--write"]
        )
        recorded = json.loads(next(history.glob("*.json")).read_text())
        assert recorded["cpus"] == 4
        bad = write_current(
            tmp_path,
            bench_payload_with_parallel(cpus=4, efficiency=0.2),
        )
        code = check_regression.main(
            ["--current", str(bad), "--history", str(history)]
        )
        assert code == 1
        assert "parallel_jobs4_efficiency" in capsys.readouterr().out

    def test_efficiency_skipped_when_cpus_differ(self, tmp_path, capsys):
        """A 16-core baseline never gates a 4-core run's efficiency."""
        history = tmp_path / "bench_history"
        good = write_current(
            tmp_path,
            bench_payload_with_parallel(cpus=16, efficiency=0.9),
        )
        check_regression.main(
            ["--current", str(good), "--history", str(history),
             "--write"]
        )
        other_box = write_current(
            tmp_path,
            bench_payload_with_parallel(cpus=4, efficiency=0.2),
        )
        code = check_regression.main(
            ["--current", str(other_box), "--history", str(history)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "not comparable across CPU counts" in out


def bench_payload_with_dispatch(index_bytes=90.0):
    payload = bench_payload()
    payload["dispatch_volume"] = {
        "index_protocol_bytes_per_lineage": index_bytes,
        "task_protocol_bytes_per_lineage": 1352.0,
    }
    return payload


class TestDispatchVolumeGate:
    def test_index_bytes_extracted(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_dispatch(index_bytes=90.0)
        )
        assert metrics["dispatch_index_bytes_per_lineage"] == 90.0

    def test_dispatch_blowup_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        small = write_current(
            tmp_path, bench_payload_with_dispatch(index_bytes=90.0)
        )
        check_regression.main(
            ["--current", str(small), "--history", str(history),
             "--write"]
        )
        fat = write_current(
            tmp_path, bench_payload_with_dispatch(index_bytes=900.0)
        )
        code = check_regression.main(
            ["--current", str(fat), "--history", str(history)]
        )
        assert code == 1
        assert "dispatch_index_bytes_per_lineage" in (
            capsys.readouterr().out
        )


def bench_payload_with_branching(nodes=36.0, optimal=True):
    payload = bench_payload()
    payload["branching_order"] = {
        "adaptive": {"nodes": nodes, "optimal": optimal}
    }
    return payload


class TestAdaptiveNodesGate:
    def test_adaptive_nodes_extracted_only_when_proved(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_branching(nodes=36.0)
        )
        assert metrics["bnb_adaptive_nodes_to_optimal"] == 36.0
        truncated = check_regression.extract_metrics(
            bench_payload_with_branching(nodes=36.0, optimal=False)
        )
        assert "bnb_adaptive_nodes_to_optimal" not in truncated

    def test_default_configuration_keys_feed_every_node_gate(self):
        """The default configuration's rows are keyed ``adaptive`` in
        both the branching-order section and the zoo matrix; the
        ``adaptive_dynamic`` key of older benches is no longer read,
        so a renamed key cannot silently drop out of the gate."""
        payload = bench_payload_with_branching(nodes=36.0)
        payload.update(zoo_payload(nodes=897.0))
        metrics = check_regression.extract_metrics(payload)
        assert metrics["bnb_adaptive_nodes_to_optimal"] == 36.0
        assert metrics["zoo_deep_chain_nodes_to_optimal"] == 897.0
        old = bench_payload()
        old["branching_order"] = {
            "adaptive_dynamic": {"nodes": 36.0, "optimal": True}
        }
        cells = zoo_payload()["zoo"]["families"]["deep_chain"]["configs"]
        cells["adaptive_dynamic"] = cells.pop("adaptive")
        old["zoo"] = {"families": {"deep_chain": {"configs": cells}}}
        stale = check_regression.extract_metrics(old)
        assert "bnb_adaptive_nodes_to_optimal" not in stale
        assert "zoo_deep_chain_nodes_to_optimal" not in stale

    def test_fresh_payload_feeds_every_gate(self):
        """The committed ``BENCH_explorer.json`` is the payload the
        current benches write: ``extract_metrics`` finds every gated
        key in it, so no renamed or reshaped section (the jobs sweep
        and serve load record medians of repeats) silently drops out
        of the gate."""
        payload = json.loads(
            (pathlib.Path(__file__).parent.parent / "BENCH_explorer.json")
            .read_text()
        )

        def filled(node):
            # A rate the bench withholds as null (too few samples) is
            # still wired to the gate; only a missing key is not.
            if isinstance(node, dict):
                return {key: filled(value) for key, value in node.items()}
            if isinstance(node, list):
                return [filled(value) for value in node]
            return 1.0 if node is None else node

        metrics = check_regression.extract_metrics(filled(payload))
        assert sorted(metrics) == sorted(check_regression.GATED_METRICS)
        metrics = check_regression.extract_metrics(payload)
        for level in payload["parallel_jobs_sweep"]["sweep"]:
            assert level["repeats"] > 1
        load = payload["serve"]["load"]
        assert load["repeats"] == len(load["jobs_per_sec_runs"]) > 1
        assert metrics["serve_jobs_per_sec"] == load["jobs_per_sec"]
        # The per-backend copy of the gated microbench rate is gone.
        assert "backend_evals_per_sec" not in (
            payload["evaluation_microbench"]
        )

    def test_adaptive_node_blowup_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        tight = write_current(
            tmp_path, bench_payload_with_branching(nodes=36.0)
        )
        check_regression.main(
            ["--current", str(tight), "--history", str(history),
             "--write"]
        )
        loose = write_current(
            tmp_path, bench_payload_with_branching(nodes=300.0)
        )
        code = check_regression.main(
            ["--current", str(loose), "--history", str(history)]
        )
        assert code == 1
        assert "bnb_adaptive_nodes_to_optimal" in (
            capsys.readouterr().out
        )


def bench_payload_with_frontier(nodes=36.0, optimal=True):
    payload = bench_payload()
    payload["frontier"] = {
        "dfs": {"nodes": 41.0, "optimal": True},
        "best_first": {"nodes": nodes, "optimal": optimal},
    }
    return payload


class TestBestFirstNodesGate:
    def test_bestfirst_nodes_extracted_only_when_proved(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_frontier(nodes=36.0)
        )
        assert metrics["bnb_bestfirst_nodes_to_optimal"] == 36.0
        truncated = check_regression.extract_metrics(
            bench_payload_with_frontier(nodes=36.0, optimal=False)
        )
        assert "bnb_bestfirst_nodes_to_optimal" not in truncated
        # only the gated best-first count is extracted, not DFS
        assert not any("dfs" in key for key in metrics)

    def test_bestfirst_is_a_lower_is_better_gate(self):
        assert (
            check_regression.GATED_METRICS[
                "bnb_bestfirst_nodes_to_optimal"
            ]
            == "lower"
        )

    def test_bestfirst_node_blowup_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        tight = write_current(
            tmp_path, bench_payload_with_frontier(nodes=36.0)
        )
        check_regression.main(
            ["--current", str(tight), "--history", str(history),
             "--write"]
        )
        loose = write_current(
            tmp_path, bench_payload_with_frontier(nodes=300.0)
        )
        code = check_regression.main(
            ["--current", str(loose), "--history", str(history)]
        )
        assert code == 1
        assert "bnb_bestfirst_nodes_to_optimal" in (
            capsys.readouterr().out
        )

    def test_bestfirst_node_drop_passes_gate(self, tmp_path):
        history = tmp_path / "bench_history"
        loose = write_current(
            tmp_path, bench_payload_with_frontier(nodes=300.0)
        )
        check_regression.main(
            ["--current", str(loose), "--history", str(history),
             "--write"]
        )
        tight = write_current(
            tmp_path, bench_payload_with_frontier(nodes=30.0)
        )
        assert check_regression.main(
            ["--current", str(tight), "--history", str(history)]
        ) == 0


def bench_payload_with_bounded(nodes, node_budget=20_000):
    payload = bench_payload()
    payload["bounded_memory"] = {
        "node_budget": node_budget,
        "capped_best_first": {"nodes": nodes, "nodes_per_sec": 30000.0},
    }
    return payload


class TestCappedBestFirstGate:
    """The bounded-memory gate reads the capped best-first run, and
    only when it completed under its node budget."""

    def test_extracted_only_when_completed(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_bounded(nodes=1739)
        )
        assert metrics["bnb_capped_best_first_nodes_to_done"] == 1739
        assert metrics["bnb_capped_best_first_nodes_per_sec"] == 30000.0
        exhausted = check_regression.extract_metrics(
            bench_payload_with_bounded(nodes=20_001)
        )
        assert not any("capped" in key for key in exhausted)
        assert check_regression.GATED_METRICS[
            "bnb_capped_best_first_nodes_to_done"
        ] == "lower"

    def test_node_blowup_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        tight = write_current(tmp_path, bench_payload_with_bounded(1739))
        check_regression.main(
            ["--current", str(tight), "--history", str(history),
             "--write"]
        )
        loose = write_current(tmp_path, bench_payload_with_bounded(9000))
        code = check_regression.main(
            ["--current", str(loose), "--history", str(history)]
        )
        assert code == 1
        assert "bnb_capped_best_first_nodes_to_done" in (
            capsys.readouterr().out
        )


class TestLowerIsBetterMetrics:
    def test_nodes_to_optimal_extracted(self):
        metrics = check_regression.extract_metrics(
            bench_payload_with_extras(nodes_to_optimal=2959)
        )
        assert metrics["bnb_nodes_to_optimal"] == 2959

    def test_node_blowup_fails_gate(self, tmp_path, capsys):
        history = tmp_path / "bench_history"
        tight = write_current(
            tmp_path, bench_payload_with_extras(nodes_to_optimal=3000)
        )
        check_regression.main(
            ["--current", str(tight), "--history", str(history),
             "--write"]
        )
        loose = write_current(
            tmp_path, bench_payload_with_extras(nodes_to_optimal=9000)
        )
        code = check_regression.main(
            ["--current", str(loose), "--history", str(history)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "bnb_nodes_to_optimal" in out
        assert "REGRESSION" in out

    def test_node_drop_passes_gate(self, tmp_path):
        history = tmp_path / "bench_history"
        loose = write_current(
            tmp_path, bench_payload_with_extras(nodes_to_optimal=9000)
        )
        check_regression.main(
            ["--current", str(loose), "--history", str(history),
             "--write"]
        )
        tight = write_current(
            tmp_path, bench_payload_with_extras(nodes_to_optimal=900)
        )
        assert check_regression.main(
            ["--current", str(tight), "--history", str(history)]
        ) == 0


class TestBenchSummaryFrontierRows:
    """bench_summary prints the frontier column next to the ordering
    rows so the whole pruning story reads from one table."""

    def payload(self):
        return {
            "workload": {"problem": "throughput"},
            "bound_tightness": {
                "basic_bound": {"nodes": 107485, "optimal": True}
            },
            "branching_order": {
                "static": {"nodes": 2959, "optimal": True},
                "adaptive": {"nodes": 36, "optimal": True},
            },
            "frontier": {
                "best_first": {"nodes": 36, "optimal": True},
            },
        }

    def test_frontier_rows_rendered(self):
        lines = "\n".join(bench_summary.comparison_lines(self.payload()))
        assert "best-first frontier" in lines
        assert "adaptive order (default)" in lines

    def test_missing_frontier_section_still_renders(self):
        payload = self.payload()
        del payload["frontier"]
        lines = "\n".join(bench_summary.comparison_lines(payload))
        assert "best-first frontier" not in lines
        assert "adaptive order (default)" in lines

    def test_rows_proved_at_the_root_render_without_a_ratio(self):
        """A run the root presolve proves has 0 nodes: the row says so
        instead of dividing by it."""
        payload = self.payload()
        payload["branching_order"]["adaptive"]["nodes"] = 0
        lines = bench_summary.comparison_lines(payload)
        (row,) = [line for line in lines if "(default)" in line]
        assert row.endswith("0 proved  (at the root presolve)")


def zoo_payload(nodes=897.0, optimal=True):
    return {
        "zoo": {
            "size": "bench",
            "families": {
                "deep_chain": {
                    "units": 23,
                    "selections": 16,
                    "configs": {
                        "basic": {
                            "cost": 78.0,
                            "nodes": 7550,
                            "optimal": True,
                        },
                        "adaptive": {
                            "cost": 78.0,
                            "nodes": nodes,
                            "optimal": optimal,
                        },
                    },
                },
            },
        },
    }


class TestZooMatrixGate:
    """The zoo nodes-to-optimal metrics gate lower-is-better and are
    skipped on baselines that predate the zoo section."""

    def test_extracted_when_optimal(self):
        metrics = check_regression.extract_metrics(zoo_payload())
        assert metrics["zoo_deep_chain_nodes_to_optimal"] == 897.0

    def test_not_extracted_when_truncated(self):
        metrics = check_regression.extract_metrics(
            zoo_payload(optimal=False)
        )
        assert "zoo_deep_chain_nodes_to_optimal" not in metrics

    def test_absent_section_skipped(self):
        assert (
            "zoo_deep_chain_nodes_to_optimal"
            not in check_regression.extract_metrics(bench_payload())
        )

    def test_gated_direction_is_lower(self):
        assert (
            check_regression.GATED_METRICS[
                "zoo_deep_chain_nodes_to_optimal"
            ]
            == "lower"
        )

    def test_node_count_climb_fails_gate(self, tmp_path):
        history = tmp_path / "hist"
        history.mkdir()
        baseline = dict(zoo_payload(nodes=100.0))
        (history / "000001-aaaa.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "commit": "aaaa",
                    "quick_mode": False,
                    "metrics": check_regression.extract_metrics(
                        baseline
                    ),
                }
            )
        )
        worse = write_current(tmp_path, zoo_payload(nodes=500.0))
        assert (
            check_regression.main(
                ["--current", str(worse), "--history", str(history)]
            )
            == 1
        )
        same = write_current(tmp_path, zoo_payload(nodes=100.0))
        assert (
            check_regression.main(
                ["--current", str(same), "--history", str(history)]
            )
            == 0
        )


class TestBenchSummaryZooRows:
    def test_zoo_rows_rendered(self):
        lines = "\n".join(bench_summary.zoo_lines(zoo_payload()))
        assert "zoo matrix" in lines
        assert "deep_chain" in lines
        assert "adaptive=897" in lines

    def test_absent_zoo_section_renders_nothing(self):
        assert bench_summary.zoo_lines({}) == []
