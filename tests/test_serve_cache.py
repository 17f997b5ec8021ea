"""Canonical hashing and result-cache semantics of the serve layer."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import figure2
from repro.serve.cache import ResultCache
from repro.serve.canonical import (
    architecture_payload,
    canonical_json,
    content_hash,
    family_key,
    family_payload,
    problem_payload,
    space_payload,
)
from repro.serve.jobs import (
    JobSpec,
    JobValidationError,
    build_workload,
    job_result_payload,
    mapping_from_payload,
    mapping_payload,
)
from repro.synth.mapping import Mapping, Target

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def test_canonical_json_is_key_order_invariant():
    a = {"b": 1, "a": {"y": 2.5, "x": [1, 2]}}
    b = {"a": {"x": [1, 2], "y": 2.5}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert content_hash(a) == content_hash(b)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_family_key_ignores_cosmetic_names():
    library = figure2.table1_library()
    architecture = figure2.table1_architecture()
    import dataclasses

    renamed = dataclasses.replace(architecture, name="something-else")
    assert family_key(library, architecture) == family_key(library, renamed)
    assert architecture_payload(architecture) == architecture_payload(
        renamed
    )


def test_family_key_tracks_content():
    library = figure2.table1_library()
    architecture = figure2.table1_architecture()
    import dataclasses

    changed = dataclasses.replace(
        architecture, processor_capacity=architecture.processor_capacity / 2
    )
    assert family_key(library, architecture) != family_key(library, changed)
    assert family_key(library, architecture) != family_key(
        library, architecture, use_exclusion=False
    )


def test_problem_payload_excludes_name_includes_fixed():
    family = figure2.table1_family()
    space = figure2.variant_space()
    selection = space.selection_at(0)
    graph_a = space.vgraph.bind(selection, name="a")
    graph_b = space.vgraph.bind(selection, name="b")
    pa = problem_payload(family.problem_for(graph_a))
    pb = problem_payload(family.problem_for(graph_b))
    assert pa == pb
    unit = pa["units"][0]
    fixed = family.problem_for(graph_a, fixed={unit: Target.hw()})
    assert problem_payload(fixed) != pa


def test_space_payload_is_axis_sized_and_deterministic():
    space = figure2.variant_space()
    payload = space_payload(space)
    assert canonical_json(payload) == canonical_json(space_payload(space))
    assert set(payload) == {"groups", "interfaces"}


# ----------------------------------------------------------------------
# Job keys
# ----------------------------------------------------------------------
def test_job_key_invariant_under_spec_spelling():
    # Defaults spelled out vs omitted must hash identically.
    implicit = build_workload(JobSpec.from_payload({}))
    explicit = build_workload(
        JobSpec.from_payload(
            {
                "space": {"kind": "figure2"},
                "explorer": {"name": "bnb", "ordering": "adaptive"},
                "warm_start": True,
            }
        )
    )
    assert implicit.job_key == explicit.job_key


def test_job_key_tracks_explorer_config_and_target():
    base = build_workload(JobSpec.from_payload({}))
    other_explorer = build_workload(
        JobSpec.from_payload({"explorer": {"name": "exhaustive"}})
    )
    assert base.job_key != other_explorer.job_key
    space = figure2.variant_space()
    selection = space.selection_at(0)
    single = build_workload(
        JobSpec.from_payload({"selection": dict(selection)})
    )
    assert base.job_key != single.job_key
    assert base.family_key == single.family_key


def test_job_key_stable_across_processes():
    payload = {
        "space": {"kind": "generated", "seed": 3, "n_variants": 3},
        "explorer": {"name": "bnb", "frontier": "best-first"},
    }
    local = build_workload(JobSpec.from_payload(payload)).job_key
    script = (
        "import json, sys\n"
        "from repro.serve.jobs import JobSpec, build_workload\n"
        f"payload = json.loads({json.dumps(payload)!r})\n"
        "print(build_workload(JobSpec.from_payload(payload)).job_key)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == local


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "payload",
    [
        {"bogus": 1},
        {"space": {"kind": "nope"}},
        {"space": {"kind": "generated", "n_variants": 0}},
        {"space": {"kind": "figure2", "seed": 1}},
        {"explorer": {"name": "racing"}},
        {"explorer": {"name": "bnb", "frontier": "zigzag"}},
        {"explorer": {"name": "bnb", "node_budget": 0}},
        {"selection": {"I1": 7}},
        {"selection": {}},
        {"lineage_size": 0},
        {"time_budget": -1},
        {"warm_start": "yes"},
        # Removed explorers and their knob.
        {"explorer": {"name": "annealing"}},
        {"explorer": {"name": "portfolio"}},
        {"explorer": {"iterations": 4000}},
        # Booleans are not integers (JSON true would parse as 1).
        {"explorer": {"node_budget": True}},
        {"explorer": {"max_open": True}},
        {"explorer": {"seed": True}},
        {"lineage_size": True},
        {"priority": True},
        {"space": {"kind": "generated", "seed": True}},
        {"explorer": {"dynamic_pool": 1}},
        # Non-finite numbers (json.loads accepts NaN and Infinity) must
        # be refused before canonical_json (allow_nan=False) sees them.
        {"space": {"kind": "generated", "processor_capacity": math.nan}},
        {"space": {"kind": "generated", "processor_cost": math.inf}},
        {"space": {"kind": "generated", "max_processors": -math.inf}},
        {"space": {"kind": "generated", "memory_capacity": math.nan}},
        {"explorer": {"time_budget": math.inf}},
        {"time_budget": math.inf},
        {"time_budget": 10**400},  # an int no float can hold
        "not an object",
        # The removed kernel option, in every shape it once accepted.
        {"explorer": {"backend": None}},
        {"explorer": {"backend": "python"}},
    ],
)
def test_spec_validation_rejects(payload):
    with pytest.raises(JobValidationError):
        JobSpec.from_payload(payload)


def test_explorer_seed_is_accepted_and_keyed():
    # Read by no explorer, but accepted: clients vary it to make a
    # fresh cache-missing job key.
    base = build_workload(JobSpec.from_payload({}))
    seeded = build_workload(JobSpec.from_payload({"explorer": {"seed": 5}}))
    assert seeded.job_key != base.job_key
    assert build_workload(
        JobSpec.from_payload({"explorer": {"seed": 0}})
    ).job_key == base.job_key


def test_workload_rejects_unknown_selection():
    with pytest.raises(JobValidationError):
        build_workload(
            JobSpec.from_payload({"selection": {"nosuch": "cluster"}})
        )
    space = figure2.variant_space()
    iface = sorted(space.vgraph.interfaces)[0]
    with pytest.raises(JobValidationError):
        build_workload(
            JobSpec.from_payload({"selection": {iface: "nosuch"}})
        )


# ----------------------------------------------------------------------
# Mapping round-trip + result payload shape
# ----------------------------------------------------------------------
def test_mapping_payload_round_trip():
    mapping = Mapping(
        {"u1": Target.hw(), "u2": Target.sw(0), "u3": Target.sw(2)}
    )
    payload = mapping_payload(mapping)
    assert payload == {"u1": "hw", "u2": "sw:0", "u3": "sw:2"}
    back = mapping_from_payload(payload)
    assert dict(back.assignment) == dict(mapping.assignment)
    with pytest.raises(JobValidationError):
        mapping_from_payload({"u": "fpga"})


def test_result_payload_has_no_timing_fields():
    from repro.synth.methods import explore_space

    family = figure2.table1_family()
    space = figure2.variant_space()
    outcome = explore_space(family, space)
    payload = job_result_payload(outcome.results)
    text = canonical_json(payload)  # must be serializable
    assert "seconds" not in text and "time" not in text
    assert payload["feasible_count"] == len(payload["selections"])
    assert payload["best"]["cost"] == min(
        s["cost"] for s in payload["selections"]
    )


# ----------------------------------------------------------------------
# Exact-store admission (equal keys -> equal bytes)
# ----------------------------------------------------------------------
def test_result_is_cacheable_gate():
    from repro.serve.engine import result_is_cacheable

    free = JobSpec.from_payload({})
    job_budget = JobSpec.from_payload({"time_budget": 5.0})
    explorer_budget = JobSpec.from_payload(
        {"explorer": {"time_budget": 5.0}}
    )
    complete = {"selections": [{"optimal": True}, {"optimal": True}]}
    truncated = {"selections": [{"optimal": True}, {"optimal": False}]}

    # No wall clock in play: even non-optimal (node-budget truncated)
    # results are deterministic, hence cacheable.
    assert result_is_cacheable(free, truncated, warm_seeded=False)
    # A budgeted run is cacheable only when it still proved
    # optimality everywhere (bytes equal the budget-free search).
    assert result_is_cacheable(job_budget, complete, warm_seeded=False)
    assert not result_is_cacheable(job_budget, truncated, warm_seeded=False)
    assert not result_is_cacheable(
        explorer_budget, truncated, warm_seeded=False
    )
    # Warm-adjacent seeds leak daemon history into the bytes.
    assert not result_is_cacheable(free, complete, warm_seeded=True)


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
def test_exact_store_lru_eviction_and_counters():
    cache = ResultCache(max_entries=2)
    cache.store("a", "ra")
    cache.store("b", "rb")
    assert cache.lookup("a") == "ra"  # refreshes a
    cache.store("c", "rc")  # evicts b (least recent)
    assert cache.lookup("b") is None
    assert cache.lookup("a") == "ra"
    assert cache.lookup("c") == "rc"
    assert cache.evictions == 1
    assert cache.exact_hits == 3 and cache.exact_misses == 1
    assert 0 < cache.hit_rate < 1


def test_warm_store_keeps_only_improvements():
    cache = ResultCache()
    assert cache.warm_seed("f") is None
    assert cache.offer_warm("f", 10.0, {"u": "hw"})
    assert not cache.offer_warm("f", 12.0, {"u": "sw:0"})
    assert cache.offer_warm("f", 8.0, {"u": "sw:0"})
    cost, mapping = cache.warm_seed("f")
    assert cost == 8.0 and mapping == {"u": "sw:0"}
    assert cache.warm_hits == 1
    assert cache.stats()["warm_families"] == 1
