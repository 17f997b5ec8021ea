"""Determinism regression: exact searches are byte-reproducible.

``BranchBoundExplorer`` on the DFS and best-first frontiers must yield
byte-identical ``ExplorationResult`` fields — cost, mapping, node and
evaluation counts, certificate, provenance — across repeated
in-process runs *and* across separate process invocations (fresh hash
randomization, fresh float state).  The integer kernel makes every
bound and cost order-independent, and the frontiers break ties on
insertion order, never on set or dict hashing.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.synth.explorer import BranchBoundExplorer, ExhaustiveExplorer
from repro.zoo import generate

#: A scenario whose searches take tens to hundreds of nodes, so tie
#: order has room to matter.
FAMILY, SEED, SIZE = "memory_ladder", 3, "medium"
FRONTIERS = ("dfs", "best-first")


def _problem(size=SIZE):
    return generate(FAMILY, SEED, size).joint_problem()


def _digest(result):
    payload = repr(
        (
            result.cost,
            result.nodes_explored,
            result.evaluations,
            result.optimal,
            result.proof_floor,
            result.provenance,
            sorted(
                (unit, repr(target))
                for unit, target in result.mapping.assignment.items()
            ),
            result.evaluation,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Mirrors _problem()/_digest() above — keep the two in sync.
_SUBPROCESS_SCRIPT = f"""
import hashlib
from repro.synth.explorer import BranchBoundExplorer
from repro.zoo import generate

problem = generate({FAMILY!r}, {SEED}, {SIZE!r}).joint_problem()
for frontier in {FRONTIERS!r}:
    result = BranchBoundExplorer(frontier=frontier).explore(problem)
    payload = repr((result.cost, result.nodes_explored, result.evaluations,
                    result.optimal, result.proof_floor, result.provenance,
                    sorted((unit, repr(target)) for unit, target
                           in result.mapping.assignment.items()),
                    result.evaluation))
    print(hashlib.sha256(payload.encode("utf-8")).hexdigest())
"""


class TestSearchDeterminism:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_repeated_runs_are_byte_identical(self, frontier):
        problem = _problem()
        first = BranchBoundExplorer(frontier=frontier).explore(problem)
        second = BranchBoundExplorer(frontier=frontier).explore(problem)
        assert first.optimal
        assert _digest(first) == _digest(second)
        assert first.evaluation == second.evaluation
        assert dict(first.mapping.assignment) == dict(
            second.mapping.assignment
        )

    def test_incremental_matches_reference_enumeration(self):
        # Enumeration visits the same leaves in the same order on both
        # states, so everything down to the first-found optimum agrees.
        problem = _problem("small")
        incremental = ExhaustiveExplorer().explore(problem)
        reference = ExhaustiveExplorer(incremental=False).explore(problem)
        assert _digest(incremental) == _digest(reference)

    def test_process_invocations_are_byte_identical(self):
        problem = _problem()
        expected = [
            _digest(BranchBoundExplorer(frontier=frontier).explore(problem))
            for frontier in FRONTIERS
        ]
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        # Unset so every child draws its own random hash seed.
        env.pop("PYTHONHASHSEED", None)
        for _ in range(2):
            output = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.split()
            assert output == expected
