"""Real memory pressure: ``max_open`` survives an address-space cap.

The bounded-memory property suite checks eviction *semantics*; this
one checks the claim that motivates the knob — a capped search runs
in bounded memory where the uncapped frontier aborts.  Each scenario
runs in a subprocess that clamps its own address space with
``resource.setrlimit(RLIMIT_AS)`` (after imports and problem
construction, so only the search's allocations count) and then
explores a flat-bound problem whose best-first frontier doubles per
level:

* **uncapped** best-first must die with :exc:`MemoryError` before
  finding a leaf;
* **capped** best-first under the same rlimit must complete, report
  an ``open_high_water`` within the cap, and (because every mapping
  of the flat problem costs the same) still return the optimum —
  with the honesty machinery recording the evicted subtrees.

Both verdicts come from the subprocess's own stdout JSON, so an
interpreter-level abort (exit code, corrupted output) fails loudly
rather than vacuously passing.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not hasattr(__import__("resource"), "RLIMIT_AS")
    if sys.platform != "win32"
    else True,
    reason="resource.RLIMIT_AS not available",
)

#: Address-space headroom granted beyond the subprocess's footprint at
#: the moment the limit is installed.  Small enough that the doubling
#: frontier trips it within a couple hundred thousand entries, large
#: enough that the capped search (frontier <= 64 entries) never gets
#: near it.
HEADROOM_BYTES = 48 * 1024 * 1024

_SCRIPT = r"""
import json
import resource
import sys

from repro.synth.architecture import ArchitectureTemplate
from repro.synth.explorer import BranchBoundExplorer
from repro.synth.library import ComponentLibrary
from repro.synth.mapping import SynthesisProblem

mode = sys.argv[1]
headroom = int(sys.argv[2])

# A flat cost surface: every target is free, so every lower bound is
# identical and best-first degenerates to breadth-first -- the open
# frontier doubles per level and no leaf appears before depth 30.
library = ComponentLibrary()
units = []
for index in range(30):
    name = f"u{index}"
    units.append(name)
    library.component(name, sw_utilization=1 / 64, hw_cost=0)
problem = SynthesisProblem(
    name="pressure",
    units=tuple(units),
    library=library,
    architecture=ArchitectureTemplate(
        max_processors=1, processor_cost=0, processor_capacity=64.0
    ),
)

explorer = BranchBoundExplorer(
    frontier="best-first",
    ordering="static",
    backend="python",
    max_open=64 if mode == "capped" else None,
)

with open("/proc/self/status") as handle:
    vm_size_kb = next(
        int(line.split()[1])
        for line in handle
        if line.startswith("VmSize:")
    )
limit = vm_size_kb * 1024 + headroom
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

# Report outside the handler: while it runs, the live traceback still
# pins the exhausted heap, so allocating there can raise MemoryError
# again.
oom = False
try:
    result = explorer.explore(problem)
except MemoryError:
    oom = True
if oom:
    print(json.dumps({"outcome": "oom"}))
else:
    print(
        json.dumps(
            {
                "outcome": "done",
                "cost": result.cost,
                "optimal": result.optimal,
                "proof_floor": result.proof_floor,
                "open_high_water": result.open_high_water,
                "evicted_subtrees": result.evicted_subtrees,
                "provenance": result.provenance,
            }
        )
    )
"""


def _run(mode):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, mode, str(HEADROOM_BYTES)],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="needs /proc to measure the baseline footprint",
)
def test_capped_search_completes_where_uncapped_aborts():
    capped = _run("capped")
    assert capped.returncode == 0, capped.stderr
    verdict = json.loads(capped.stdout)
    assert verdict["outcome"] == "done"
    assert verdict["cost"] == 0
    assert verdict["open_high_water"] <= 64
    assert verdict["evicted_subtrees"] > 0
    assert verdict["proof_floor"] <= verdict["cost"]
    assert "memory-truncated" not in verdict["provenance"] or not verdict[
        "optimal"
    ]

    uncapped = _run("uncapped")
    assert uncapped.returncode == 0, uncapped.stderr
    assert json.loads(uncapped.stdout) == {"outcome": "oom"}
