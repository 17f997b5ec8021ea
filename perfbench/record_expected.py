"""Re-record the expected-output files under ``perfbench/expected/``.

Run from the repository root::

    python3 perfbench/record_expected.py

The files are a regression reference: they hold what the engine
computed when they were recorded, not an independent ground truth.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.record_expected()
