"""Start ``repro serve`` with the layer wrappers installed.

The traced serve run starts the daemon through this launcher instead
of ``python -m repro serve``: it installs the wrappers of
``tracing.py`` in the daemon's own process, runs the unmodified
``serve_main`` until SIGTERM drains it, then writes the recorded spans
to ``--trace-out``.  The load generator stays in another process.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--state-dir", default=None)
    args = parser.parse_args()

    # Import the daemon first: its modules bind names such as
    # ``run_lineage`` at import time, and the wrappers replace exactly
    # those bindings.
    from repro.serve.http import serve_main

    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer, search=True, space=True, serve=True):
        code = serve_main(
            host=args.host,
            port=args.port,
            workers=args.workers,
            state_dir=args.state_dir,
        )
    tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
