"""Launch ``python -m repro serve`` for the ``service-mix`` workload.

Usage (from the repository root)::

    python3 perfbench/serve.py [--trace-out PATH] -- <serve arguments>

Runs the program's own serve entry point in this process.  With
``--trace-out`` it first installs the benchmark's layer wrappers
(:mod:`tracer`) and, once the server has shut down on SIGINT, writes the
per-layer totals, the recorded spans and the count of Python warnings
raised while serving to ``PATH``.  Warnings are captured rather than
printed in both modes.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.experiments.cli import main as repro_main

    # The benchmark stops the server with SIGINT.  A process started in
    # the background by a shell inherits SIGINT as ignored, and Python
    # then installs no KeyboardInterrupt handler, so restore it here.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer, service=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out, {"py_warnings": len(caught)})
    return code


if __name__ == "__main__":
    sys.exit(main())
