#!/usr/bin/env python3
"""Script entry point: ``python3 benchmarks/harness/run.py``.

The form ``BENCHMARK.json`` names — a path inside the benchmark's own
directory.  Run as a script, Python puts this directory (not the repo
root) on ``sys.path``, so the root takes its place before the package is
imported; ``python -m benchmarks.harness`` from the root is equivalent.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Replace the script's own directory: its module names (``schema``,
    # ``spans``, …) must only ever be importable as package members.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.harness.cli import entry
    sys.exit(entry())
