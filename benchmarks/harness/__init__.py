"""The repo's one benchmark harness: five named workloads, one schema.

``python -m benchmarks.harness`` (or ``python3 benchmarks/harness/run.py``,
the form ``BENCHMARK.json`` names) runs ``day-pipeline``, ``plan-sweep``,
``serve-cpu``, ``serve-kv`` and ``storm-drill``, checks that every output
is correct, and prints every metric by name with its unit.  See
``README.md`` beside this file for the workload and metric tables.

The package imports only ``repro``'s public modules, numpy and the
stdlib — nothing from ``benchmarks/bench_*.py`` — so those scripts stay
editable and deletable by later PRs.

Importing this package puts the checkout's ``src/`` first on ``sys.path``:
the benchmark measures the source tree it sits in, never an installed
copy of ``repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout this harness measures (``benchmarks/harness/../..``).
REPO_ROOT = Path(__file__).resolve().parents[2]

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Version of every JSON file the harness writes.  Bump when a key is
#: added, removed, or changes meaning, so two result files are diffable
#: only when they agree on it.
SCHEMA_VERSION = 1
