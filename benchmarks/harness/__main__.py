"""``python -m benchmarks.harness`` — see :mod:`benchmarks.harness.cli`."""

import sys

from benchmarks.harness.cli import entry

if __name__ == "__main__":
    sys.exit(entry())
