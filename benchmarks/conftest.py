"""Shared benchmark fixtures.

Each ``bench_*`` file regenerates one table or figure of the paper.  The
experiment benchmarks run exactly once per session
(``pedantic(rounds=1)``) and attach their headline numbers to the
pytest-benchmark report via ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import build_scenario


@pytest.fixture(scope="session")
def scenario():
    """The default-size shared scenario (same world as EXPERIMENTS.md)."""
    return build_scenario("default", seed=11)


@pytest.fixture(scope="session")
def small_scenario():
    return build_scenario("small", seed=11)


def run_once(benchmark, fn):
    """Run a heavyweight experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
