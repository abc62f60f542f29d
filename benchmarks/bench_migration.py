"""Benchmark: regenerate §6.4 (migration frequency, served live)."""

from benchmarks.conftest import run_once
from repro.experiments import migration


def test_migration(benchmark, scenario):
    result = run_once(benchmark, lambda: migration.run(scenario))
    for arm in ("sb", "lf"):
        benchmark.extra_info[f"{arm}_migration_rate"] = round(
            result[f"{arm}_migration_rate"], 4
        )
    print("\n" + migration.render(result))
    assert result["sb_migration_rate"] < 0.12
    assert result["live_path"]
