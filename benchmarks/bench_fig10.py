"""Benchmark: regenerate Fig 10 (controller throughput vs threads)."""

from benchmarks.conftest import run_once
from repro.experiments import fig10


def test_fig10(benchmark, scenario):
    result = run_once(
        benchmark,
        lambda: fig10.run(scenario, threads=(1, 2, 4, 8, 10), max_events=6000),
    )
    vs_peak = result["throughput_vs_peak"]
    for r in result["results"]:
        benchmark.extra_info[f"threads_{r.n_workers}"] = round(
            vs_peak[r.n_workers], 2
        )
    percentiles = result["write_latency_percentiles_ms"]
    for label, value in percentiles[max(percentiles)].items():
        if label != "count":
            benchmark.extra_info[f"write_{label}_ms"] = round(value, 3)
    print("\n" + fig10.render(result))
    ratios = [vs_peak[r.n_workers] for r in result["results"]]
    assert ratios[-1] > ratios[0]  # scales with threads
