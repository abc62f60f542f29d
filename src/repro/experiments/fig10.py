"""Fig 10: controller throughput vs number of Redis writer threads (§6.6).

The paper replays a 24-hour weekday trace ("millions of calls") against
the controller, whose writer threads persist state to Azure Redis with
per-write latencies of 0.3-4.2 ms; one controller instance sustains
1.4x the trace's peak load with 10 threads, scaling with thread count.

Offline substitution: the serving core (``repro.service``, the thread
executor) runs against the latency-simulating in-process store (trip
latencies drawn from the paper's observed range), one worker per writer
thread.  Our synthetic trace carries far fewer calls than Teams', so for
the normalized y-axis we scale the trace's peak event rate up to a
production-volume equivalent (``production_calls_per_day``), as
documented in DESIGN.md; the *shape* — near-linear scaling through the
1.4x mark — is the reproduced result.  The thread count at which 1.4x is
crossed depends on the store protocol (round-trips per call), which the
result states next to the throughput it measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch, event_prefix
from repro.controller.events import peak_event_rate
from repro.experiments.common import Scenario, build_scenario
from repro.service.report import ServiceReport
from repro.service.runtime import ServiceRuntime
from repro.switchboard import Switchboard

DEFAULT_THREADS = (1, 2, 4, 6, 8, 10, 12)


def run(scenario: Optional[Scenario] = None,
        threads: Sequence[int] = DEFAULT_THREADS,
        production_calls_per_day: float = 3_500_000.0,
        store_median_latency_ms: float = 2.0,
        max_events: int = 9_000) -> Dict[str, object]:
    scn = scenario if scenario is not None else build_scenario("default")
    trace = scn.columnar_trace
    demand = trace.to_demand(freeze_after_s=300.0)

    controller = Switchboard(scn.topology, scn.load_model,
                             config=PlannerConfig(max_link_scenarios=0))
    plan = controller.allocation_plan(demand)

    # Serve whole calls only (every served call must settle): the leading
    # calls, in start order, whose events reach the budget.
    batch = build_event_batch(trace)
    served = event_prefix(trace, max_events)
    events = batch if served is trace else build_event_batch(served)

    # Production-equivalent peak: our trace's peak rate scaled by the
    # volume ratio to a Teams-scale day.
    raw_peak = peak_event_rate(batch)
    scale = production_calls_per_day / max(1, trace.n_calls)
    scaled_peak = raw_peak * scale

    results: List[ServiceReport] = []
    latency_spans: List[Tuple[float, float]] = []
    for n in threads:
        runtime = ServiceRuntime.from_config(
            scn.topology, plan,
            ServiceConfig(executor="thread", n_workers=n,
                          kv_latency_median_ms=store_median_latency_ms))
        report = runtime.run(events)
        report.require_exact_accounting()
        results.append(report)
        lo, _median, hi = runtime.store.latency_stats_ms()
        latency_spans.append((lo, hi))

    vs_peak = {r.n_workers: r.events_per_s / scaled_peak for r in results}
    return {
        "results": results,
        "scaled_peak_events_per_s": scaled_peak,
        "throughput_vs_peak": vs_peak,
        # Which store protocol was measured: ops and round-trips per call
        # (one latency sample is recorded per simulated round-trip).
        "kv_ops_per_call": {r.n_workers: r.kv_op_count / r.generated_calls
                            for r in results},
        "kv_trips_per_call": {
            r.n_workers: r.kv_latency_ms["count"] / r.generated_calls
            for r in results},
        "write_latency_range_ms": _latency_range(latency_spans),
        "write_latency_percentiles_ms": {r.n_workers: r.kv_latency_ms
                                         for r in results},
        "threads_for_1_4x": next(
            (n for n, ratio in vs_peak.items() if ratio >= 1.4), None),
    }


def _latency_range(spans: Sequence[Tuple[float, float]]) -> str:
    """The (min, max) store trip latency observed over all runs."""
    return (f"{min(lo for lo, _ in spans):.2f}-"
            f"{max(hi for _, hi in spans):.2f}")


def render(result: Dict[str, object]) -> str:
    lines = ["Fig 10 — controller throughput vs writer threads:"]
    lines.append(f"{'threads':>8}{'events/s':>12}{'x trace peak':>14}"
                 f"{'kv ops/call':>13}{'trips/call':>12}")
    for r in result["results"]:
        n = r.n_workers
        lines.append(
            f"{n:>8}{r.events_per_s:>12.0f}"
            f"{result['throughput_vs_peak'][n]:>14.2f}"
            f"{result['kv_ops_per_call'][n]:>13.2f}"
            f"{result['kv_trips_per_call'][n]:>12.2f}"
        )
    at = result["threads_for_1_4x"]
    lines.append(
        f"1.4x peak reached at {at} threads (paper: 10 threads); "
        f"simulated trip latency {result['write_latency_range_ms']} ms "
        f"observed (paper: 0.3-4.2 ms per write)"
    )
    percentiles = result.get("write_latency_percentiles_ms") or {}
    if percentiles:
        most_threads = max(percentiles)
        pcts = percentiles[most_threads]
        lines.append(
            f"trip latency at {most_threads} threads: "
            + "  ".join(f"p{p:g}={pcts[f'p{p:g}']:.2f}ms"
                        for p in (50, 95, 99)
                        if pcts.get(f"p{p:g}") is not None)
        )
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
