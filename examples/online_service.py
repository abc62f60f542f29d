#!/usr/bin/env python3
"""The online admission service end to end: day -> plan -> runtime.

Cuts a high-volume stretch of controller events, at whole calls, from a
sampled day of the workload model, provisions capacity and an
allocation plan for it, then serves
the event stream through :class:`~repro.service.ServiceRuntime` —
printing the ServiceReport (throughput, p50/p95/p99 admission latency,
exact call accounting) and optionally writing it as JSON for CI
artifacts.  ``--executor process`` serves the same load through the
multiprocess engine (one OS process per worker over shared-memory
columnar segments) with identical accounting.

Run:  python examples/online_service.py [--events N] [--workers N]
      [--shards N] [--executor thread|process] [--kv-latency-ms X]
      [--json PATH] [--smoke]

``--smoke`` exits non-zero unless accounting is exact and the
end-of-day store holds no call state (no ``call:`` key, every
``dcload:`` counter zero).
"""

import argparse
import json
import sys

from repro import PlannerConfig, Switchboard, Topology
from repro.config import SERVICE_EXECUTORS, ServiceConfig
from repro.controller import build_event_batch, event_prefix, peak_event_rate
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.experiments.common import Scenario
from repro.service import ServiceRuntime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the online admission service on generated load.")
    parser.add_argument("--events", type=int, default=20_000,
                        help="approximate number of controller events")
    parser.add_argument("--workers", type=int, default=4,
                        help="admission workers (threads or processes)")
    parser.add_argument("--shards", type=int, default=4,
                        help="kvstore shards")
    parser.add_argument("--executor", default="thread",
                        choices=SERVICE_EXECUTORS,
                        help="execution model: in-process worker threads "
                             "or one OS process per worker")
    parser.add_argument("--kv-latency-ms", type=float, default=None,
                        help="simulate this median per-op KV latency")
    parser.add_argument("--json", type=str, default=None,
                        help="write the ServiceReport to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: exit non-zero unless call "
                             "accounting is exact and the end-of-day "
                             "store holds no call state")
    args = parser.parse_args(argv)

    topology = Topology.default()
    day = Scenario.build(topology, n_configs=60, calls_per_slot=80.0, seed=33)
    trace = event_prefix(day.columnar_trace, args.events)
    events = build_event_batch(trace)
    print(f"Load: {trace.n_calls} calls -> {len(events)} events "
          f"(peak {peak_event_rate(events):.1f} events/s)")

    # Plan for exactly the calls served, at their freeze-time configs.
    demand = trace.to_demand(freeze_after_s=DEFAULT_FREEZE_WINDOW_S)
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=False)
    plan = controller.allocate(demand, capacity).plan

    config = ServiceConfig(n_shards=args.shards, n_workers=args.workers,
                           kv_latency_median_ms=args.kv_latency_ms,
                           kv_latency_seed=5, executor=args.executor)
    runtime = ServiceRuntime.from_config(topology, plan, config)
    report = runtime.run(events)

    print()
    print(report.summary())

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"\nreport written to {args.json}")

    if args.smoke:
        report.require_exact_accounting()
        print("\nsmoke: exact accounting verified "
              f"({report.generated_calls} calls, "
              f"{report.events_processed} events, 0 dropped)")
        # Every call has hung up by the end of the day, so a call key or
        # a non-zero load counter left in the store is a queued write
        # that never left its shard's queue.
        state = runtime.store_state()
        calls = [key for key in state if key.startswith("call:")]
        loads = {key: value for key, value in state.items()
                 if key.startswith("dcload:")}
        loaded = {key: value for key, value in loads.items() if value != 0}
        if calls or loaded:
            print(f"smoke: FAILED: end-of-day store holds {len(calls)} call "
                  f"keys and non-zero load counters {loaded}")
            return 1
        print(f"smoke: end-of-day store holds no call key and "
              f"{len(loads)} zero load counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
