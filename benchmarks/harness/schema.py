"""Names, units and bounds of every metric and workload — one table.

``BENCHMARK.json`` at the repo root is generated from this module
(:func:`benchmark_json`) and the self-tests assert the two agree, so a
metric cannot be printed under a name the contract does not list.

Every workload prints every metric: a per-layer metric a workload does
not exercise reads ``0`` there (the layer did none of that work), which
is itself the interaction prediction "this layer moves nothing here".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from benchmarks.harness import REPO_ROOT

#: Seconds one run measures (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 10

#: Default workload seed when none is given on the command line.
DEFAULT_SEED = 12

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    """One named measurement; ``bound`` is set on end-to-end metrics only."""

    name: str
    unit: str
    better: str
    doc: str
    bound: Optional[float] = None


#: (name, why) — the names are fixed; later performance claims cite them.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("day-pipeline",
     "Fig 6 end to end (records, forecast, joint provisioning, allocation, "
     "trace, serve): the only workload where every layer works, so work "
     "moved between layers shows"),
    ("plan-sweep",
     "Provisioning does >95% of the work and serving none: one cold and "
     "three warm days of a portfolio scenario sweep, where CSR reuse, RHS "
     "patching or arm deletion must show"),
    ("serve-cpu",
     "Pure-Python per-event serving cost at zero KV latency, thread@1: "
     "selector, ledger, window kernel and report with no sleep to hide "
     "behind; planner and KV contribute nothing"),
    ("serve-kv",
     "The same service layer at 1 ms simulated KV round-trips, thread@2 "
     "(the paper's Fig 10 regime): only trips per event, pipelining and "
     "worker overlap matter"),
    ("storm-drill",
     "The mis-forecast day: three catalog storms served with autoscaler, "
     "packing+defrag and live migration bound, reaching overflow walks and "
     "window-barrier work the steady workloads never do"),
)

#: What a user of the system sees, on every workload, never 0.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "imports + median of repeated input builds + one untimed "
           "warm-up pass", bound=0.25),
    Metric("wall_s", "s", "lower",
           "median wall seconds of one full pass of the workload",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the workload process after the measured passes",
           bound=0.20),
    Metric("ops_per_s", "1/s", "higher",
           "median over passes of core-loop throughput: controller events "
           "per second inside ServiceRuntime.run (plan-sweep: scenario "
           "plans per second inside CapacityPlanner.plan)", bound=0.25),
    Metric("plan_cost", "ratio", "lower",
           "CapacityPlan.cost / LocalityFirst cost on the same demand; "
           "stops a faster planner that simply loosens its gap",
           bound=0.10),
)

#: Single-layer measurements; module names are the layers.  No bounds.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("topology.build_s", "s", "lower", "Topology.default()/small()"),
    Metric("workload.demand_sample_s", "s", "lower",
           "DemandModel.sample/expected per pass"),
    Metric("workload.trace_gen_s", "s", "lower",
           "TraceGenerator.generate_columnar per pass"),
    Metric("workload.trace_gen_calls_per_s", "1/s", "higher",
           "calls generated per second of trace_gen_s"),
    Metric("controller.batch_build_s", "s", "lower",
           "build_event_batch (the lexsort) per pass"),
    Metric("controller.batch_build_events_per_s", "1/s", "higher",
           "events sorted per second of batch_build_s"),
    Metric("records.ingest_s", "s", "lower", "ingest_trace of the history"),
    Metric("records.ingest_calls_per_s", "1/s", "higher",
           "calls ingested per second of ingest_s"),
    Metric("records.latency_est_s", "s", "lower", "estimate_latency_matrix"),
    Metric("records.top_configs_s", "s", "lower",
           "top_configs + cushion_factor + demand_from_database"),
    Metric("forecasting.forecast_s", "s", "lower",
           "CallCountForecaster.forecast_demand"),
    Metric("forecasting.series_count", "count", "lower",
           "per-config series forecast"),
    Metric("provisioning.placement_s", "s", "lower",
           "PlacementData construction"),
    Metric("provisioning.provision_s", "s", "lower",
           "wall seconds inside provision()/CapacityPlanner.plan per pass"),
    Metric("provisioning.assembly_s", "s", "lower",
           "SolveStats.assembly_seconds per pass (a joint plan counted once)"),
    Metric("provisioning.solver_s", "s", "lower",
           "SolveStats.solver_seconds per pass (a joint plan counted once)"),
    Metric("provisioning.unattributed_s", "s", "lower",
           "provision_s - assembly_s - solver_s"),
    Metric("provisioning.lp_rows", "count", "lower", "largest LP solved"),
    Metric("provisioning.lp_cols", "count", "lower", "largest LP solved"),
    Metric("provisioning.lp_nnz", "count", "lower",
           "non-zeros summed over the pass's solves"),
    Metric("provisioning.n_solves", "count", "lower",
           "LP/arm solves per pass"),
    Metric("provisioning.arm.exact.solves", "count", "lower",
           "scenario plans won by the exact (or warm) LP arm per pass"),
    Metric("provisioning.arm.locality.solves", "count", "higher",
           "scenario plans won by the closed-form locality arm per pass"),
    Metric("provisioning.arm.dedup.scenarios", "count", "higher",
           "scenarios answered by structural dedup per pass"),
    Metric("provisioning.warm_cache.dual_hits", "count", "higher",
           "WarmStartCache dual-bound hits per pass"),
    Metric("provisioning.warm_cache.misses", "count", "lower",
           "WarmStartCache seed misses per pass"),
    Metric("provisioning.max_gap", "fraction", "lower",
           "largest certified bound_gap over the pass's scenario plans"),
    Metric("provisioning.degradation_level", "count", "lower",
           "highest degradation-ladder rung used"),
    Metric("provisioning.cold_day_s", "s", "lower",
           "plan-sweep: the cold (exact LP) day"),
    Metric("provisioning.warm_day_s", "s", "lower",
           "plan-sweep: median of the three warm (dual-certified) days"),
    Metric("provisioning.wall_share", "fraction", "lower",
           "provisioning spans' share of the traced pass wall"),
    Metric("allocation.offline_s", "s", "lower", "Switchboard.allocate"),
    Metric("allocation.selector_us_per_call", "us", "lower",
           "RealTimeSelector.process_call, local ledger"),
    Metric("allocation.kv_ledger_us_per_call", "us", "lower",
           "RealTimeSelector.process_call, KV-backed ledger at 0 ms"),
    Metric("kvstore.ops_per_s", "1/s", "higher",
           "InMemoryKVStore mixed ops at 0 ms"),
    Metric("kvstore.sharded_ops_per_s", "1/s", "higher",
           "ShardedKVStore(4) mixed ops at 0 ms"),
    Metric("kvstore.roundtrips_per_event", "ratio", "lower",
           "kv_op_count / events served (exact for a seed)"),
    Metric("kvstore.trip_p50_ms", "ms", "lower",
           "median simulated store round-trip"),
    Metric("kvstore.sim_latency_share", "fraction", "lower",
           "simulated round-trip seconds / (workers x serve seconds)"),
    Metric("service.events_per_s", "1/s", "higher",
           "events / seconds inside ServiceRuntime.run"),
    Metric("service.engine.us_per_event.thread1", "us", "lower",
           "thread executor, 1 worker, 0 ms KV"),
    Metric("service.engine.us_per_event.thread2", "us", "lower",
           "thread executor, 2 workers, 0 ms KV (GIL-bound)"),
    Metric("service.mp.us_per_event.proc1", "us", "lower",
           "process executor, 1 worker; layer-only, noisy on a shared box"),
    Metric("service.mp.us_per_event.proc2", "us", "lower",
           "process executor, 2 workers; layer-only, noisy on a shared box"),
    Metric("service.mp.cpu_s.proc2", "s", "lower",
           "parent + children CPU seconds of the proc2 run"),
    Metric("service.admission_p50_us", "us", "lower",
           "CALL_START to DC chosen, median"),
    Metric("service.admission_p99_us", "us", "lower",
           "CALL_START to DC chosen, p99"),
    Metric("service.settle_p99_ms", "ms", "lower",
           "CONFIG_FREEZE reconciliation, p99"),
    Metric("service.report_s", "s", "lower", "ServiceReport.to_dict"),
    Metric("service.overflow_frac", "fraction", "lower",
           "overflowed / generated calls (exact for a seed)"),
    Metric("packing.us_per_event", "us", "lower",
           "serve with fleet ledger+defrag minus the same serve without"),
    Metric("packing.servers_used_peak", "count", "lower",
           "peak MP servers open"),
    Metric("packing.defrag_moves", "count", "lower",
           "calls moved by the defragmenter"),
    Metric("autoscale.rescales", "count", "lower",
           "rescale events over the pass's storms"),
    Metric("autoscale.barrier_s", "s", "lower",
           "serve with the autoscaler bound minus the same serve without"),
    Metric("migrate.batches", "count", "lower", "migration batch windows"),
    Metric("migrate.live_moves", "count", "higher",
           "calls evacuated live from the lost DC"),
    Metric("migrate.disrupted", "count", "lower",
           "calls a drain found no destination for (bounded, declared)"),
    Metric("migrate.latency_p50_ms", "ms", "lower", "per-move latency"),
    Metric("storms.realize_s", "s", "lower", "StormPlan.realize per pass"),
    Metric("storms.apply_trace_s", "s", "lower",
           "StormPlan.apply_trace per pass"),
    Metric("harness.trace_overhead_frac", "fraction", "lower",
           "(traced - untraced pass wall) / untraced, interleaved passes"),
    Metric("harness.pass_cpu_s", "s", "lower",
           "median CPU seconds (user+sys, process and reaped children) of "
           "an untraced pass — beside wall so sleep never reads as speed"),
    Metric("harness.loadavg_start", "count", "lower",
           "1-minute load average when the run started"),
    Metric("harness.steal_frac", "fraction", "lower",
           "steal / total jiffies over the run, from /proc/stat"),
    Metric("harness.failed_ops_frac", "fraction", "lower",
           "failed / attempted operations"),
)

E2E_NAMES: Tuple[str, ...] = tuple(m.name for m in END_TO_END)
LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BETTER: Dict[str, str] = {m.name: m.better for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, Any]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }


def load_bounds(path: Optional[Path] = None) -> Dict[str, Tuple[float, str]]:
    """``{metric: (bound, better)}`` from ``BENCHMARK.json`` (the file the
    driver reads), so ``compare`` applies the committed bounds."""
    path = path if path is not None else REPO_ROOT / "BENCHMARK.json"
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (float(m["bound"]), m["better"])
            for m in spec["end_to_end"]}


def contract_violations(spec: Mapping[str, Any]) -> List[str]:
    """Every way ``spec`` breaks the ``BENCHMARK.json`` contract."""
    errors: List[str] = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(spec) != expected:
        errors.append(f"keys {sorted(spec)} != {sorted(expected)}")
        return errors
    names: List[str] = []

    def check_metric(m: Mapping[str, Any], keys: set) -> None:
        if set(m) != keys:
            errors.append(f"metric keys {sorted(m)} != {sorted(keys)}")
            return
        names.append(m["name"])
        if not UNIT_RE.match(m["unit"]):
            errors.append(f"bad unit {m['unit']!r} on {m['name']}")
        if m["better"] not in ("lower", "higher"):
            errors.append(f"bad better {m['better']!r} on {m['name']}")

    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2..8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"why of {w['name']} is not one line <= 200 chars")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("need 1..16 end_to_end metrics")
    for m in spec["end_to_end"]:
        check_metric(m, {"name", "unit", "better", "bound"})
        if not 0 < m.get("bound", 0) <= 0.25:
            errors.append(f"bound of {m.get('name')} outside (0, 0.25]")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("need 1..128 per_layer metrics")
    for m in spec["per_layer"]:
        check_metric(m, {"name", "unit", "better"})
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower")
    for name in names:
        if not NAME_RE.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number 1..60")
    if not 1 <= len(spec["paths"]) <= 16:
        errors.append("need 1..16 paths")
    if not 1 <= len(spec["command"]) <= 32 or any(
            len(arg) > 200 for arg in spec["command"]):
        errors.append("command must be 1..32 strings of <= 200 chars")
    for arg in spec["command"]:
        if arg.startswith("/") or ".." in arg.split("/"):
            errors.append(f"command argument {arg!r} leaves the repo")
    if len(json.dumps(spec)) > 64 * 1024:
        errors.append("file larger than 64 KiB")
    return errors
