"""Runs one workload in this process and assembles its result row.

An end-to-end run (``trace=False``) sets the workload up several times,
warms it with one untimed pass, then measures whole passes until
``seconds`` have elapsed; every reported time is the median over those
passes.  A traced run (``trace=True``) interleaves untraced and traced
passes of the same inputs (ABAB), derives the per-layer metrics from the
spans and the objects the passes returned, then runs the workload's
layer probes; ``harness.trace_overhead_frac`` is the difference between
the two kinds of pass.  End-to-end metrics never come from traced passes.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from typing import Any, Dict, List

from benchmarks.harness import REPO_ROOT, SCHEMA_VERSION, measure, schema
from benchmarks.harness.measure import Stopwatch, summarize
from benchmarks.harness.spans import (NullTracer, Tracer,
                                      layer_self_seconds)
from benchmarks.harness.workloads import PassResult, Workload, registry

#: Fewest measured passes (or untraced/traced pairs) a run reports on.
MIN_PASSES = 3
MIN_PAIRS = 2
#: Times a run repeats its set-up; ``setup_s`` carries the median.
SETUP_REPEATS = 3

#: ``<rate metric>: <span whose work PassResult.counts tallies>``.
RATES = {
    "workload.trace_gen_calls_per_s": "workload.trace_gen",
    "controller.batch_build_events_per_s": "controller.batch_build",
    "records.ingest_calls_per_s": "records.ingest",
}

#: Where a traced run leaves its spans.
OUT_DIR = REPO_ROOT / "bench_out"


def environment() -> Dict[str, Any]:
    """What the numbers were measured on, embedded in every row."""
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read off ``.git`` (no subprocess); a
    checkout that is not a git repository reports ``unknown``."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _metric(name: str, summary: Dict[str, float]) -> Dict[str, Any]:
    return {"unit": schema.UNITS[name], **summary}


def _point(name: str, value: float) -> Dict[str, Any]:
    return _metric(name, {"value": float(value), "q1": float(value),
                          "q3": float(value), "n": 1})


class _Run:
    """Shared bookkeeping of one workload run."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.started = time.perf_counter()
        self.loadavg = measure.loadavg_1m()
        self.jiffies = measure.proc_stat_jiffies()
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def count(self, result: PassResult) -> None:
        self.attempted += result.attempted
        self.failed += result.failed

    def row(self, trace: bool, passes: int,
            metrics: Dict[str, Dict[str, Any]],
            detail: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "workload": self.workload.name,
            "trace": int(trace),
            "correct": not self.violations,
            "violations": self.violations,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "passes": passes,
            "run_s": time.perf_counter() - self.started,
            "metrics": metrics,
            "detail": detail,
            "config": self.workload.config(),
            "env": environment(),
        }


def run_end_to_end(workload: Workload, seconds: float,
                   import_s: float) -> Dict[str, Any]:
    run = _Run(workload)
    null = NullTracer()
    repeats = 1 if workload.smoke else SETUP_REPEATS
    build_s: List[float] = []
    for _ in range(repeats):
        with Stopwatch() as watch:
            workload.build(null)
        build_s.append(watch.wall_s)
    with Stopwatch() as warm:
        workload.run_pass(null, 0)
    setup_s = import_s + statistics.median(build_s) + warm.wall_s

    min_passes = 1 if workload.smoke else MIN_PASSES
    watches: List[Stopwatch] = []
    results: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_passes or time.perf_counter() < deadline:
        # Collect the previous pass's garbage outside the stopwatch, so a
        # full collection does not land in a random later pass and peak
        # RSS does not depend on when the collector last ran.
        gc.collect()
        with Stopwatch() as watch:
            result = workload.run_pass(null, len(results))
        watches.append(watch)
        results.append(result)
        run.count(result)
    rss_mb = measure.peak_rss_mb()
    plan_costs = [result.plan_cost() for result in results]
    run.violations += workload.check()

    metrics = {
        "setup_s": _point("setup_s", setup_s),
        "wall_s": _metric("wall_s", summarize(
            [w.wall_s for w in watches])),
        "peak_rss_mb": _point("peak_rss_mb", rss_mb),
        "ops_per_s": _metric("ops_per_s", summarize(
            [r.ops / r.core_s for r in results])),
        "plan_cost": _metric("plan_cost", summarize(plan_costs)),
    }
    detail = {"pass_wall_s": [w.wall_s for w in watches],
              "pass_cpu_s": [w.cpu_s for w in watches],
              "import_s": import_s, "build_s": build_s,
              "warmup_s": warm.wall_s, "loadavg_start": run.loadavg,
              "steal_frac": measure.steal_frac(
                  run.jiffies, measure.proc_stat_jiffies())}
    return run.row(False, len(results), metrics, detail)


def run_traced(workload: Workload, seconds: float) -> Dict[str, Any]:
    run = _Run(workload)
    null = NullTracer()
    tracer = Tracer()            # run 0 is the set-up
    workload.build(tracer)
    workload.run_pass(null, 0)   # warm-up

    min_pairs = 1 if workload.smoke else MIN_PAIRS
    plain_s: List[float] = []
    plain_cpu_s: List[float] = []
    traced_s: List[float] = []
    traced: Dict[int, PassResult] = {}
    # Half the budget goes to the interleaved pairs, half to the probes.
    deadline = time.perf_counter() + seconds / 2.0
    while len(traced) < min_pairs or time.perf_counter() < deadline:
        index = len(traced)
        gc.collect()
        with Stopwatch() as watch:
            plain = workload.run_pass(null, index)
        plain_s.append(watch.wall_s)
        plain_cpu_s.append(watch.cpu_s)
        gc.collect()
        run_id = tracer.new_run()
        with Stopwatch() as watch, tracer.span("pass"):
            spanned = workload.run_pass(tracer, index)
        traced_s.append(watch.wall_s)
        traced[run_id] = spanned
        run.count(plain)
        run.count(spanned)
        # The traced pass replays the untraced one through public
        # calls: it must price the same plan and do the same work.
        a, b = plain.plan_cost(), spanned.plan_cost()
        if abs(a - b) > 1e-9 * max(abs(a), 1.0) \
                or plain.attempted != spanned.attempted:
            run.violations.append(
                f"traced pass {index} diverged from the untraced pass: "
                f"plan_cost {b} vs {a}, attempted {spanned.attempted} vs "
                f"{plain.attempted}")

    values = layer_values(tracer, traced)
    budget = max(seconds - (time.perf_counter() - run.started), 1.0)
    values.update(workload.probes(budget))
    run.violations += workload.check()

    untraced = statistics.median(plain_s)
    values.update({
        "harness.trace_overhead_frac":
            (statistics.median(traced_s) - untraced) / untraced,
        "harness.pass_cpu_s": statistics.median(plain_cpu_s),
        "harness.loadavg_start": run.loadavg,
        "harness.steal_frac": measure.steal_frac(
            run.jiffies, measure.proc_stat_jiffies()),
        "harness.failed_ops_frac": run.failed / max(run.attempted, 1),
    })
    unknown = sorted(set(values) - set(schema.LAYER_NAMES))
    if unknown:
        raise KeyError(f"layer metrics not in the schema: {unknown}")
    metrics = {name: _point(name, values.get(name, 0.0))
               for name in schema.LAYER_NAMES}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.json"
    with open(spans_path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION,
                   "workload": workload.name, "seed": workload.seed,
                   "spans": tracer.to_json()}, fh)
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "spans_file": str(spans_path.relative_to(REPO_ROOT))}
    return run.row(True, len(traced), metrics, detail)


def layer_values(tracer: Tracer,
                 traced: Dict[int, PassResult]) -> Dict[str, float]:
    """Per-layer metrics from the spans and the traced passes' returns.

    ``<span>_s`` is the median of the span's seconds over the runs that
    opened it (set-up is run 0); a rate divides the work a pass tallied
    by that pass's span; readings off returned objects take the median
    over the traced passes.
    """
    values: Dict[str, float] = {}
    for name in schema.LAYER_NAMES:
        if name.endswith("_s"):
            seconds = tracer.durations(name[:-2])
            if seconds:
                values[name] = statistics.median(seconds.values())
    for rate, span in RATES.items():
        seconds = tracer.durations(span)
        samples = [result.counts[span] / seconds[run_id]
                   for run_id, result in traced.items()
                   if span in result.counts and seconds.get(run_id)]
        if samples:
            values[rate] = statistics.median(samples)
    keys = {key for result in traced.values() for key in result.layer}
    for key in keys:
        values[key] = statistics.median(
            result.layer[key] for result in traced.values()
            if key in result.layer)
    if "provisioning.provision_s" in values:
        values["provisioning.unattributed_s"] = (
            values["provisioning.provision_s"]
            - values.get("provisioning.assembly_s", 0.0)
            - values.get("provisioning.solver_s", 0.0))
    shares = []
    for run_id in traced:
        spans = [s for s in tracer.spans if s.run_id == run_id]
        total = next(s.duration for s in spans if s.name == "pass")
        own = layer_self_seconds(spans).get("provisioning")
        shares.append(own[0] / total if own else 0.0)
    values["provisioning.wall_share"] = statistics.median(shares)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, import_s: float) -> Dict[str, Any]:
    workload = registry()[name](seed, smoke=smoke)
    if trace:
        return run_traced(workload, seconds)
    return run_end_to_end(workload, seconds, import_s)


def contract_line(row: Dict[str, Any]) -> str:
    """The one JSON object the benchmark contract reads off stdout."""
    return json.dumps({
        "correct": row["correct"],
        "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in row["metrics"].items()},
    })


def render(row: Dict[str, Any]) -> str:
    """Every metric by name with its unit, quartiles and ``n``."""
    kind = "per-layer (traced)" if row["trace"] else "end-to-end"
    lines = [f"{row['workload']} — {kind}, seed "
             f"{row['config']['seed']}, {row['passes']} passes, "
             f"run {row['run_s']:.1f} s"]
    for name, m in row["metrics"].items():
        line = f"  {name:<40}{m['value']:>16.6g} {m['unit']}"
        if m["n"] > 1:
            line += f"   [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        lines.append(line)
    for violation in row["violations"]:
        lines.append(f"  INCORRECT: {violation}")
    lines.append(f"  correct={row['correct']} attempted={row['attempted']} "
                 f"failed={row['failed']}")
    return "\n".join(lines)
