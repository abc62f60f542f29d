"""Command line of the harness.

``--workload NAME`` runs that workload in this process (the benchmark
driver's form: one fresh process per run) and prints, as the last line of
stdout, the contract's JSON object.  Without ``--workload`` every
workload runs in a **fresh subprocess, one after another**, so
``peak_rss_mb`` is attributable and nothing competes for the cores; the
parent prints each child's metrics, then the total harness time and each
run's length so the benchmark contract's time cap can be checked.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.harness import REPO_ROOT, SCHEMA_VERSION, schema
from benchmarks.harness.measure import stop_children

_RUN_PY = Path(__file__).resolve().parent / "run.py"


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.harness",
        description="Switchboard benchmark harness: five named workloads, "
                    "end-to-end and per-layer metrics.")
    p.add_argument("--workload", choices=schema.WORKLOAD_NAMES, default=None,
                   help="run one workload in this process "
                        "(default: all, each in a fresh subprocess)")
    p.add_argument("--seed", type=int, default=schema.DEFAULT_SEED,
                   help="workload seed (same seed, same inputs)")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"seconds one run measures "
                        f"(default {schema.RUN_SECONDS}; 1 with --smoke)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1),
                   help="1: the traced run (per-layer metrics, spans); "
                        "0: the end-to-end run. Without --workload, "
                        "--trace runs both for every workload")
    p.add_argument("--smoke", action="store_true",
                   help="CI sizes: all five workloads in under 30 s")
    p.add_argument("--runs", type=int, default=1,
                   help="without --workload: runs per workload, seeds "
                        "SEED..SEED+RUNS-1, workloads interleaved")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the full result rows (config, quartiles, "
                        "environment) as JSON")
    return p


def _write(path: str, rows: List[Dict[str, Any]], args) -> None:
    with open(path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "seed": args.seed,
                   "smoke": args.smoke, "rows": rows}, fh, indent=1)


def run_one(args, import_started: float) -> int:
    """One workload, in this process; the contract line comes last."""
    from benchmarks.harness import runner
    runner.registry()            # imports repro, numpy, scipy: timed
    import_s = time.perf_counter() - import_started
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(schema.RUN_SECONDS))
    row = runner.run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.smoke, import_s)
    if args.out:
        _write(args.out, [row], args)
    print(runner.render(row))
    print(runner.contract_line(row))
    return 0 if row["correct"] else 1


def run_all(args) -> int:
    """Every workload, each run in a fresh subprocess, one at a time."""
    started = time.perf_counter()
    out_dir = REPO_ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    rows: List[Dict[str, Any]] = []
    failures = 0
    modes = (0, 1) if args.trace else (0,)
    # Runs outermost, workloads inside (ABCDE ABCDE …): drift on a shared
    # box lands on every workload alike, not on the last one measured.
    for run in range(args.runs):
        for name in schema.WORKLOAD_NAMES:
            for mode in modes:
                part = out_dir / f"row-{name}-{mode}.json"
                command = [sys.executable, str(_RUN_PY), "--workload", name,
                           "--seed", str(args.seed + run),
                           "--trace", str(mode), "--out", str(part)]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                child = subprocess.run(command, cwd=REPO_ROOT,
                                       capture_output=True, text=True)
                lines = child.stdout.rstrip().splitlines()
                print("\n".join(lines[:-1]))     # all but the JSON line
                if child.returncode != 0:
                    failures += 1
                    print(f"  {name} exited {child.returncode}\n"
                          f"{child.stderr}", file=sys.stderr)
                if part.exists():
                    with open(part) as fh:
                        rows += json.load(fh)["rows"]
                    part.unlink()
    total = time.perf_counter() - started
    print(f"\nharness total {total:.1f} s over {len(rows)} runs:")
    for row in rows:
        print(f"  {row['workload']:<14} trace={row['trace']} "
              f"seed={row['config']['seed']:<6} {row['run_s']:>6.1f} s  "
              f"{'ok' if row['correct'] else 'INCORRECT'}")
    if args.out:
        _write(args.out, rows, args)
        print(f"wrote {args.out}")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    import_started = time.perf_counter()
    args = parser().parse_args(argv)
    if args.workload is not None:
        return run_one(args, import_started)
    return run_all(args)


def entry(argv: Optional[Sequence[str]] = None) -> int:
    """What ``run.py`` and ``python -m benchmarks.harness`` call:
    :func:`main`, then — on every path out, SIGTERM included — every
    process the run started (process-executor workers, multiprocessing's
    resource tracker) is stopped and waited for, so none outlives it."""
    owner = os.getpid()

    def on_sigterm(signum, _frame):
        if os.getpid() != owner:          # a forked worker: just go
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return main(argv)
    finally:
        stop_children()
