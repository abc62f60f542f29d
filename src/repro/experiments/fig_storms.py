"""Scenario storms: the chaos harness over every named storm.

Runs the full registry of :mod:`repro.storms` through the chaos
harness — each storm is a correlated workload/fault overlay plan served
end to end (forecast → provision → fault-scenario rebuild → admit →
autoscale) — and reports the per-storm invariant outcomes: exact
accounting, overflow bounded by the storm's declared ceiling, zero
drain shortfall through rescales, and the settle-latency tail under its
ceiling.

The smoke path sweeps **both** service executors (``thread`` and
``process``) and asserts every invariant of every run — this is the
``drills`` CI job's ``storms`` entry.  ``--json`` writes the
schema-versioned aggregate report (uploaded as the CI artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro.storms import check_storm_report, named_storms, run_named_storms

__all__ = ["check", "main", "render", "run"]


def run(names: Optional[Sequence[str]] = None,
        executors: Sequence[str] = ("thread", "process"),
        n_configs: int = 8, calls_per_slot: float = 60.0,
        seed: int = 29) -> Dict[str, object]:
    return run_named_storms(names, executors=executors, n_configs=n_configs,
                            calls_per_slot=calls_per_slot, seed=seed)


def check(result: Dict[str, object]) -> None:
    """The ``drills`` job's ``storms`` contract; raises on any violated
    invariant."""
    check_storm_report(result)


def render(result: Dict[str, object]) -> str:
    lines = [
        f"{result['n_runs']} storm runs over executors "
        f"{', '.join(result['executors'])}:",
        f"  {'storm':<34}{'exec':<9}{'calls':>7}{'overflow':>10}"
        f"{'ceiling':>9}{'rescales':>9}  ok",
    ]
    for row in result["storms"]:
        lines.append(
            f"  {row['storm']:<34}{row['executor']:<9}"
            f"{row['generated_calls']:>7}{row['overflow_frac']:>10.1%}"
            f"{row['overflow_ceiling']:>9.0%}{row['rescale_events']:>9}"
            f"  {'yes' if row['ok'] else 'NO'}")
    lines.append(f"  all invariants hold: {'yes' if result['ok'] else 'NO'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos harness: serve every named scenario storm and "
                    "assert its declared invariants")
    parser.add_argument("--smoke", action="store_true",
                        help="both executors + assert the CI contract")
    parser.add_argument("--json", type=str, default=None,
                        help="write the aggregate report to this path")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--storm", action="append", default=None,
                        metavar="NAME",
                        help="run only this storm (repeatable); "
                             f"known: {', '.join(named_storms())}")
    args = parser.parse_args(argv)

    executors = ("thread", "process") if args.smoke else ("thread",)
    result = run(args.storm, executors=executors, seed=args.seed)
    print(render(result))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2, default=str)
        print(f"report written to {args.json}")
    if args.smoke:
        check(result)
        print("storms contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
