"""Compare two result files under the bounds ``BENCHMARK.json`` commits.

``python -m benchmarks.harness.compare A.json B.json`` prints one row per
(end-to-end metric, workload) — each side's median over its runs, the
inter-quartile spread as a share of the median, and how much worse B's
median is than A's — and judges it against the metric's bound:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread is wider than the bound, so the
  pair cannot be called unchanged (unless every run of B reads better
  than every run of A, which is ``ok``);
* ``ok`` otherwise.

The exit code is non-zero on any regression.  ``--selfcheck`` measures
two sets of the *same* code (``--runs`` seeds each, workloads
interleaved) and additionally requires every spread except ``setup_s``'s
to stay within its bound — the acceptance test the benchmark itself must
pass before any change is judged by it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.harness import REPO_ROOT, SCHEMA_VERSION, schema
from benchmarks.harness.measure import spread

Key = Tuple[str, str]       # (workload, metric)


def load_rows(path: str) -> List[Dict[str, Any]]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise SystemExit(
            f"{path}: schema_version {payload.get('schema_version')} "
            f"!= {SCHEMA_VERSION}; the files are not comparable")
    return payload["rows"]


def collect(rows: Sequence[Dict[str, Any]]) -> Dict[Key, List[Dict]]:
    """``{(workload, metric): [metric dict per end-to-end run]}``."""
    out: Dict[Key, List[Dict]] = {}
    for row in rows:
        if row["trace"]:
            continue
        for name, metric in row["metrics"].items():
            out.setdefault((row["workload"], name), []).append(metric)
    return out


def side_spread(samples: Sequence[Dict[str, float]]) -> float:
    """Run-to-run IQR/median; a single run falls back on the quartiles
    of its own passes."""
    if len(samples) > 1:
        return spread([s["value"] for s in samples])
    only = samples[0]
    return (abs(only["q3"] - only["q1"]) / abs(only["value"])
            if only["value"] else 0.0)


def judge(a: Sequence[Dict[str, float]], b: Sequence[Dict[str, float]],
          bound: float, better: str) -> Dict[str, Any]:
    """One (metric, workload) verdict; see the module docstring."""
    a_vals = [s["value"] for s in a]
    b_vals = [s["value"] for s in b]
    med_a, med_b = statistics.median(a_vals), statistics.median(b_vals)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread_a, spread_b = side_spread(a), side_spread(b)
    if better == "lower":
        b_always_better = max(b_vals) < min(a_vals)
    else:
        b_always_better = min(b_vals) > max(a_vals)
    if b_always_better:
        verdict = "ok"
    elif max(spread_a, spread_b) > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "ok"
    return {"median_a": med_a, "median_b": med_b, "worse_by": worse,
            "spread_a": spread_a, "spread_b": spread_b,
            "n_a": len(a_vals), "n_b": len(b_vals),
            "bound": bound, "verdict": verdict}


def compare(rows_a: Sequence[Dict[str, Any]],
            rows_b: Sequence[Dict[str, Any]],
            bounds: Dict[str, Tuple[float, str]]) -> Dict[Key, Dict]:
    a, b = collect(rows_a), collect(rows_b)
    verdicts: Dict[Key, Dict] = {}
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        if metric not in bounds:
            continue
        bound, better = bounds[metric]
        verdicts[key] = judge(a[key], b[key], bound, better)
    return verdicts


def render(verdicts: Dict[Key, Dict]) -> str:
    lines = [f"{'workload':<14}{'metric':<13}{'median A':>12}"
             f"{'median B':>12}{'worse by':>10}{'bound':>7}"
             f"{'spread A':>10}{'spread B':>10}  verdict"]
    for (workload, metric), v in verdicts.items():
        lines.append(
            f"{workload:<14}{metric:<13}{v['median_a']:>12.5g}"
            f"{v['median_b']:>12.5g}{v['worse_by']:>+10.1%}"
            f"{v['bound']:>7.0%}{v['spread_a']:>10.1%}"
            f"{v['spread_b']:>10.1%}  {v['verdict']}")
    return "\n".join(lines)


def measure_set(path: Path, runs: int, seed: int,
                seconds: Optional[float], smoke: bool) -> None:
    """One set: ``runs`` end-to-end runs of every workload into ``path``."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--runs", str(runs), "--seed", str(seed), "--out", str(path)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=REPO_ROOT)
    if done.returncode != 0:
        raise SystemExit(f"measuring {path.name} failed "
                         f"(exit {done.returncode})")


def selfcheck(args) -> int:
    out_dir = REPO_ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    paths = [out_dir / "selfcheck-A.json", out_dir / "selfcheck-B.json"]
    for path in paths:
        measure_set(path, args.runs, args.seed, args.seconds, args.smoke)
    bounds = schema.load_bounds()
    verdicts = compare(load_rows(str(paths[0])), load_rows(str(paths[1])),
                       bounds)
    print(render(verdicts))
    problems = [f"{w} {m}: {v['verdict']}"
                for (w, m), v in verdicts.items() if v["verdict"] != "ok"
                and not (m == "setup_s" and v["verdict"] == "unresolved")]
    for path in paths:
        print(f"kept {path.relative_to(REPO_ROOT)}")
    if problems:
        print("selfcheck FAILED — two sets of the same code disagree:\n  "
              + "\n  ".join(problems))
        return 1
    print("selfcheck ok: two sets of the same code agree within every "
          "bound, and every spread is within its bound")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.harness.compare",
        description="Compare two harness result files under the committed "
                    "bounds, or --selfcheck the benchmark's own steadiness.")
    p.add_argument("files", nargs="*", metavar="A.json B.json")
    p.add_argument("--selfcheck", action="store_true",
                   help="measure two sets of this checkout and compare them")
    p.add_argument("--runs", type=int, default=10,
                   help="selfcheck: runs (seeds) per workload per set")
    p.add_argument("--seed", type=int, default=schema.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if len(args.files) != 2:
        p.error("give exactly two result files, or --selfcheck")
    verdicts = compare(load_rows(args.files[0]), load_rows(args.files[1]),
                       schema.load_bounds())
    print(render(verdicts))
    regressions = [key for key, v in verdicts.items()
                   if v["verdict"] == "regression"]
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
