"""Self-tests of the harness (not collected by tier-1: ``testpaths = tests``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.harness import REPO_ROOT, SCHEMA_VERSION, cli, compare, schema
from benchmarks.harness.measure import interleave, spread, summarize
from benchmarks.harness.spans import (NullTracer, Tracer, layer_self_seconds,
                                      self_times)


# -- schema ------------------------------------------------------------
def test_benchmark_json_is_generated_from_the_schema():
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        committed = json.load(fh)
    assert committed == schema.benchmark_json()
    assert schema.contract_violations(committed) == []


def test_every_name_fits_the_contract_charset():
    names = (schema.E2E_NAMES + schema.LAYER_NAMES + schema.WORKLOAD_NAMES)
    assert len(set(names)) == len(names)
    for name in names:
        assert schema.NAME_RE.match(name), name
    for unit in schema.UNITS.values():
        assert schema.UNIT_RE.match(unit), unit
    assert not schema.NAME_RE.match("µs_per_event")
    assert not schema.NAME_RE.match("-leading-dash")
    assert not schema.NAME_RE.match("x" * 65)


def test_contract_violations_are_reported():
    spec = schema.benchmark_json()
    spec["end_to_end"][1]["bound"] = 0.3
    spec["workloads"][0]["name"] = "bad name"
    spec["command"] = ["python3", "../elsewhere/run.py"]
    problems = "\n".join(schema.contract_violations(spec))
    assert "outside (0, 0.25]" in problems
    assert "bad name" in problems
    assert "leaves the repo" in problems
    del spec["per_layer"]
    assert schema.contract_violations(spec)


def test_bounds_come_from_benchmark_json():
    bounds = schema.load_bounds()
    assert set(bounds) == set(schema.E2E_NAMES)
    assert bounds["setup_s"] == (0.25, "lower")
    assert bounds["ops_per_s"][1] == "higher"


# -- measurement arithmetic ---------------------------------------------
def test_summarize_reports_median_quartiles_and_n():
    summary = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary["value"] == 3.0 and summary["n"] == 5
    assert summary["q1"] == 1.5 and summary["q3"] == 4.5
    assert summarize([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0
    assert spread([9.0]) == 0.0


def test_interleave_is_abcabc():
    assert interleave("AAA", "BBB", "CCC") == list("ABCABCABC")


def test_span_self_time_subtracts_children():
    tracer = Tracer()
    tracer.new_run()
    with tracer.span("service.run"):
        with tracer.span("kvstore.trip"):
            pass
        with tracer.span("kvstore.trip"):
            pass
    outer, first, second = tracer.spans
    # Fixed clock readings make the arithmetic exact.
    outer.start, outer.end = 0.0, 10.0
    first.start, first.end = 1.0, 3.0
    second.start, second.end = 4.0, 8.0
    assert (first.parent, second.parent, outer.parent) == (0, 0, None)
    own = self_times(tracer.spans)
    assert own == {0: 4.0, 1: 2.0, 2: 4.0}
    assert layer_self_seconds(tracer.spans) == {"service": [4.0],
                                                "kvstore": [6.0]}
    assert tracer.durations("kvstore.trip") == {1: 6.0}
    assert tracer.durations("absent") == {}
    assert {"name", "start", "end", "parent", "run_id"} \
        <= set(tracer.to_json()[0])


def test_null_tracer_records_nothing():
    null = NullTracer()
    with null.span("anything"):
        pass
    assert not null.enabled


# -- compare ------------------------------------------------------------
def _rows(workload, metric, values, q=0.0):
    return [{"workload": workload, "trace": 0, "metrics": {metric: {
        "value": v, "q1": v * (1 - q), "q3": v * (1 + q), "n": 5,
        "unit": schema.UNITS[metric]}}} for v in values]


def _verdict(a, b, metric="wall_s", q=0.0):
    bounds = {metric: (0.10, schema.BETTER[metric])}
    out = compare.compare(_rows("w", metric, a, q), _rows("w", metric, b, q),
                          bounds)
    return out[("w", metric)]["verdict"]


def test_compare_flags_a_regression_beyond_the_bound():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert _verdict(steady, [v * 1.05 for v in steady]) == "ok"
    assert _verdict(steady, [v * 1.20 for v in steady]) == "regression"


def test_compare_respects_the_better_direction():
    steady = [100.0, 101.0, 99.0, 100.0, 102.0]
    slower = [v * 0.8 for v in steady]
    assert _verdict(steady, slower, metric="ops_per_s") == "regression"
    assert _verdict(slower, steady, metric="ops_per_s") == "ok"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert _verdict(noisy, [v * 1.05 for v in noisy]) == "unresolved"
    # ... unless every run of B reads better than every run of A.
    assert _verdict(noisy, [v * 0.3 for v in noisy]) == "ok"


def test_compare_single_runs_fall_back_on_pass_quartiles():
    assert _verdict([1.0], [1.05], q=0.01) == "ok"
    assert _verdict([1.0], [1.05], q=0.2) == "unresolved"
    assert _verdict([1.0], [1.3], q=0.01) == "regression"


def test_compare_ignores_traced_rows_and_exits_nonzero(tmp_path, capsys):
    a = _rows("w", "wall_s", [1.0, 1.0, 1.0])
    b = _rows("w", "wall_s", [1.5, 1.5, 1.5])
    traced = dict(a[0], trace=1)
    for name, rows in (("a.json", a + [traced]), ("b.json", b)):
        with open(tmp_path / name, "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "rows": rows}, fh)
    code = compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert code == 1 and "regression" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "a.json")]) == 0
    with open(tmp_path / "old.json", "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION + 1, "rows": []}, fh)
    with pytest.raises(SystemExit):
        compare.load_rows(str(tmp_path / "old.json"))


# -- command line -------------------------------------------------------
def test_trace_flag_takes_the_drivers_form_and_the_bare_form():
    parse = cli.parser().parse_args
    assert parse(["--trace", "1"]).trace == 1
    assert parse(["--trace", "0"]).trace == 0
    assert parse(["--trace"]).trace == 1
    assert parse([]).trace == 0
    assert parse([]).seed == schema.DEFAULT_SEED


def test_stop_children_leaves_no_process_behind():
    # In a subprocess: stop_children reaps *every* child of its caller,
    # and pytest's own are not this test's to stop.
    script = (
        "import subprocess\n"
        "from multiprocessing import shared_memory\n"
        "from benchmarks.harness.measure import child_pids, stop_children\n"
        "shm = shared_memory.SharedMemory(create=True, size=16)\n"
        "shm.close(); shm.unlink()       # starts the resource tracker\n"
        "sleeper = subprocess.Popen(['sleep', '60'])\n"
        "assert len(child_pids()) == 2, child_pids()\n"
        "stop_children(grace_s=2.0)\n"
        "assert child_pids() == [], child_pids()\n"
        "stop_children()                 # nothing left: returns at once\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# -- one real workload, smoke size ---------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_exactly_the_schemas_metrics(trace, tmp_path, capsys):
    out = tmp_path / "row.json"
    code = cli.main(["--workload", "plan-sweep", "--smoke", "--seed", "3",
                     "--trace", str(trace), "--out", str(out)])
    assert code == 0
    last = capsys.readouterr().out.rstrip().splitlines()[-1]
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = schema.LAYER_NAMES if trace else schema.E2E_NAMES
    assert tuple(line["metrics"]) == expected
    for name, metric in line["metrics"].items():
        assert metric["unit"] == schema.UNITS[name]
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    # The row file round-trips and embeds the config that produced it.
    (row,) = compare.load_rows(str(out))
    assert row["config"]["seed"] == 3 and row["config"]["smoke"] is True
    assert row["config"]["portfolio"]["gap"] == 0.05
    assert {"git_sha", "nproc", "numpy", "scipy", "python"} <= set(row["env"])
    assert json.loads(json.dumps(row)) == row
