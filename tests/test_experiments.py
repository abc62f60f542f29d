"""Shape tests for every experiment: the paper's qualitative claims.

Each test runs the experiment at small scale and asserts the *shape* the
paper reports — peak ordering, who wins, directionality — not absolute
numbers.
"""

import warnings

import pytest

from repro.experiments import (
    fig3, fig4, fig7, fig8, fig9, fig10,
    migration, prediction, table1, table3, table4,
)
from repro.experiments.common import build_scenario


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("small", seed=11)


class TestFig3:
    def test_peak_order_matches_paper(self):
        result = fig3.run()
        peaks = result["peak_utc_hour"]
        assert peaks["JP"] < peaks["HK"] < peaks["IN"]

    def test_curves_normalized(self):
        result = fig3.run()
        top = max(max(v) for v in result["normalized_demand"].values())
        assert top == pytest.approx(1.0)

    def test_render_mentions_order(self):
        assert "JP < HK < IN" in fig3.render(fig3.run())


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run()

    def test_baseline_matches_paper_numbers(self, result):
        assert result["baseline_sum"] == pytest.approx(480.0, rel=1e-3)
        assert all(v == pytest.approx(160.0, rel=1e-3)
                   for v in result["baseline_total_cores"].values())

    def test_peak_aware_saves_substantially(self, result):
        assert result["peak_aware_sum"] <= 330.0  # paper: 320
        assert result["peak_aware_sum"] < result["baseline_sum"] * 0.75

    def test_peak_aware_covers_global_peak(self, result):
        assert result["peak_aware_sum"] >= 180.0


class TestTable1:
    def test_all_cells_within_paper_ranges(self):
        result = table1.run()
        for media, checks in result["within_paper_ranges"].items():
            assert all(checks.values()), f"{media} out of range"


class TestFig7:
    def test_forecast_overlay_tight(self):
        result = fig7.run_forecast_overlay()
        assert result["normalized_rmse"] < 0.35

    def test_growth_spread(self):
        result = fig7.run_growth()
        values = list(result["normalized_growth"].values())
        assert max(values) == pytest.approx(1.0)
        assert min(values) < 0.8  # visibly different growth rates

    def test_coverage_heavy_head(self):
        result = fig7.run_coverage(n_configs=5000)
        coverage = result["call_coverage"]
        assert coverage[0.01] > 0.5
        assert coverage[0.1] > 0.9
        # Monotone in the fraction.
        fractions = sorted(coverage)
        values = [coverage[f] for f in fractions]
        assert values == sorted(values)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return table3.run(scenario, max_link_scenarios=0)

    def test_sb_cost_beats_both_baselines(self, result):
        for regime in (False, True):
            rows = result["normalized"][regime]
            assert rows["switchboard"]["Cost"] < rows["round_robin"]["Cost"]
            assert rows["switchboard"]["Cost"] <= rows["locality_first"]["Cost"] + 0.02

    def test_sb_latency_at_most_rr(self, result):
        for regime in (False, True):
            rows = result["normalized"][regime]
            assert rows["switchboard"]["Mean ACL"] < rows["round_robin"]["Mean ACL"]

    def test_sb_wan_below_rr(self, result):
        for regime in (False, True):
            rows = result["normalized"][regime]
            assert rows["switchboard"]["WAN"] < rows["round_robin"]["WAN"]

    def test_lf_latency_is_best(self, result):
        for regime in (False, True):
            rows = result["normalized"][regime]
            assert rows["locality_first"]["Mean ACL"] <= (
                rows["switchboard"]["Mean ACL"] + 1e-9
            )

    def test_render_contains_headline(self, result):
        text = table3.render(result)
        assert "normalized to RR" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return table4.run(scenario, history_days=14)

    def test_forecast_deltas_bounded(self, result):
        for row in result["deltas"].values():
            # The paper lands within +/-13%; allow slack for our noisier
            # small-scale Poisson workload.
            assert abs(row["cores_delta"]) < 0.5
            assert abs(row["wan_delta"]) < 0.6

    def test_all_schemes_present(self, result):
        schemes = {key.split("/")[0] for key in result["deltas"]}
        assert schemes == {"round_robin", "locality_first", "switchboard"}


class TestFig8:
    def test_majority_joined_by_freeze(self, scenario):
        result = fig8.run(scenario)
        assert 0.7 <= result["fraction_joined_at_300s"] <= 0.95

    def test_cdf_monotone(self, scenario):
        result = fig8.run(scenario)
        values = [v for _, v in result["cdf"]]
        assert values == sorted(values)


class TestFig9:
    def test_median_errors_small(self, scenario):
        result = fig9.run(scenario, history_days=14, holdout_days=1)
        assert result["summary"]["median_normalized_rmse"] < 0.4
        assert result["summary"]["median_normalized_mae"] < 0.3
        # MAE <= RMSE always.
        assert (result["summary"]["median_normalized_mae"]
                <= result["summary"]["median_normalized_rmse"] + 1e-9)


class TestMigration:
    def test_migrations_are_rare_and_tracked(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = migration.run(scenario)
        assert result["sb_migration_rate"] < 0.12
        assert result["lf_migration_rate"] < 0.12
        assert result["majority_matches_first_joiner"] > 0.9
        assert result["sb_mean_acl_ms"] < 120.0
        assert result["live_path"]


class TestFig10:
    def test_throughput_scales_with_threads(self, scenario):
        # Each simulated store trip sleeps ~2 ms, so four writer threads
        # overlap those waits and serve well above one thread's rate.
        result = fig10.run(scenario, threads=(1, 4), max_events=2000)
        vs_peak = result["throughput_vs_peak"]
        assert vs_peak[4] > vs_peak[1]


class TestPrediction:
    def test_model_beats_baseline(self):
        result = prediction.run(n_series=80, occurrences=10)
        assert result["model_rmse"] < result["baseline_rmse"]
        assert result["model_mae"] < result["baseline_mae"]
        assert result["rmse_improvement"] > 1.0


class TestPredictiveSelection:
    def test_prediction_reduces_migrations(self):
        from repro.experiments import predictive

        result = predictive.run(n_series=40, occurrences=8, with_backup=False)
        assert (result["predictive_migration_rate"]
                <= result["standard_migration_rate"] + 1e-9)
        assert result["hint_rate"] > 0.3
        # Latency must not degrade materially.
        assert (result["predictive_mean_acl_ms"]
                <= result["standard_mean_acl_ms"] + 2.0)


class TestAppAware:
    def test_app_aware_absorbs_more_of_the_surge(self):
        from repro.experiments import app_aware

        result = app_aware.run()
        assert (result["app_aware"]["cores_added"]
                < result["log_based"]["cores_added"])
        assert (result["app_aware"]["cost_increase"]
                <= result["log_based"]["cost_increase"] + 1e-9)

    def test_no_surge_is_identity(self):
        from repro.experiments import app_aware

        result = app_aware.run(surge=0.0)
        assert result["log_based"]["cores_added"] == 0.0
        assert abs(result["app_aware"]["cores_added"]) < 1e-6


class TestThresholdSweep:
    def test_cost_monotone_in_threshold(self, scenario):
        from repro.experiments import threshold_sweep

        result = threshold_sweep.run(scenario, thresholds_ms=(20.0, 60.0, 120.0))
        rel = result["relative_cost"]
        assert rel[20.0] >= rel[60.0] - 1e-6
        assert rel[60.0] >= rel[120.0] - 1e-6

    def test_acl_within_threshold(self, scenario):
        from repro.experiments import threshold_sweep

        result = threshold_sweep.run(scenario, thresholds_ms=(60.0, 120.0))
        for row in result["rows"]:
            # Mean ACL can exceed the threshold only via the min-ACL
            # fallback for stranded configs; at these values none strand.
            assert row["mean_acl_ms"] <= row["threshold_ms"]
