"""Tests for the perf-regression harness (`repro.obs.perf`).

The headline acceptance property: an unchanged re-run passes the default
budgets, and a synthetically injected 2x slowdown fails them — a gate
that cannot fire is no gate.  Around that sit the building blocks: the
alternating-minimum timing estimator, the per-kind budgets, the
schema-validated trend store, and the bench-document ingest path.
"""

import json

import pytest

from repro.obs.export import PERF_SCHEMA, validate_document
from repro.obs.perf import (
    DEFAULT_BUDGETS,
    AlternatingTiming,
    Budget,
    PerfStore,
    alternating_minimum,
    budgets_with_ratio,
    compare_runs,
    format_report,
    format_trend,
    run_suite,
    runs_from_bench_document,
)


def _run(benchmark="solve/n16", metrics=None, **context_overrides):
    context = {
        "git_rev": "abc1234",
        "timestamp": "2026-08-08T00:00:00+00:00",
        "scale": "quick",
        "rounds": 3,
        "source": "suite",
    }
    context.update(context_overrides)
    return {
        "benchmark": benchmark,
        "params": {"n": 16},
        "metrics": metrics
        or {"wall_seconds": 0.01, "device_seconds": 3.4e-05, "supersteps": 200},
        "context": context,
    }


class TestAlternatingMinimum:
    def test_alternates_within_rounds(self):
        order = []
        timings = alternating_minimum(
            {
                "a": lambda: order.append("a") or 1.0,
                "b": lambda: order.append("b") or 2.0,
            },
            rounds=3,
        )
        assert order == ["a", "b", "a", "b", "a", "b"]
        assert timings["a"].rounds == (1.0, 1.0, 1.0)
        assert timings["b"].best == 2.0

    def test_best_is_the_minimum_round(self):
        walls = iter([5.0, 1.0, 3.0])
        timings = alternating_minimum({"t": lambda: next(walls)}, rounds=3)
        assert timings["t"].best == 1.0
        assert timings["t"].rounds == (5.0, 1.0, 3.0)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least one"):
            alternating_minimum({"t": lambda: 1.0}, rounds=0)

    def test_timing_dataclass(self):
        assert AlternatingTiming((2.0, 1.5)).best == 1.5


class TestBudgets:
    def test_wall_one_sided(self):
        budget = Budget("wall", max_ratio=1.5)
        assert budget.check(1.0, 1.4) == (True, pytest.approx(1.4))
        assert budget.check(1.0, 1.6)[0] is False
        # Getting faster never fails a wall budget.
        assert budget.check(1.0, 0.1)[0] is True

    def test_throughput_inverted(self):
        budget = Budget("throughput", max_ratio=1.5)
        assert budget.check(100.0, 80.0)[0] is True  # 1.25x slower
        assert budget.check(100.0, 50.0)[0] is False  # 2x slower
        assert budget.check(100.0, 200.0)[0] is True  # faster is fine

    def test_model_two_sided(self):
        budget = Budget("model")
        assert budget.check(1e-4, 1e-4)[0] is True
        assert budget.check(1e-4, 1e-4 * (1 + 1e-3))[0] is False
        # An *improvement* also trips the model budget: re-record it.
        assert budget.check(1e-4, 1e-4 * (1 - 1e-3))[0] is False

    def test_exact(self):
        budget = Budget("exact")
        assert budget.check(200, 200)[0] is True
        assert budget.check(200, 201)[0] is False

    def test_widening_spares_deterministic_kinds(self):
        widened = budgets_with_ratio(10.0)
        assert widened["wall_seconds"].max_ratio == 10.0
        assert widened["instances_per_second"].max_ratio == 10.0
        assert widened["device_seconds"] == DEFAULT_BUDGETS["device_seconds"]
        assert widened["supersteps"] == DEFAULT_BUDGETS["supersteps"]


class TestPerfStore:
    def test_fresh_store_is_valid_empty_document(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        assert store.runs == []
        validate_document(store.document)
        assert store.document["schema"] == PERF_SCHEMA

    def test_append_save_reload_round_trip(self, tmp_path):
        path = tmp_path / "trends.json"
        store = PerfStore(path)
        assert store.append([_run(), _run("solve/n32")]) == 2
        store.save()
        reloaded = PerfStore(path)
        assert len(reloaded.runs) == 2
        assert reloaded.benchmarks() == ("solve/n16", "solve/n32")

    def test_latest_returns_most_recent(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run(metrics={"wall_seconds": 1.0})])
        store.append([_run(metrics={"wall_seconds": 2.0})])
        assert store.latest("solve/n16")["metrics"]["wall_seconds"] == 2.0
        assert store.latest("ghost") is None

    def test_append_validates(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        with pytest.raises(ValueError):
            store.append([{"benchmark": "x"}])  # missing metrics/context

    def test_rejects_corrupt_store(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.perf/1", "runs": {}}))
        with pytest.raises(ValueError):
            PerfStore(path)


class TestCompareRuns:
    def test_unchanged_rerun_passes(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run()])
        report = compare_runs(store, [_run()])
        assert report.ok
        assert not report.regressions
        assert "PASS" in format_report(report)

    def test_injected_2x_slowdown_fails(self, tmp_path):
        # The acceptance criterion: the same fresh runs that pass
        # unchanged must fail under a synthetic 2x wall slowdown.
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run()])
        report = compare_runs(store, [_run()], inject_slowdown=2.0)
        assert not report.ok
        failed = {c.metric for c in report.regressions}
        assert "wall_seconds" in failed
        assert "FAIL" in format_report(report)

    def test_injection_spares_deterministic_metrics(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run()])
        report = compare_runs(store, [_run()], inject_slowdown=2.0)
        by_metric = {c.metric: c for c in report.comparisons}
        assert by_metric["device_seconds"].ok
        assert by_metric["supersteps"].ok

    def test_injection_hits_throughput_inversely(self, tmp_path):
        metrics = {"wall_seconds": 0.06, "instances_per_second": 200.0}
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run("batch/x", metrics=metrics)])
        report = compare_runs(
            store, [_run("batch/x", metrics=metrics)], inject_slowdown=2.0
        )
        by_metric = {c.metric: c for c in report.comparisons}
        assert by_metric["instances_per_second"].fresh == pytest.approx(100.0)
        assert not by_metric["instances_per_second"].ok

    def test_real_device_seconds_drift_fails(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run()])
        drifted = _run(
            metrics={"wall_seconds": 0.01, "device_seconds": 3.6e-05, "supersteps": 200}
        )
        report = compare_runs(store, [drifted])
        assert not report.ok
        assert report.regressions[0].metric == "device_seconds"
        assert report.regressions[0].kind == "model"

    def test_missing_baseline_passes_but_is_reported(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        report = compare_runs(store, [_run("brand/new")])
        assert report.ok
        assert report.missing_baselines == ("brand/new",)
        assert "no baseline" in format_report(report)

    def test_unbudgeted_metrics_are_informational(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run(metrics={"wall_seconds": 0.01, "exotic": 5.0})])
        fresh = _run(metrics={"wall_seconds": 0.01, "exotic": 9000.0})
        report = compare_runs(store, [fresh])
        assert report.ok
        assert "solve/n16:exotic" in report.skipped_metrics

    def test_widened_budget_absorbs_noise(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run(metrics={"wall_seconds": 0.01})])
        noisy = _run(metrics={"wall_seconds": 0.05})  # 5x: fails default
        assert not compare_runs(store, [noisy]).ok
        assert compare_runs(store, [noisy], budgets_with_ratio(10.0)).ok


class TestSuiteAndIngest:
    def test_run_suite_quick_end_to_end(self, tmp_path):
        runs = run_suite("quick", rounds=1)
        names = [run["benchmark"] for run in runs]
        assert any(name.startswith("solve/") for name in names)
        assert any(name.startswith("batch/") for name in names)
        assert [name for name in names if name.startswith("compile/")] == [
            "compile/n64",
            "compile/n128",
        ]
        for run in runs:
            assert run["metrics"]["wall_seconds"] > 0
            assert run["context"]["source"] == "suite"
            if run["benchmark"].startswith("compile/"):
                # Compile legs run no solve: static exchange is their
                # deterministic metric.
                assert run["metrics"]["exchange_bytes"] > 0
                assert DEFAULT_BUDGETS["exchange_bytes"].kind == "exact"
            else:
                assert run["metrics"]["device_seconds"] > 0
                assert run["metrics"]["supersteps"] > 0
        # The suite's rows validate as a store document and re-compare
        # bit-identically on the deterministic metrics.
        store = PerfStore(tmp_path / "trends.json")
        store.append(runs)
        report = compare_runs(store, runs)
        assert report.ok

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown perf suite scale"):
            run_suite("galactic")

    def test_ingest_bench_document(self):
        document = {
            "schema": "repro.bench-run/1",
            "experiment": "batch",
            "scale": "quick",
            "environment": {},
            "records": [
                {
                    "experiment": "batch",
                    "solver": "hunipu-batch",
                    "params": {"n": 16, "count": 12},
                    "device_time_s": 4e-4,
                    "wall_time_s": 0.06,
                    "extra": {
                        "wall_per_instance_s": 0.005,
                        "instances_per_second": 200.0,
                    },
                },
            ],
            "shape_notes": [],
        }
        (run,) = runs_from_bench_document(document)
        assert run["benchmark"] == "bench/batch/hunipu-batch"
        assert run["metrics"]["wall_seconds"] == 0.06
        assert run["metrics"]["device_seconds"] == 4e-4
        assert run["metrics"]["instances_per_second"] == 200.0
        assert run["context"]["source"] == "bench"


class TestTrendReport:
    def test_format_trend_lists_history(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run(git_rev="aaaa111"), _run(git_rev="bbbb222")])
        text = format_trend(store)
        assert "solve/n16 (2 run(s))" in text
        assert "aaaa111" in text
        assert "bbbb222" in text

    def test_single_benchmark_filter(self, tmp_path):
        store = PerfStore(tmp_path / "trends.json")
        store.append([_run(), _run("solve/n32")])
        text = format_trend(store, "solve/n32")
        assert "solve/n32" in text
        assert "solve/n16" not in text
