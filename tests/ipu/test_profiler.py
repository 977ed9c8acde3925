"""Tests for the BSP profiler and its report type."""

import pytest

from repro.ipu.profiler import Profiler, StepRecord
from repro.ipu.spec import IPUSpec


@pytest.fixture
def profiler():
    return Profiler(IPUSpec.mk2())


class TestAccumulation:
    def test_superstep_charges_three_phases(self, profiler):
        profiler.record_superstep("step", compute_cycles=1325, exchange_bytes=8000)
        report = profiler.report()
        record = report.record_named("step")
        assert record.compute_seconds == pytest.approx(1e-6)  # 1325 cy @ 1.325GHz
        assert record.sync_seconds > 0
        assert record.exchange_seconds > 0
        assert record.exchange_bytes == 8000
        assert report.supersteps == 1

    def test_aggregation_by_name(self, profiler):
        for _ in range(3):
            profiler.record_superstep("a", 100, 0)
        profiler.record_superstep("b", 100, 0)
        report = profiler.report()
        assert report.record_named("a").executions == 3
        assert report.record_named("b").executions == 1
        assert report.supersteps == 4

    def test_zero_exchange_costs_nothing_on_fabric(self, profiler):
        profiler.record_superstep("a", 100, 0)
        assert profiler.report().record_named("a").exchange_seconds == 0.0

    def test_host_io(self, profiler):
        profiler.record_host_io(32_000_000_000)  # 32 GB at 32 GB/s
        assert profiler.report().host_io_seconds == pytest.approx(1.0)

    def test_report_is_immutable_snapshot(self, profiler):
        profiler.record_superstep("a", 100, 0)
        report = profiler.report()
        profiler.record_superstep("a", 100, 0)
        assert report.record_named("a").executions == 1

    def test_reports_stay_cumulative_in_first_execution_order(self, profiler):
        profiler.record_superstep("a", 100, 0)
        profiler.record_superstep("b", 100, 0)
        first = profiler.report()
        profiler.record_superstep("c", 100, 0)
        profiler.record_superstep("a", 200, 0)
        second = profiler.report()
        assert [r.name for r in second.records] == ["a", "b", "c"]
        assert second.record_named("a").executions == 2
        assert second.record_named("a").compute_cycles == 300.0
        assert second.record_named("b") == first.record_named("b")
        assert first.record_named("a").executions == 1
        assert second.supersteps == 4

    def test_record_accumulates_every_field(self, profiler):
        charge = profiler.record_superstep("a", 1325, 8000, inter_ipu_bytes=4000)
        (record,) = profiler.report().records
        assert record == StepRecord(
            name="a",
            executions=1,
            compute_seconds=charge.compute_seconds,
            sync_seconds=charge.sync_seconds,
            exchange_seconds=charge.exchange_seconds,
            exchange_bytes=8000,
            inter_ipu_bytes=4000,
            inter_ipu_syncs=1,
            compute_cycles=1325.0,
        )


class TestReportQueries:
    def test_by_prefix_sums(self, profiler):
        profiler.record_superstep("step4/scan", 1000, 0)
        profiler.record_superstep("step4/final", 2000, 0)
        profiler.record_superstep("step6/update", 5000, 0)
        report = profiler.report()
        step4 = report.by_prefix("step4")
        total = report.device_seconds
        assert 0 < step4 < total
        assert report.by_prefix("step9") == 0.0

    def test_step_seconds_matches_by_prefix_exactly(self, profiler):
        for name, cycles in [
            ("step4/scan", 1000),
            ("compress/rows", 300),
            ("step4/final", 2000),
            ("copy/a->b", 0),
            ("step6/update", 5000),
            ("other", 70),
        ]:
            profiler.record_superstep(name, cycles, 64)
        report = profiler.report()
        totals = report.step_seconds()
        # repr() round-trips floats exactly and tells 0 from 0.0.
        assert {prefix: repr(value) for prefix, value in totals.items()} == {
            prefix: repr(report.by_prefix(prefix)) for prefix in totals
        }
        assert totals["step5"] == 0

    def test_record_named_missing(self, profiler):
        with pytest.raises(KeyError):
            profiler.report().record_named("ghost")

    def test_format_table_lists_heaviest_first(self, profiler):
        profiler.record_superstep("light", 10, 0)
        profiler.record_superstep("heavy", 1_000_000, 0)
        table = profiler.report().format_table()
        assert table.index("heavy") < table.index("light")
        assert "TOTAL" in table

    def test_total_includes_host_io(self, profiler):
        profiler.record_superstep("a", 100, 0)
        profiler.record_host_io(3_200_000)
        report = profiler.report()
        assert report.total_seconds > report.device_seconds


class TestInvariants:
    """The accounting identities the trace exporter relies on."""

    def test_device_seconds_is_sum_of_record_totals(self, profiler):
        for index in range(20):
            profiler.record_superstep(f"step{index % 6 + 1}/x", 100 * index, index)
        report = profiler.report()
        assert report.device_seconds == pytest.approx(
            sum(record.total_seconds for record in report.records)
        )

    def test_by_prefix_partitions_device_seconds(self, profiler):
        profiler.record_superstep("step6/partial", 1000, 64)
        profiler.record_superstep("step6/final", 2000, 0)
        profiler.record_superstep("step4/scan", 500, 0)
        report = profiler.report()
        assert report.by_prefix("step6") == pytest.approx(
            report.record_named("step6/partial").total_seconds
            + report.record_named("step6/final").total_seconds
        )
        assert report.by_prefix("step6") + report.by_prefix("step4") == (
            pytest.approx(report.device_seconds)
        )

    def test_supersteps_equal_execution_sum(self, profiler):
        for _ in range(3):
            profiler.record_superstep("a", 10, 0)
        profiler.record_superstep("b", 10, 0)
        report = profiler.report()
        assert report.supersteps == sum(r.executions for r in report.records)

    def test_record_superstep_returns_the_charge(self, profiler):
        charge = profiler.record_superstep("a", 1325, 8000)
        record = profiler.report().record_named("a")
        assert charge.compute_seconds == pytest.approx(record.compute_seconds)
        assert charge.sync_seconds == pytest.approx(record.sync_seconds)
        assert charge.exchange_seconds == pytest.approx(record.exchange_seconds)
        assert charge.total_seconds == pytest.approx(record.total_seconds)


class TestSummary:
    def test_rows_sorted_by_total_descending(self, profiler):
        profiler.record_superstep("light", 10, 0)
        profiler.record_superstep("heavy", 1_000_000, 0)
        profiler.record_superstep("middle", 10_000, 0)
        rows = profiler.report().summary()
        assert [row["name"] for row in rows] == ["heavy", "middle", "light"]
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_pct_of_device_sums_to_100(self, profiler):
        profiler.record_superstep("a", 500, 64)
        profiler.record_superstep("b", 1500, 0)
        rows = profiler.report().summary()
        assert sum(row["pct_of_device"] for row in rows) == pytest.approx(100.0)
        assert all(row["pct_of_device"] > 0 for row in rows)

    def test_row_fields(self, profiler):
        profiler.record_superstep("a", 1325, 4096)
        (row,) = profiler.report().summary()
        record = profiler.report().record_named("a")
        assert row["executions"] == 1
        assert row["compute_seconds"] == pytest.approx(record.compute_seconds)
        assert row["exchange_bytes"] == 4096
        assert row["pct_of_device"] == pytest.approx(100.0)

    def test_format_table_has_percent_column(self, profiler):
        profiler.record_superstep("a", 100, 0)
        table = profiler.report().format_table()
        assert "% dev" in table
        assert "100.0%" in table

    def test_empty_report(self, profiler):
        assert profiler.report().summary() == []


class TestCriticalPath:
    def test_groups_by_step_prefix(self, profiler):
        profiler.record_superstep("step4/scan", 1000, 0)
        profiler.record_superstep("step4/final", 2000, 0)
        profiler.record_superstep("step6/update", 500, 0)
        profiler.record_superstep("mystery/op", 100, 0)
        analysis = profiler.report().critical_path()
        report = profiler.report()
        assert analysis["steps"]["step4"]["total"] == pytest.approx(
            report.by_prefix("step4")
        )
        assert analysis["steps"]["other"]["total"] == pytest.approx(
            report.record_named("mystery/op").total_seconds
        )

    def test_bounding_step_and_phase(self, profiler):
        # One huge compute superstep: step5 must bound the run, and its
        # group must be compute-dominated.
        profiler.record_superstep("step5/augment", 10_000_000, 0)
        profiler.record_superstep("step1/rows", 10, 0)
        analysis = profiler.report().critical_path()
        assert analysis["bounding_step"] == "step5"
        assert analysis["bounding_phase"] == "compute"
        assert analysis["dominant_phase"] == "compute"

    def test_sync_bound_when_compute_is_tiny(self, profiler):
        # Many near-empty supersteps: fixed sync dominates (the small-n
        # regime the paper's scaling argument starts from).
        for _ in range(50):
            profiler.record_superstep("step3/cover", 1, 0)
        analysis = profiler.report().critical_path()
        assert analysis["dominant_phase"] == "sync"
        assert analysis["bounding_phase"] == "sync"

    def test_shares_sum_to_one(self, profiler):
        profiler.record_superstep("step1/a", 100, 64)
        profiler.record_superstep("step2/b", 200, 0)
        analysis = profiler.report().critical_path()
        assert sum(g["share"] for g in analysis["steps"].values()) == (
            pytest.approx(1.0)
        )

    def test_phase_seconds_matches_report(self, profiler):
        profiler.record_superstep("step1/a", 100, 64)
        report = profiler.report()
        analysis = report.critical_path()
        assert analysis["phase_seconds"] == report.phase_seconds
        assert sum(analysis["phase_seconds"].values()) == pytest.approx(
            report.device_seconds
        )

    def test_format_mentions_bounding_step(self, profiler):
        profiler.record_superstep("step4/scan", 1_000_000, 0)
        text = profiler.report().format_critical_path()
        assert "bounded by step4" in text
        assert "dominant phase" in text


class TestNamedLookup:
    def test_contains_and_get(self, profiler):
        profiler.record_superstep("step1/a", 100, 0)
        report = profiler.report()
        assert "step1/a" in report
        assert "ghost" not in report
        assert report.get("step1/a").executions == 1
        assert report.get("ghost") is None
        sentinel = report.record_named("step1/a")
        assert report.get("ghost", sentinel) is sentinel

    def test_lookup_is_indexed_not_scanned(self, profiler):
        # The index must be a dict keyed by name (O(1) lookups), built
        # lazily and cached on the immutable report.
        profiler.record_superstep("a", 1, 0)
        profiler.record_superstep("b", 1, 0)
        report = profiler.report()
        report.record_named("a")
        index = report._by_name
        assert isinstance(index, dict)
        assert report._by_name is index  # cached, not rebuilt
        assert set(index) == {"a", "b"}
