"""Tests for the schema-versioned JSON exporters and validators."""

import json

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult
from repro.bench.recording import RunRecord, save_bench_json
from repro.core import HunIPUSolver
from repro.data.synthetic import gaussian_instance
from repro.ipu.profiler import Profiler
from repro.ipu.spec import IPUSpec
from repro.obs import (
    MetricsRegistry,
    SchemaError,
    SpanCollector,
    Tracer,
    metrics_to_dict,
    perfetto_from_documents,
    profile_report_from_dict,
    profile_report_to_dict,
    spans_to_dict,
    to_jsonable,
    trace_to_dict,
    validate_document,
    validate_perfetto,
    write_json,
)
from repro.obs.export import tile_profile_to_dict


@pytest.fixture
def report():
    profiler = Profiler(IPUSpec.mk2())
    profiler.record_superstep("step1/a", 1000, 4096)
    profiler.record_superstep("step6/b", 2000, 0)
    return profiler.report()


class TestJsonable:
    def test_numpy_coercion(self):
        value = to_jsonable(
            {"a": np.int64(3), "b": np.float32(0.5), "c": np.arange(3)}
        )
        assert value == {"a": 3, "b": 0.5, "c": [0, 1, 2]}
        json.dumps(value)  # must be encodable

    def test_fallback_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert to_jsonable({"x": Opaque()}) == {"x": "<opaque>"}

    def test_tuples_and_sets_become_lists(self):
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable({3}) == [3]


class TestProfileExport:
    def test_round_trip(self, report):
        document = profile_report_to_dict(report)
        validate_document(document)
        rebuilt = profile_report_from_dict(json.loads(json.dumps(document)))
        assert rebuilt.supersteps == report.supersteps
        assert rebuilt.device_seconds == pytest.approx(report.device_seconds)
        assert rebuilt.host_io_seconds == pytest.approx(report.host_io_seconds)
        assert rebuilt.record_named("step1/a").exchange_bytes == 4096
        assert [r.name for r in rebuilt.records] == [r.name for r in report.records]

    def test_supersteps_mismatch_rejected(self, report):
        document = profile_report_to_dict(report)
        document["supersteps"] = 99
        with pytest.raises(SchemaError, match="supersteps"):
            validate_document(document)

    def test_missing_key_rejected(self, report):
        document = profile_report_to_dict(report)
        del document["records"][0]["compute_seconds"]
        with pytest.raises(SchemaError, match="compute_seconds"):
            validate_document(document)


class TestTraceExport:
    def test_trace_document_with_profile(self, report):
        tracer = Tracer()
        tracer.superstep("step1/a", total_seconds=0.1, compute_seconds=0.05)
        tracer.superstep("step6/b", total_seconds=0.2, compute_seconds=0.1)
        document = trace_to_dict(tracer, report, meta={"size": 8})
        assert validate_document(document) == "repro.trace/1"
        assert document["meta"]["size"] == 8
        json.dumps(to_jsonable(document))

    def test_superstep_count_mismatch_rejected(self, report):
        tracer = Tracer()
        tracer.superstep("step1/a", total_seconds=0.1)
        document = trace_to_dict(tracer, report)
        with pytest.raises(SchemaError, match="disagree|supersteps"):
            validate_document(document)

    def test_unknown_schema_rejected(self):
        with pytest.raises(SchemaError, match="unknown schema"):
            validate_document({"schema": "repro.trace/999"})


def _stream_document():
    """A minimal valid ``repro.stream/1`` document."""
    return {
        "schema": "repro.stream/1",
        "meta": {
            "size": 8,
            "ticks": 2,
            "drift_rows": 1,
            "seed": 0,
            "scale": "quick",
            "audit": "pass",
        },
        "ticks": [
            {
                "tick": 0,
                "mode": "cold",
                "changed_rows": 0,
                "cold_supersteps": 100,
                "warm_supersteps": 100,
                "saved": 0,
                "costs_equal": True,
                "scipy_optimal": True,
            },
            {
                "tick": 1,
                "mode": "warm",
                "changed_rows": 1,
                "cold_supersteps": 100,
                "warm_supersteps": 40,
                "saved": 60,
                "costs_equal": True,
                "scipy_optimal": True,
            },
        ],
        "totals": {
            "cold_supersteps": 200,
            "warm_supersteps": 140,
            "supersteps_saved": 60,
            "saved_fraction": 0.3,
        },
    }


class TestStreamExport:
    def test_valid_document(self):
        assert validate_document(_stream_document()) == "repro.stream/1"

    def test_cost_mismatch_rejected(self):
        document = _stream_document()
        document["ticks"][1]["costs_equal"] = False
        with pytest.raises(SchemaError, match="bit-identical"):
            validate_document(document)

    def test_oracle_mismatch_rejected(self):
        document = _stream_document()
        document["ticks"][1]["scipy_optimal"] = False
        with pytest.raises(SchemaError, match="scipy"):
            validate_document(document)

    def test_inconsistent_totals_rejected(self):
        document = _stream_document()
        document["totals"]["cold_supersteps"] = 999
        with pytest.raises(SchemaError, match="totals"):
            validate_document(document)

    def test_inconsistent_saved_rejected(self):
        document = _stream_document()
        document["ticks"][1]["saved"] = 61
        with pytest.raises(SchemaError, match="saved"):
            validate_document(document)

    def test_inconsistent_saved_fraction_rejected(self):
        document = _stream_document()
        document["totals"]["saved_fraction"] = 0.9
        with pytest.raises(SchemaError, match="saved_fraction"):
            validate_document(document)

    def test_empty_ticks_rejected(self):
        document = _stream_document()
        document["ticks"] = []
        with pytest.raises(SchemaError, match="non-empty"):
            validate_document(document)

    def test_bad_mode_rejected(self):
        document = _stream_document()
        document["ticks"][0]["mode"] = "tepid"
        with pytest.raises(SchemaError, match="mode"):
            validate_document(document)


class TestMetricsExport:
    def test_snapshot_document(self):
        registry = MetricsRegistry()
        registry.counter("solver.solves").inc()
        registry.histogram("h", buckets=(1, 2)).observe(1.5)
        document = metrics_to_dict(registry)
        assert validate_document(document) == "repro.metrics/1"
        json.dumps(document)

    def test_bad_instrument_type_rejected(self):
        document = {"schema": "repro.metrics/1", "metrics": {"x": {"type": "meter"}}}
        with pytest.raises(SchemaError, match="meter"):
            validate_document(document)


class TestBenchExport:
    def _result(self):
        records = (
            RunRecord(
                "table2",
                "hunipu",
                {"n": 32, "k": 100},
                1e-3,
                0.5,
                extra={"supersteps": np.int64(808)},
            ),
        )
        return ExperimentResult("table2", "quick", records, ("table text",))

    def test_save_bench_json(self, tmp_path):
        path = save_bench_json(self._result(), tmp_path)
        assert path == tmp_path / "BENCH_table2.json"
        document = json.loads(path.read_text())
        assert validate_document(document) == "repro.bench-run/1"
        assert document["records"][0]["extra"]["supersteps"] == 808
        assert document["environment"]["python"]

    def test_write_json_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.json"
        write_json(target, {"schema": "x"})
        assert json.loads(target.read_text()) == {"schema": "x"}


class TestEndToEndDocuments:
    def test_real_solve_trace_validates(self, tmp_path):
        tracer = Tracer()
        solver = HunIPUSolver(tracer=tracer)
        result = solver.solve(gaussian_instance(16, 50, seed=2))
        document = trace_to_dict(tracer, result.stats["profile"])
        path = write_json(tmp_path / "trace.json", document)
        validate_document(json.loads(path.read_text()))


def _spans_fixture() -> SpanCollector:
    spans = SpanCollector()
    with spans.span("request", correlation_id="req-000001", root=True):
        with spans.span("queue"):
            pass
        with spans.span("execute"):
            with spans.span("engine.run", mode="compressed"):
                pass
    return spans


class TestSpansExport:
    def test_document_validates(self):
        document = spans_to_dict(_spans_fixture(), meta={"seed": 1})
        assert validate_document(document) == "repro.spans/1"
        assert document["meta"]["seed"] == 1
        assert document["meta"]["unfinished"] == 0
        assert len(document["spans"]) == 4
        json.dumps(to_jsonable(document))

    def test_unfinished_spans_are_omitted_but_counted(self):
        spans = SpanCollector()
        spans.start("request", correlation_id="req-1")  # never ended
        done = spans.start("other", correlation_id="req-2")
        spans.end(done)
        document = spans_to_dict(spans)
        assert [s["correlation_id"] for s in document["spans"]] == ["req-2"]
        assert document["meta"]["unfinished"] == 1

    def test_bad_status_rejected(self):
        document = spans_to_dict(_spans_fixture())
        document["spans"][0]["status"] = "meh"
        with pytest.raises(SchemaError, match="unknown status"):
            validate_document(document)

    def test_missing_parent_rejected(self):
        document = spans_to_dict(_spans_fixture())
        document["spans"][-1]["parent_id"] = 9999
        with pytest.raises(SchemaError, match="not in document"):
            validate_document(document)

    def test_cross_correlation_parent_rejected(self):
        document = spans_to_dict(_spans_fixture())
        document["spans"][0]["correlation_id"] = "req-other"
        with pytest.raises(SchemaError, match="correlation id"):
            validate_document(document)

    def test_end_before_start_rejected(self):
        document = spans_to_dict(_spans_fixture())
        document["spans"][0]["end_s"] = document["spans"][0]["start_s"] - 1.0
        with pytest.raises(SchemaError, match="before it starts"):
            validate_document(document)

    def test_duplicate_span_id_rejected(self):
        document = spans_to_dict(_spans_fixture())
        document["spans"][1]["span_id"] = document["spans"][0]["span_id"]
        with pytest.raises(SchemaError, match="duplicate span id"):
            validate_document(document)


class TestPerfettoExport:
    def _trace_document(self, report):
        tracer = Tracer()
        tracer.superstep("step1/a", total_seconds=0.1, compute_seconds=0.05)
        tracer.superstep("step6/b", total_seconds=0.2, compute_seconds=0.1)
        return trace_to_dict(tracer, report)

    def test_requires_at_least_one_document(self):
        with pytest.raises(SchemaError, match="spans and/or trace"):
            perfetto_from_documents()

    def test_spans_only(self):
        perfetto = perfetto_from_documents(
            spans_document=spans_to_dict(_spans_fixture())
        )
        validate_perfetto(perfetto)
        slices = [e for e in perfetto["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 4
        assert {e["pid"] for e in slices} == {1}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
        request = next(e for e in slices if e["name"] == "request")
        assert request["args"]["correlation_id"] == "req-000001"
        lanes = [
            e
            for e in perfetto["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert lanes[0]["args"]["name"] == "req-000001"

    def test_trace_only(self, report):
        perfetto = perfetto_from_documents(
            trace_document=self._trace_document(report)
        )
        validate_perfetto(perfetto)
        slices = [e for e in perfetto["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in slices] == ["step1/a", "step6/b"]
        # Supersteps carry modeled charges: back-to-back slices.
        assert slices[0]["ts"] == 0.0
        assert slices[1]["ts"] == pytest.approx(slices[0]["dur"])

    def test_merged_engine_lane_is_offset_to_engine_run(self, report):
        spans_document = spans_to_dict(_spans_fixture())
        engine_span = next(
            s for s in spans_document["spans"] if s["name"] == "engine.run"
        )
        base = min(s["start_s"] for s in spans_document["spans"])
        perfetto = perfetto_from_documents(
            spans_document=spans_document,
            trace_document=self._trace_document(report),
        )
        validate_perfetto(perfetto)
        superstep = next(
            e
            for e in perfetto["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 2
        )
        assert superstep["ts"] == pytest.approx(
            (engine_span["start_s"] - base) * 1e6
        )

    def test_validate_perfetto_failures(self):
        with pytest.raises(SchemaError, match="traceEvents"):
            validate_perfetto({"events": []})
        with pytest.raises(SchemaError, match="expected a list"):
            validate_perfetto({"traceEvents": {}})
        with pytest.raises(SchemaError, match="negative duration"):
            validate_perfetto(
                {
                    "traceEvents": [
                        {
                            "name": "x",
                            "ph": "X",
                            "ts": 0.0,
                            "dur": -1.0,
                            "pid": 1,
                            "tid": 1,
                        }
                    ]
                }
            )


def _deep_report(size=12, seed=4):
    solver = HunIPUSolver(profile_tiles=True)
    return solver.solve(gaussian_instance(size, 100, seed=seed)).stats["profile"]


class TestTileProfileExport:
    def test_valid_document_from_real_solve(self):
        report = _deep_report()
        document = tile_profile_to_dict(report.tiles, meta={"size": 12})
        assert validate_document(document) == "repro.tile-profile/1"
        assert document["meta"]["size"] == 12
        assert document["tiles_used"] == len(document["tiles"])
        json.dumps(to_jsonable(document))

    def test_heatmap_included_on_request(self):
        report = _deep_report()
        document = tile_profile_to_dict(report.tiles, include_heatmap=True)
        validate_document(document)
        grid = document["heatmap"]
        assert grid["width"] * grid["rows"] >= document["total_tiles"]
        flat = [cell for row in grid["cycles"] for cell in row]
        assert sum(flat) == pytest.approx(document["vertex_cycles"])

    def test_series_truncation_is_recorded_not_silent(self):
        report = _deep_report()
        document = tile_profile_to_dict(report.tiles, max_series=3)
        assert len(document["series"]) == 3
        assert document["series_truncated"] == len(report.tiles.series) - 3
        validate_document(document)  # still valid with the marker

    def test_cycle_sum_mismatch_rejected(self):
        document = tile_profile_to_dict(_deep_report().tiles)
        document["tiles"][0]["cycles"] += 1.0
        with pytest.raises(SchemaError, match="cycles"):
            validate_document(document)

    def test_per_tensor_attribution_must_sum_exactly(self):
        document = tile_profile_to_dict(_deep_report().tiles)
        target = next(
            s for s in document["compute_sets"] if s["exchange_by_tensor"]
        )
        tensor = next(iter(target["exchange_by_tensor"]))
        target["exchange_by_tensor"][tensor] += 1
        with pytest.raises(SchemaError, match="exchange"):
            validate_document(document)

    def test_tiles_used_mismatch_rejected(self):
        document = tile_profile_to_dict(_deep_report().tiles)
        document["tiles_used"] += 1
        with pytest.raises(SchemaError, match="tiles"):
            validate_document(document)


class TestPerfDocument:
    def _document(self):
        return {
            "schema": "repro.perf/1",
            "meta": {},
            "runs": [
                {
                    "benchmark": "solve/n16",
                    "params": {"n": 16},
                    "metrics": {"wall_seconds": 0.01, "supersteps": 200},
                    "context": {
                        "git_rev": "abc1234",
                        "timestamp": "2026-08-08T00:00:00+00:00",
                        "scale": "quick",
                    },
                }
            ],
        }

    def test_valid_document(self):
        assert validate_document(self._document()) == "repro.perf/1"

    def test_empty_runs_is_valid(self):
        document = self._document()
        document["runs"] = []
        validate_document(document)

    def test_missing_context_key_rejected(self):
        document = self._document()
        del document["runs"][0]["context"]["git_rev"]
        with pytest.raises(SchemaError, match="git_rev"):
            validate_document(document)

    def test_non_numeric_metric_rejected(self):
        document = self._document()
        document["runs"][0]["metrics"]["wall_seconds"] = "fast"
        with pytest.raises(SchemaError, match="expected a number"):
            validate_document(document)

    def test_empty_metrics_rejected(self):
        document = self._document()
        document["runs"][0]["metrics"] = {}
        with pytest.raises(SchemaError, match="metric"):
            validate_document(document)


class TestPerfettoTileLane:
    def test_tile_document_alone(self):
        report = _deep_report()
        tile_document = tile_profile_to_dict(report.tiles)
        perfetto = perfetto_from_documents(tile_document=tile_document)
        validate_perfetto(perfetto)
        slices = [e for e in perfetto["traceEvents"] if e["ph"] == "X"]
        compute = [s for s in tile_document["series"] if s["straggler_tile"] >= 0]
        assert len(slices) == len(compute)
        assert all(e["tid"] == 2 for e in slices)
        assert all(e["name"].startswith("tile ") for e in slices)
        counters = [e for e in perfetto["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == len(compute)
        assert all("max_over_mean" in e["args"] for e in counters)
        lane_names = [
            e["args"]["name"]
            for e in perfetto["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "straggler tiles" in lane_names

    def test_tile_lane_aligns_with_superstep_lane(self):
        # Both lanes advance by the same per-superstep total_seconds, so
        # the tile slices must start inside the run's modeled window and
        # the final cursor must land on device_seconds.
        report = _deep_report()
        tracer = Tracer()
        for sample in report.tiles.series:
            tracer.superstep(
                sample.name,
                total_seconds=sample.total_seconds,
                compute_seconds=sample.compute_seconds,
            )
        perfetto = perfetto_from_documents(
            trace_document=trace_to_dict(tracer, report),
            tile_document=tile_profile_to_dict(report.tiles),
        )
        validate_perfetto(perfetto)
        events = perfetto["traceEvents"]
        superstep_ts = [e["ts"] for e in events if e["ph"] == "X" and e["tid"] == 1]
        tile_ts = [e["ts"] for e in events if e["ph"] == "X" and e["tid"] == 2]
        # Every tile slice starts exactly when some superstep slice starts.
        starts = {round(ts, 6) for ts in superstep_ts}
        assert all(round(ts, 6) in starts for ts in tile_ts)


class TestGoldenTraceSchema:
    def _document(self):
        return {
            "schema": "repro.golden-trace/1",
            "instance": {"size": 16, "seed": 7},
            "total_cost": 12.5,
            "supersteps": 42,
            "augmentations": 16,
            "loops": {"phase1": 3},
            "branches": {"taken": 5},
        }

    def test_valid_document(self):
        assert validate_document(self._document()) == "repro.golden-trace/1"

    def test_nonpositive_supersteps_rejected(self):
        document = self._document()
        document["supersteps"] = 0
        with pytest.raises(SchemaError, match="positive"):
            validate_document(document)


def _multi_document():
    """A minimal valid ``repro.multi/1`` document."""
    def row(ipus, size, inter_bytes, inter_syncs):
        return {
            "ipus": ipus,
            "size": size,
            "supersteps": 100 * size,
            "device_seconds": 1e-3 * size,
            "compute_seconds": 4e-4 * size,
            "sync_seconds": 3e-4 * size,
            "exchange_seconds": 3e-4 * size,
            "inter_ipu_bytes": inter_bytes,
            "inter_ipu_syncs": inter_syncs,
            "inter_overhead_seconds": 1e-6 * inter_syncs,
            "optimal": True,
        }

    return {
        "schema": "repro.multi/1",
        "meta": {"scale": "quick", "chip_tiles": 8, "ipus": [1, 2], "sizes": [16, 32]},
        "rows": [
            row(1, 16, 0, 0),
            row(1, 32, 0, 0),
            row(2, 16, 4096, 900),
            row(2, 32, 16384, 3600),
        ],
        "crossover": {"2": 32},
    }


class TestMultiExport:
    def test_valid_document(self):
        assert validate_document(_multi_document()) == "repro.multi/1"

    def test_null_crossover_accepted(self):
        document = _multi_document()
        document["crossover"] = {"2": None}
        validate_document(document)

    def test_missing_row_key_rejected(self):
        document = _multi_document()
        del document["rows"][0]["inter_overhead_seconds"]
        with pytest.raises(SchemaError, match="inter_overhead_seconds"):
            validate_document(document)

    def test_suboptimal_row_rejected(self):
        document = _multi_document()
        document["rows"][3]["optimal"] = False
        with pytest.raises(SchemaError, match="oracle"):
            validate_document(document)

    def test_single_ipu_cross_chip_traffic_rejected(self):
        document = _multi_document()
        document["rows"][0]["inter_ipu_bytes"] = 64
        with pytest.raises(SchemaError, match="cross-chip"):
            validate_document(document)

    def test_unsorted_sizes_rejected(self):
        document = _multi_document()
        document["rows"][0], document["rows"][1] = (
            document["rows"][1],
            document["rows"][0],
        )
        with pytest.raises(SchemaError, match="increasing"):
            validate_document(document)

    def test_crossover_for_unknown_group_rejected(self):
        document = _multi_document()
        document["crossover"]["4"] = 16
        with pytest.raises(SchemaError, match="no rows"):
            validate_document(document)

    def test_crossover_size_not_in_rows_rejected(self):
        document = _multi_document()
        document["crossover"]["2"] = 48
        with pytest.raises(SchemaError, match="not among"):
            validate_document(document)


class TestPerfettoIPULanes:
    def _multi_trace_document(self):
        """Trace a real 2-chip solve so supersteps carry ipus/inter bytes."""
        import numpy as np

        from repro.core.solver import HunIPUSolver
        from repro.ipu.cluster import ClusterSpec
        from repro.lap.problem import LAPInstance

        tracer = Tracer()
        solver = HunIPUSolver(
            spec=ClusterSpec.toy(num_tiles=2, num_ipus=2).system(),
            tracer=tracer,
        )
        rng = np.random.default_rng(2)
        result = solver.solve(LAPInstance(rng.uniform(1, 30, (8, 8))))
        return trace_to_dict(tracer, result.stats["profile"])

    def test_one_lane_per_ipu(self):
        perfetto = perfetto_from_documents(
            trace_document=self._multi_trace_document()
        )
        validate_perfetto(perfetto)
        events = perfetto["traceEvents"]
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"IPU 0", "IPU 1"} <= lane_names
        # The mirrored slices attribute each superstep to its chips.
        ipu_slices = [
            e for e in events if e["ph"] == "X" and "ipu" in e.get("args", {})
        ]
        assert {e["args"]["ipu"] for e in ipu_slices} == {0, 1}

    def test_inter_ipu_byte_counter_emitted_and_closed(self):
        perfetto = perfetto_from_documents(
            trace_document=self._multi_trace_document()
        )
        counters = [
            e
            for e in perfetto["traceEvents"]
            if e["ph"] == "C" and e["name"] == "inter-IPU exchange bytes"
        ]
        assert counters
        assert any(e["args"]["bytes"] > 0 for e in counters)
        assert counters[-1]["args"]["bytes"] == 0  # series closed at zero

    def test_single_ipu_trace_has_no_lanes_or_counter(self, report):
        tracer = Tracer()
        tracer.superstep("step1/a", total_seconds=0.1, compute_seconds=0.05)
        tracer.superstep("step6/b", total_seconds=0.2, compute_seconds=0.1)
        perfetto = perfetto_from_documents(
            trace_document=trace_to_dict(tracer, report)
        )
        events = perfetto["traceEvents"]
        assert not any(
            e["ph"] == "M" and e["args"].get("name", "").startswith("IPU ")
            for e in events
            if e["name"] == "thread_name"
        )
        assert not any(e["ph"] == "C" for e in events)


# ----------------------------------------------------------------------
# Cross-field invariants, one row each: (valid fixture, mutation, message)
# ----------------------------------------------------------------------


def _serve_document():
    """A minimal valid ``repro.serve/1`` document with every optional block."""
    return {
        "schema": "repro.serve/1",
        "meta": {"workers": 1},
        "requests": {
            "submitted": 6,
            "completed": 4,
            "degraded": 1,
            "deadline_missed": 0,
            "rejected": {"queue_full": 1},
            "in_flight": 1,
        },
        "latency_seconds": {
            "count": 4, "mean": 0.01, "p50": 0.01, "p95": 0.02, "p99": 0.02,
            "max": 0.02,
        },
        "queue": {"depth": 1, "peak_depth": 2},
        "backends": {"approx": 1, "hunipu": 3},
        "tiers": {"approx": 1, "auto": 3},
        "fallbacks": {"engine_error": 1, "deadline": 0, "retries": 2},
        "batching": {"batches": 4, "coalesced": 0},
        "pool": {
            "hits": 3, "misses": 1, "evictions": 0, "resident_bytes": 0,
            "shapes": [8],
        },
        "approx": {
            "responses": 1,
            "mean_gap_bound": 0.5,
            "max_gap_bound": 0.5,
            "by_tier": {"approx": {"responses": 1, "mean_gap_bound": 0.5}},
        },
        "sessions": {
            "capacity": 4, "sessions": 1, "hits": 2, "misses": 1,
            "warm_solves": 2, "supersteps_saved": 10,
        },
    }


def _solve_response_document():
    return {
        "schema": "repro.solve-response/1",
        "request_id": 1,
        "correlation_id": "req-000001",
        "status": "completed",
        "assignment": [1, 0, 2],
        "total_cost": 3.0,
        "backend": "hunipu",
        "latency_s": 0.01,
        "gap_bound": None,
    }


def _rejected_response_document():
    document = _solve_response_document()
    for key in ("assignment", "total_cost", "backend", "latency_s", "gap_bound"):
        del document[key]
    document["status"] = "rejected"
    document["reject"] = {"code": "queue_full", "detail": "full"}
    return document


_DEEP_TILES = []


def _tile_document():
    if not _DEEP_TILES:
        _DEEP_TILES.append(_deep_report().tiles)
    return tile_profile_to_dict(_DEEP_TILES[0], include_heatmap=True)


def _check_document():
    return {
        "schema": "repro.check/1",
        "ok": False,
        "reports": [
            {
                "label": "g",
                "ok": False,
                "compute_sets_checked": 3,
                "diagnostics": [
                    {"code": "C1.WRITE_WRITE", "severity": "error", "message": "m"},
                    {"code": "C3.IMBALANCE", "severity": "warning", "message": "m"},
                ],
            }
        ],
    }


def _trace_document():
    tracer = Tracer()
    tracer.superstep("step1/a", total_seconds=0.1, compute_seconds=0.05)
    tracer.superstep("step6/b", total_seconds=0.2, compute_seconds=0.1)
    return trace_to_dict(tracer)


def _perfetto_document():
    return {
        "traceEvents": [
            {"name": "x", "ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1},
            {"name": "c", "ph": "C", "ts": 0.0, "pid": 1, "args": {}},
        ]
    }


def _set(path, value):
    """Mutation: set ``document[path[0]][path[1]]... = value``."""
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


def _bump(path, delta=1):
    def mutate(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] += delta
    return mutate


def _both(*mutations):
    def mutate(document):
        for mutation in mutations:
            mutation(document)
    return mutate


def _first_tensor(document):
    return next(iter(document["exchange_by_tensor"]))


INVARIANT_CASES = [
    # repro.serve/1
    ("serve-lost", _serve_document, _bump(("requests", "submitted")),
     "lost or double-counted"),
    ("serve-degraded", _serve_document, _set(("requests", "degraded"), 5),
     "more degraded requests than completed"),
    ("serve-backends", _serve_document, _bump(("backends", "hunipu")),
     "backends account for"),
    ("serve-tiers", _serve_document, _bump(("tiers", "auto")),
     "tiers account for"),
    ("serve-negative-reject", _serve_document,
     _set(("requests", "rejected", "queue_full"), -1), "non-negative integer"),
    ("serve-approx-mean", _serve_document,
     _set(("approx", "mean_gap_bound"), 0.75), "exceeds the max gap bound"),
    ("serve-approx-by-tier", _serve_document,
     _bump(("approx", "by_tier", "approx", "responses")),
     "per-tier responses sum"),
    ("serve-approx-backends", _serve_document,
     _both(_bump(("approx", "responses")),
           _bump(("approx", "by_tier", "approx", "responses"))),
     "backends breakdown served"),
    ("serve-sessions", _serve_document, _set(("sessions", "warm_solves"), 3),
     "more warm solves than seed hits"),
    # repro.solve-response/1
    ("response-permutation", _solve_response_document,
     _set(("assignment",), [0, 0, 2]), "permutation"),
    ("response-gap", _solve_response_document, _set(("gap_bound",), -0.5),
     "non-negative number"),
    ("response-reject-code", _rejected_response_document,
     _set(("reject", "code"), "nope"), "unknown reject code"),
    ("response-no-reject", _rejected_response_document, _delete(("reject",)),
     "typed reject object"),
    # repro.tile-profile/1
    ("tile-range", _tile_document,
     lambda d: d["tiles"][0].__setitem__("tile", d["total_tiles"]),
     "out of range"),
    ("tile-series", _tile_document, _bump(("supersteps",)),
     "compute entries for"),
    ("tile-heatmap", _tile_document,
     _both(_set(("heatmap", "width"), 1), _set(("heatmap", "rows"), 1)),
     "grid smaller than the tile count"),
    ("tile-run-tensor", _tile_document,
     lambda d: d["exchange_by_tensor"].__setitem__(
         _first_tensor(d), d["exchange_by_tensor"][_first_tensor(d)] + 1),
     "run-level per-tensor bytes"),
    # repro.check/1
    ("check-severity", _check_document,
     _set(("reports", 0, "diagnostics", 1, "severity"), "info"),
     "unknown severity"),
    ("check-report-ok", _check_document, _set(("reports", 0, "ok"), True),
     "but the report lists 1 error"),
    # repro.trace/1
    ("trace-imbalance-max", _trace_document,
     _delete(("summary", "tile_imbalance", "max")),
     r"trace\.summary\.tile_imbalance\.max: missing required key"),
    # Perfetto trace-event JSON (not schema-stamped)
    ("perfetto-ts", _perfetto_document,
     _set(("traceEvents", 0, "ts"), -1.0), "negative timestamp"),
    ("perfetto-dur", _perfetto_document, _delete(("traceEvents", 0, "dur")),
     r"traceEvents\[0\]\.dur: missing required key"),
]


def _validate_any(document):
    if "traceEvents" in document:
        validate_perfetto(document)
    else:
        validate_document(document)


@pytest.mark.parametrize(
    "make, mutate, fragment",
    [case[1:] for case in INVARIANT_CASES],
    ids=[case[0] for case in INVARIANT_CASES],
)
def test_invariant_is_enforced(make, mutate, fragment):
    document = make()
    _validate_any(document)  # the fixture itself is valid
    mutate(document)
    with pytest.raises(SchemaError, match=fragment):
        _validate_any(document)


# ----------------------------------------------------------------------
# Malformed outside input raises SchemaError, never a bare Python error
# ----------------------------------------------------------------------


def _profile_with_string_executions():
    document = profile_report_to_dict(_REPORT_FOR_MALFORMED)
    document["records"][0]["executions"] = "x"
    return document


def _multi_with_word_crossover():
    document = _multi_document()
    document["crossover"] = {"two": 32}
    return document


_profiler = Profiler(IPUSpec.mk2())
_profiler.record_superstep("step1/a", 1000, 4096)
_REPORT_FOR_MALFORMED = _profiler.report()

MALFORMED_CASES = [
    ("unhashable-schema", lambda: {"schema": ["x"]}, "document.schema"),
    ("metrics-list", lambda: {"schema": "repro.metrics/1", "metrics": []},
     r"metrics\.metrics: expected an object"),
    ("multi-word-crossover", _multi_with_word_crossover, "multi"),
    ("profile-string-executions", _profile_with_string_executions, "profile"),
    ("bench-records-int",
     lambda: {"schema": "repro.bench-run/1", "experiment": "e", "scale": "quick",
              "records": 3},
     r"bench\.records: expected a list"),
    ("not-an-object", lambda: [1, 2], "document: expected an object"),
]


@pytest.mark.parametrize(
    "make, fragment",
    [case[1:] for case in MALFORMED_CASES],
    ids=[case[0] for case in MALFORMED_CASES],
)
def test_malformed_input_raises_schema_error(make, fragment):
    with pytest.raises(SchemaError, match=fragment):
        validate_document(make())
