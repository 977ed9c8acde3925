"""Tests for the command-line interface."""

import json
import shutil

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_experiments_enumerated(self):
        args = build_parser().parse_args(["run", "table2", "--scale", "quick"])
        assert args.experiment == "table2"
        assert args.scale == "quick"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table9"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.size == 128
        assert args.solver == "hunipu"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1472 tiles" in out
        assert "a100" in out

    @pytest.mark.parametrize("solver", ["hunipu", "cpu", "date-nagi", "lapjv", "scipy"])
    def test_solve_each_solver(self, capsys, solver):
        assert main(["solve", "--size", "12", "--k", "5", "--solver", solver]) == 0
        out = capsys.readouterr().out
        assert "optimal cost" in out

    def test_solve_fastha_pads_non_power_of_two(self, capsys):
        assert main(["solve", "--size", "12", "--solver", "fastha"]) == 0
        assert "fastha" in capsys.readouterr().out

    def test_solve_uniform(self, capsys):
        assert main(["solve", "--size", "10", "--distribution", "uniform"]) == 0
        assert "uniform" in capsys.readouterr().out

    def test_run_table1(self, capsys, tmp_path):
        assert main(["run", "table1", "--scale", "quick",
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.txt").exists()

    def test_run_table2_quick(self, capsys):
        assert main(["run", "table2", "--scale", "quick"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestCheckCommand:
    def test_check_defaults_parse(self):
        args = build_parser().parse_args(["check"])
        assert args.size is None
        assert args.headroom == 0.0
        assert not args.strict_warnings

    def test_check_passes_on_solver_graphs(self, capsys, tmp_path):
        report_path = tmp_path / "check.json"
        assert main(["check", "--size", "8",
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "hunipu n=8 (compressed)" in out
        assert "OK" in out
        document = json.loads(report_path.read_text())
        assert document["schema"] == "repro.check/1"
        assert document["ok"] is True

    def test_check_no_batch_skips_batch_path(self, capsys):
        assert main(["check", "--size", "8", "--no-batch"]) == 0
        assert "batch-path" not in capsys.readouterr().out


class TestSolveBatch:
    @pytest.fixture()
    def batch_file(self, tmp_path, rng):
        path = tmp_path / "stream.npy"
        np.save(path, rng.uniform(0, 9, (3, 8, 8)))
        return path

    def test_batch_solves_stream(self, capsys, batch_file):
        assert main(["solve", "--batch", str(batch_file)]) == 0
        out = capsys.readouterr().out
        assert "3 instance(s)" in out
        assert "stream[2]" in out
        assert "throughput" in out

    def test_batch_with_generic_solver(self, capsys, batch_file):
        assert main(["solve", "--batch", str(batch_file),
                     "--solver", "scipy"]) == 0
        assert "group n=8" in capsys.readouterr().out

    def test_batch_json_mixed_sizes(self, capsys, tmp_path, rng):
        payload = {
            "instances": [
                {"name": "a", "costs": rng.uniform(0, 5, (4, 4)).tolist()},
                {"name": "b", "costs": rng.uniform(0, 5, (6, 6)).tolist()},
            ]
        }
        path = tmp_path / "stream.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", "--batch", str(path), "--solver", "scipy"]) == 0
        out = capsys.readouterr().out
        assert "2 group(s)" in out

    def test_batch_rejects_trace(self, capsys, batch_file, tmp_path):
        assert main(["solve", "--batch", str(batch_file),
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_run_batch_experiment_enumerated(self):
        args = build_parser().parse_args(["run", "batch", "--scale", "quick"])
        assert args.experiment == "batch"


class TestServeCommand:
    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests == 200
        assert args.workers == 4
        assert args.mode == "closed"
        assert not args.verify
        assert args.stats is None

    def test_serve_stats_schema_and_exit_code(self, capsys, tmp_path):
        stats_path = tmp_path / "serve.json"
        assert main([
            "serve", "--requests", "10", "--workers", "2",
            "--shapes", "6", "--shapes", "8", "--seed", "0",
            "--verify", "--stats", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "lost          : 0" in out
        assert "checked against scipy, all optimal" in out
        document = json.loads(stats_path.read_text())
        assert document["schema"] == "repro.serve/1"
        requests = document["requests"]
        accounted = (
            requests["completed"]
            + sum(requests["rejected"].values())
            + requests["in_flight"]
        )
        assert requests["submitted"] == accounted
        from repro.obs.export import validate_document

        validate_document(document)

    def test_serve_fault_injection_exercises_fallbacks(self, capsys, tmp_path):
        stats_path = tmp_path / "faulty.json"
        assert main([
            "serve", "--requests", "12", "--workers", "2",
            "--shapes", "6", "--seed", "1",
            "--inject-faults", "1.0",  # every engine run faults
            "--verify", "--expect-fallbacks", "--stats", str(stats_path),
        ]) == 0
        document = json.loads(stats_path.read_text())
        assert sum(document["fallbacks"].values()) > 0
        assert document["requests"]["degraded"] > 0

    def test_serve_expect_fallbacks_fails_without_faults(self, capsys):
        assert main([
            "serve", "--requests", "4", "--workers", "1",
            "--shapes", "6", "--expect-fallbacks",
        ]) == 1
        assert "degradation path never exercised" in capsys.readouterr().err

    def test_serve_usage_errors(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert main(["serve", "--inject-faults", "1.5"]) == 2

    def test_run_serve_experiment_enumerated(self):
        args = build_parser().parse_args(["run", "serve", "--scale", "quick"])
        assert args.experiment == "serve"

    def test_serve_span_and_prom_exports(self, capsys, tmp_path):
        spans_path = tmp_path / "spans.json"
        prom_path = tmp_path / "metrics.prom"
        stats_path = tmp_path / "stats.json"
        assert main([
            "serve", "--requests", "8", "--workers", "2",
            "--shapes", "6", "--seed", "0",
            "--stats", str(stats_path), "--stats-interval", "0.05",
            "--spans", str(spans_path), "--prom", str(prom_path),
        ]) == 0
        from repro.obs.export import validate_document

        spans_document = json.loads(spans_path.read_text())
        assert validate_document(spans_document) == "repro.spans/1"
        roots = [s for s in spans_document["spans"] if s["parent_id"] is None]
        assert roots and all(
            r["correlation_id"].startswith("req-") for r in roots
        )
        text = prom_path.read_text()
        assert text.endswith("\n")
        assert "# TYPE serve_completed counter" in text
        # The background writer refreshed the stats file during the run.
        validate_document(json.loads(stats_path.read_text()))

    def test_serve_stats_interval_requires_stats(self, capsys):
        assert main(["serve", "--requests", "4",
                     "--stats-interval", "0.1"]) == 2
        assert "--stats" in capsys.readouterr().err


class TestTraceCommand:
    def test_live_trace_exports_validate(self, capsys, tmp_path):
        perfetto_path = tmp_path / "timeline.json"
        spans_path = tmp_path / "spans.json"
        assert main([
            "trace", "--size", "12", "--seed", "3",
            "--perfetto", str(perfetto_path), "--spans", str(spans_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "ui.perfetto.dev" in out
        from repro.obs.export import validate_document, validate_perfetto

        perfetto = json.loads(perfetto_path.read_text())
        validate_perfetto(perfetto)
        assert perfetto["traceEvents"]
        # Both request spans (pid 1) and superstep slices (pid 2) are there.
        pids = {
            e["pid"] for e in perfetto["traceEvents"] if e.get("ph") == "X"
        }
        assert pids == {1, 2}
        spans_document = json.loads(spans_path.read_text())
        assert validate_document(spans_document) == "repro.spans/1"

    def test_convert_existing_trace(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        perfetto_path = tmp_path / "perfetto.json"
        assert main(["solve", "--size", "12",
                     "--trace", str(trace_path)]) == 0
        assert main(["trace", "--convert", str(trace_path),
                     "--perfetto", str(perfetto_path)]) == 0
        document = json.loads(perfetto_path.read_text())
        assert document["traceEvents"]

    def test_usage_errors(self, capsys):
        assert main(["trace", "--size", "8"]) == 2  # no output requested
        assert main(["trace", "--convert", "x.json",
                     "--spans", "s.json"]) == 2  # spans need a live solve


class TestProfileCommand:
    def test_prints_tables_and_diagnostics(self, capsys):
        assert main(["profile", "--size", "12", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "compute set" in out
        assert "% dev" in out
        assert "bounded by" in out  # the critical-path verdict
        assert "diagnostics" in out

    def test_tiles_flag_prints_straggler_table(self, capsys):
        assert main(["profile", "--size", "12", "--seed", "2", "--tiles"]) == 0
        out = capsys.readouterr().out
        assert "straggler supersteps" in out
        assert "tile(s) used" in out

    def test_tiles_json_embeds_valid_tile_document(self, capsys, tmp_path):
        from repro.obs.export import validate_document

        path = tmp_path / "prof.json"
        assert main(["profile", "--size", "12", "--seed", "2",
                     "--tiles", "--json", str(path)]) == 0
        document = json.loads(path.read_text())
        tile_document = document["tiles"]
        assert validate_document(tile_document) == "repro.tile-profile/1"
        # Per-tile compute cycles must re-sum to the aggregate profiler's
        # charged total (the acceptance criterion's exactness check).
        assert tile_document["compute_cycles"] == (
            document["profile"]["compute_cycles"]
        )
        assert sum(
            s["compute_cycles"] for s in tile_document["compute_sets"]
        ) == pytest.approx(document["profile"]["compute_cycles"], rel=1e-12)

    def test_heatmap_output_validates(self, capsys, tmp_path):
        from repro.obs.export import validate_document

        path = tmp_path / "heat.json"
        assert main(["profile", "--size", "12", "--seed", "2",
                     "--heatmap", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tile heatmap written" in out
        document = json.loads(path.read_text())
        assert validate_document(document) == "repro.tile-profile/1"
        assert document["heatmap"]["cycles"]

    def test_json_without_tiles_has_no_tile_document(self, capsys, tmp_path):
        path = tmp_path / "prof.json"
        assert main(["profile", "--size", "12", "--seed", "2",
                     "--json", str(path)]) == 0
        assert "tiles" not in json.loads(path.read_text())


class TestPerfCommand:
    def _record(self, store, extra=()):
        return main(["perf", "record", "--store", str(store),
                     "--rounds", "1", *extra])

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """One suite recording, copied by every test that only reads it."""
        store = tmp_path_factory.mktemp("perf") / "trends.json"
        assert self._record(store) == 0
        return store

    @pytest.fixture
    def store(self, recorded, tmp_path):
        return shutil.copy(recorded, tmp_path / "trends.json")

    def test_record_creates_valid_store(self, capsys, tmp_path):
        from repro.obs.export import validate_document

        store = tmp_path / "trends.json"
        assert self._record(store) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        document = json.loads(store.read_text())
        assert validate_document(document) == "repro.perf/1"
        assert document["runs"]

    def test_unchanged_compare_passes(self, capsys, store):
        assert main(["perf", "compare", "--store", str(store),
                     "--rounds", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_slowdown_fails(self, capsys, store):
        # The acceptance criterion: a synthetic 2x slowdown must exit
        # non-zero while the unchanged re-run (above) passes.
        assert main(["perf", "compare", "--store", str(store),
                     "--rounds", "1", "--inject-slowdown", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "REGRESSION" in out

    def test_budget_ratio_widens_wall_bands(self, capsys, store):
        assert main(["perf", "compare", "--store", str(store), "--rounds", "1",
                     "--inject-slowdown", "2", "--budget-ratio", "50"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_against_empty_store_passes(self, capsys, tmp_path):
        store = tmp_path / "empty.json"
        assert main(["perf", "compare", "--store", str(store),
                     "--rounds", "1"]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_report_shows_trend(self, capsys, store):
        assert main(["perf", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "solve/n16" in out
        assert "run(s)" in out

    def test_report_empty_store(self, capsys, tmp_path):
        assert main(["perf", "report",
                     "--store", str(tmp_path / "none.json")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_record_with_ingest(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({
            "schema": "repro.bench-run/1",
            "experiment": "batch",
            "scale": "quick",
            "environment": {},
            "records": [{
                "experiment": "batch", "solver": "hunipu-batch",
                "params": {"n": 16}, "device_time_s": 4e-4,
                "wall_time_s": 0.06, "extra": {},
            }],
            "shape_notes": [],
        }))
        store = tmp_path / "trends.json"
        assert self._record(store, ["--ingest", str(bench)]) == 0
        document = json.loads(store.read_text())
        names = [run["benchmark"] for run in document["runs"]]
        assert "bench/batch/hunipu-batch" in names


class TestStatsCommand:
    def test_prometheus_output(self, capsys):
        assert main(["stats", "--size", "8", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "solver_solves" in out

    def test_json_output(self, capsys):
        assert main(["stats", "--size", "8", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.metrics/1"

    def test_input_document(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["stats", "--size", "8", "--format", "json"]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["stats", "--input", str(path),
                     "--format", "prom"]) == 0
        assert "solver_solves" in capsys.readouterr().out

    def test_input_rejects_wrong_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.serve/1"}))
        assert main(["stats", "--input", str(path)]) == 2
        assert "repro.metrics/1" in capsys.readouterr().err


class TestTopCommand:
    def test_once_renders_frame(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        assert main([
            "serve", "--requests", "6", "--workers", "2",
            "--shapes", "6", "--seed", "0", "--stats", str(stats_path),
        ]) == 0
        capsys.readouterr()
        assert main(["top", str(stats_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "requests" in out

    def test_missing_file_fails(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope.json"),
                     "--once"]) == 1


class TestValidateCommand:
    def test_validate_ok_and_failure_exit_codes(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        assert main(["solve", "--size", "8", "--trace", str(good)]) == 0
        capsys.readouterr()
        assert main(["validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.trace/999"}))
        assert main(["validate", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "OK" in captured.out
        assert "FAIL" in captured.err
        assert "unknown schema" in captured.err

    def test_validate_trace_event_document(self, capsys, tmp_path):
        path = tmp_path / "perfetto.json"
        path.write_text(json.dumps({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
        ]}))
        assert main(["validate", str(path)]) == 0
        assert "trace-event" in capsys.readouterr().out

    def test_validate_unreadable_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["validate", str(missing)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_malformed_files_fail_without_traceback(self, capsys, tmp_path):
        # A structurally broken document and a non-UTF-8 file each get one
        # FAIL line; the good file after them is still reported.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.bench-run/1",
                                   "experiment": "e", "scale": "quick",
                                   "records": 3}))
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{not utf-8")
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"schema": "repro.metrics/1", "metrics": {}}))
        assert main(["validate", str(bad), str(binary), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("FAIL") == 2
        assert captured.out.count("OK") == 1
        assert "Traceback" not in captured.err + captured.out
