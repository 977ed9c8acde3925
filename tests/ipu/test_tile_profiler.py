"""Tests for deep (per-tile) profiling: TileProfile and its accounting.

The deep profiler attributes every compute superstep's cycles to the
physical tiles that executed them.  These tests drive the ``Profiler``
directly with synthetic supersteps (exact control over which tile does
what) and pin the attribution identities: charged vs vertex cycles,
straggler counts, occupancy, the imbalance series, heatmap layout, and
per-tensor exchange attribution.
"""

import numpy as np
import pytest

from repro.ipu.profiler import Profiler
from repro.ipu.spec import IPUSpec


@pytest.fixture
def spec():
    return IPUSpec.toy()


@pytest.fixture
def profiler(spec):
    return Profiler(spec, tiles=True)


def _superstep(profiler, name, tile_ids, tile_cycles, **kwargs):
    tile_ids = np.asarray(tile_ids, dtype=np.int64)
    tile_cycles = np.asarray(tile_cycles, dtype=np.float64)
    return profiler.record_superstep(
        name,
        compute_cycles=float(tile_cycles.max()),
        exchange_bytes=kwargs.pop("exchange_bytes", 0),
        tile_ids=tile_ids,
        tile_cycles=tile_cycles,
        **kwargs,
    )


class TestTileAttribution:
    def test_cycles_attributed_to_the_right_tiles(self, profiler):
        _superstep(profiler, "step1/a", [0, 2], [100.0, 300.0])
        _superstep(profiler, "step1/a", [2, 3], [50.0, 10.0])
        tiles = profiler.report().tiles
        assert tiles.tile_cycles[0] == 100.0
        assert tiles.tile_cycles[2] == 350.0
        assert tiles.tile_cycles[3] == 10.0
        assert tiles.tile_cycles[1] == 0.0
        assert tiles.tiles_used == 3
        assert tiles.supersteps == 2

    def test_charged_vs_vertex_cycles(self, profiler):
        # Charged = per-superstep max; vertex = everything every tile ran.
        _superstep(profiler, "a", [0, 1], [100.0, 300.0])
        tiles = profiler.report().tiles
        assert tiles.compute_cycles == 300.0
        assert tiles.vertex_cycles == 400.0

    def test_straggler_is_the_per_superstep_max_tile(self, profiler):
        _superstep(profiler, "a", [0, 1], [10.0, 90.0])
        _superstep(profiler, "a", [0, 1], [80.0, 20.0])
        _superstep(profiler, "a", [0, 1], [10.0, 70.0])
        tiles = profiler.report().tiles
        assert tiles.tile_straggler_count[1] == 2
        assert tiles.tile_straggler_count[0] == 1
        top = tiles.stragglers(k=1)
        assert top[0]["tile"] == 1
        assert top[0]["straggler_supersteps"] == 2

    def test_active_supersteps_count_participation(self, profiler):
        _superstep(profiler, "a", [0, 1], [1.0, 1.0])
        _superstep(profiler, "a", [0], [1.0])
        tiles = profiler.report().tiles
        assert tiles.tile_active_supersteps[0] == 2
        assert tiles.tile_active_supersteps[1] == 1

    def test_per_name_compute_cycles_match_step_records(self, profiler):
        # The per-compute-set rows accumulate the identical charged-cycle
        # stream as the StepRecords: exact equality, not approx.
        for index in range(7):
            _superstep(profiler, f"step{index % 3}/x", [0, 1], [10.0, 5.0 + index])
        report = profiler.report()
        by_name = {stats.name: stats for stats in report.tiles.compute_sets}
        for record in report.records:
            assert by_name[record.name].compute_cycles == record.compute_cycles
            assert by_name[record.name].executions == record.executions
            assert by_name[record.name].exchange_bytes == record.exchange_bytes


class TestCopySupersteps:
    def test_copy_kept_in_series_but_not_supersteps(self, profiler):
        _superstep(profiler, "step1/a", [0], [10.0])
        charge = profiler.record_superstep(
            "copy/x", compute_cycles=0.0, exchange_bytes=128
        )
        tiles = profiler.report().tiles
        # The series mirrors the engine's superstep timeline (copies
        # included, flagged -1) while `supersteps` stays compute-only.
        assert len(tiles.series) == 2
        assert tiles.supersteps == 1
        copy_sample = tiles.series[1]
        assert copy_sample.straggler_tile == -1
        assert copy_sample.total_seconds == pytest.approx(charge.total_seconds)

    def test_copies_do_not_dilute_imbalance(self, profiler):
        _superstep(profiler, "a", [0, 1], [30.0, 10.0])  # imbalance 1.5
        for _ in range(10):
            profiler.record_superstep("copy/x", 0.0, 64)
        stats = profiler.report().tiles.imbalance_over_time()
        assert stats["mean"] == pytest.approx(1.5)
        assert stats["supersteps"] == 1.0

    def test_copy_exchange_still_counted_per_name(self, profiler):
        profiler.record_superstep("copy/x", 0.0, 100)
        profiler.record_superstep("copy/x", 0.0, 28)
        tiles = profiler.report().tiles
        (row,) = [s for s in tiles.compute_sets if s.name == "copy/x"]
        assert row.exchange_bytes == 128
        assert row.executions == 2


class TestOccupancyAndImbalance:
    def test_occupancy_over_used_tiles_only(self, profiler):
        _superstep(profiler, "a", [0, 1], [100.0, 50.0])
        _superstep(profiler, "a", [0], [100.0])
        occupancy = profiler.report().tiles.occupancy()
        assert occupancy["tiles_used"] == 2.0
        # tile 0 active 2/2, tile 1 active 1/2 -> mean 0.75.
        assert occupancy["mean_active_fraction"] == pytest.approx(0.75)
        # cycles over used tiles: [200, 50] -> max/mean = 200/125.
        assert occupancy["imbalance"] == pytest.approx(200.0 / 125.0)

    def test_empty_profile(self, profiler):
        tiles = profiler.report().tiles
        assert tiles.occupancy() == {
            "tiles_used": 0.0,
            "mean_active_fraction": 0.0,
            "imbalance": 1.0,
        }
        assert tiles.imbalance_over_time() == {
            "mean": 1.0,
            "max": 1.0,
            "supersteps": 0.0,
        }
        assert tiles.stragglers() == []

    def test_imbalance_series_values(self, profiler):
        _superstep(profiler, "a", [0, 1], [40.0, 10.0])  # 40/25 = 1.6
        _superstep(profiler, "a", [0, 1], [30.0, 30.0])  # 1.0
        stats = profiler.report().tiles.imbalance_over_time()
        assert stats["max"] == pytest.approx(1.6)
        assert stats["mean"] == pytest.approx(1.3)
        samples = profiler.report().tiles.series
        assert samples[0].imbalance == pytest.approx(1.6)
        assert samples[0].straggler_tile == 0


class TestHeatmap:
    def test_default_width_is_squarest(self, profiler):
        _superstep(profiler, "a", [0], [5.0])
        grid = profiler.report().tiles.heatmap()
        total = profiler.report().tiles.total_tiles
        assert grid["width"] * grid["rows"] >= total
        assert len(grid["cycles"]) == grid["rows"]
        assert all(len(row) == grid["width"] for row in grid["cycles"])

    def test_explicit_width_and_values(self, profiler):
        _superstep(profiler, "a", [0, 3], [5.0, 7.0])
        grid = profiler.report().tiles.heatmap(width=2)
        flat = [cell for row in grid["cycles"] for cell in row]
        assert flat[0] == 5.0
        assert flat[3] == 7.0
        assert sum(flat) == pytest.approx(12.0)

    def test_grid_total_preserves_vertex_cycles(self, profiler):
        _superstep(profiler, "a", [0, 1, 2], [1.0, 2.0, 3.0])
        tiles = profiler.report().tiles
        grid = tiles.heatmap(width=3)
        flat = [cell for row in grid["cycles"] for cell in row]
        assert sum(flat) == pytest.approx(tiles.vertex_cycles)


class TestExchangeByTensor:
    def test_accumulates_per_tensor_and_per_set(self, profiler):
        _superstep(
            profiler,
            "step6/update",
            [0],
            [10.0],
            exchange_bytes=96,
            exchange_by_tensor={"slack": 64, "theta": 32},
        )
        _superstep(
            profiler,
            "step6/update",
            [0],
            [10.0],
            exchange_bytes=96,
            exchange_by_tensor={"slack": 64, "theta": 32},
        )
        tiles = profiler.report().tiles
        assert tiles.exchange_by_tensor == {"slack": 128, "theta": 64}
        (row,) = [s for s in tiles.compute_sets if s.name == "step6/update"]
        assert row.exchange_by_tensor == {"slack": 128, "theta": 64}
        assert sum(row.exchange_by_tensor.values()) == row.exchange_bytes


class TestResetAndSnapshot:
    def test_reset_clears_tile_state(self, profiler):
        _superstep(profiler, "a", [0], [10.0])
        profiler.reset()
        tiles = profiler.report().tiles
        assert tiles.supersteps == 0
        assert tiles.vertex_cycles == 0.0
        assert len(tiles.series) == 0

    def test_snapshot_is_immutable(self, profiler):
        _superstep(profiler, "a", [0], [10.0])
        tiles = profiler.report().tiles
        _superstep(profiler, "a", [0], [10.0])
        assert tiles.supersteps == 1
        assert tiles.tile_cycles[0] == 10.0

    def test_format_table_renders(self, profiler):
        _superstep(profiler, "a", [0, 1], [10.0, 20.0])
        table = profiler.report().tiles.format_table()
        assert "straggler supersteps" in table
        assert "2 tile(s) used" in table
