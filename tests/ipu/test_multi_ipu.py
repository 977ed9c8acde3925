"""Tests for multi-IPU systems (§III: the exchange fabric spans chips)."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.core.solver import HunIPUSolver
from repro.ipu.engine import Engine
from repro.ipu.graph import ComputeGraph
from repro.ipu.mapping import TileMapping
from repro.ipu.oplib import VecReduce
from repro.ipu.programs import Copy, Execute
from repro.ipu.spec import IPUSpec
from repro.lap.problem import LAPInstance


class TestSpec:
    def test_total_tiles_scales_with_chips(self):
        spec = IPUSpec.m2000(num_ipus=4)
        assert spec.num_tiles == 1472
        assert spec.total_tiles == 4 * 1472
        assert spec.total_threads == 4 * 8832

    def test_ipu_of(self):
        spec = IPUSpec(num_tiles=10, num_ipus=3)
        assert spec.ipu_of(0) == 0
        assert spec.ipu_of(9) == 0
        assert spec.ipu_of(10) == 1
        assert spec.ipu_of(29) == 2

    def test_ipu_of_range_checked(self):
        spec = IPUSpec(num_tiles=10, num_ipus=2)
        with pytest.raises(ValueError):
            spec.ipu_of(20)

    def test_rejects_zero_ipus(self):
        with pytest.raises(ValueError):
            IPUSpec(num_ipus=0)

    def test_inter_ipu_exchange_slower(self):
        spec = IPUSpec.mk2()
        on_chip = spec.exchange_seconds(1_000_000)
        cross_chip = spec.exchange_seconds(0, inter_ipu_bytes=1_000_000)
        assert cross_chip > on_chip

    def test_exchange_overlaps_on_and_cross_chip(self):
        spec = IPUSpec.mk2()
        both = spec.exchange_seconds(1_000_000, inter_ipu_bytes=1_000_000)
        cross_only = spec.exchange_seconds(0, inter_ipu_bytes=1_000_000)
        assert both == pytest.approx(cross_only)  # slower transfer dominates


class TestExchangeSplit:
    def _two_chip_copy(self):
        spec = IPUSpec.toy(num_tiles=2, num_ipus=2)  # tiles 0,1 | 2,3
        graph = ComputeGraph(spec)
        src = graph.add_tensor(
            "src", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        dst = graph.add_tensor(
            "dst", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=2)
        )
        return spec, graph, src, dst

    def test_copy_split_counts_cross_chip_bytes(self):
        spec, graph, src, dst = self._two_chip_copy()
        copy = Copy(src, dst)
        total, inter = copy.exchange_bytes_split(spec.num_tiles)
        assert total == 16
        assert inter == 16

    def test_same_chip_copy_has_no_inter_bytes(self):
        spec = IPUSpec.toy(num_tiles=2, num_ipus=2)
        graph = ComputeGraph(spec)
        src = graph.add_tensor(
            "src", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=0)
        )
        dst = graph.add_tensor(
            "dst", (4,), np.int32, mapping=TileMapping.single_tile(4, tile=1)
        )
        total, inter = Copy(src, dst).exchange_bytes_split(spec.num_tiles)
        assert total == 16
        assert inter == 0

    def test_vertex_split(self):
        spec = IPUSpec.toy(num_tiles=2, num_ipus=2)
        graph = ComputeGraph(spec)
        data = graph.add_tensor(
            "data",
            (4,),
            np.int32,
            # Half on tile 1 (chip 0), half on tile 2 (chip 1).
            mapping=TileMapping.linear_segments(4, 2, [1, 2]),
        )
        out = graph.add_tensor(
            "out", (1,), np.int32, mapping=TileMapping.single_tile(1, tile=0)
        )
        compute_set = graph.add_compute_set("reduce")
        compute_set.add_vertex(
            VecReduce("sum"),
            0,
            {"data": ComputeGraph.full(data), "out": ComputeGraph.full(out)},
        )
        (vertex,) = compute_set.vertices
        total, inter = vertex.exchange_bytes_split(spec.num_tiles)
        assert total == 16  # both halves are remote to tile 0
        assert inter == 8  # only the tile-2 half crosses chips

    def test_profiler_reports_inter_bytes(self):
        spec, graph, src, dst = self._two_chip_copy()
        report = Engine(graph, Copy(src, dst)).run()
        assert report.inter_ipu_bytes == 16
        assert report.exchange_bytes == 16


class TestMultiIPUSolver:
    def test_solver_correct_across_chips(self, rng):
        """HunIPU spread over two chips still reaches the optimum."""
        spec = IPUSpec.toy(num_tiles=3, num_ipus=2)  # 6 tiles over 2 chips
        solver = HunIPUSolver(spec=spec)
        costs = rng.uniform(1, 60, (12, 12))
        result = solver.solve(LAPInstance(costs))
        rows, cols = linear_sum_assignment(costs)
        assert result.total_cost == pytest.approx(
            float(costs[rows, cols].sum()), abs=1e-7
        )
        # Rows actually landed on both chips.
        assert solver.compiled_for(12).plan.num_row_tiles == 6

    def test_cross_chip_traffic_charged(self, rng):
        spec = IPUSpec.toy(num_tiles=3, num_ipus=2)
        solver = HunIPUSolver(spec=spec)
        costs = rng.uniform(1, 60, (12, 12))
        result = solver.solve(LAPInstance(costs))
        profile = result.stats["profile"]
        assert profile.inter_ipu_bytes > 0

    def test_two_chips_slower_than_one_at_same_parallelism(self, rng):
        """Same tile count, but half the tiles across IPU-Links: the
        broadcast-heavy steps pay the slower fabric."""
        costs = rng.uniform(1, 120, (24, 24))
        one_chip = HunIPUSolver(spec=IPUSpec.toy(num_tiles=6, num_ipus=1))
        two_chips = HunIPUSolver(spec=IPUSpec.toy(num_tiles=3, num_ipus=2))
        result_one = one_chip.solve(LAPInstance(costs))
        result_two = two_chips.solve(LAPInstance(costs))
        assert np.array_equal(result_one.assignment, result_two.assignment)
        assert result_two.device_time_s > result_one.device_time_s

    def test_multi_ipu_extends_capacity(self):
        """A size that busts one toy chip's memory compiles on four."""
        small = IPUSpec(num_tiles=4, tile_memory_bytes=8 * 1024)
        large = IPUSpec(num_tiles=4, tile_memory_bytes=8 * 1024, num_ipus=4)
        n = 64  # slack+compress = 48 KiB: 12 KiB/tile on 4 tiles, 3 on 16
        from repro.errors import TileMemoryError

        with pytest.raises(TileMemoryError):
            HunIPUSolver(spec=small).compiled_for(n)
        HunIPUSolver(spec=large).compiled_for(n)  # fits across 16 tiles
